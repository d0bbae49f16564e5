"""Regenerate Figure 6 (BTB access times)."""

from repro.harness.experiments import SPECS


def test_fig6():
    result = SPECS["fig6"].plan().run()
    print()
    print(result)
    data = result.data
    for entries in (128, 256):
        ratio = data[f"{entries}-4w"] / data[f"{entries}-1w"]
        assert 1.25 <= ratio <= 1.45  # "30 to 40% longer" (S6.3)
