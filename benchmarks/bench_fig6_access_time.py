"""Regenerate Figure 6 (BTB access times)."""

from repro.harness.experiments import fig6


def test_fig6():
    result = fig6()
    print()
    print(result)
    data = result.data
    for entries in (128, 256):
        ratio = data[f"{entries}-4w"] / data[f"{entries}-1w"]
        assert 1.25 <= ratio <= 1.45  # "30 to 40% longer" (S6.3)
