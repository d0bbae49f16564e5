"""Regenerate Figure 4 (NLS-cache vs NLS-table sizes, average BEP)."""

from repro.harness.experiments import SPECS


def test_fig4(bench_instructions):
    result = SPECS["fig4"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    data = result.data
    # the NLS-table outperforms the equal-cost NLS-cache (S6.1):
    # 512-table @8K, 1024-table @16K, 2048-table @32K
    for kb, entries in ((8, 512), (16, 1024), (32, 2048)):
        cache_label = f"{kb}K 1-way"
        assert (
            data[f"nls-table-{entries}"][cache_label]
            < data["nls-cache"][cache_label]
        ), cache_label
    # 512 -> 1024 helps more than 1024 -> 2048 (S6.1)
    label = "16K 1-way"
    first = data["nls-table-512"][label] - data["nls-table-1024"][label]
    second = data["nls-table-1024"][label] - data["nls-table-2048"][label]
    assert second < first
