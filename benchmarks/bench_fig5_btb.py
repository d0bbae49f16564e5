"""Regenerate Figure 5 (BTBs vs the 1024-entry NLS-table, average BEP)."""

from repro.harness.experiments import fig5


def test_fig5(bench_instructions):
    result = fig5(instructions=bench_instructions)
    print()
    print(result)
    data = result.data
    # 1024 NLS-table beats the equal-cost 128-entry direct BTB
    assert data["nls-1024@16K-1w"] < data["btb-128-1w"]
    # and is competitive with the double-cost 256-entry BTB
    assert data["nls-1024@16K-1w"] < data["btb-256-1w"] * 1.10
    # NLS improves with cache size; BTBs cannot (same trace, no cache terms)
    assert data["nls-1024@32K-1w"] < data["nls-1024@8K-1w"]
