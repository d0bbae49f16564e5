"""Regenerate Figure 3 (RBE implementation costs)."""

from repro.harness.experiments import fig3


def test_fig3():
    result = fig3()
    print()
    print(result)
    data = result.data
    # cost equivalences the paper's comparisons rest on
    assert 0.75 < data["nls-table-1024@16K"] / data["btb-128-1w"] < 1.25
    assert 1.6 < data["btb-256-1w"] / data["nls-table-1024@16K"] < 2.4
    assert data["nls-cache@8K"] == data["nls-table-512@8K"]
    # linear vs logarithmic growth
    assert data["nls-cache@64K"] > 4 * data["nls-cache@8K"]
    assert data["nls-table-1024@64K"] < 1.5 * data["nls-table-1024@8K"]
