"""Regenerate Figure 8 (cycles per instruction)."""

from repro.harness.experiments import SPECS


def test_fig8(bench_instructions):
    result = SPECS["fig8"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    data = result.data
    for cache_label, cpis in data.items():
        for name, cpi in cpis.items():
            assert cpi >= 1.0, (cache_label, name)
        # the NLS-table at least matches the equal-cost 128 direct BTB
        assert cpis["1024 NLS-table"] <= cpis["128 Direct BTB"] + 0.005, cache_label
    # CPI falls with cache size for every variant (5-cycle miss penalty)
    for name in data["8K direct"]:
        assert data["32K direct"][name] < data["8K direct"][name]
