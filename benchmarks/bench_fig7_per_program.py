"""Regenerate Figure 7 (per-program BEP, ten configurations)."""

from repro.harness.experiments import SPECS


def test_fig7(bench_instructions):
    result = SPECS["fig7"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    data = result.data
    for program in ("gcc", "cfront", "groff"):
        btb = data[program]["128 Direct BTB"]
        nls = data[program]["1024 NLS-table, 16K Direct"]
        # branch-rich programs clearly gain from the NLS (S7)
        assert nls.bep < btb.bep, program
    # NLS BEP decreases with cache size for every program
    for program, reports in data.items():
        assert (
            reports["1024 NLS-table, 32K Direct"].bep
            <= reports["1024 NLS-table, 8K Direct"].bep + 0.02
        ), program
