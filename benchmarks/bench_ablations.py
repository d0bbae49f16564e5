"""Regenerate the S4.1/S7 ablation tables."""

from repro.harness.experiments import SPECS


def test_nls_cache_design_space(bench_instructions):
    result = SPECS["ablation-nls-cache"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    data = result.data
    # more predictors per line monotonically helps (partition policy)
    assert (
        data["NLS-cache 4/line partition"]
        <= data["NLS-cache 2/line partition"]
        <= data["NLS-cache 1/line partition"]
    )


def test_direction_predictors(bench_instructions):
    result = SPECS["ablation-direction"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    data = result.data
    # every dynamic predictor beats every static scheme
    dynamic = min(data[name] for name in ("gshare", "pan", "gag", "bimodal"))
    static = min(data[name] for name in ("taken", "not-taken", "btfnt"))
    assert dynamic < static


def test_layout(bench_instructions):
    result = SPECS["ablation-layout"].plan(instructions=bench_instructions).run()
    print()
    print(result)
