"""Regenerate the S4.1/S7 ablation tables."""

from repro.harness.experiments import (
    ablation_direction,
    ablation_layout,
    ablation_nls_cache,
)


def test_nls_cache_design_space(bench_instructions):
    result = ablation_nls_cache(instructions=bench_instructions)
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
    result = ablation_direction(instructions=bench_instructions)
    print()
    print(result)
    data = result.data
    # every dynamic predictor beats every static scheme
    dynamic = min(data[name] for name in ("gshare", "pan", "gag", "bimodal"))
    static = min(data[name] for name in ("taken", "not-taken", "btfnt"))
    assert dynamic < static


def test_layout(bench_instructions):
    result = ablation_layout(instructions=bench_instructions)
    print()
    print(result)
