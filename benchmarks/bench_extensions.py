"""Claim checks for the extension experiments (coupled BTB, way
prediction, multi-issue) and the analysis tools."""

from repro.analysis.sensitivity import penalty_sensitivity
from repro.harness.experiments import SPECS


def test_coupled_vs_decoupled(bench_instructions):
    result = SPECS["coupled"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    # the decoupled design wins at the 128-entry size, where capacity
    # misses leave many branches without in-entry counters (S2)
    assert (
        result.data["decoupled 128 BTB + gshare"]
        < result.data["coupled 128 BTB (2-bit in entry)"]
    )


def test_way_prediction(bench_instructions):
    result = SPECS["way-prediction"].plan(instructions=bench_instructions).run()
    print()
    print(result)
    for program, accuracy in result.data.items():
        assert accuracy > 0.5, program


def test_multi_issue(bench_instructions):
    result = SPECS["multi-issue"].plan(
        instructions=bench_instructions, widths=(1, 4, 8)
    ).run()
    print()
    print(result)
    nls = result.data["1024 NLS-table"]
    btb = result.data["128 BTB"]
    assert nls[8] > btb[8]  # the NLS advantage survives wide issue (S8)


def test_penalty_sensitivity(bench_instructions):
    points = penalty_sensitivity(
        "gcc",
        mispredict_penalties=(2.0, 4.0, 12.0),
        miss_penalties=(5.0, 20.0),
        instructions=bench_instructions,
    )
    from repro.analysis.sensitivity import format_sensitivity

    print()
    print(format_sensitivity(points, title="NLS vs BTB under deeper pipelines"))
    assert all(point.bep_advantage > 0 for point in points)
