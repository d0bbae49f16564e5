"""Regenerate the S6.2 comparison against Johnson's coupled design."""

from repro.harness.experiments import johnson_comparison


def test_johnson(bench_instructions):
    result = johnson_comparison(instructions=bench_instructions)
    print()
    print(result)
    data = result.data
    nls = data["1024 NLS-table + gshare"]
    johnson = data["Johnson successor index (1-bit)"]
    assert nls < johnson  # decoupled two-level beats coupled one-bit
