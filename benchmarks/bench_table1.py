"""Regenerate Table 1 (measured trace attributes)."""

from repro.harness.experiments import table1


def test_table1(bench_instructions):
    result = table1(instructions=bench_instructions)
    print()
    print(result)
    attributes = result.data["attributes"]
    # Table 1's program character must survive scaling
    assert attributes["doduc"].pct_breaks < attributes["gcc"].pct_breaks
    assert attributes["espresso"].pct_cbr > 85.0
    assert attributes["gcc"].q100 == max(a.q100 for a in attributes.values())
