"""Tests of the benchmark itself.

Run from the repository root::

    PYTHONPATH=src python -m pytest bench -q

The smoke run drives every workload end to end at tiny budgets (well
under a minute); the rest are unit tests of the correctness gate, the
span arithmetic and the compare tool.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import compare  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def _run_bench(out, *args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--out", str(out), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _metric_lines(stdout):
    """(workload, metric, value, unit) of every printed metric line."""
    rows = []
    for line in stdout.splitlines():
        if line.startswith(("#", "{")) or not line.strip():
            continue
        workload, metric, value, unit = line.split()[:4]
        rows.append((workload, metric, float(value), unit))
    return rows


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One untraced and one traced smoke run of every workload."""
    out = tmp_path_factory.mktemp("bench-smoke")
    result = _run_bench(out, "--smoke", "--repeats", "1", "--trace")
    assert result.returncode == 0, result.stdout + result.stderr
    return out, result.stdout


def test_smoke_run_is_correct(smoke):
    out, stdout = smoke
    final = json.loads(stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0
    assert final["attempted"] > 0
    results = json.load(open(os.path.join(out, "results.json"), encoding="utf-8"))
    assert results["failures"] == []
    assert set(results["workloads"]) == set(w["name"] for w in SPEC["workloads"])


def test_printed_metrics_match_benchmark_json(smoke):
    _, stdout = smoke
    rows = _metric_lines(stdout)
    assert rows
    for workload, metric, _, unit in rows:
        assert UNITS.get(metric) == unit, (workload, metric, unit)
    printed = {(workload, metric) for workload, metric, _, _ in rows}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in UNITS:
            assert (workload, metric) in printed, (workload, metric)


def test_traced_run_writes_perfetto_traces(smoke):
    out, _ = smoke
    for workload in (w["name"] for w in SPEC["workloads"]):
        with open(os.path.join(out, f"trace-{workload}.json"), encoding="utf-8") as handle:
            document = json.load(handle)
        events = document["traceEvents"]
        assert events and all(event["ph"] == "X" for event in events)
        assert min(event["ts"] for event in events) == 0


def test_paper_sweep_spans_cover_the_timed_region(smoke):
    out, _ = smoke
    results = json.load(open(os.path.join(out, "results.json"), encoding="utf-8"))
    layer = results["workloads"]["paper-sweep"]["per_layer"]
    assert layer["trace.span_coverage"]["value"] >= 0.9
    assert layer["runner.cells"]["value"] == 96
    assert layer["engine.icache_reuse_ratio"]["value"] == 0.5


def test_count_metrics_repeat_across_traced_runs(smoke, tmp_path):
    """Counts of a second traced run equal the first's, except those
    timing decides: two service jobs that start together on the same
    program both generate its trace, and one of them builds a second
    replay context."""
    out, _ = smoke
    first = json.load(open(os.path.join(out, "results.json"), encoding="utf-8"))
    result = _run_bench(
        tmp_path, "--smoke", "--repeats", "1", "--trace",
        "--workload", "paper-sweep", "service-mix",
    )
    assert result.returncode == 0, result.stdout + result.stderr
    second = json.load(open(os.path.join(tmp_path, "results.json"), encoding="utf-8"))
    for workload in ("paper-sweep", "service-mix"):
        for name, entry in second["workloads"][workload]["per_layer"].items():
            if entry["unit"] == "count" and name not in (
                "workloads.traces_generated",
                "engine.contexts_built",
            ):
                assert entry == first["workloads"][workload]["per_layer"][name], name


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _run_bench(
        tmp_path / "out", "--workload", "paper-sweep", "--seed", "1",
        "--seconds", "10", "--trace", "0", cwd=str(tmp_path), timeout=60,
    )
    assert result.returncode != 0
    assert not result.stdout.strip()


def _tiny_reports():
    from repro.harness.config import ArchitectureConfig
    from repro.harness.runner import RunRequest, run_request

    cells = [
        RunRequest(
            config=ArchitectureConfig(frontend=frontend, engine="fast"),
            program="li",
            instructions=5_000,
            seed=3,
        )
        for frontend in ("nls-table", "btb")
    ]
    return {cell: run_request(cell) for cell in cells}


def test_perturbed_report_fails_the_gates():
    reports = _tiny_reports()
    pairs = lambda rs: ((check.cell_key(c), check.report_dict(r)) for c, r in rs.items())
    pinned = check.digest(pairs(reports))
    victim = next(iter(reports))
    perturbed = dict(reports)
    perturbed[victim] = replace(reports[victim], misfetches=reports[victim].misfetches + 1)
    expected = {"digests": {"full": {"paper-sweep": pinned}, "smoke": {}}}
    record = {"workload": "paper-sweep", "smoke": False, "comparable": {}}
    assert check.gate([{**record, "digest": check.digest(pairs(reports))}], expected) == []
    failures = check.gate([{**record, "digest": check.digest(pairs(perturbed))}], expected)
    assert len(failures) == 1 and "does not match expected.json" in failures[0]
    assert check.reference_crosscheck("paper-sweep", 3, reports, {}) == []
    assert len(check.reference_crosscheck("paper-sweep", 3, perturbed, {})) == 1


def test_cross_run_gate_flags_disagreeing_cells():
    reports = _tiny_reports()
    victim = next(iter(reports))
    perturbed = dict(reports)
    perturbed[victim] = replace(reports[victim], mispredicts=reports[victim].mispredicts + 1)
    base = {"smoke": False, "digest": ""}
    expected = {"digests": {"full": {}, "smoke": {}}}
    same = [
        {**base, "workload": "paper-sweep", "comparable": check.comparable(reports, {})},
        {**base, "workload": "paper-sweep-pool", "comparable": check.comparable(reports, {})},
    ]
    assert check.gate(same, expected) == []
    differ = [same[0], {**same[1], "comparable": check.comparable(perturbed, {})}]
    assert len(check.gate(differ, expected)) == 1


def test_self_time_is_exact_on_nested_spans():
    def span(pid, ident, parent, start, end):
        return {"name": f"s{ident}", "pid": pid, "id": ident, "parent": parent,
                "tid": 1, "start": start, "end": end, "args": {}}

    tree = [
        span(1, 1, None, 0, 100),
        span(1, 2, 1, 10, 40),
        span(1, 3, 2, 15, 20),
        span(1, 4, 2, 25, 45),  # overhangs its parent: clipped to 40
        span(1, 5, 1, 50, 70),
        span(2, 1, None, 0, 30),  # same id in another process
        span(2, 2, 1, 5, 10),
    ]
    own = spans.self_times(tree)
    assert own[(1, 1)] == 100 - 30 - 20
    assert own[(1, 2)] == 30 - 5 - 15
    assert own[(1, 3)] == 5
    assert own[(1, 4)] == 20
    assert own[(2, 1)] == 25
    assert own[(2, 2)] == 5


def test_wrappers_nest_and_uninstall():
    from repro.fetch.fast_engine import FastEngine
    from repro.workloads import corpus

    originals = (FastEngine.run, corpus.generate_trace)
    recorder = spans.Recorder()
    uninstall = spans.install(recorder)
    try:
        recorder.enabled = True
        _tiny_reports()
    finally:
        uninstall()
    assert (FastEngine.run, corpus.generate_trace) == originals
    by_id = {span["id"]: span for span in recorder.spans}

    def ancestors(span):
        while span["parent"] is not None:
            span = by_id[span["parent"]]
            yield span["name"]

    icache = [span for span in recorder.spans if span["name"] == "engine.icache"]
    assert icache and all("engine.run" in ancestors(span) for span in icache)
    metrics = spans.layer_metrics(recorder.spans, os.getpid(), 1.0)
    assert metrics["runner.cells"] == 2
    assert metrics["engine.contexts_built"] == 2


def test_service_configs_are_126_fast_cells():
    configs = workloads.service_configs()
    assert len(set(configs)) == 126
    for config in configs:
        replace(config, engine="fast").build()


def test_compare_verdicts_and_claim_rule():
    assert compare.verdict([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "lower", 0.1) == "no change"
    assert compare.verdict([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", 0.1) == "worse"
    assert compare.verdict([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", 0.1) == "improved"
    assert compare.verdict([5.0, 10.0, 15.0], [10.0, 10.1, 10.2], "lower", 0.1) == "unresolved"
    parent = [10.0 + 0.01 * i for i in range(10)]
    assert compare.claim(parent, [9.0] * 10, "lower")["met"]
    assert not compare.claim(parent, [9.0] * 8 + [11.0] * 2, "lower")["met"]
    assert not compare.claim(parent[:9], [9.0] * 9, "lower")["met"]
