"""One benchmark run of one workload, in a fresh process.

``bench/run.py`` starts this file once per run and drives it with one
line at a time over stdin/stdout::

    run     -> "ready"      set-up finished: imports and plans built,
                            or the service answering /readyz
    run.py  -> "go" | "quit"
    run     -> "start"      host calibrated, the timed region begins
    run     -> "done"       the timed region finished
    run.py  -> "continue"   after its last /proc sample of the tree
    run     writes its JSON record to --record and exits 0

The host calibration (:func:`calibrate`) times a fixed NumPy + Python
kernel right before and right after the timed region; ``run.py``
divides every time of the run by it (see its docstring).

Everything the program prints goes to stderr, so stdout carries only
these lines.  After the timed region the run checks its own outputs
(quarantined cells, reference-engine cross-check, trace identity of
ingested inputs, cold/warm job twins); ``bench/check.py`` holds the
checks and ``run.py`` applies the gates that need the committed digests
or other workloads' records.

Every workload simulates the same cells at every seed, over the
programs' calibrated traces (the ones the figures are made from):
per-seed traces change the amount of work too much (the quartile
spread of doduc's event count over ten seeds is 17%) for a regression
bound to hold.  The seed orders the service jobs, picks their warm
resubmissions and picks the cells of the reference-engine cross-check.

``--prepare-ingest`` writes the two external trace files that
``ingest-replay`` ingests, once, before any timing.
"""

from __future__ import annotations

import argparse
import gzip
import json
import lzma
import os
import pickle
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import replace
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
import spans as spans_module  # noqa: E402

WORKLOADS = (
    "paper-sweep",
    "paper-sweep-pool",
    "server-replay",
    "ingest-replay",
    "service-mix",
)

#: the paper programs of the fig4/fig5/fig8 sweep; li is left out
#: because with it the serial sweep overran 30 s on the 2-core host
PAPER_PROGRAMS = ("doduc", "gcc")
PAPER_EXPERIMENTS = ("fig4", "fig5", "fig8")
SERVER_PROGRAMS = ("server-frontend", "server-leaf")
#: (file name, source program) of the ingest-replay inputs
INGEST_INPUTS = (("gcc.cbp.gz", "gcc"), ("server-leaf.bt.xz", "server-leaf"))
#: the host has 2 cores: pool workers and service clients stay at 2
POOL_WORKERS = 2
CLIENTS = 2
SERVICE_PROGRAMS = ("li", "doduc")
SERVICE_INSTRUCTIONS = 600_000
SERVICE_COLD_JOBS = 100
#: --smoke: every workload at tiny budgets (the test suite's run)
SMOKE_INSTRUCTIONS = 20_000
SMOKE_COLD_JOBS = 10


def calibrate() -> float:
    """Host speed probe: the best of five timings of a fixed kernel (a
    stable argsort of 1M integers plus a 400k-step Python loop) that
    uses nothing from ``repro``, so no change to the repository can
    move it."""
    import numpy as np

    keys = np.random.default_rng(12345).integers(0, 1 << 40, 1_000_000)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        np.argsort(keys, kind="stable")
        total = 0
        for step in range(400_000):
            total += step & 7
        best = min(best, time.perf_counter() - started)
    return best


def service_configs():
    """The 126 fig-style configurations service jobs draw from:
    14 front-ends x {8,16,32}K x {1,2,4}-way instruction caches."""
    from repro.harness.config import ArchitectureConfig

    frontends = (
        {"frontend": "nls-table", "entries": 512},
        {"frontend": "nls-table", "entries": 1024},
        {"frontend": "nls-table", "entries": 2048},
        {"frontend": "nls-cache", "predictors_per_line": 1},
        {"frontend": "nls-cache", "predictors_per_line": 2},
        {"frontend": "johnson"},
        {"frontend": "btb", "entries": 128, "btb_assoc": 1},
        {"frontend": "btb", "entries": 128, "btb_assoc": 4},
        {"frontend": "btb", "entries": 256, "btb_assoc": 1},
        {"frontend": "btb", "entries": 256, "btb_assoc": 4},
        {"frontend": "coupled-btb", "entries": 128, "btb_assoc": 4},
        {"frontend": "coupled-btb", "entries": 256, "btb_assoc": 4},
        {"frontend": "nls-cache", "nls_cache_policy": "lru"},
        {"frontend": "fall-through"},
    )
    return [
        ArchitectureConfig(cache_kb=kb, cache_assoc=assoc, **frontend)
        for frontend in frontends
        for kb in (8, 16, 32)
        for assoc in (1, 2, 4)
    ]


# ---------------------------------------------------------------------------
# ingest inputs
# ---------------------------------------------------------------------------


def input_dir(work_root: str, smoke: bool) -> str:
    """Where the ingest inputs live."""
    return os.path.join(work_root, "inputs", "smoke" if smoke else "full")


def prepare_ingest(work_root: str, smoke: bool) -> str:
    """Write the gzip CBP-text gcc trace and the xz ChampSim-binary
    server-leaf trace (skipped when already written), plus
    ``inputs.json`` naming each file's source trace and the external
    key its content must ingest to."""
    target = input_dir(work_root, smoke)
    if os.path.exists(os.path.join(target, "inputs.json")):
        return target
    from repro.workloads.corpus import generate_trace, trace_key
    from repro.workloads.formats import cbp, champsim
    from repro.workloads.ingest import external_name

    staging = f"{target}.{os.getpid()}.tmp"
    shutil.rmtree(staging, ignore_errors=True)
    os.makedirs(staging)
    budget = SMOKE_INSTRUCTIONS if smoke else None
    inputs = {}
    for filename, program in INGEST_INPUTS:
        trace = generate_trace(program, instructions=budget)
        plain = os.path.join(staging, filename.rsplit(".", 1)[0])
        if filename.endswith(".gz"):
            cbp.write(trace, plain)
            opener = gzip.open(os.path.join(staging, filename), "wb")
        else:
            champsim.write(trace, plain)
            opener = lzma.open(os.path.join(staging, filename), "wb", preset=1)
        with open(plain, "rb") as source, opener as sink:
            shutil.copyfileobj(source, sink)
        os.remove(plain)
        inputs[filename] = {
            "program": program,
            "trace_key": list(trace_key(program, instructions=budget)),
            "external": external_name(trace),
        }
    with open(os.path.join(staging, "inputs.json"), "w", encoding="utf-8") as handle:
        json.dump(inputs, handle, indent=2, sort_keys=True)
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)
    return target


# ---------------------------------------------------------------------------
# sweep workloads (paper-sweep, paper-sweep-pool, server-replay, ingest-replay)
# ---------------------------------------------------------------------------


class SweepRun:
    """A deduplicated ``run_plans`` sweep on the fast engine."""

    def __init__(self, workload: str, seed: int, smoke: bool, work_dir: str,
                 work_root: str) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.work_root = work_root
        self.budget = SMOKE_INSTRUCTIONS if smoke else None
        self.info: Dict[str, Any] = {"finish_s": 0.0}
        self.reports: Dict[Any, Any] = {}
        self.plan = None
        self.inputs: Dict[str, Dict[str, Any]] = {}
        self.names: List[str] = []

    def setup(self) -> None:
        from repro.harness.experiments import SPECS
        from repro.harness.spec import with_engine

        started = time.perf_counter()
        if self.workload == "ingest-replay":
            from repro.workloads.ingest import EXTERNAL_DIR_ENV_VAR

            directory = input_dir(self.work_root, self.smoke)
            with open(os.path.join(directory, "inputs.json"), encoding="utf-8") as handle:
                self.inputs = json.load(handle)
            self.paths = [
                os.path.join(directory, filename) for filename, _ in INGEST_INPUTS
            ]
            self.store_dir = os.path.join(self.work_dir, "external")
            os.makedirs(self.store_dir)
            os.environ[EXTERNAL_DIR_ENV_VAR] = self.store_dir
            self.plans = None
        elif self.workload == "server-replay":
            self.plans = with_engine(
                [SPECS["replay"].plan(programs=SERVER_PROGRAMS, instructions=self.budget)],
                "fast",
            )
        else:
            self.plans = with_engine(
                [
                    SPECS[name].plan(programs=PAPER_PROGRAMS, instructions=self.budget)
                    for name in PAPER_EXPERIMENTS
                ],
                "fast",
            )
        self.info["plan_s"] = time.perf_counter() - started

    def _capturing(self, plan):
        """*plan* with a renderer that keeps the report map and times
        itself (the ``harness.finish_s`` layer metric)."""
        finish = plan.finish

        def wrapper(reports):
            self.reports.update(reports)
            started = time.perf_counter()
            try:
                return finish(reports)
            finally:
                self.info["finish_s"] += time.perf_counter() - started

        return replace(plan, finish=wrapper)

    def run(self) -> None:
        from repro.harness.spec import run_plans

        plans = self.plans
        if self.workload == "ingest-replay":
            from repro.harness.experiments import SPECS
            from repro.harness.spec import with_engine
            from repro.workloads.ingest import ingest_and_store

            self.names = [
                ingest_and_store(path, directory=self.store_dir)[1]
                for path in self.paths
            ]
            started = time.perf_counter()
            plans = with_engine([SPECS["replay"].plan(programs=self.names)], "fast")
            self.info["plan_s"] = time.perf_counter() - started
        backend = "process" if self.workload == "paper-sweep-pool" else "serial"
        _, self.plan = run_plans(
            [self._capturing(plan) for plan in plans],
            backend=backend,
            jobs=POOL_WORKERS if backend == "process" else None,
        )

    def finish(self, wall_s: float) -> Dict[str, Any]:
        """Post-timing measurements and the run's own checks."""
        from repro.workloads.corpus import generate_trace

        cells = list(self.plan.requests)
        reports = {cell: self.reports[cell] for cell in cells if cell in self.reports}
        failures = [
            f"{self.workload}: cell {check.describe_cell(cell)} quarantined"
            for cell in self.plan.failures
        ]
        failures += [
            f"{self.workload}: cell {check.describe_cell(cell)} missing its report"
            for cell in cells
            if cell not in reports and cell not in self.plan.failures
        ]
        if self.workload == "ingest-replay":
            expected = sorted(entry["external"] for entry in self.inputs.values())
            if sorted(self.names) != expected:
                failures.append(
                    f"ingest-replay: ingested keys {sorted(self.names)} differ "
                    f"from the source traces' keys {expected}"
                )
        sources = {
            entry["external"]: entry["trace_key"] for entry in self.inputs.values()
        }
        instructions: Dict[Any, int] = {}
        for cell in cells:
            key = cell.resolved_trace_key()
            if key not in instructions:
                instructions[key] = generate_trace(
                    cell.program,
                    instructions=cell.instructions,
                    seed=cell.seed,
                    layout=cell.layout,
                ).n_instructions
        failures += check.reference_crosscheck(
            self.workload, self.seed, reports, sources
        )
        return {
            "attempted": len(cells),
            "failures": failures,
            "sim_instructions": sum(
                instructions[cell.resolved_trace_key()] for cell in cells
            ),
            "digest": check.digest(
                (check.cell_key(cell), check.report_dict(report))
                for cell, report in reports.items()
            ),
            "comparable": check.comparable(reports, sources),
            "info": {
                **self.info,
                "ipc_bytes": len(pickle.dumps(list(reports.values()))),
            },
        }

    def close(self) -> None:
        """Nothing outlives a sweep run."""


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------


def _http(url: str, payload: Optional[Dict[str, Any]] = None) -> Any:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url,
        data=data,
        headers={"Content-Type": "application/json"},
        method="GET" if payload is None else "POST",
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


#: events after which a job's stream ends
TERMINAL_EVENTS = ("job-completed", "job-failed", "job-cancelled", "job-suspended")
#: reconnects a client makes to a stream that closed before its job ended
STREAM_RESUMES = 3


def run_job(url: str, payload: Dict[str, Any], kind: str) -> Dict[str, Any]:
    """Submit one job, stream its events to the terminal one, fetch
    its result; returns the client-side record.

    A stream that closes before the terminal event is re-attached with
    ``?from=N``, as the API allows.  The service closes a stream early
    when the job turns terminal between the stream's last read of the
    log and its check of the job state, so ``resumes`` counts how often
    that happened."""
    record: Dict[str, Any] = {"kind": kind, "payload": payload, "ok": False, "resumes": 0}
    started = time.perf_counter()
    try:
        job_id = _http(f"{url}/api/v1/jobs", payload)["job_id"]
        record["ack_ms"] = (time.perf_counter() - started) * 1000.0
        events: List[Dict[str, Any]] = []
        while True:
            with urllib.request.urlopen(
                f"{url}/api/v1/jobs/{job_id}/events?from={len(events)}", timeout=120
            ) as response:
                for line in response:
                    if line.strip():
                        events.append(json.loads(line))
                        if events[-1]["event"] in TERMINAL_EVENTS:
                            record["latency_ms"] = (time.perf_counter() - started) * 1000.0
            if "latency_ms" in record or record["resumes"] == STREAM_RESUMES:
                break
            record["resumes"] += 1
        fetched = time.perf_counter()
        result = _http(f"{url}/api/v1/jobs/{job_id}/result")
        record["result_ms"] = (time.perf_counter() - fetched) * 1000.0
    except Exception as exc:  # a failed job is counted, not fatal
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    times = {}
    for event in events:
        times.setdefault(event["event"], event["t_s"])
        if event["event"] == "cell":
            times["last-cell"] = event["t_s"]
    final = events[-1] if events else {}
    record.update(
        ok=final.get("event") == "job-completed",
        final_event=final.get("event"),
        completed={
            key: final.get(key)
            for key in ("cells_unique", "store_hits", "store_misses", "cells_computed")
        },
        queue_wait_ms=(times.get("job-started", 0) - times.get("job-queued", 0)) * 1000.0,
        finalize_ms=(times.get("job-completed", 0) - times.get("last-cell", 0)) * 1000.0,
        cell=result["cells"][0]["cell"],
        report=result["cells"][0]["report"],
    )
    return record


def service_metrics(records: List[Dict[str, Any]], wall_s: float) -> Dict[str, float]:
    """Client-side service metrics of one run's job records."""
    percentile = spans_module.percentile

    def column(field: str, kind: Optional[str] = None) -> List[float]:
        return [
            record[field]
            for record in records
            if record["ok"] and (kind is None or record["kind"] == kind)
        ]

    completed = [record["completed"] for record in records if record["ok"]]
    requested = sum(done["cells_unique"] or 0 for done in completed)
    return {
        "cold_job_p50_ms": percentile(column("latency_ms", "cold"), 50),
        "cold_job_p90_ms": percentile(column("latency_ms", "cold"), 90),
        "warm_job_p50_ms": percentile(column("latency_ms", "warm"), 50),
        "service.warm_job_ms_p90": percentile(column("latency_ms", "warm"), 90),
        "jobs_per_s": len(records) / wall_s,
        "api.ack_ms_p50": percentile(column("ack_ms"), 50),
        "api.result_ms_p50": percentile(column("result_ms"), 50),
        "scheduler.queue_wait_ms_p50": percentile(column("queue_wait_ms"), 50),
        "scheduler.queue_wait_ms_p90": percentile(column("queue_wait_ms"), 90),
        "scheduler.finalize_ms_p50": percentile(column("finalize_ms"), 50),
        "store.hit_ratio": (
            sum(done["store_hits"] or 0 for done in completed) / requested
            if requested
            else 0.0
        ),
        "api.stream_resumes": sum(record["resumes"] for record in records),
    }


class ServiceRun:
    """A ``serve`` process driven over HTTP by a closed loop of
    :data:`CLIENTS` client threads, alternating cold and warm jobs."""

    def __init__(self, seed: int, smoke: bool, work_dir: str, trace: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.trace = trace
        self.spans_path = os.path.join(work_dir, "server-spans.jsonl")
        self.info: Dict[str, Any] = {}
        self.server: Optional[subprocess.Popen] = None
        self.records: List[Dict[str, Any]] = []

    def setup(self) -> None:
        from repro.harness.runner import RunRequest
        from repro.service.protocol import request_to_dict

        started = time.perf_counter()
        instructions = SMOKE_INSTRUCTIONS if self.smoke else SERVICE_INSTRUCTIONS
        cold_jobs = SMOKE_COLD_JOBS if self.smoke else SERVICE_COLD_JOBS
        candidates = [
            (config, program)
            for config in service_configs()
            for program in SERVICE_PROGRAMS
        ]
        # the same cells at every seed, so the work is the same; the
        # seed orders them, splits them between the clients and picks
        # the warm resubmissions
        chosen = random.Random("service-mix").sample(candidates, cold_jobs)
        random.Random(f"service-mix:{self.seed}").shuffle(chosen)
        self.cold = [
            {
                "cells": [
                    request_to_dict(
                        RunRequest(
                            config=config, program=program, instructions=instructions
                        )
                    )
                ],
                "engine": "fast",
            }
            for config, program in chosen
        ]
        self.info["plan_s"] = time.perf_counter() - started
        store = os.path.join(self.work_dir, "store.sqlite")
        serve_args = ["serve", "--port", "0", "--store", store]
        if self.trace:
            command = [
                sys.executable,
                os.path.join(BENCH_DIR, "serve_traced.py"),
                "--spans",
                self.spans_path,
                *serve_args,
            ]
        else:
            command = [sys.executable, "-m", "repro.harness", *serve_args]
        self.server = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, cwd=self.work_dir
        )
        url = None
        for line in self.server.stdout:
            if line.startswith("serving on "):
                url = line.split("serving on ", 1)[1].strip()
                break
        if url is None:
            raise RuntimeError("serve exited before reporting its URL")
        self.url = url
        deadline = time.monotonic() + 60
        while True:
            try:
                if _http(f"{url}/readyz").get("ready"):
                    break
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError(f"serve at {url} never became ready")
            time.sleep(0.02)

    def _client(self, jobs: List[Dict[str, Any]], rng: random.Random,
                sink: List[Dict[str, Any]]) -> None:
        completed: List[Dict[str, Any]] = []
        for payload in jobs:
            cold = run_job(self.url, payload, "cold")
            sink.append(cold)
            if cold["ok"]:
                completed.append(cold)
            twin = rng.choice(completed or [cold])
            warm = run_job(self.url, twin["payload"], "warm")
            warm["twin_report"] = twin.get("report")
            sink.append(warm)

    def run(self) -> None:
        sinks: List[List[Dict[str, Any]]] = [[] for _ in range(CLIENTS)]
        threads = [
            threading.Thread(
                target=self._client,
                args=(
                    self.cold[index::CLIENTS],
                    random.Random(f"service-mix:{self.seed}:client{index}"),
                    sinks[index],
                ),
                name=f"bench-client-{index}",
            )
            for index in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.records = [record for sink in sinks for record in sink]

    def stop_server(self) -> None:
        """SIGINT the server and wait for it (its spans are dumped on
        the way out when traced)."""
        if self.server is None:
            return
        if self.server.poll() is None:
            self.server.send_signal(signal.SIGINT)
            try:
                self.server.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
        self.server.stdout.close()
        self.server = None

    def finish(self, wall_s: float) -> Dict[str, Any]:
        from repro.service.protocol import request_from_dict
        from repro.workloads.corpus import generate_trace

        self.stop_server()
        failures = check.service_failures(self.records)
        cold = [record for record in self.records if record["kind"] == "cold" and record["ok"]]
        instructions = {}
        for record in cold:
            request = request_from_dict(record["payload"]["cells"][0])
            if request.program not in instructions:
                instructions[request.program] = generate_trace(
                    request.program, instructions=request.instructions, seed=request.seed
                ).n_instructions
        failures += check.service_crosscheck(self.seed, cold)
        computed = [record for record in cold if record["completed"]["cells_computed"]]
        return {
            "attempted": len(self.records),
            "failures": failures,
            "sim_instructions": sum(
                instructions[request_from_dict(record["payload"]["cells"][0]).program]
                for record in computed
            ),
            "digest": check.digest(
                (record["cell"], check.strip_provenance(record["report"]))
                for record in cold
            ),
            "comparable": {},
            "info": self.info,
            "service": service_metrics(self.records, wall_s),
        }

    def close(self) -> None:
        """Stop the server if a run ends early."""
        self.stop_server()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--work-root", required=True,
                        help="the benchmark's output directory")
    parser.add_argument("--work-dir", help="this run's private scratch directory")
    parser.add_argument("--record", help="where to write the run record")
    parser.add_argument("--chrome", help="traced run: Chrome-trace output path")
    parser.add_argument("--prepare-ingest", action="store_true")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.prepare_ingest:
        prepare_ingest(args.work_root, args.smoke)
        return 0
    # run.py reads protocol lines on stdout; everything else the
    # program prints goes to stderr
    protocol = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    recorder = None
    uninstall = None
    if args.trace:
        recorder = spans_module.Recorder(spill_dir=args.work_dir)
        uninstall = spans_module.install(recorder)
    if args.workload == "service-mix":
        run: Any = ServiceRun(args.seed, args.smoke, args.work_dir, args.trace)
    else:
        run = SweepRun(args.workload, args.seed, args.smoke, args.work_dir, args.work_root)
    try:
        run.setup()
        protocol.write("ready\n")
        if sys.stdin.readline().strip() != "go":
            return 0
        calibration = [calibrate()]
        protocol.write("start\n")
        if recorder is not None:
            recorder.enabled = True
        started = time.perf_counter()
        run.run()
        wall = time.perf_counter() - started
        if recorder is not None:
            recorder.enabled = False
            uninstall()
        protocol.write("done\n")
        sys.stdin.readline()
        calibration.append(calibrate())
        record = run.finish(wall)
        record.update(
            workload=args.workload,
            seed=args.seed,
            smoke=args.smoke,
            wall_s=wall,
            calibration_s=calibration,
        )
        if recorder is not None:
            spans = recorder.spans + spans_module.load_spill(args.work_dir)
            if args.workload == "service-mix":
                spans += spans_module.load(run.spans_path)
            with open(args.chrome, "w", encoding="utf-8") as handle:
                json.dump(spans_module.chrome_trace(spans), handle)
            record["layer"] = spans_module.layer_metrics(spans, os.getpid(), wall)
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        return 0
    finally:
        run.close()


if __name__ == "__main__":
    sys.exit(main())
