#!/usr/bin/env python
"""CI chaos smoke: drive the CLI through injected faults end to end.

Arms a deterministic fault plan (see :mod:`repro.testing.faults`) with
one of everything — a killed worker, a hung cell, a corrupted cached
trace file, and a deterministically failing cell — then runs a real
sweep through ``python -m repro.harness`` with the resilience flags
and asserts the expected outcome: the sweep finishes, exactly the
targeted cell is quarantined in ``FAILURES.json``, and the exit status
is non-zero.

On a single-CPU runner the sweep degrades to the serial backend, where
the ``kill`` fault SIGKILLs the sweep process itself; the script then
re-runs the same command against the same ``--store`` — which is
precisely the crash-recovery path: every cell finished before the kill
is served from the store — and the durable fault-budget spool
guarantees the fault does not fire twice.

Run from the repository root (the CI chaos-smoke job does exactly
this)::

    PYTHONPATH=src python tests/chaos_smoke.py

Artifacts (fault plan, result store, FAILURES.json, CLI output)
land in ``./chaos-artifacts`` (override with ``CHAOS_SMOKE_DIR``) so
CI can upload them.
"""

import json
import os
import re
import shutil
import subprocess
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.service.store import ResultStore
from repro.testing.faults import FaultSpec, load_plan, plan_summary, write_plan
from repro.workloads import corpus

#: trace length: long enough to be a real sweep, short enough for CI
INSTRUCTIONS = 20_000

#: the deterministically failing cell the manifest must name
VICTIM_PROGRAM = "li"
VICTIM_CONFIG = "johnson-2pl*"


def fail(message: str) -> None:
    print(f"CHAOS-SMOKE FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    workdir = os.path.abspath(os.environ.get("CHAOS_SMOKE_DIR", "chaos-artifacts"))
    shutil.rmtree(workdir, ignore_errors=True)
    cache_dir = os.path.join(workdir, "trace-cache")
    checkpoint = os.path.join(workdir, "ckpt")
    store_path = os.path.join(checkpoint, "store.sqlite")
    os.makedirs(cache_dir, exist_ok=True)

    env = dict(os.environ, REPRO_EXTERNAL_TRACE_DIR=cache_dir)
    env.pop("REPRO_TRACE_SCALE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    os.environ.pop("REPRO_TRACE_SCALE", None)

    # 1. warm the on-disk trace cache so the corrupt fault has a victim
    os.environ[corpus.EXTERNAL_DIR_ENV_VAR] = cache_dir
    for program in ("li", "espresso"):
        corpus.generate_trace(program, instructions=INSTRUCTIONS)
    if not any(name.endswith(".npz") for name in os.listdir(cache_dir)):
        fail("trace cache warm-up produced no .npz files")

    # 2. arm one fault of every kind; budgets are durable across the
    # processes (and process deaths) of the whole smoke
    plan_path = write_plan(
        os.path.join(workdir, "faults.json"),
        [
            # fires twice on the same cell -> deterministic quarantine;
            # budget 4 covers a re-run after a serial crash
            FaultSpec(
                action="raise",
                program=VICTIM_PROGRAM,
                config=VICTIM_CONFIG,
                times=4,
                message="chaos-smoke deterministic failure",
            ),
            FaultSpec(
                action="hang",
                program="espresso",
                config="nls-table*",
                times=1,
                hang_s=120.0,
            ),
            FaultSpec(
                action="kill", program="espresso", config="nls-table*", times=1
            ),
            FaultSpec(
                action="corrupt", site="trace-file", program="li", times=1
            ),
        ],
    )

    # 3. run the sweep; on a serial (single-CPU) run the kill fault
    # takes the whole process down -> recover by re-running the same
    # command against the same store
    argv = [
        sys.executable,
        "-m",
        "repro.harness",
        "johnson",
        "--programs",
        "li",
        "espresso",
        "--instructions",
        str(INSTRUCTIONS),
        "--jobs",
        "2",
        "--max-retries",
        "2",
        "--cell-timeout",
        "10",
        "--store",
        store_path,
        "--out",
        checkpoint,
        "--faults",
        plan_path,
    ]
    proc = None
    for attempt in range(1, 4):
        print(f"--- sweep attempt {attempt}: {' '.join(argv)}")
        proc = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=540
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode >= 0:
            break
        print(f"--- sweep killed by signal {-proc.returncode}; re-running")
    else:
        fail("sweep still dying after 3 attempts")

    with open(os.path.join(workdir, "cli-output.txt"), "w") as handle:
        handle.write(proc.stdout + proc.stderr)

    # 4. assert the managed-failure contract
    if proc.returncode != 1:
        fail(f"expected exit status 1 (quarantine), got {proc.returncode}")
    if "QUARANTINED 1 cell" not in proc.stdout:
        fail("stdout does not announce the quarantine")
    if "Johnson" not in proc.stdout:
        fail("the surviving cells did not render the experiment")

    manifest_path = os.path.join(checkpoint, "FAILURES.json")
    if not os.path.exists(manifest_path):
        fail(f"missing quarantine manifest {manifest_path}")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest["count"] != 1:
        fail(f"expected exactly 1 quarantined cell, got {manifest['count']}")
    (entry,) = manifest["quarantined"]
    if entry["program"] != VICTIM_PROGRAM:
        fail(f"wrong quarantined program: {entry['program']}")
    if not entry["config"].startswith("johnson-2pl"):
        fail(f"wrong quarantined config: {entry['config']}")
    if entry["kind"] != "deterministic":
        fail(f"expected a deterministic quarantine, got {entry['kind']!r}")
    if entry["error_type"] != "FaultInjectedError":
        fail(f"wrong error type: {entry['error_type']}")

    # every healthy cell is durable in the store for the next re-run
    match = re.search(r"cells requested, (\d+) executed", proc.stdout)
    if match is None:
        fail("stdout does not report the plan's unique cell count")
    if not os.path.exists(store_path):
        fail(f"result store missing after the sweep: {store_path}")
    store = ResultStore(store_path)
    try:
        stored = store.stats()["entries"]
    finally:
        store.close()
    healthy = int(match.group(1)) - manifest["count"]
    if stored != healthy:
        fail(f"store holds {stored} cell(s), expected {healthy} healthy")

    # 5. every armed fault actually fired
    summary = plan_summary(load_plan(plan_path))
    for spec in summary:
        if spec["fired"] < 1:
            fail(f"fault never fired: {spec}")
    if summary[0]["fired"] < 2:
        fail(f"deterministic raise fired fewer than twice: {summary[0]}")

    print("chaos-smoke OK:")
    for spec in summary:
        print(
            f"  {spec['action']:<8} site={spec['site']:<10} "
            f"program={spec['program']:<10} fired {spec['fired']}/{spec['times']}"
        )
    print(f"  quarantined: {entry['config']} / {entry['program']} -> {manifest_path}")


if __name__ == "__main__":
    main()
