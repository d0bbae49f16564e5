#!/usr/bin/env python
"""CI service smoke: drive the simulation service end to end over HTTP.

Starts a real ``python -m repro.harness serve`` process on an
ephemeral port, submits the tier-1 smoke plan (the fig5 BTB ladder for
one program, fast engine) over HTTP, streams the NDJSON event feed to
completion, then resubmits the identical plan and asserts the
content-addressed result store served **every** cell — zero cells
re-simulated — via the dedup counters in the job manifest.  A fig4
job on the same trace then proves the replay context is retained
across jobs: ``/metrics`` still counts one context built.

Run from the repository root (the CI service-smoke job does exactly
this)::

    PYTHONPATH=src python tests/service_smoke.py

Artifacts (job manifests, result document, store statistics, server
log) land in ``./service-artifacts`` (override with
``SERVICE_SMOKE_DIR``) so CI can upload them.
"""

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request

ARTIFACT_DIR = os.environ.get("SERVICE_SMOKE_DIR", "service-artifacts")

#: the tier-1 smoke plan: one program's fig5 ladder, fast engine
SMOKE_JOB = {
    "experiment": "fig5",
    "programs": ["li"],
    "instructions": 20_000,
    "engine": "fast",
}

#: a different experiment on the same trace (li at 20k instructions)
REUSE_JOB = {**SMOKE_JOB, "experiment": "fig4"}


def fail(message: str) -> "None":
    """Print the failure and exit non-zero (CI turns this red)."""
    print(f"SERVICE SMOKE FAILED: {message}")
    sys.exit(1)


def get(url: str):
    """GET *url* and decode the JSON body."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read())


def post(url: str, payload):
    """POST JSON *payload* to *url* and decode the JSON body."""
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def stream(url: str):
    """Consume an NDJSON event stream to its end."""
    with urllib.request.urlopen(url, timeout=120) as response:
        return [json.loads(line) for line in response if line.strip()]


def write_artifact(name: str, payload) -> None:
    path = os.path.join(ARTIFACT_DIR, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    print(f"artifact -> {path}")


def start_server(store_path: str):
    """Launch ``serve`` on an ephemeral port; returns (process, url)."""
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.harness",
            "serve",
            "--port",
            "0",
            "--store",
            store_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    deadline = time.time() + 30
    url = None
    lines = []
    while time.time() < deadline:
        line = process.stdout.readline()
        if not line:
            break
        lines.append(line)
        if line.startswith("serving on "):
            url = line.split("serving on ", 1)[1].strip()
            break
    if url is None:
        process.kill()
        fail(f"server never reported its URL; output: {''.join(lines)}")
    wait_ready(url)
    return process, url


def wait_ready(url: str, timeout: float = 30.0) -> None:
    """Poll ``/readyz`` until the server answers ready — no sleeps."""
    deadline = time.time() + timeout
    while time.time() < deadline:
        try:
            body = get(f"{url}/readyz")
            if body.get("ready"):
                return
        except (urllib.error.URLError, OSError):
            pass
        time.sleep(0.1)
    fail(f"server never became ready at {url}/readyz")


def run_job(url: str, label: str, job=SMOKE_JOB):
    """Submit *job* (the smoke job by default), stream it to
    completion, return (manifest, result)."""
    submitted = post(f"{url}/api/v1/jobs", job)
    job_id = submitted["job_id"]
    print(f"{label}: submitted {job_id} (state {submitted['state']})")
    events = stream(f"{url}/api/v1/jobs/{job_id}/events")
    kinds = [event["event"] for event in events]
    if kinds[-1] != "job-completed":
        fail(f"{label}: stream ended on {kinds[-1]!r}, not job-completed")
    cell_events = [event for event in events if event["event"] == "cell"]
    print(
        f"{label}: streamed {len(events)} events "
        f"({len(cell_events)} cells) to completion"
    )
    manifest = get(f"{url}/api/v1/jobs/{job_id}/manifest")
    result = get(f"{url}/api/v1/jobs/{job_id}/result")
    write_artifact(f"job-manifest-{label}.json", manifest)
    return manifest, result


def main() -> int:
    os.makedirs(ARTIFACT_DIR, exist_ok=True)
    store_path = os.path.join(ARTIFACT_DIR, "store.sqlite")
    process, url = start_server(store_path)
    print(f"server up at {url}")
    try:
        health = get(f"{url}/healthz")
        if not health.get("ok"):
            fail(f"unhealthy server: {health}")

        first_manifest, first_result = run_job(url, "first")
        counters = first_manifest["counters"]
        if counters["store_hits"] != 0:
            fail(f"fresh store should have no hits: {counters}")
        if counters["cells_computed"] != counters["cells_unique"]:
            fail(f"first run should compute every cell: {counters}")

        second_manifest, second_result = run_job(url, "second")
        counters = second_manifest["counters"]
        if counters["store_hits"] != counters["cells_unique"]:
            fail(f"resubmission should be 100% store hits: {counters}")
        if counters["cells_computed"] != 0 or counters["store_misses"] != 0:
            fail(f"resubmission re-simulated cells: {counters}")

        first_bytes = {
            cell["cell"]: json.dumps(cell["report"], sort_keys=True)
            for cell in first_result["cells"]
        }
        for cell in second_result["cells"]:
            if json.dumps(cell["report"], sort_keys=True) != first_bytes.get(
                cell["cell"]
            ):
                fail(f"cell {cell['cell']} not byte-identical across jobs")

        stats = get(f"{url}/api/v1/store/stats")
        write_artifact("store-stats.json", stats)
        write_artifact("job-result.json", second_result)
        if stats["store"]["entries"] != counters["cells_unique"]:
            fail(f"store entry count mismatch: {stats['store']}")
        reuse_manifest, _ = run_job(url, "reuse", REUSE_JOB)
        if reuse_manifest["counters"]["cells_computed"] == 0:
            fail(f"fig4 job computed nothing: {reuse_manifest['counters']}")
        with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
            metrics = response.read().decode("utf-8").splitlines()
        if "repro_replay_contexts_built_total 1" not in metrics:
            built = [line for line in metrics if "contexts_built" in line]
            fail(f"fig4 job did not reuse the fig5 replay context: {built}")
        print(
            f"OK: {counters['cells_unique']} cells computed once, "
            f"resubmission served {counters['store_hits']} from the store "
            f"(zero re-simulated), reports byte-identical; the fig4 job "
            f"reused the replay context"
        )
        return 0
    finally:
        process.send_signal(signal.SIGINT)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            process.kill()


if __name__ == "__main__":
    sys.exit(main())
