"""The repository benchmark: five workloads, end to end and per layer.

Usage, from the repository root::

    python3 bench/run.py [--workload W ...] [--seed N] [--seconds S]
                         [--repeats R] [--trace [0|1]] [--smoke] [--out DIR]

Each (workload, repeat) runs in a fresh process (``bench/workloads.py``)
with empty caches.  Repeats alternate the workload order.  Before each
measured run, two more processes are started and stopped at "ready",
so every run yields three set-up samples.  Without ``--repeats``, each
workload repeats until its timed regions add up to ``--seconds``
(default: ``run_seconds`` of ``BENCHMARK.json``), at least once.

The benchmark prints every end-to-end metric as ``workload metric
value unit`` with quartiles and sample count, checks every output
(``bench/check.py``) and writes ``results.json`` to ``--out`` (default
``.bench_out/``).  ``--trace`` runs each workload once more with the
span wrappers of ``bench/spans.py`` installed, prints the per-layer
metrics and writes a Chrome trace per workload.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace`` the per-layer
ones).  The exit code is non-zero when any check failed.

Times are host-normalised.  The run process times a fixed kernel
right before and right after its timed region (``workloads.calibrate``);
every time of the run is scaled by ``REFERENCE_CALIBRATION_S`` over the
mean of those two timings, which takes out the drift of a shared
host's speed.  ``results.json`` keeps the raw times and calibrations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: set-up samples per measured run (the run's own plus stopped extras)
SETUP_SAMPLES = 3
#: the calibration kernel's time on the reference host, a 2-vCPU VM:
#: reported times are seconds at that host's speed
REFERENCE_CALIBRATION_S = 0.14
#: /proc sampling period of the measured process tree
SAMPLE_INTERVAL_S = 0.2
#: a run process that takes longer is killed and the run fails
RUN_TIMEOUT_S = 170
#: inherited settings that would change what a run measures
CLEARED_ENV = (
    "REPRO_TRACE_SCALE",
    "REPRO_FAULTS",
    "REPRO_TRACE_CACHE_DIR",
    "REPRO_EXTERNAL_TRACE_DIR",
)


class RunFailed(RuntimeError):
    """A run process exited or hung before delivering its record."""


def vm_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM, kB) of *pid*; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class TreeSampler(threading.Thread):
    """Samples peak RSS (VmHWM) and CPU time of a process and all its
    descendants from ``/proc`` until :meth:`finish`."""

    def __init__(self, root_pid: int) -> None:
        super().__init__(name="bench-proc-sampler", daemon=True)
        self.root_pid = root_pid
        self.hwm_kb: Dict[int, int] = {}
        self.cpu_ticks: Dict[int, int] = {}
        self.base_ticks: Optional[Dict[int, int]] = None
        self._stop_event = threading.Event()

    def _tree(self) -> Dict[int, int]:
        """CPU ticks of every live process in the tree, by pid."""
        parents: Dict[int, int] = {}
        ticks: Dict[int, int] = {}
        for name in os.listdir("/proc"):
            if not name.isdigit():
                continue
            try:
                with open(f"/proc/{name}/stat", encoding="ascii") as handle:
                    data = handle.read()
            except OSError:
                continue
            fields = data[data.rindex(")") + 2 :].split()
            parents[int(name)] = int(fields[1])
            ticks[int(name)] = int(fields[11]) + int(fields[12])
        tree = {self.root_pid}
        grew = True
        while grew:
            grew = False
            for pid, parent in parents.items():
                if parent in tree and pid not in tree:
                    tree.add(pid)
                    grew = True
        return {pid: ticks[pid] for pid in tree if pid in ticks}

    def sample(self) -> None:
        """Take one sample of the whole tree."""
        ticks = self._tree()
        if self.base_ticks is None:
            self.base_ticks = dict(ticks)
        for pid, value in ticks.items():
            self.cpu_ticks[pid] = value
            self.hwm_kb[pid] = max(self.hwm_kb.get(pid, 0), vm_hwm_kb(pid))

    def run(self) -> None:
        while not self._stop_event.wait(SAMPLE_INTERVAL_S):
            self.sample()

    def finish(self) -> None:
        """Stop sampling after one last sample."""
        self._stop_event.set()
        self.join()
        self.sample()

    @property
    def peak_rss_mb(self) -> float:
        """Sum of every sampled process's peak RSS, in MB."""
        return sum(self.hwm_kb.values()) / 1024.0

    @property
    def cpu_s(self) -> float:
        """CPU seconds the tree used while sampled."""
        base = self.base_ticks or {}
        used = sum(value - base.get(pid, 0) for pid, value in self.cpu_ticks.items())
        return used / os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """The run processes' environment: the checkout's sources, empty
    caches, one BLAS thread."""
    env = {key: value for key, value in os.environ.items() if key not in CLEARED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    return env


class Bench:
    """One invocation: its settings, output directory and records."""

    def __init__(self, args: argparse.Namespace, spec: Dict[str, Any]) -> None:
        self.args = args
        self.spec = spec
        self.out = os.path.abspath(args.out)
        self.records: List[Dict[str, Any]] = []
        self.traced: Dict[str, Dict[str, Any]] = {}
        self.crashes: List[str] = []
        self._serial = 0

    def _command(self, *extra: str) -> List[str]:
        command = [
            sys.executable,
            os.path.join(BENCH_DIR, "workloads.py"),
            "--seed",
            str(self.args.seed),
            "--work-root",
            self.out,
            *extra,
        ]
        if self.args.smoke:
            command.append("--smoke")
        return command

    def _spawn(self, workload: str, work_dir: str, extra: List[str]):
        os.makedirs(work_dir)
        started = time.perf_counter()
        process = subprocess.Popen(
            self._command("--workload", workload, "--work-dir", work_dir, *extra),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=child_env(),
        )
        watchdog = threading.Timer(RUN_TIMEOUT_S, process.kill)
        watchdog.daemon = True
        watchdog.start()
        line = process.stdout.readline().strip()
        setup_s = time.perf_counter() - started
        if line != "ready":
            self._reap(process, watchdog)
            raise RunFailed(f"{workload}: run process exited during set-up "
                            f"(code {process.returncode})")
        return process, watchdog, setup_s

    @staticmethod
    def _reap(process: subprocess.Popen, watchdog: threading.Timer) -> None:
        try:
            process.stdin.close()
        except OSError:
            pass
        process.wait()
        watchdog.cancel()
        process.stdout.close()

    @staticmethod
    def _send(process: subprocess.Popen, line: str) -> None:
        process.stdin.write(line + "\n")
        process.stdin.flush()

    def prepare(self, workload: str) -> None:
        """Write a workload's inputs, outside any timing."""
        if workload == "ingest-replay":
            subprocess.run(
                self._command("--prepare-ingest"),
                cwd=ROOT,
                env=child_env(),
                check=True,
                timeout=RUN_TIMEOUT_S,
            )

    def run_once(self, workload: str, traced: bool) -> Dict[str, Any]:
        """One measured run, preceded by its extra set-up samples."""
        self._serial += 1
        work_dir = os.path.join(self.out, "work", f"{self._serial}-{workload}")
        shutil.rmtree(work_dir, ignore_errors=True)
        record_path = os.path.join(work_dir, "measured", "record.json")
        try:
            self.prepare(workload)
            setups = []
            for index in range(SETUP_SAMPLES - 1):
                process, watchdog, setup_s = self._spawn(
                    workload, os.path.join(work_dir, f"setup-{index}"), []
                )
                setups.append(setup_s)
                self._send(process, "quit")
                self._reap(process, watchdog)
            extra = ["--record", record_path]
            if traced:
                extra += ["--trace", "--chrome", self.chrome_path(workload)]
            process, watchdog, setup_s = self._spawn(
                workload, os.path.join(work_dir, "measured"), extra
            )
            setups.append(setup_s)
            sampler = TreeSampler(process.pid)
            self._send(process, "go")
            if process.stdout.readline().strip() == "start":
                sampler.sample()
                sampler.start()
                line = process.stdout.readline().strip()
                sampler.finish()
            else:
                line = ""
            if line == "done":
                self._send(process, "continue")
            self._reap(process, watchdog)
            if line != "done" or process.returncode != 0:
                raise RunFailed(
                    f"{workload}: run process failed (code {process.returncode})"
                )
            with open(record_path, encoding="utf-8") as handle:
                record = json.load(handle)
        except (RunFailed, OSError, subprocess.SubprocessError) as exc:
            self.crashes.append(str(exc))
            return {}
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        record.update(
            setup_s=setups,
            peak_rss_mb=sampler.peak_rss_mb,
            cpu_s=sampler.cpu_s,
            traced=traced,
        )
        return record

    def chrome_path(self, workload: str) -> str:
        """Where the traced run of *workload* writes its Chrome trace."""
        return os.path.join(self.out, f"trace-{workload}.json")

    def execute(self) -> None:
        """Untraced repeats (alternating order), then the traced runs."""
        workloads = self.args.workload
        timed: Dict[str, float] = {workload: 0.0 for workload in workloads}
        runs: Dict[str, int] = {workload: 0 for workload in workloads}
        round_index = 0
        while True:
            if self.args.repeats is not None:
                pending = [w for w in workloads if runs[w] < self.args.repeats]
            else:
                pending = [
                    w for w in workloads
                    if runs[w] == 0 or timed[w] < self.args.seconds
                ]
            if not pending:
                break
            if round_index % 2:
                pending.reverse()
            for workload in pending:
                record = self.run_once(workload, traced=False)
                runs[workload] += 1
                if record:
                    self.records.append(record)
                    timed[workload] += record["wall_s"]
                else:
                    timed[workload] = float("inf")
            round_index += 1
        if self.args.trace:
            for workload in workloads:
                record = self.run_once(workload, traced=True)
                if record:
                    self.records.append(record)
                    self.traced[workload] = record

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, workload: str) -> Dict[str, List[float]]:
        """Samples of every end-to-end metric of *workload*."""
        runs = [r for r in self.records if r["workload"] == workload and not r["traced"]]
        return {
            "setup_s": [value * scale(r) for r in runs for value in r["setup_s"]],
            "wall_s": [r["wall_s"] * scale(r) for r in runs],
            "sim_minst_per_s": [
                r["sim_instructions"] / (r["wall_s"] * scale(r)) / 1e6 for r in runs
            ],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }

    def per_layer(self, workload: str) -> Dict[str, float]:
        """Every per-layer metric of *workload*'s traced run; layers
        that did not run read 0."""
        record = self.traced.get(workload)
        if record is None:
            return {}
        info = record.get("info", {})
        untraced = self.end_to_end(workload)["wall_s"]
        values = {
            **record.get("layer", {}),
            **record.get("service", {}),
            "runner.ipc_bytes": info.get("ipc_bytes", 0),
            "harness.plan_s": info.get("plan_s", 0.0),
            "harness.finish_s": info.get("finish_s", 0.0),
            "process.cpu_s": record["cpu_s"],
            "host.calibration_s": statistics.mean(record["calibration_s"]),
            "host.raw_wall_s": record["wall_s"],
            "trace.overhead_s": (
                record["wall_s"] * scale(record) - statistics.median(untraced)
                if untraced
                else 0.0
            ),
        }
        return {
            metric["name"]: float(values.get(metric["name"], 0.0))
            for metric in self.spec["per_layer"]
        }

    def failures(self) -> List[str]:
        """Every failure: crashed runs, the runs' own checks and the
        cross-run gate."""
        found = list(self.crashes)
        for record in self.records:
            found += record["failures"]
        return found + check.gate(self.records, check.load_expected())


def scale(record: Dict[str, Any]) -> float:
    """Factor taking a run's raw times to reference-host seconds."""
    return REFERENCE_CALIBRATION_S / statistics.mean(record["calibration_s"])


def summarize(values: List[float]) -> Dict[str, Any]:
    """Median, quartiles and count of *values*."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv: Optional[List[str]], spec: Dict[str, Any]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (bench/README.md)."
    )
    parser.add_argument("--workload", nargs="+", action="extend", choices=WORKLOADS,
                        help="workloads to run (default: all five)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the service job order and the "
                        "cross-checked cells (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="repeat each workload until its timed regions "
                        "add up to this (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="fixed number of untraced runs per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="also make one traced run per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny budgets (the test suite's run)")
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_out"),
                        help="output directory (default: .bench_out/)")
    args = parser.parse_args(argv)
    args.workload = list(dict.fromkeys(args.workload or WORKLOADS))
    if args.repeats is not None and args.repeats < 1:
        parser.error("--repeats must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no repro sources under {os.path.join(ROOT, 'src')}; "
              "run the benchmark from a full checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    args = parse_args(argv, spec)
    bench = Bench(args, spec)
    os.makedirs(bench.out, exist_ok=True)
    bench.execute()
    failures = bench.failures()
    attempted = sum(r["attempted"] for r in bench.records) + len(bench.crashes)
    failed = min(len(failures), max(attempted, 1))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    results: Dict[str, Any] = {
        "schema": "repro-bench-results/v1",
        "seed": args.seed,
        "smoke": args.smoke,
        "host": {"nproc": os.cpu_count(), "platform": platform.platform(),
                 "python": platform.python_version()},
        "workloads": {},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    final: Dict[str, Dict[str, Any]] = {}
    for workload in args.workload:
        runs = [r for r in bench.records if r["workload"] == workload and not r["traced"]]
        entry: Dict[str, Any] = {"runs": runs, "metrics": {}, "per_layer": {}}
        if runs:
            for name, values in bench.end_to_end(workload).items():
                summary = summarize(values)
                entry["metrics"][name] = {**summary, "unit": units[name]}
                print(f"{workload} {name} {summary['median']:.6g} {units[name]} "
                      f"q1={summary['q1']:.6g} q3={summary['q3']:.6g} n={summary['n']}")
                if not args.trace:
                    final[name if len(args.workload) == 1 else f"{workload}:{name}"] = {
                        "value": summary["median"], "unit": units[name]}
        layer = bench.per_layer(workload)
        for name, value in layer.items():
            entry["per_layer"][name] = {"value": value, "unit": units[name]}
            print(f"{workload} {name} {value:.6g} {units[name]} n=1")
            final[name if len(args.workload) == 1 else f"{workload}:{name}"] = {
                "value": value, "unit": units[name]}
        if workload in bench.traced:
            entry["trace_file"] = bench.chrome_path(workload)
            print(f"# {workload}: Chrome trace -> {entry['trace_file']}")
        results["workloads"][workload] = entry
    with open(os.path.join(bench.out, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
    for failure in failures:
        print(f"# FAILED: {failure}")
    print(f"# failed_ratio {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations); results -> "
          f"{os.path.join(bench.out, 'results.json')}")
    print(json.dumps({"correct": not failures, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": final}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
