"""Resilient run-plan execution (DESIGN.md §12).

Covers store-backed resume (each finished cell is in the result
store as it lands, so re-running a killed plan simulates only the
rest), the retry taxonomy (transient vs deterministic
failures, backoff, per-cell deadlines), pool supervision (killed
workers, rebuilds), quarantine + ``FAILURES.json``, the deterministic
fault-injection harness in :mod:`repro.testing.faults`, the corpus's
checksum-validated on-disk trace cache, and the CLI's resilience
flags and argument validation.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

import repro.harness.runner as runner_module
from repro.harness.checkpoint import (
    FAILURES_NAME,
    cell_key,
    failures_payload,
    report_from_dict,
    report_to_dict,
)
from repro.harness.cli import main as cli_main
from repro.harness.config import ArchitectureConfig
from repro.harness.export import write_failures
from repro.harness.runner import (
    CellExecutionError,
    CellTimeoutError,
    ExecutionPolicy,
    RunPlan,
    RunRequest,
    _cell_error_from_record,
    _error_record,
    quarantined_report,
)
from repro.service.store import ResultStore
from repro.telemetry.core import Registry, use
from repro.testing import faults as faults_module
from repro.testing.faults import (
    FAULTS_ENV_VAR,
    FaultInjectedError,
    FaultPlan,
    FaultSpec,
    load_plan,
    plan_summary,
    write_plan,
)
from repro.workloads.corpus import (
    clear_cache,
    generate_trace,
    trace_key,
)
from repro.workloads.ingest import EXTERNAL_DIR_ENV_VAR, write_entry

#: trace length for the resilience tests — tiny, retries multiply runs
TINY = 2_000

LABEL_BTB = "btb-32e-1w @ 8K/1w"


def _request(program: str = "li", frontend: str = "btb") -> RunRequest:
    return RunRequest(
        config=ArchitectureConfig(frontend=frontend, entries=32, cache_kb=8),
        program=program,
        instructions=TINY,
    )


def _plan_path(tmp_path, specs) -> str:
    return write_plan(str(tmp_path / "faults.json"), specs)


@pytest.fixture(autouse=True)
def _clean_corpus():
    clear_cache()
    yield
    clear_cache()


# ---------------------------------------------------------------------------
# the fault-injection harness itself
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_plan_round_trips_through_json(self, tmp_path):
        specs = (
            FaultSpec(action="raise", program="li", times=2),
            FaultSpec(action="hang", config="btb-*", hang_s=1.5),
        )
        path = _plan_path(tmp_path, specs)
        plan = load_plan(path)
        assert plan.specs == specs
        assert os.path.isdir(plan.spool)

    def test_budget_claims_are_exclusive_and_durable(self, tmp_path):
        plan = load_plan(
            _plan_path(tmp_path, [FaultSpec(action="raise", times=2)])
        )
        assert plan.claim(0) is True
        assert plan.fired(0) == 1
        assert plan.claim(0) is True
        assert plan.claim(0) is False  # budget of 2 is spent
        assert plan.fired(0) == 2
        # a second loader (another process, conceptually) sees the
        # same spool state — claims survive the claimant dying
        again = load_plan(plan.path)
        assert again.claim(0) is False
        assert plan_summary(again)[0]["fired"] == 2

    def test_fire_respects_site_and_patterns(self, tmp_path, monkeypatch):
        path = _plan_path(
            tmp_path,
            [FaultSpec(action="raise", program="li", config="btb-*", times=5)],
        )
        monkeypatch.setenv(FAULTS_ENV_VAR, path)
        # wrong site / program / config: no-ops, no budget spent
        faults_module.fire("trace-file", program="li", config="btb-32e")
        faults_module.fire("cell", program="gcc", config="btb-32e")
        faults_module.fire("cell", program="li", config="nls-64e")
        assert load_plan(path).fired(0) == 0
        with pytest.raises(FaultInjectedError):
            faults_module.fire("cell", program="li", config="btb-32e")
        assert load_plan(path).fired(0) == 1

    def test_unarmed_fire_is_a_noop(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        faults_module.fire("cell", program="li", config="anything")

    def test_corrupt_file_is_deterministic(self, tmp_path):
        victim = tmp_path / "blob.bin"
        payload = bytes(range(256)) * 16
        victim.write_bytes(payload)
        faults_module.corrupt_file(str(victim), seed=7)
        first = victim.read_bytes()
        victim.write_bytes(payload)
        faults_module.corrupt_file(str(victim), seed=7)
        assert victim.read_bytes() == first
        assert first != payload

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(action="explode")
        with pytest.raises(ValueError):
            FaultSpec(action="raise", site="nowhere")
        with pytest.raises(ValueError):
            FaultSpec(action="raise", times=0)


# ---------------------------------------------------------------------------
# retry taxonomy (serial backend, which shares the supervisor with process)
# ---------------------------------------------------------------------------


class TestRetries:
    def test_flaky_cell_recovers_byte_identically(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        request = _request()
        clean = RunPlan([request]).execute()[request]
        clear_cache()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=1)]),
        )
        registry = Registry(enabled=True)
        plan = RunPlan([request])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(max_retries=2)
            )
        assert not plan.failures
        assert reports[request] == clean
        assert registry.counter("runner.retries").value == 1

    def test_deterministic_failure_quarantines_on_repeat(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        # budget of 5 with a stable message: the second identical
        # failure marks the cell deterministic — long before the
        # max_retries=5 budget is exhausted
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=5)]),
        )
        request = _request()
        registry = Registry(enabled=True)
        plan = RunPlan([request])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(max_retries=5)
            )
        assert reports == {}
        failure = plan.failures[request]
        assert failure.kind == "deterministic"
        assert failure.attempts == 2
        assert failure.error_type == "FaultInjectedError"
        assert registry.counter("runner.quarantined").value == 1

    def test_exhausted_retries_quarantine(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=1)]),
        )
        request = _request()
        plan = RunPlan([request])
        plan.execute(policy=ExecutionPolicy(max_retries=0))
        failure = plan.failures[request]
        assert failure.kind == "exhausted"
        assert failure.attempts == 1

    def test_hung_cell_trips_deadline_then_recovers(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        request = _request()
        clean = RunPlan([request]).execute()[request]
        clear_cache()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path, [FaultSpec(action="hang", times=1, hang_s=30.0)]
            ),
        )
        registry = Registry(enabled=True)
        plan = RunPlan([request])
        with use(registry):
            reports = plan.execute(
                policy=ExecutionPolicy(max_retries=2, cell_timeout=0.2)
            )
        assert not plan.failures
        assert reports[request] == clean
        assert registry.counter("runner.cell_timeouts").value == 1
        assert registry.counter("runner.retries").value == 1

    def test_quarantine_does_not_abort_the_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        poisoned = _request(program="li")
        healthy = _request(program="espresso")
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path,
                [FaultSpec(action="raise", program="li", times=4)],
            ),
        )
        plan = RunPlan([poisoned, healthy])
        reports = plan.execute(
            policy=ExecutionPolicy(max_retries=1)
        )
        assert poisoned in plan.failures
        assert healthy in reports and healthy not in plan.failures

    def test_backoff_is_deterministic_and_bounded(self, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_CAP_S", 0.4)
        policy = ExecutionPolicy()
        delays = [policy.backoff_delay("abc", n) for n in (1, 2, 3, 10)]
        assert delays == [policy.backoff_delay("abc", n) for n in (1, 2, 3, 10)]
        assert all(d <= 0.4 * 1.25 for d in delays)
        assert delays[0] < delays[1] < delays[2]

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            ExecutionPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            ExecutionPolicy(cell_timeout=0.0)


# ---------------------------------------------------------------------------
# process backend: killed workers, pool rebuilds
# ---------------------------------------------------------------------------


class TestPoolSupervision:
    def test_killed_worker_is_retried_byte_identically(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        requests = [_request("li"), _request("espresso")]
        clean = RunPlan(requests).execute()
        clear_cache()
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path,
                [FaultSpec(action="kill", program="li", times=1)],
            ),
        )
        registry = Registry(enabled=True)
        plan = RunPlan(requests)
        with use(registry):
            reports = plan.execute(
                backend="process",
                jobs=2,
                policy=ExecutionPolicy(max_retries=3),
            )
        assert not plan.failures
        assert {k: reports[k] for k in requests} == clean
        assert registry.counter("runner.pool_rebuilds").value >= 1
        assert registry.counter("runner.retries").value >= 1

    def _strict_failure(self, backend: str) -> str:
        bad = RunRequest(
            config=ArchitectureConfig(frontend="btb", entries=32, cache_kb=8),
            program="li",
            instructions=TINY,
            seed=99,
            warmup=1.5,  # engine rejects warmup outside [0, 1)
        )
        plan = RunPlan([bad])
        with pytest.raises(CellExecutionError) as excinfo:
            plan.execute(backend=backend, jobs=2)
        return str(excinfo.value)

    def test_process_strict_mode_still_names_the_cell(self):
        message = self._strict_failure("process")
        assert "program='li'" in message
        assert "seed=99" in message
        assert f"config={LABEL_BTB!r}" in message

    def test_serial_strict_mode_names_the_cell_like_process(self):
        # one supervisor for both backends: the serial strict path
        # raises the same cell-naming error, not the bare exception
        assert self._strict_failure("serial") == self._strict_failure("process")

    def test_process_quarantine_matches_serial(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        # identical resilience semantics across backends: the same
        # deterministic fault quarantines the same cell either way
        request = _request()
        for backend, spool in (("serial", "a"), ("process", "b")):
            clear_cache()
            monkeypatch.setenv(
                FAULTS_ENV_VAR,
                write_plan(
                    str(tmp_path / f"faults-{spool}.json"),
                    [FaultSpec(action="raise", times=4)],
                ),
            )
            plan = RunPlan([request])
            plan.execute(
                backend=backend,
                jobs=2,
                policy=ExecutionPolicy(max_retries=3),
            )
            failure = plan.failures[request]
            assert failure.kind == "deterministic"
            assert failure.error_type == "FaultInjectedError"


# ---------------------------------------------------------------------------
# store-backed resume: every finished cell is in the store as it lands
# ---------------------------------------------------------------------------


class TestCheckpoint:
    def test_report_round_trips_through_json(self):
        request = _request()
        report = RunPlan([request]).execute()[request]
        clone = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
        assert clone == report
        assert clone.by_kind == report.by_kind
        assert clone.meta.config_label == report.meta.config_label
        assert clone.manifest.trace_key == report.manifest.trace_key

    def test_trace_scale_change_invalidates_entries(
        self, tmp_path, monkeypatch
    ):
        request = _request()
        store = ResultStore(str(tmp_path / "store.sqlite"))
        try:
            RunPlan([request]).execute(store=store)
            assert set(store.fetch([request])) == {request}
            monkeypatch.setenv("REPRO_TRACE_SCALE", "0.5")
            assert store.fetch([request]) == {}
        finally:
            store.close()

    def test_resume_recomputes_nothing(self, tmp_path):
        requests = [_request("li"), _request("espresso")]
        store = ResultStore(str(tmp_path / "store.sqlite"))
        try:
            reports = RunPlan(requests).execute(store=store)
            registry = Registry(enabled=True)
            with use(registry):
                resumed = RunPlan(requests).execute(store=store)
        finally:
            store.close()
        assert resumed == reports
        # the acceptance criterion, via telemetry: zero cells executed
        assert registry.counter("runner.cells").value == 0
        assert registry.counter("store.hits").value == len(requests)

    def test_resume_runs_only_the_missing_cells(self, tmp_path):
        done, missing = _request("li"), _request("espresso")
        store = ResultStore(str(tmp_path / "store.sqlite"))
        try:
            RunPlan([done]).execute(store=store)
            registry = Registry(enabled=True)
            plan = RunPlan([done, missing])
            with use(registry):
                reports = plan.execute(store=store)
            # the store now holds both cells for the next re-run
            assert set(store.fetch([done, missing])) == {done, missing}
        finally:
            store.close()
        assert set(reports) == {done, missing}
        assert (plan.store_hits, plan.store_misses) == (1, 1)
        assert registry.counter("runner.cells").value == 1
        assert registry.counter("store.hits").value == 1

    @pytest.mark.parametrize("policy", [None, ExecutionPolicy(max_retries=0)])
    def test_aborted_plan_keeps_finished_cells(
        self, tmp_path, monkeypatch, policy
    ):
        # espresso's trace sorts first, so its cell finishes before li
        # fails: strict mode aborts the plan, a policy quarantines li,
        # and either way espresso is already in the store
        finished, poisoned = _request("espresso"), _request("li")
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", program="li")]),
        )
        store = ResultStore(str(tmp_path / "store.sqlite"))
        try:
            plan = RunPlan([poisoned, finished])
            if policy is None:
                with pytest.raises(CellExecutionError):
                    plan.execute(store=store)
            else:
                plan.execute(policy=policy, store=store)
            assert set(store.fetch([poisoned, finished])) == {finished}
        finally:
            store.close()

    def test_killed_cli_run_resumes_from_the_store(self, tmp_path):
        """A SIGKILLed serial sweep keeps every cell that finished; the
        same command re-run simulates only the rest."""
        faults = _plan_path(
            tmp_path, [FaultSpec(action="kill", program="li", times=1)]
        )
        argv = [
            sys.executable,
            "-m",
            "repro.harness",
            "johnson",
            "--programs",
            "li",
            "espresso",
            "--instructions",
            "5000",
            "--store",
            str(tmp_path / "store.sqlite"),
            "--out",
            str(tmp_path / "out"),
            "--faults",
            faults,
        ]
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        env.pop("REPRO_TRACE_SCALE", None)
        env.pop(EXTERNAL_DIR_ENV_VAR, None)
        killed = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=300
        )
        assert killed.returncode == -signal.SIGKILL, killed.stderr
        rerun = subprocess.run(
            argv, env=env, capture_output=True, text=True, timeout=300
        )
        assert rerun.returncode == 0, rerun.stderr
        assert "3 cell(s) served, 3 simulated" in rerun.stdout

    def test_service_job_writes_each_cell_once(self, tmp_path):
        from repro.service.protocol import request_to_dict
        from repro.service.scheduler import JobScheduler

        requests = [_request(frontend=f) for f in ("btb", "nls-table")]
        requests.append(_request("espresso"))
        registry = Registry(enabled=True)
        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        with use(registry):
            scheduler.start()
            try:
                job = scheduler.submit(
                    {"cells": [request_to_dict(r) for r in requests]}
                )
                deadline = time.monotonic() + 60
                while not job.done and time.monotonic() < deadline:
                    time.sleep(0.02)
            finally:
                scheduler.stop()
                store.close()
        assert job.state.value == "completed"
        assert registry.counter("store.puts").value == 3
        assert registry.counter("store.dedup_skips").value == 0


# ---------------------------------------------------------------------------
# failure manifest + error pickling + placeholders
# ---------------------------------------------------------------------------


class TestFailureArtifacts:
    def _failures(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runner_module, "BACKOFF_BASE_S", 0.001)
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(tmp_path, [FaultSpec(action="raise", times=4)]),
        )
        plan = RunPlan([_request()])
        plan.execute(policy=ExecutionPolicy(max_retries=3))
        return plan.failures

    def test_failures_json_names_the_cell(self, tmp_path, monkeypatch):
        failures = self._failures(tmp_path, monkeypatch)
        out = str(tmp_path / "artifacts")
        path = write_failures(out, failures.values())
        assert os.path.basename(path) == FAILURES_NAME
        payload = json.load(open(path, encoding="utf-8"))
        assert payload["count"] == 1
        (entry,) = payload["quarantined"]
        assert entry["program"] == "li"
        assert entry["config"] == LABEL_BTB
        assert entry["kind"] == "deterministic"
        assert entry["error_type"] == "FaultInjectedError"
        assert "FaultInjectedError" in entry["traceback"]
        assert entry["cell"] == cell_key(next(iter(failures)))

    def test_failures_payload_is_json_clean(self, tmp_path, monkeypatch):
        failures = self._failures(tmp_path, monkeypatch)
        json.dumps(failures_payload(failures.values()))

    def test_cell_execution_error_pickles_with_context(self):
        request = _request()
        try:
            raise ValueError("teeth")
        except ValueError as exc:
            error = _cell_error_from_record(request, _error_record(exc))
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, CellExecutionError)
        assert str(clone) == str(error)
        assert clone.cell == LABEL_BTB
        assert clone.program == "li"
        assert clone.error_type == "ValueError"
        assert "teeth" in clone.traceback_text
        assert "ValueError" in clone.traceback_text

    def test_quarantined_placeholder_is_rendered_safely(self):
        request = _request()
        report = quarantined_report(request)
        assert report.meta.backend == "quarantined"
        assert report.bep == 0.0
        assert report.cpi == 0.0
        assert report.pct_misfetched == 0.0
        assert report.label == LABEL_BTB


# ---------------------------------------------------------------------------
# corpus: digest-verified synthetic entries in the trace store
# ---------------------------------------------------------------------------


class TestTraceFileCache:
    def _report(self):
        request = _request()
        return RunPlan([request]).execute()[request]

    def test_store_and_reload(self, tmp_path, monkeypatch):
        monkeypatch.setenv(EXTERNAL_DIR_ENV_VAR, str(tmp_path))
        registry = Registry(enabled=True)
        with use(registry):
            trace = generate_trace("li", instructions=TINY)
            clear_cache()  # drop the in-memory tier; disk must serve it
            again = generate_trace("li", instructions=TINY)
        assert registry.counter("corpus.trace_file_stores").value == 1
        assert registry.counter("corpus.trace_file_hits").value == 1
        assert again.n_instructions == trace.n_instructions
        assert list(again.starts) == list(trace.starts)

    def _cached_path(self, tmp_path):
        (path,) = [
            os.path.join(tmp_path, name)
            for name in os.listdir(tmp_path)
            if name.endswith(".npz")
        ]
        return path

    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_corruption_is_detected_and_regenerated(
        self, tmp_path, monkeypatch, damage
    ):
        clean = self._report()
        clear_cache()
        monkeypatch.setenv(EXTERNAL_DIR_ENV_VAR, str(tmp_path))
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
            path = self._cached_path(tmp_path)
            if damage == "flip":
                faults_module.corrupt_file(path, seed=3)
            else:
                with open(path, "r+b") as handle:
                    handle.truncate(os.path.getsize(path) // 3)
            clear_cache()
            generate_trace("li", instructions=TINY)
            assert registry.counter("corpus.trace_file_corrupt").value == 1
            assert registry.counter("corpus.trace_file_evictions").value == 1
            # the regenerated trace was re-stored with a fresh digest
            assert registry.counter("corpus.trace_file_stores").value == 2
        clear_cache()
        monkeypatch.delenv(EXTERNAL_DIR_ENV_VAR)
        assert self._report() == clean

    def test_corrupt_fault_site_hits_the_cache_path(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(EXTERNAL_DIR_ENV_VAR, str(tmp_path / "cache"))
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            _plan_path(
                tmp_path,
                [FaultSpec(action="corrupt", site="trace-file", times=1)],
            ),
        )
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
            clear_cache()
            generate_trace("li", instructions=TINY)  # fault corrupts here
        assert registry.counter("corpus.trace_file_corrupt").value == 1
        assert registry.counter("corpus.trace_file_stores").value == 2

    def test_digest_mismatch_counts_as_corrupt(self, tmp_path, monkeypatch):
        monkeypatch.setenv(EXTERNAL_DIR_ENV_VAR, str(tmp_path))
        registry = Registry(enabled=True)
        with use(registry):
            trace = generate_trace("li", instructions=TINY)
            # a well-formed entry whose digest member does not match
            # its columns
            write_entry(self._cached_path(tmp_path), trace, digest="0" * 64)
            clear_cache()
            again = generate_trace("li", instructions=TINY)
            assert registry.counter("corpus.trace_file_corrupt").value == 1
            assert registry.counter("corpus.trace_file_evictions").value == 1
            assert registry.counter("corpus.trace_file_stores").value == 2
            clear_cache()
            generate_trace("li", instructions=TINY)  # the regenerated entry
        assert registry.counter("corpus.trace_file_hits").value == 1
        assert list(again.starts) == list(trace.starts)

    def test_disk_tier_off_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(EXTERNAL_DIR_ENV_VAR, raising=False)
        registry = Registry(enabled=True)
        with use(registry):
            generate_trace("li", instructions=TINY)
        assert registry.counter("corpus.trace_file_stores").value == 0
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# CLI: validation, resilience flags, quarantine exit
# ---------------------------------------------------------------------------


class TestCLI:
    def test_unknown_experiment_is_a_clean_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["not-an-experiment"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        assert "table1" in err  # the valid names are listed

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["bench", "--smoke"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["-2", "two", "1.5"])
    def test_bad_jobs_is_a_clean_error(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig3", "--jobs", bad])
        assert excinfo.value.code == 2
        assert "worker count" in capsys.readouterr().err

    def test_excess_jobs_warn_and_clamp(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="clamping to 2"):
            assert cli_main(["fig3", "--jobs", "64"]) == 0
        assert "jobs=2" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", ["0", "-5"])
    def test_non_positive_instructions_is_a_clean_error(self, capsys, bad):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig3", "--instructions", bad])
        assert excinfo.value.code == 2
        assert f"--instructions must be >= 1, got {bad}" in (
            capsys.readouterr().err
        )

    def test_missing_faults_file_is_a_clean_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["fig3", "--faults", str(tmp_path / "nope.json")])
        assert excinfo.value.code == 2
        assert "not found" in capsys.readouterr().err

    def test_quarantine_exits_nonzero_with_manifest(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        store_path = str(tmp_path / "store.sqlite")
        plan = _plan_path(
            tmp_path,
            [FaultSpec(action="raise", program="li", times=2)],
        )
        status = cli_main(
            [
                "johnson",
                "--programs",
                "li",
                "--instructions",
                str(TINY),
                "--max-retries",
                "2",
                "--store",
                store_path,
                "--out",
                str(out_dir),
                "--faults",
                plan,
            ]
        )
        assert status == 1
        out = capsys.readouterr().out
        assert "QUARANTINED 1 cell" in out
        payload = json.load(open(out_dir / FAILURES_NAME, encoding="utf-8"))
        assert payload["count"] == 1
        assert payload["quarantined"][0]["program"] == "li"
        assert payload["quarantined"][0]["kind"] == "deterministic"
        # the healthy cells are in the store for a re-run
        store = ResultStore(store_path)
        try:
            assert store.stats()["entries"] == 2
        finally:
            store.close()
        assert os.environ.get(FAULTS_ENV_VAR) is None  # disarmed on exit

    def test_failures_manifest_defaults_to_the_working_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        plan = _plan_path(
            tmp_path, [FaultSpec(action="raise", program="li", times=2)]
        )
        argv = ["johnson", "--programs", "li", "--instructions", str(TINY)]
        assert cli_main(argv + ["--faults", plan]) == 1
        assert (tmp_path / FAILURES_NAME).exists()

    def test_rerun_with_store_recomputes_nothing(self, capsys, tmp_path):
        argv = [
            "johnson",
            "--programs",
            "li",
            "--instructions",
            str(TINY),
            "--store",
            str(tmp_path / "store.sqlite"),
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        clear_cache()
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        body = lambda text: [  # noqa: E731 - tiny local helper
            line
            for line in text.splitlines()
            if line and not line.startswith("[")
        ]
        assert body(first) == body(second)
        assert "3 cell(s) served, 0 simulated" in second
