"""Service hardening: durable registry, admission, cancel, recovery.

The PR 9 acceptance surface, exercised in-process for speed (the CI
``service-hardening`` job additionally SIGKILLs real ``serve``
processes — ``tests/hardening_smoke.py``):

* the durable :class:`~repro.service.registry.JobRegistry` — job rows,
  idempotent event persistence, cancel flags, leases and atomic
  orphan claims on one shared SQLite file;
* the bounded in-memory event log spilling to the registry, with
  ``events_since`` seamless across the memory/disk boundary;
* the admission layer — keyring auth, token buckets on an injected
  clock, bounded-queue shedding and in-flight quotas, all answering
  ``429`` with an honest ``Retry-After``;
* cooperative cancellation — between-cell stop in both run-plan
  backends, terminal ``cancelled`` with the lease released and the
  partial results retained in the store;
* crash recovery — a replica that dies (here: a scheduler that simply
  never runs) forfeits its lease and a peer claims, resumes and
  finishes the job with every store-resident cell served rather than
  recomputed, and one gapless event sequence across the takeover;
* the hardened HTTP surface — 401 without a key, 429 + Retry-After
  under quota, ``/readyz``, ``POST .../cancel``, and JSON bodies on
  malformed-request error paths.
"""

from __future__ import annotations

import json
import socket
import time
import urllib.error
import urllib.request

import pytest

from repro.harness.config import ArchitectureConfig
from repro.harness.runner import ExecutionPolicy, RunPlan, RunRequest
from repro.service.admission import (
    AdmissionController,
    AdmissionError,
    ClientQuota,
    Keyring,
    TokenBucket,
)
from repro.service.jobs import JobEventLog
from repro.service.registry import JobRegistry
from repro.service.scheduler import JobScheduler
from repro.service.store import ResultStore

#: trace length for hardening tests — tiny cells, the point is plumbing
TINY = 2_000


def _request(program: str = "li", entries: int = 32) -> RunRequest:
    return RunRequest(
        config=ArchitectureConfig(frontend="btb", entries=entries, cache_kb=8),
        program=program,
        instructions=TINY,
    )


def _cells_payload(requests, **extra):
    from repro.service.protocol import request_to_dict

    payload = {"cells": [request_to_dict(request) for request in requests]}
    payload.update(extra)
    return payload


def _wait(predicate, timeout=30.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


# ---------------------------------------------------------------------------
# durable job registry
# ---------------------------------------------------------------------------


class TestJobRegistry:
    def test_create_get_round_trip(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create(
            "job-1", {"cells": []}, "cells", "demo", 4,
            client="alice", owner="rep-a", lease_s=5.0,
        )
        row = registry.get("job-1")
        assert row["state"] == "queued" and row["owner"] == "rep-a"
        assert row["cells"] == 4 and row["client"] == "alice"
        assert json.loads(row["spec"]) == {"cells": []}
        assert row["cancel_requested"] is False
        assert registry.get("job-nope") is None

    def test_state_transitions_release_terminal_leases(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create("job-1", {}, "cells", "demo", 1, owner="rep-a")
        registry.set_state("job-1", "running")
        row = registry.get("job-1")
        assert row["state"] == "running" and row["started_s"] is not None
        assert row["owner"] == "rep-a"
        registry.set_state("job-1", "completed")
        row = registry.get("job-1")
        assert row["state"] == "completed" and row["finished_s"] is not None
        assert row["owner"] is None and row["lease_expires_s"] is None

    def test_cancel_flag_only_for_live_jobs(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create("job-1", {}, "cells", "demo", 1)
        assert registry.request_cancel("job-1") is True
        assert registry.cancel_requested("job-1") is True
        registry.set_state("job-1", "cancelled")
        assert registry.request_cancel("job-1") is False
        assert registry.request_cancel("job-missing") is False

    def test_event_persistence_is_idempotent_and_ordered(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create("job-1", {}, "cells", "demo", 1)
        for seq in range(5):
            registry.append_event("job-1", {"seq": seq, "event": f"e{seq}"})
        # replaying the same seq (a crashed writer's retry) is a no-op
        registry.append_event("job-1", {"seq": 2, "event": "duplicate"})
        events = registry.events("job-1")
        assert [event["seq"] for event in events] == [0, 1, 2, 3, 4]
        assert events[2]["event"] == "e2"
        assert registry.event_count("job-1") == 5
        assert registry.get("job-1")["events"] == 5
        assert [e["seq"] for e in registry.events("job-1", 1, 3)] == [1, 2]

    def test_expired_lease_is_claimed_exactly_once(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        registry = JobRegistry(path)
        registry.create(
            "job-1", {}, "cells", "demo", 1, owner="rep-dead", lease_s=0.05
        )
        registry.set_state("job-1", "running")
        time.sleep(0.1)
        peer = JobRegistry(path)
        claimed = peer.claim_orphans("rep-b", lease_s=5.0)
        assert [(row["job_id"], takeover) for row, takeover in claimed] == [
            ("job-1", True)
        ]
        # the same sweep again finds nothing — rep-b now holds a live lease
        assert peer.claim_orphans("rep-c", lease_s=5.0) == []
        assert registry.get("job-1")["owner"] == "rep-b"

    def test_heartbeat_extends_and_release_requeues(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create("job-1", {}, "cells", "demo", 1, owner="rep-a", lease_s=1.0)
        registry.set_state("job-1", "running")
        before = registry.get("job-1")["lease_expires_s"]
        assert registry.heartbeat("rep-a", lease_s=60.0) == 1
        assert registry.get("job-1")["lease_expires_s"] > before
        assert registry.release_owner("rep-a") == 1
        row = registry.get("job-1")
        assert row["state"] == "queued" and row["owner"] is None


class TestEventLogSpill:
    def test_spill_and_seamless_reads_across_the_boundary(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create("job-1", {}, "cells", "demo", 1)
        log = JobEventLog(
            backing=registry.log_backing("job-1"), max_memory=4
        )
        for index in range(10):
            log.append("tick", index=index)
        assert len(log) == 10
        # memory holds only the newest window; the backing has it all
        assert len(log._events) == 4
        assert registry.event_count("job-1") == 10
        full = log.events_since(0)
        assert [event["seq"] for event in full] == list(range(10))
        assert [event["index"] for event in full] == list(range(10))
        # a read straddling the boundary stitches disk + memory
        straddle = log.events_since(5)
        assert [event["seq"] for event in straddle] == [5, 6, 7, 8, 9]
        # a purely in-memory read never touches the backing
        assert [e["seq"] for e in log.events_since(8)] == [8, 9]

    def test_base_seeds_recovered_logs_past_persisted_events(self, tmp_path):
        registry = JobRegistry(str(tmp_path / "store.sqlite"))
        registry.create("job-1", {}, "cells", "demo", 1)
        first = JobEventLog(backing=registry.log_backing("job-1"))
        first.append("one")
        first.append("two")
        # a restarted process resumes appending where the log left off
        resumed = JobEventLog(
            backing=registry.log_backing("job-1"), base=2
        )
        resumed.append("three")
        assert [e["event"] for e in resumed.events_since(0)] == [
            "one",
            "two",
            "three",
        ]
        assert [e["seq"] for e in resumed.events_since(0)] == [0, 1, 2]


# ---------------------------------------------------------------------------
# admission control
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestAdmission:
    def test_token_bucket_refills_on_the_injected_clock(self):
        clock = _FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_take() == (True, 0.0)
        assert bucket.try_take() == (True, 0.0)
        ok, retry_after = bucket.try_take()
        assert ok is False and retry_after == pytest.approx(1.0)
        clock.now += 0.5
        ok, retry_after = bucket.try_take()
        assert ok is False and retry_after == pytest.approx(0.5)
        clock.now += 0.5
        assert bucket.try_take() == (True, 0.0)

    def test_keyring_auth_and_overrides(self, tmp_path):
        keyfile = tmp_path / "keys.json"
        keyfile.write_text(
            json.dumps(
                {
                    "schema": "repro-keys/v1",
                    "clients": [
                        {"client": "alice", "key": "s3cret", "max_jobs": 1},
                        {"client": "bob", "key": "hunter2"},
                    ],
                }
            )
        )
        controller = AdmissionController(
            keyring=Keyring.load(str(keyfile)),
            default_quota=ClientQuota(max_jobs=5),
        )
        assert controller.authenticate("Bearer s3cret") == "alice"
        assert controller.authenticate("bearer hunter2") == "bob"
        # alice's keyfile override narrows the default quota
        assert controller.quota_for("alice").max_jobs == 1
        assert controller.quota_for("bob").max_jobs == 5
        for bad in (None, "Bearer wrong", "Basic s3cret"):
            with pytest.raises(AdmissionError) as err:
                controller.authenticate(bad)
            assert err.value.status == 401

    def test_open_service_stays_anonymous(self):
        controller = AdmissionController()
        assert controller.authenticate(None) == "anonymous"

    def test_malformed_keyfiles_are_rejected(self, tmp_path):
        bad_schema = tmp_path / "bad.json"
        bad_schema.write_text(json.dumps({"schema": "nope", "clients": []}))
        with pytest.raises(ValueError, match="schema"):
            Keyring.load(str(bad_schema))
        no_key = tmp_path / "nokey.json"
        no_key.write_text(
            json.dumps(
                {"schema": "repro-keys/v1", "clients": [{"client": "x"}]}
            )
        )
        with pytest.raises(ValueError, match="'client' and 'key'"):
            Keyring.load(str(no_key))

    def test_queue_bound_sheds_with_retry_after(self):
        controller = AdmissionController(max_queue=2)
        controller.admit("anonymous", cells=1, queue_depth=1)
        with pytest.raises(AdmissionError) as err:
            controller.admit("anonymous", cells=1, queue_depth=2)
        assert err.value.status == 429
        assert err.value.retry_after is not None

    def test_inflight_quotas_account_and_release(self):
        controller = AdmissionController(
            default_quota=ClientQuota(max_jobs=1, max_cells=10)
        )
        controller.admit("alice", cells=6, queue_depth=0)
        with pytest.raises(AdmissionError, match="jobs in flight"):
            controller.admit("alice", cells=1, queue_depth=0)
        controller.job_finished("alice", cells=6)
        controller.admit("alice", cells=6, queue_depth=0)
        controller.job_finished("alice", cells=6)
        # the cell cap binds independently of the job cap
        wide = AdmissionController(default_quota=ClientQuota(max_cells=10))
        wide.admit("bob", cells=8, queue_depth=0)
        with pytest.raises(AdmissionError, match="cells in flight"):
            wide.admit("bob", cells=8, queue_depth=0)

    def test_rate_limit_sheds_and_counts(self):
        clock = _FakeClock()
        controller = AdmissionController(
            default_quota=ClientQuota(rate=1.0, burst=1), clock=clock
        )
        controller.check_rate("alice")
        with pytest.raises(AdmissionError) as err:
            controller.check_rate("alice")
        assert err.value.status == 429 and err.value.retry_after >= 1


# ---------------------------------------------------------------------------
# cooperative cancellation (runner + scheduler)
# ---------------------------------------------------------------------------


class TestRunnerCancel:
    def test_cancel_before_start_runs_nothing(self):
        plan = RunPlan([_request(entries=e) for e in (16, 32)])
        results = plan.execute(policy=ExecutionPolicy(), cancel=lambda: True)
        assert results == {} and plan.failures == {}

    def test_cancel_mid_plan_keeps_finished_cells(self):
        requests = [
            _request(program=program, entries=16)
            for program in ("li", "espresso", "gcc", "doduc")
        ]
        done = []

        def cancel_after_two() -> bool:
            return len(done) >= 2

        plan = RunPlan(requests)
        results = plan.execute(
            policy=ExecutionPolicy(),
            observer=lambda event, request, payload: done.append(request),
            cancel=cancel_after_two,
        )
        assert len(results) == 2 and plan.failures == {}

    def test_strict_serial_cancel_returns_partial(self):
        requests = [_request(entries=e) for e in (16, 32, 64)]
        done = []
        plan = RunPlan(requests)
        results = plan.execute(
            observer=lambda event, request, payload: done.append(request),
            cancel=lambda: len(done) >= 1,
        )
        assert len(results) == 1


class TestSchedulerCancel:
    def test_cancel_lands_terminal_with_partials_retained(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        scheduler.start()
        try:
            requests = [
                _request(program=program)
                for program in ("li", "espresso", "gcc", "doduc", "cfront")
            ]
            job = scheduler.submit(_cells_payload(requests))
            # wait for at least one finished cell, then pull the plug
            assert _wait(
                lambda: any(
                    event["event"] == "cell"
                    for event in job.log.events_since(0)
                )
            )
            assert scheduler.request_cancel(job.id) is True
            assert _wait(lambda: job.done)
            assert job.state.value == "cancelled"
            events = [event["event"] for event in job.log.events_since(0)]
            assert events[-1] == "job-cancelled"
            finished = events.count("cell")
            assert 1 <= finished < len(requests)
            # partial results are retained in the store...
            assert store.stats()["entries"] == finished
            # ...and the registry row is terminal with the lease gone
            row = scheduler.registry.get(job.id)
            assert row["state"] == "cancelled" and row["owner"] is None
            # the result document marks unfinished cells
            sources = {cell["source"] for cell in job.result["cells"]}
            assert "cancelled" in sources
        finally:
            scheduler.stop()
            store.close()

    def test_cancel_of_queued_job_never_simulates(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        # not started: the job stays queued until we cancel it
        job = scheduler.submit(_cells_payload([_request()]))
        assert scheduler.request_cancel(job.id) is True
        scheduler.start()
        try:
            assert _wait(lambda: job.done)
            assert job.state.value == "cancelled"
            assert store.stats()["entries"] == 0
        finally:
            scheduler.stop()
            store.close()

    def test_terminal_jobs_refuse_cancellation(self, tmp_path):
        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        scheduler.start()
        try:
            job = scheduler.submit(_cells_payload([_request()]))
            assert _wait(lambda: job.done)
            assert scheduler.request_cancel(job.id) is False
        finally:
            scheduler.stop()
            store.close()


# ---------------------------------------------------------------------------
# crash recovery via leases (in-process)
# ---------------------------------------------------------------------------


class TestLeaseRecovery:
    def test_peer_claims_and_finishes_without_recompute(self, tmp_path):
        """A replica dies holding a lease; a peer claims the job and
        finishes it with every store-resident cell served, not
        recomputed — the multi-replica acceptance invariant."""
        from repro.telemetry.core import Registry, set_registry

        previous = set_registry(Registry(enabled=True))
        path = str(tmp_path / "store.sqlite")
        requests = [_request(entries=e) for e in (16, 32, 64)]

        # seed the store with two of the three cells (the "work the
        # dead replica finished before crashing")
        seed_store = ResultStore(path)
        warm = JobScheduler(seed_store, concurrency=1, owner="rep-warm")
        warm.start()
        seeded = warm.submit(_cells_payload(requests[:2]))
        assert _wait(lambda: seeded.done)
        warm.stop()

        # the "dead" replica: accepts the job, never runs it, and its
        # lease is short enough to lapse immediately
        dead = JobScheduler(
            seed_store, concurrency=1, owner="rep-dead", lease_s=0.05
        )
        victim = dead.submit(_cells_payload(requests), client="alice")
        assert dead.registry.get(victim.id)["owner"] == "rep-dead"
        seed_store.close()
        time.sleep(0.15)  # lease expires

        # the survivor shares the database file and claims on start()
        store_b = ResultStore(path)
        survivor = JobScheduler(
            store_b, concurrency=1, owner="rep-b", lease_s=5.0
        )
        survivor.start()
        try:
            recovered = survivor.get(victim.id)
            assert recovered is not None and recovered.id == victim.id
            assert _wait(lambda: recovered.done)
            assert recovered.state.value == "completed"
            counters = recovered.manifest["counters"]
            # zero lost, zero recomputed: the two seeded cells are
            # store hits, only the never-run third cell computes
            assert counters["store_hits"] == 2
            assert counters["cells_computed"] == 1
            row = survivor.registry.get(victim.id)
            assert row["state"] == "completed" and row["owner"] is None
            # one gapless exactly-once event sequence across both owners
            events = survivor.registry.events(victim.id)
            seqs = [event["seq"] for event in events]
            assert seqs == list(range(len(seqs)))
            kinds = [event["event"] for event in events]
            assert "job-recovered" in kinds
            assert kinds[-1] == "job-completed"
            from repro.telemetry.core import get_registry

            counters = get_registry().counters
            assert counters.get("service.jobs_recovered", 0) >= 1
            assert counters.get("service.lease_takeovers", 0) >= 1
        finally:
            survivor.stop()
            store_b.close()
            set_registry(previous)

    def test_graceful_drain_requeues_unfinished_jobs(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        scheduler = JobScheduler(store, concurrency=1, owner="rep-a")
        scheduler.start()
        try:
            requests = [
                _request(program=program)
                for program in ("li", "espresso", "gcc", "doduc", "cfront", "groff")
            ]
            job = scheduler.submit(_cells_payload(requests))
            assert _wait(
                lambda: any(
                    event["event"] == "cell"
                    for event in job.log.events_since(0)
                )
            )
            scheduler.shutdown(timeout=60.0)
            assert job.suspended or job.done
            row = scheduler.registry.get(job.id)
            # either it just finished, or it went back to the pool
            assert row["state"] in ("queued", "completed")
            assert row["owner"] is None
            if row["state"] == "queued":
                kinds = [
                    event["event"]
                    for event in scheduler.registry.events(job.id)
                ]
                assert kinds[-1] == "job-suspended"
        finally:
            store.close()


# ---------------------------------------------------------------------------
# hardened HTTP surface
# ---------------------------------------------------------------------------


def _http(url, method="GET", payload=None, token=None):
    """Status, parsed JSON body and headers — 4xx/5xx included."""
    headers = {"Content-Type": "application/json"}
    if token is not None:
        headers["Authorization"] = f"Bearer {token}"
    request = urllib.request.Request(
        url,
        data=None if payload is None else json.dumps(payload).encode(),
        headers=headers,
        method=method,
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, json.loads(body) if body else None, dict(
            error.headers
        )


@pytest.fixture()
def gated_service(tmp_path):
    """A service with keys, quotas and a bounded queue."""
    from repro.service.api import ServiceServer

    keyring = Keyring(
        [
            {"client": "alice", "key": "alice-key"},
            {"client": "bob", "key": "bob-key", "max_jobs": 1},
        ]
    )
    admission = AdmissionController(
        keyring=keyring,
        default_quota=ClientQuota(max_jobs=4, max_cells=100),
        max_queue=50,
    )
    store = ResultStore(str(tmp_path / "store.sqlite"))
    scheduler = JobScheduler(store, concurrency=1, admission=admission)
    server = ServiceServer(scheduler)
    url = server.start_background()
    yield url, scheduler
    server.stop_background()
    store.close()


class TestHardenedAPI:
    def test_api_requires_keys_but_probes_stay_open(self, gated_service):
        url, _scheduler = gated_service
        status, body, _ = _http(f"{url}/api/v1/jobs")
        assert status == 401 and body["error"]
        status, body, _ = _http(f"{url}/api/v1/jobs", token="wrong")
        assert status == 401
        status, body, _ = _http(f"{url}/api/v1/jobs", token="alice-key")
        assert status == 200 and body["jobs"] == []
        # liveness/readiness/metrics scrape without credentials
        assert _http(f"{url}/healthz")[0] == 200
        status, body, _ = _http(f"{url}/readyz")
        assert status == 200 and body["ready"] is True
        with urllib.request.urlopen(f"{url}/metrics") as response:
            assert response.status == 200

    def test_submit_cancel_and_job_charge_lifecycle(self, gated_service):
        url, scheduler = gated_service
        requests = [
            _request(program=program)
            for program in ("li", "espresso", "gcc", "doduc", "cfront")
        ]
        status, submitted, _ = _http(
            f"{url}/api/v1/jobs",
            method="POST",
            payload=_cells_payload(requests),
            token="alice-key",
        )
        assert status == 202
        job_id = submitted["job_id"]
        status, body, _ = _http(
            f"{url}/api/v1/jobs/{job_id}/cancel",
            method="POST",
            token="alice-key",
        )
        assert status == 202 and body["cancel_requested"] is True
        job = scheduler.get(job_id)
        assert _wait(lambda: job.done)
        assert job.state.value == "cancelled"
        # a second cancel of the terminal job conflicts
        status, body, _ = _http(
            f"{url}/api/v1/jobs/{job_id}/cancel",
            method="POST",
            token="alice-key",
        )
        assert status == 409
        # the admission charge was returned
        assert scheduler.admission.inflight("alice") == (0, 0)

    def test_overload_sheds_with_retry_after_and_accepted_jobs_finish(
        self, gated_service, tmp_path, monkeypatch
    ):
        """Bob (max one job in flight) floods: exactly the quota is
        accepted, the rest shed with 429 + Retry-After, and every
        accepted job still completes."""
        from repro.telemetry.core import Registry, set_registry
        from repro.testing.faults import FAULTS_ENV_VAR, FaultSpec, write_plan

        # hold the accepted job's first cell for a second, so the job
        # is still in flight when the flood arrives (TINY cells can
        # otherwise finish between two requests and free the quota)
        monkeypatch.setenv(
            FAULTS_ENV_VAR,
            write_plan(
                str(tmp_path / "faults.json"),
                [FaultSpec(action="hang", times=1, hang_s=1.0)],
            ),
        )
        previous = set_registry(Registry(enabled=True))
        url, scheduler = gated_service
        payload = _cells_payload(
            [
                _request(program=program)
                for program in ("li", "espresso", "gcc")
            ]
        )
        outcomes = []
        for _ in range(4):
            status, body, headers = _http(
                f"{url}/api/v1/jobs",
                method="POST",
                payload=payload,
                token="bob-key",
            )
            outcomes.append((status, body, headers))
        accepted = [o for o in outcomes if o[0] == 202]
        shed = [o for o in outcomes if o[0] == 429]
        assert len(accepted) == 1 and len(shed) == 3
        for _status, body, headers in shed:
            assert "Retry-After" in headers
            assert body["status"] == 429
        job = scheduler.get(accepted[0][1]["job_id"])
        assert _wait(lambda: job.done)
        assert job.state.value == "completed"
        assert scheduler.admission.inflight("bob") == (0, 0)
        from repro.telemetry.core import get_registry

        try:
            assert get_registry().counters.get("service.requests_shed", 0) >= 3
        finally:
            set_registry(previous)

    def test_non_resident_events_replay_from_the_registry(self, tmp_path):
        """A restarted replica serves a finished job's persisted event
        log over ``/events?from=N`` even though the job is no longer
        resident in memory."""
        from repro.service.api import ServiceServer

        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        first = JobScheduler(store, concurrency=1, owner="rep-one")
        first.start()
        job = first.submit(_cells_payload([_request(entries=e) for e in (16, 32)]))
        assert _wait(lambda: job.done)
        first.stop()
        store.close()

        # a fresh process on the same store: terminal jobs are not
        # recovered into memory, only their registry history remains
        store_two = ResultStore(path)
        second = JobScheduler(store_two, concurrency=1, owner="rep-two")
        server = ServiceServer(second)
        url = server.start_background()
        try:
            assert second.get(job.id) is None
            with urllib.request.urlopen(
                f"{url}/api/v1/jobs/{job.id}/events?from=0", timeout=30
            ) as response:
                events = [
                    json.loads(line) for line in response if line.strip()
                ]
            assert [event["seq"] for event in events] == list(
                range(len(events))
            )
            assert events[-1]["event"] == "job-completed"
            # resume mid-log: same records, exactly once
            with urllib.request.urlopen(
                f"{url}/api/v1/jobs/{job.id}/events?from=2", timeout=30
            ) as response:
                tail = [json.loads(line) for line in response if line.strip()]
            assert tail == events[2:]
        finally:
            server.stop_background()
            store_two.close()

    def test_unknown_job_cancel_is_404(self, gated_service):
        url, _scheduler = gated_service
        status, body, _ = _http(
            f"{url}/api/v1/jobs/job-nope/cancel",
            method="POST",
            token="alice-key",
        )
        assert status == 404

    def test_malformed_request_line_gets_json_400(self, gated_service):
        url, _scheduler = gated_service
        host, port = url[len("http://") :].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
            response += sock.recv(65536)
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"400" in head.split(b"\r\n")[0]
        assert b"Content-Length:" in head
        assert json.loads(body)["status"] == 400

    def test_oversized_body_gets_json_413(self, gated_service):
        url, _scheduler = gated_service
        host, port = url[len("http://") :].split(":")
        with socket.create_connection((host, int(port)), timeout=5) as sock:
            sock.sendall(
                b"POST /api/v1/jobs HTTP/1.1\r\n"
                b"Content-Length: 99999999999\r\n\r\n"
            )
            response = b""
            while b"\r\n\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
            response += sock.recv(65536)
        head, _, body = response.partition(b"\r\n\r\n")
        assert b"413" in head.split(b"\r\n")[0]
        assert b"Content-Length:" in head
        assert json.loads(body)["status"] == 413

    def test_read_timeout_answers_408(self, tmp_path):
        from repro.service.api import ServiceServer

        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        server = ServiceServer(scheduler, read_timeout=0.2)
        url = server.start_background()
        try:
            host, port = url[len("http://") :].split(":")
            with socket.create_connection((host, int(port)), timeout=5) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")  # never finishes
                response = sock.recv(65536)
            assert b"408" in response.split(b"\r\n")[0]
        finally:
            server.stop_background()
            store.close()


class TestExpositionGauges:
    def test_extra_gauges_render(self):
        from repro.telemetry.core import Registry
        from repro.telemetry.exposition import render_prometheus

        text = render_prometheus(
            Registry(enabled=True),
            extra_gauges={"service_queue_depth": 3},
        )
        assert "repro_service_queue_depth 3" in text
        # the hardening counters appear zero-filled from the start
        for name in (
            "repro_service_requests_shed_total",
            "repro_service_jobs_cancelled_total",
            "repro_service_jobs_recovered_total",
            "repro_service_lease_takeovers_total",
        ):
            assert f"{name} 0" in text


class TestJobsCLI:
    def test_jobs_list_and_cancel_against_the_registry(self, tmp_path, capsys):
        from repro.harness.cli import main

        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        scheduler = JobScheduler(store, concurrency=1, owner="rep-cli")
        job = scheduler.submit(_cells_payload([_request()]), client="alice")
        store.close()
        scheduler.registry.close()

        assert main(["jobs", "list", "--store", path]) == 0
        out = capsys.readouterr().out
        assert job.id in out and "queued" in out and "alice" in out

        assert main(["jobs", "cancel", job.id, "--store", path]) == 0
        out = capsys.readouterr().out
        assert "cancel requested" in out

        registry = JobRegistry(path)
        assert registry.cancel_requested(job.id) is True
        registry.set_state(job.id, "cancelled")
        registry.close()
        assert main(["jobs", "cancel", job.id, "--store", path]) == 1
        assert main(["jobs", "cancel", "job-missing", "--store", path]) == 1

    def test_jobs_argument_validation(self, tmp_path):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["jobs", "cancel"])  # missing job id
        with pytest.raises(SystemExit):
            main(["jobs", "frobnicate"])
        with pytest.raises(SystemExit):
            main(["fig5", "stats"])  # sub-actions stay store/jobs-only
