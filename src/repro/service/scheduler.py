"""Sharded job queue + scheduler of the simulation service.

A fixed pool of scheduler threads drains a FIFO job queue; each job's
cells execute through the existing
:class:`~repro.harness.runner.RunPlan` machinery, so everything PR 4-6
built survives the service boundary unchanged:

* **sharding** — both run-plan backends group cells by trace (the
  resolved trace key) and replay each shard through one shared
  ``TraceReplayContext``, so batched kernel passes work exactly as
  they do for the CLI; the shard layout is stamped into the job
  manifest (:func:`repro.harness.runner.plan_shards`).  The context
  outlives the job: later jobs on the same trace, from any scheduler
  thread, reuse its memos, and jobs on one trace take turns holding
  it;
* **resilience** — jobs run under an
  :class:`~repro.harness.runner.ExecutionPolicy` (retries, optional
  per-cell deadline, quarantine instead of abort), so one poisoned
  cell degrades one job instead of the service;
* **result sharing** — execution is store-aware: cells already in the
  :class:`~repro.service.store.ResultStore` are served without
  simulation, and fresh results are persisted, so overlapping jobs —
  concurrent or sequential — pay for each unique cell once.

Since the hardening pass the scheduler is also **durable and
multi-replica**.  Every submission is persisted to the
:class:`~repro.service.registry.JobRegistry` (same SQLite file as the
result store) before it is acknowledged, each event is written
through the registry before streamers can see it, and the run plan
puts each completed cell to the store *as it lands* (before its
``cell`` event is logged) — so a SIGKILLed replica loses at most the
cells it was simulating.  A
heartbeat thread renews this replica's leases; a recovery sweep
claims orphaned jobs (crashed peers, or our own pre-restart self) and
re-enqueues them — the store then serves every already-computed cell,
which is what makes recovery cheap.  Cooperative **cancellation**
(:meth:`JobScheduler.request_cancel`, or the registry flag set by any
replica/CLI) stops a running plan between cells and lands the job in
``cancelled`` with its partial results retained.
"""

from __future__ import annotations

import json
import queue
import threading
import time
import traceback
import uuid
from typing import Any, Dict, List, Optional

from repro.harness.checkpoint import cell_key
from repro.harness.runner import (
    ExecutionPolicy,
    RunPlan,
    RunRequest,
    plan_shards,
    quarantined_report,
    resolve_worker_count,
)
from repro.service.admission import AdmissionController
from repro.service.jobs import Job, JobEventLog, JobState
from repro.service.protocol import job_result_payload, parse_job_spec
from repro.service.registry import JobRegistry, replica_id
from repro.service.store import ResultStore
from repro.telemetry.core import get_registry
from repro.telemetry.manifest import job_manifest

#: observer event → provenance source recorded per cell
_SOURCES = {
    "store-hit": "store",
    "completed": "computed",
    "quarantined": "quarantined",
}

#: how often a running plan re-polls the registry cancel flag (s)
_CANCEL_POLL_S = 0.25


class JobScheduler:
    """Thread pool executing submitted jobs against a shared store.

    *concurrency* scheduler threads run whole jobs in parallel;
    *jobs*/*backend* choose how each job's plan executes its cells
    (``process`` fans shards out to worker processes).  The default
    *policy* quarantines failing cells after two retries so a job
    always terminates with a manifest.

    *registry* is the durable job table (defaults to one opened on the
    store's database file); *owner* is this replica's lease identity
    and *lease_s* its lease duration — a replica that misses ~one
    lease of heartbeats forfeits its jobs to peers.  *admission* is
    the optional :class:`~repro.service.admission.AdmissionController`
    the HTTP layer consults; ``None`` (the default, and what the
    in-process tests use) admits everything."""

    def __init__(
        self,
        store: ResultStore,
        backend: str = "serial",
        jobs: Optional[int] = None,
        concurrency: int = 2,
        policy: Optional[ExecutionPolicy] = None,
        registry: Optional[JobRegistry] = None,
        admission: Optional[AdmissionController] = None,
        owner: Optional[str] = None,
        lease_s: float = 15.0,
    ) -> None:
        self.store = store
        self.backend = backend
        self.jobs = None if jobs is None else resolve_worker_count(jobs, warn=False)
        self.concurrency = max(1, int(concurrency))
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.registry = registry if registry is not None else JobRegistry(store.path)
        self.admission = admission
        self.owner = owner or replica_id()
        self.lease_s = float(lease_s)
        self._registry_lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "queue.Queue[Optional[str]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._service_threads: List[threading.Thread] = []
        self._stop_event = threading.Event()
        self._draining = False
        self._started = False

    # -- lifecycle -----------------------------------------------------

    def start(self) -> None:
        """Start the scheduler, heartbeat and recovery threads
        (idempotent).  The first recovery sweep runs before any worker
        starts, so jobs left behind by a previous process on this
        store are re-enqueued ahead of fresh submissions."""
        if self._started:
            return
        self._started = True
        self._stop_event.clear()
        self._draining = False
        self.recover_orphans()
        for index in range(self.concurrency):
            thread = threading.Thread(
                target=self._worker_loop,
                name=f"repro-scheduler-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        for name, target in (
            ("repro-lease-heartbeat", self._heartbeat_loop),
            ("repro-lease-recovery", self._recovery_loop),
        ):
            thread = threading.Thread(target=target, name=name, daemon=True)
            thread.start()
            self._service_threads.append(thread)

    def stop(self, timeout: float = 10.0) -> None:
        """Stop accepting work and join the scheduler threads."""
        if not self._started:
            return
        self._stop_event.set()
        for _ in self._threads:
            self._queue.put(None)
        for thread in self._threads:
            thread.join(timeout)
        for thread in self._service_threads:
            thread.join(timeout)
        self._threads.clear()
        self._service_threads.clear()
        self._started = False

    def shutdown(self, timeout: float = 30.0) -> None:
        """Graceful drain (the SIGTERM path): running jobs stop at the
        next cell boundary and are handed back to the registry as
        ``queued`` (suspended locally, recoverable by any replica —
        every cell they completed is already in the store), queued
        jobs and leases are released, and the worker threads join."""
        self._draining = True
        self.stop(timeout=timeout)
        self.registry.release_owner(self.owner)

    # -- submission / lookup -------------------------------------------

    def submit(self, payload: Any, client: str = "") -> Job:
        """Validate *payload* into a job, persist it, and enqueue it.

        The registry row and the ``job-queued`` event are durable
        before this returns — an acknowledged submission survives any
        crash that follows."""
        spec = parse_job_spec(payload)
        job_id = f"job-{uuid.uuid4().hex[:12]}"
        self.registry.create(
            job_id,
            spec.raw,
            spec.kind,
            spec.name,
            len(spec.cells),
            client=client,
            owner=self.owner,
            lease_s=self.lease_s,
        )
        log = JobEventLog(backing=self.registry.log_backing(job_id))
        job = Job(spec, job_id=job_id, log=log)
        job.client = client
        with self._registry_lock:
            self._jobs[job.id] = job
            self._order.append(job.id)
        job.log.append(
            "job-queued",
            job_id=job.id,
            kind=spec.kind,
            name=spec.name,
            cells=len(spec.cells),
        )
        get_registry().counter("service.jobs_submitted").add()
        self._queue.put(job.id)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job with *job_id*, or ``None``."""
        with self._registry_lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Dict[str, Any]]:
        """Status dicts of every known job, oldest first."""
        with self._registry_lock:
            jobs = [self._jobs[job_id] for job_id in self._order]
        return [job.status_dict() for job in jobs]

    def counts(self) -> Dict[str, int]:
        """Job totals by state (the health endpoint's summary)."""
        totals = {state.value: 0 for state in JobState}
        for status in self.list_jobs():
            totals[status["state"]] += 1
        return totals

    def queue_depth(self) -> int:
        """Jobs accepted but not yet picked up by a worker (the
        admission layer's backpressure signal)."""
        return self._queue.qsize()

    def request_cancel(self, job_id: str) -> bool:
        """Ask *job_id* to stop at its next cell boundary.

        Sets both the in-memory flag (fast path for jobs this replica
        runs) and the durable registry flag (so cancels reach jobs
        owned by peers, or jobs that recover later); ``False`` when
        the job is unknown or already terminal."""
        job = self.get(job_id)
        durable = self.registry.request_cancel(job_id)
        if job is not None:
            return job.request_cancel() or durable
        return durable

    # -- lease maintenance ---------------------------------------------

    def _heartbeat_loop(self) -> None:
        interval = max(0.05, self.lease_s / 3.0)
        while not self._stop_event.wait(interval):
            self.registry.heartbeat(self.owner, self.lease_s)

    def _recovery_loop(self) -> None:
        interval = max(0.1, self.lease_s)
        while not self._stop_event.wait(interval):
            if not self._draining:
                self.recover_orphans()

    def recover_orphans(self) -> int:
        """Claim and re-enqueue every recoverable job whose lease
        lapsed (dead replica) or that has no owner (released by a
        graceful drain, or submitted by a process that never ran it).

        Recovered jobs resume with their persisted event history —
        streamers that reconnect with ``?from=N`` see one gapless
        sequence across the crash — and re-execute store-aware, so
        cells computed before the crash are served, not re-simulated.
        Returns how many jobs were claimed."""
        telemetry = get_registry()
        claimed = self.registry.claim_orphans(self.owner, self.lease_s)
        recovered = 0
        for row, takeover in claimed:
            job_id = row["job_id"]
            with self._registry_lock:
                if job_id in self._jobs and not self._jobs[job_id].suspended:
                    continue
            try:
                spec = parse_job_spec(json.loads(row["spec"]))
            except Exception:
                # a spec this build can no longer parse is failed, not
                # silently dropped — the row explains why
                self.registry.set_state(
                    job_id, "failed", error="unrecoverable spec"
                )
                continue
            log = JobEventLog(
                backing=self.registry.log_backing(job_id),
                base=int(row["events"]),
            )
            job = Job(spec, job_id=job_id, log=log)
            job.client = row.get("client", "")
            job.submitted_s = row["submitted_s"]
            with self._registry_lock:
                self._jobs[job_id] = job
                if job_id not in self._order:
                    self._order.append(job_id)
            job.log.append(
                "job-recovered",
                job_id=job_id,
                owner=self.owner,
                takeover=takeover,
                prior_events=int(row["events"]),
            )
            telemetry.counter("service.jobs_recovered").add()
            if takeover:
                telemetry.counter("service.lease_takeovers").add()
            self._queue.put(job_id)
            recovered += 1
        return recovered

    # -- execution -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            job = self.get(job_id)
            if job is None:  # pragma: no cover - registry never drops jobs
                continue
            try:
                self._run_job(job)
            except Exception as exc:
                # a scheduler bug must not leave the job spinning
                job.log.append(
                    "job-failed", job_id=job.id, error=f"{type(exc).__name__}: {exc}"
                )
                job.fail(
                    f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}"
                )
                self.registry.set_state(
                    job.id, "failed", error=f"{type(exc).__name__}: {exc}"
                )
                get_registry().counter("service.jobs_failed").add()
                self._job_charge_returned(job)

    def _cancel_predicate(self, job: Job):
        """The cooperative stop predicate polled between cells: the
        in-memory cancel flag, a drain in progress, or (throttled) the
        registry's durable cancel flag set by a peer or the CLI."""
        last_poll = [0.0]

        def should_stop() -> bool:
            """True once the job is cancelled or the scheduler drains."""
            if job.cancel_requested or self._draining:
                return True
            now = time.monotonic()
            if now - last_poll[0] >= _CANCEL_POLL_S:
                last_poll[0] = now
                if self.registry.cancel_requested(job.id):
                    job.request_cancel()
                    return True
            return False

        return should_stop

    def _job_charge_returned(self, job: Job) -> None:
        """Return a finished job's in-flight admission charge."""
        if self.admission is not None:
            self.admission.job_finished(job.client, len(job.spec.cells))

    def _run_job(self, job: Job) -> None:
        registry = get_registry()
        spec = job.spec
        if job.cancel_requested or self.registry.cancel_requested(job.id):
            self._finish_cancelled(job, {}, {}, None, 0.0)
            return
        job.mark_running()
        self.registry.set_state(job.id, "running")
        plan = RunPlan(spec.cells)
        shards = plan_shards(plan.requests)
        job.log.append(
            "job-started",
            job_id=job.id,
            cells_requested=plan.requested,
            cells_unique=plan.unique,
            shards=len(shards),
            backend=spec.backend,
            engine=spec.engine,
        )
        sources: Dict[RunRequest, str] = {}

        def observer(event: str, request: RunRequest, payload: Any) -> None:
            """Log one cell outcome to the job's event stream and note its source."""
            source = _SOURCES.get(event, event)
            sources[request] = source
            fields: Dict[str, Any] = {
                "job_id": job.id,
                "cell": cell_key(request),
                "config": request.config.label(),
                "program": request.program,
                "source": source,
            }
            if event == "quarantined":
                fields["error_type"] = payload.error_type
                fields["error"] = payload.message
            job.log.append("cell", **fields)

        started = time.perf_counter()
        reports = plan.execute(
            backend=spec.backend,
            jobs=spec.jobs if spec.jobs is not None else self.jobs,
            policy=self.policy,
            store=self.store,
            observer=observer,
            cancel=self._cancel_predicate(job),
        )
        wall = time.perf_counter() - started
        if job.cancel_requested:
            self._finish_cancelled(job, reports, sources, plan, wall)
            return
        incomplete = len(reports) + len(plan.failures) < plan.unique
        if self._draining and incomplete:
            self._suspend(job, plan)
            return
        for request in plan.failures:
            reports[request] = quarantined_report(request)
        rendered = None
        if spec.finish is not None:
            rendered = spec.finish(reports)
        result = job_result_payload(job.id, spec, reports, sources, rendered)
        computed = sum(1 for source in sources.values() if source == "computed")
        manifest = job_manifest(
            job.id,
            counters={
                "kind": spec.kind,
                "name": spec.name,
                "engine": spec.engine,
                "backend": spec.backend,
                "cells_requested": plan.requested,
                "cells_unique": plan.unique,
                "dedup_cells": plan.requested - plan.unique,
                "store_hits": plan.store_hits,
                "store_misses": plan.store_misses,
                "cells_computed": computed,
                "cells_quarantined": len(plan.failures),
                "shard_count": len(shards),
                "shards": shards,
                "wall_time_s": wall,
                "store": self.store.stats(),
            },
        )
        registry.counter("service.jobs_completed").add()
        registry.counter("service.cells_served_from_store").add(plan.store_hits)
        registry.counter("service.cells_computed").add(computed)
        job.log.append(
            "job-completed",
            job_id=job.id,
            cells_unique=plan.unique,
            store_hits=plan.store_hits,
            store_misses=plan.store_misses,
            cells_computed=computed,
            cells_quarantined=len(plan.failures),
            wall_time_s=wall,
        )
        job.complete(result, manifest)
        self.registry.set_state(job.id, "completed")
        self._job_charge_returned(job)

    def _finish_cancelled(
        self,
        job: Job,
        reports: Dict[RunRequest, Any],
        sources: Dict[RunRequest, str],
        plan: Optional[RunPlan],
        wall: float,
    ) -> None:
        """Land *job* in terminal ``cancelled``: partial results kept
        (everything computed so far is already in the store), lease
        released, final event appended before the state flips."""
        spec = job.spec
        for request in spec.cells:
            if request not in reports:
                sources.setdefault(request, "cancelled")
        result = job_result_payload(job.id, spec, reports, sources, None)
        computed = sum(1 for source in sources.values() if source == "computed")
        manifest = job_manifest(
            job.id,
            counters={
                "kind": spec.kind,
                "name": spec.name,
                "state": "cancelled",
                "cells_unique": 0 if plan is None else plan.unique,
                "cells_finished": len(reports),
                "store_hits": 0 if plan is None else plan.store_hits,
                "cells_computed": computed,
                "wall_time_s": wall,
            },
        )
        job.log.append(
            "job-cancelled",
            job_id=job.id,
            cells_finished=len(reports),
            cells_total=len(spec.cells),
        )
        job.mark_cancelled(result, manifest)
        self.registry.set_state(job.id, "cancelled")
        get_registry().counter("service.jobs_cancelled").add()
        self._job_charge_returned(job)

    def _suspend(self, job: Job, plan: RunPlan) -> None:
        """Hand an unfinished job back to the registry (graceful
        drain): state returns to ``queued`` with the lease released,
        so any replica — including a restarted self — can claim it.
        The ``job-suspended`` event closes this replica's streams."""
        finished = len(job.log)  # events so far, for the record
        job.log.append(
            "job-suspended",
            job_id=job.id,
            owner=self.owner,
            events=finished + 1,
        )
        job.suspended = True
        self.registry.set_state(job.id, "queued", release_lease=True)
