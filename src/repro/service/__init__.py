"""Simulation-as-a-service: async HTTP API, job scheduler, result store.

The long-running, multi-tenant face of the harness (docs/SERVICE.md).
Five cooperating layers, each usable on its own:

* :mod:`repro.service.store` — a persistent, content-addressed
  :class:`~repro.service.store.ResultStore`: completed simulation
  cells keyed by (content cell key, resolved trace key) in SQLite,
  checksummed payloads, hit/miss/dedup telemetry.  The one durable
  record of finished cells: a plan writes each cell as it completes.
* :mod:`repro.service.registry` — the durable
  :class:`~repro.service.registry.JobRegistry` sharing the store's
  database file: job rows, persisted event logs, and owner leases, so
  restarted or additional replicas recover submitted/running jobs and
  resume ``/events`` streams exactly-once.
* :mod:`repro.service.admission` — API keys, per-client token-bucket
  rate limits, in-flight quotas and bounded-queue load shedding
  (``429 + Retry-After``) via the
  :class:`~repro.service.admission.AdmissionController`.
* :mod:`repro.service.scheduler` + :mod:`repro.service.jobs` — a
  sharded job queue: submitted plans become
  :class:`~repro.service.jobs.Job` values whose cells execute through
  the existing :class:`~repro.harness.runner.RunPlan` backends
  (retries, timeouts, quarantine, engine-class batching all intact),
  store-aware so overlapping jobs share results, with per-cell
  progress events on a streamable (and registry-backed, memory-
  bounded) :class:`~repro.service.jobs.JobEventLog`; cooperative
  cancellation and lease-based crash recovery included.
* :mod:`repro.service.api` — a stdlib-asyncio HTTP server exposing
  submit / status / cancel / NDJSON event streaming / results /
  store stats / health + readiness probes; no framework dependency.

Wire formats (job specs, serialised cells, manifests) live in
:mod:`repro.service.protocol`.
"""

from repro.service.admission import (
    AdmissionController,
    AdmissionError,
    ClientQuota,
    Keyring,
    TokenBucket,
)
from repro.service.jobs import Job, JobEventLog, JobState
from repro.service.protocol import (
    SERVICE_SCHEMA,
    JobSpecError,
    parse_job_spec,
    request_from_dict,
    request_to_dict,
)
from repro.service.registry import JobRegistry, replica_id
from repro.service.scheduler import JobScheduler
from repro.service.store import ResultStore

__all__ = [
    "AdmissionController",
    "AdmissionError",
    "ClientQuota",
    "Job",
    "JobEventLog",
    "JobRegistry",
    "JobScheduler",
    "JobSpecError",
    "JobState",
    "Keyring",
    "ResultStore",
    "SERVICE_SCHEMA",
    "TokenBucket",
    "parse_job_spec",
    "replica_id",
    "request_from_dict",
    "request_to_dict",
]
