"""Run-plan executor: simulate (config × program) grids through
pluggable backends, resiliently.

The harness is layered spec → plan → backend (see DESIGN.md,
"Harness architecture"):

* experiments declare the cells they need as :class:`RunRequest`
  values — picklable descriptions, never live engines;
* a :class:`RunPlan` collects requests (possibly from many
  experiments), **dedups** identical ``(config, program, instructions,
  seed, layout, warmup)`` keys, and executes the unique cells through
  one of the registered :data:`BACKENDS`:

  - ``serial`` — in-process loop, bit-identical to the historical
    single-threaded sweep (the default);
  - ``process`` — a supervised ``ProcessPoolExecutor``; cells are
    batched by trace key so each worker generates a given trace once
    and memoises it via :mod:`repro.workloads.corpus`.

Both backends group cells **by trace** (the fully resolved trace key)
and execute each group's fast cells — batched and single engine
classes alike — against one shared
:class:`~repro.fetch.fast_engine.TraceReplayContext`: the packed
trace's sub-replays (flush epochs, icache replay, residency probes,
gshare scan, table sorts) are computed once per trace instead of once
per cell.  The context is retained across plans
(:func:`~repro.fetch.fast_engine.retained_context`), so later plans
over the same trace — the service's one-cell jobs, from any scheduler
thread — reuse it; a batch holds it, lock and all, until its last
cell ends.  Pool workers drop theirs after each batch.  Inside the
context the NLS-table memo has two levels: the slot replay depends
only on (front-end, table size, flush interval) and is shared by
every cache geometry, leaving a thin per-geometry pass for the line
and way fields.  A context holds one instruction
cache's memos at a time (a new cache key — geometry, replacement
policy, flush interval — releases the previous one's), so within a
batch the cells run grouped by cache key and nothing is rebuilt; when
telemetry is on, the ``replay.memo_peak_bytes`` histogram records
each batch's peak memo bytes.  Each cell still builds its own engine
and fans back out to a per-cell byte-identical
:class:`~repro.metrics.report.SimulationReport` whose manifest records
its ``engine_class``, so persistence, attribution, telemetry and
export are untouched by the batching.

Passing an :class:`ExecutionPolicy` turns on the resilience layer
(DESIGN.md §12), with identical semantics on both backends:

* **per-cell retry** with exponential backoff + deterministic jitter
  and an optional per-cell deadline (SIGALRM-based, enforced inside
  the executing process);
* **failure classification** — transient failures (worker died, pool
  broke, deadline exceeded) retry until ``max_retries`` is exhausted;
  a cell failing with the *same exception twice* is deterministic and
  quarantines immediately;
* **graceful degradation** — quarantined cells no longer abort the
  plan; they are collected as :class:`CellFailure` records
  (``plan.failures``) for the CLI's ``FAILURES.json`` manifest while
  every healthy cell still completes;
* **pool supervision** — a ``BrokenProcessPool`` rebuilds the pool and
  redistributes the in-flight cells; a pool that cannot start at all
  degrades to the serial backend with a warning, a
  ``runner.pool_fallback`` counter, and a ``pool_fallback`` marker in
  each cell's :class:`~repro.telemetry.manifest.RunManifest`.

Without a policy both backends keep the strict contract: one attempt
per cell, and the first failing cell raises
:class:`CellExecutionError` (naming the cell) and aborts the plan.

Given a result store (:class:`~repro.service.store.ResultStore`),
every cell is written to it the moment it completes — on either
backend, with or without a policy — so a run killed mid-plan keeps
every finished cell, and re-running it with the same store simulates
only the rest.

Every cell's report carries a :class:`~repro.metrics.report.RunMetadata`
and a :class:`~repro.telemetry.manifest.RunManifest`, so provenance
survives aggregation and export.  When a telemetry registry is active
(see :mod:`repro.telemetry`), cells are wrapped in ``runner.cell``
spans and the resilience layer emits ``runner.retries``,
``runner.quarantined``, ``runner.cell_timeouts`` and
``runner.pool_rebuilds`` counters; pool workers record into private
registries whose snapshots ship back with each batch and merge into
the parent's.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import random
import signal
import threading
import time
import traceback as traceback_module
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.fetch.capability import fallback_reason
from repro.harness.checkpoint import CellFailure, cell_key
from repro.harness.config import ArchitectureConfig
from repro.metrics.report import RunMetadata, SimulationReport
from repro.telemetry import manifest as manifest_module
from repro.telemetry.core import Registry, get_registry, set_registry
from repro.testing import faults as faults_module
from repro.workloads.corpus import clear_cache, generate_trace, trace_key
from repro.workloads.trace import Trace


#: default warmup fraction — the first 30% of every trace trains the
#: structures without being counted (see FetchEngine.run)
DEFAULT_WARMUP = 0.30


#: observer events a plan execution can emit (see :func:`notify`)
OBSERVER_EVENTS = (
    "store-hit",
    "completed",
    "quarantined",
)


#: an execution observer: ``observer(event, request, payload)`` where
#: *event* is one of :data:`OBSERVER_EVENTS`, and *payload* is the
#: cell's report (``store-hit``/``completed``) or its
#: :class:`~repro.harness.checkpoint.CellFailure` (``quarantined``)
PlanObserver = Callable[[str, "RunRequest", Any], None]


def notify(
    observer: Optional[PlanObserver],
    event: str,
    request: "RunRequest",
    payload: Any,
) -> None:
    """Deliver one observer event, swallowing observer exceptions.

    Observers are progress taps (the service layer streams them to
    clients); a broken observer must never take a running plan down
    with it, so delivery failures are contained here."""
    if observer is None:
        return
    try:
        observer(event, request, payload)
    except Exception:  # pragma: no cover - observer bugs stay contained
        pass


def validate_worker_count(value: Any) -> int:
    """Parse and validate a worker count, shared by the CLI and the
    service API.

    Accepts anything ``int()`` can parse; raises :class:`ValueError`
    with a clean one-line message for non-integers and negatives.
    ``0`` means "one worker per CPU" and is preserved verbatim —
    :func:`resolve_worker_count` turns it into a concrete count."""
    try:
        parsed = int(str(value))
    except (TypeError, ValueError):
        raise ValueError(
            f"expected an integer worker count, got {value!r}"
        ) from None
    if parsed < 0:
        raise ValueError(
            f"worker count must be >= 0 (0 = one per CPU), got {parsed}"
        )
    return parsed


def resolve_worker_count(
    value: Any, cpus: Optional[int] = None, warn: bool = True
) -> int:
    """Resolve a requested worker count to a concrete pool size.

    The one validated resolver both the CLI (``--jobs``) and the
    service share: *value* is validated by
    :func:`validate_worker_count`, ``0``/``None`` become one worker
    per CPU, and values above the CPU count clamp (with a
    ``RuntimeWarning`` unless *warn* is off)."""
    parsed = validate_worker_count(0 if value is None else value)
    available = cpus if cpus is not None else (os.cpu_count() or 1)
    if parsed == 0:
        return available
    if parsed > available:
        if warn:
            warnings.warn(
                f"worker count {parsed} exceeds the {available} available "
                f"CPU(s); clamping to {available}",
                RuntimeWarning,
                stacklevel=2,
            )
        return available
    return parsed


@dataclass(frozen=True)
class RunRequest:
    """One simulation cell: *config* applied to one generated trace.

    A request is a pure value — hashable (so plans can dedup it) and
    picklable (so process-pool workers can rebuild the engine on their
    side).  ``instructions``/``seed`` of ``None`` defer to the
    program profile's calibrated defaults, exactly as
    :func:`~repro.workloads.corpus.generate_trace` resolves them.
    """

    config: ArchitectureConfig
    program: str
    instructions: Optional[int] = None
    seed: Optional[int] = None
    layout: str = "natural"
    warmup: float = DEFAULT_WARMUP

    def resolved_trace_key(self):
        """Fully-resolved key of the trace this cell simulates (cells
        sharing it are batched onto the same pool worker)."""
        return trace_key(
            self.program,
            instructions=self.instructions,
            seed=self.seed,
            layout=self.layout,
        )


#: retry backoff: the first retry waits about ``BACKOFF_BASE_S``, each
#: later one twice as long, capped at ``BACKOFF_CAP_S``
BACKOFF_BASE_S = 0.05
BACKOFF_CAP_S = 2.0
#: jitter fraction added to each backoff (deterministic, seeded by
#: ``BACKOFF_SEED``, the cell key and the attempt number)
BACKOFF_JITTER = 0.25
BACKOFF_SEED = 0


@dataclass(frozen=True)
class ExecutionPolicy:
    """Resilience knobs for one plan execution (DESIGN.md §12).

    ``max_retries`` counts *retries after the first attempt*: a cell
    quarantines once it has failed ``max_retries + 1`` times — or
    sooner, when the same exception repeats (deterministic failure).
    ``cell_timeout`` is enforced with ``SIGALRM`` inside whichever
    process executes the cell, so it works identically for the serial
    and process backends (and is skipped off the main thread, where
    POSIX signals cannot be delivered).
    """

    max_retries: int = 2
    cell_timeout: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive")

    def backoff_delay(self, key: str, attempts: int) -> float:
        """Exponential backoff with deterministic jitter for retry
        number *attempts* of the cell identified by *key*."""
        base = BACKOFF_BASE_S * (2 ** max(attempts - 1, 0))
        capped = min(base, BACKOFF_CAP_S)
        rng = random.Random(f"{BACKOFF_SEED}:{key}:{attempts}")
        return capped * (1.0 + BACKOFF_JITTER * rng.random())


class CellExecutionError(RuntimeError):
    """A simulation cell failed inside an executor backend.

    Built in the parent from the error record a worker returns, so it
    names the offending cell — config label, program and seed — which
    is what a sweep over hundreds of cells needs to be debuggable.
    Carries the cell identity and the original traceback text as
    attributes; ``BaseException``'s own pickling keeps them, since it
    restores the instance ``__dict__``.
    """

    def __init__(
        self,
        message: str,
        cell: str = "",
        program: str = "",
        error_type: str = "",
        traceback_text: str = "",
        attempts: int = 1,
    ) -> None:
        super().__init__(message)
        self.cell = cell
        self.program = program
        self.error_type = error_type
        self.traceback_text = traceback_text
        self.attempts = attempts


class CellTimeoutError(RuntimeError):
    """A cell overran its :class:`ExecutionPolicy` deadline."""


#: error-record types the classifier always treats as transient
TRANSIENT_ERROR_TYPES = frozenset(
    {"CellTimeoutError", "WorkerCrashError", "BrokenProcessPool"}
)


@contextmanager
def _deadline(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`CellTimeoutError` in the current process after
    *seconds*.  SIGALRM-based, so it interrupts genuinely hung cells;
    silently a no-op without a deadline, off the main thread, or on
    platforms without ``SIGALRM``."""
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expire(signum, frame):
        raise CellTimeoutError(f"cell exceeded its {seconds}s deadline")

    previous = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _error_record(exc: BaseException) -> Dict[str, Any]:
    """Picklable description of a cell failure (the retry currency)."""
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback_module.format_exception(type(exc), exc, exc.__traceback__)
        ),
    }


def _is_transient(record: Dict[str, Any]) -> bool:
    return record.get("type") in TRANSIENT_ERROR_TYPES


def run_request(
    request: RunRequest,
    backend: str = "serial",
    manifest_extra: Optional[Dict[str, Any]] = None,
    context: Optional[Any] = None,
) -> SimulationReport:
    """Execute one cell: generate (or reuse) the trace, build a fresh
    engine from the picklable config, run, and stamp provenance.

    The cell is wrapped in a ``runner.cell`` telemetry span (a no-op
    unless a registry is active — see :mod:`repro.telemetry`), and the
    report carries both a :class:`RunMetadata` and a
    :class:`~repro.telemetry.manifest.RunManifest` (*manifest_extra*
    lands in the manifest's ``extra`` field, alongside the stamped
    ``engine`` that actually ran the cell, its ``engine_class`` when
    the fast engine ran it, and — when a ``fast`` config fell back to
    the reference loop — the machine-readable ``engine_fallback``
    reason).  *context* optionally shares a batch
    :class:`~repro.fetch.fast_engine.TraceReplayContext` with the
    engine; it never changes results, only reuses sub-replays."""
    registry = get_registry()
    config = request.config
    label = config.label()
    faults_module.fire("cell", program=request.program, config=label)
    with registry.span(
        "runner.cell", config=label, program=request.program, backend=backend
    ):
        trace = generate_trace(
            request.program,
            instructions=request.instructions,
            seed=request.seed,
            layout=request.layout,
        )
        started = time.perf_counter()
        cpu_started = time.process_time()
        engine = config.build()
        if context is not None and hasattr(engine, "attach_context"):
            engine.attach_context(context)
        report = engine.run(
            trace, label=label, warmup_fraction=request.warmup
        )
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu_started
    registry.counter("runner.cells").add()
    registry.histogram("runner.cell_wall_ms").observe(int(wall * 1000))
    meta = RunMetadata(
        config_label=label,
        program=request.program,
        instructions=request.instructions,
        seed=request.seed,
        layout=request.layout,
        warmup=request.warmup,
        backend=backend,
        wall_time_s=wall,
        pid=os.getpid(),
    )
    extra = dict(manifest_extra or {})
    extra["engine"] = getattr(engine, "engine_name", "reference")
    cell_class = getattr(engine, "engine_class", None)
    if cell_class is not None:
        extra["engine_class"] = cell_class.value
    fallback = getattr(engine, "engine_fallback", None)
    if fallback is not None:
        extra["engine_fallback"] = fallback
    manifest = manifest_module.collect(
        config_label=label,
        program=request.program,
        trace_key=request.resolved_trace_key(),
        wall_time_s=wall,
        cpu_time_s=cpu,
        extra=extra,
    )
    return replace(report, meta=meta, manifest=manifest)


def quarantined_report(request: RunRequest) -> SimulationReport:
    """Zero-metric placeholder standing in for a quarantined cell.

    Lets every renderer finish the sweep with the healthy cells while
    marking the hole: all counts are zero and the metadata backend is
    ``"quarantined"``, which exports carry through verbatim."""
    return SimulationReport(
        label=request.config.label(),
        program=request.program,
        n_instructions=0,
        n_breaks=0,
        misfetches=0,
        mispredicts=0,
        icache_accesses=0,
        icache_misses=0,
        penalties=request.config.penalties,
        meta=RunMetadata(
            config_label=request.config.label(),
            program=request.program,
            instructions=request.instructions,
            seed=request.seed,
            layout=request.layout,
            warmup=request.warmup,
            backend="quarantined",
        ),
    )


def _cell_error_from_record(
    request: RunRequest, record: Dict[str, Any], attempts: int = 1
) -> CellExecutionError:
    """Build the cell-naming error from a picklable failure record."""
    return CellExecutionError(
        f"simulation cell failed: config={request.config.label()!r} "
        f"program={request.program!r} seed={request.seed!r} "
        f"layout={request.layout!r}: {record['type']}: {record['message']}",
        cell=request.config.label(),
        program=request.program,
        error_type=record["type"],
        traceback_text=record.get("traceback", ""),
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# supervision bookkeeping (shared by both backends)
# ---------------------------------------------------------------------------


class _PlanSupervisor:
    """Per-execution retry/quarantine/persistence bookkeeping.

    One instance supervises one plan execution; both backends drive it
    with :meth:`succeed` / :meth:`fail`, so the retry taxonomy,
    quarantine rules and store writes are identical everywhere.
    Without a *policy* it enforces the strict contract: one attempt
    per cell, and the first failure raises the cell-naming
    :class:`CellExecutionError`.
    """

    def __init__(
        self,
        policy: Optional[ExecutionPolicy],
        store: Optional[Any] = None,
        observer: Optional[PlanObserver] = None,
    ) -> None:
        self.strict = policy is None
        self.policy = ExecutionPolicy(max_retries=0) if policy is None else policy
        self.store = store
        self.observer = observer
        self.registry = get_registry()
        self.results: Dict[RunRequest, SimulationReport] = {}
        self.failures: Dict[RunRequest, CellFailure] = {}
        self.attempts: Dict[RunRequest, int] = {}
        self._signatures: Dict[RunRequest, Tuple[str, str]] = {}

    def succeed(self, request: RunRequest, report: SimulationReport) -> None:
        """Record one completed cell, writing it to the store (when
        given) before any observer hears of it: a crash after this
        call loses nothing.  Store errors propagate — a cell the store
        failed to keep must not pass for a persisted one."""
        self.results[request] = report
        if self.store is not None:
            self.store.put(request, report)
        notify(self.observer, "completed", request, report)

    def fail(self, request: RunRequest, record: Dict[str, Any]) -> Optional[float]:
        """Record one failed attempt; returns the backoff delay for a
        retry, or ``None`` when the cell is now quarantined.

        Transient failures (deadline, dead worker, broken pool) retry
        until ``max_retries`` is exhausted.  Any other failure retries
        too — unless it repeats with the same type and message, which
        marks it deterministic and quarantines it on the spot.  In
        strict mode (no policy) quarantine raises instead.
        """
        attempts = self.attempts.get(request, 0) + 1
        self.attempts[request] = attempts
        if record.get("type") == "CellTimeoutError":
            self.registry.counter("runner.cell_timeouts").add()
        signature = (record.get("type", ""), record.get("message", ""))
        repeated = (
            not _is_transient(record)
            and self._signatures.get(request) == signature
        )
        self._signatures[request] = signature
        if repeated or attempts > self.policy.max_retries:
            self._quarantine(request, record, attempts, repeated)
            return None
        self.registry.counter("runner.retries").add()
        return self.policy.backoff_delay(cell_key(request), attempts)

    def _quarantine(
        self,
        request: RunRequest,
        record: Dict[str, Any],
        attempts: int,
        repeated: bool,
    ) -> None:
        if self.strict:
            raise _cell_error_from_record(request, record, attempts=attempts)
        self.registry.counter("runner.quarantined").add()
        with self.registry.span(
            "runner.quarantine",
            config=request.config.label(),
            program=request.program,
            error=record.get("type", ""),
        ):
            pass
        failure = CellFailure(
            request=request,
            error_type=record.get("type", ""),
            message=record.get("message", ""),
            traceback=record.get("traceback", ""),
            attempts=attempts,
            kind="deterministic" if repeated else "exhausted",
        )
        self.failures[request] = failure
        notify(self.observer, "quarantined", request, failure)


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

_ExecuteResult = Tuple[
    Dict[RunRequest, SimulationReport], Dict[RunRequest, CellFailure]
]


def _cache_order(request: RunRequest) -> tuple:
    """Sort key grouping a batch's cells by the replay context's cache
    key (:func:`~repro.fetch.fast_engine._cache_key`).  A ``None``
    flush interval must still compare, and a cell with an invalid
    geometry sorts first and fails through :func:`run_request`'s own
    path."""
    from repro.fetch.fast_engine import _cache_key

    config = request.config
    try:
        geometry = config.geometry
    except ValueError:
        return (0,)
    *cache, interval = _cache_key(
        geometry, config.cache_replacement, config.flush_interval
    )
    return (1, *cache, interval is not None, interval or 0)


@contextmanager
def _shared_batch_context(batch: Sequence[RunRequest]) -> Iterator[Any]:
    """Hold the retained ``TraceReplayContext`` of the batch's trace
    while the batch runs, or yield ``None`` when no cell can use it.

    Purely a reuse vehicle — every cell's report stays byte-identical
    to a solo run.  On the way out, when telemetry is on, the
    ``replay.memo_peak_bytes`` histogram records the batch's peak memo
    bytes."""
    fast = [
        request
        for request in batch
        if request.config.engine == "fast"
        and fallback_reason(request.config) is None
    ]
    trace = None
    if fast:
        first = fast[0]
        try:
            trace = generate_trace(
                first.program,
                instructions=first.instructions,
                seed=first.seed,
                layout=first.layout,
            )
        except Exception:
            # if the trace cannot be generated the cells run solo and
            # fail — or succeed — through run_request's own path
            pass
    if trace is None:
        yield None
        return
    from repro.fetch.fast_engine import retained_context

    with retained_context(trace) as context:
        yield context
        get_registry().histogram("replay.memo_peak_bytes").observe(
            context.peak_bytes
        )


def _run_serially(
    supervisor: _PlanSupervisor,
    requests: Sequence[RunRequest],
    manifest_extra: Optional[Dict[str, Any]] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> None:
    """Execute *requests* in-process under *supervisor*: cells grouped
    by trace, each group sharing one batch context and running one
    cache key at a time.  Failing cells retry with backoff under the
    per-cell deadline until the supervisor quarantines them (or, in
    strict mode, raises); a retry asks for the same cache key, so it
    keeps that cache's memos.

    A *cancel* predicate is polled between cells: once it returns
    true, no further cell starts."""
    for group in _batches_by_trace(requests):
        if cancel is not None and cancel():
            return
        # a new trace's context evicts the idle previous one, so the
        # batches of one plan never hold two at once
        with _shared_batch_context(group) as context:
            for request in group:
                if cancel is not None and cancel():
                    return
                while True:
                    try:
                        with _deadline(supervisor.policy.cell_timeout):
                            report = run_request(
                                request,
                                backend="serial",
                                manifest_extra=manifest_extra,
                                context=context,
                            )
                    except Exception as exc:
                        delay = supervisor.fail(request, _error_record(exc))
                        if delay is None:
                            break
                        if delay > 0:
                            time.sleep(delay)
                    else:
                        supervisor.succeed(request, report)
                        break


def _execute_serial(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
    store: Optional[Any] = None,
    observer: Optional[PlanObserver] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> _ExecuteResult:
    """In-process backend (see :func:`_run_serially`).

    Once *cancel* returns true the partial results are returned —
    cells neither completed nor quarantined are simply absent from
    both mappings (the cooperative-cancellation contract the service
    scheduler relies on)."""
    supervisor = _PlanSupervisor(policy, store=store, observer=observer)
    _run_serially(supervisor, requests, cancel=cancel)
    return supervisor.results, supervisor.failures


def _batches_by_trace(requests: Sequence[RunRequest]) -> List[List[RunRequest]]:
    """Group cells by trace, so the trace is generated once and every
    engine class of the group replays it through one shared batch
    context.

    Within a batch, cells are sorted stably by their instruction
    cache's key (request order is kept among cells of one cache), so
    the context, which holds one cache's memos at a time, rebuilds
    none.  Batches are sorted by fully resolved trace key, so both
    backends see an identical work order regardless of
    ``PYTHONHASHSEED`` — batch assignment is reproducible run to run.
    """
    groups: Dict[tuple, List[RunRequest]] = {}
    for request in requests:
        groups.setdefault(request.resolved_trace_key(), []).append(request)
    return [sorted(groups[key], key=_cache_order) for key in sorted(groups)]


def plan_shards(requests: Sequence[RunRequest]) -> List[Dict[str, Any]]:
    """Describe the per-trace shards a plan executes as — one entry per
    batch, in deterministic batch order.

    The service layer stamps this into job manifests so clients can
    see how their cells were grouped (and that batched kernel passes
    survived the service boundary); it is also what the scheduler
    reports as a job's shard count."""
    return [
        {
            "trace_key": list(batch[0].resolved_trace_key()),
            "cells": len(batch),
        }
        for batch in _batches_by_trace(requests)
    ]


def _worker_init(telemetry_enabled: bool = False) -> None:
    """Pool initialiser: start each worker with an empty, private
    trace corpus and no retained replay contexts (nothing stale
    inherited across a fork) and — when the parent has telemetry on —
    a fresh per-worker registry whose snapshot ships back with every
    batch result."""
    from repro.fetch.fast_engine import clear_contexts

    clear_cache()
    clear_contexts()
    if telemetry_enabled:
        set_registry(Registry(enabled=True))


#: one worker-side cell outcome: (request, "ok", report) or
#: (request, "error", error_record)
_Outcome = Tuple[RunRequest, str, Any]


def _run_batch_outcomes(
    batch: List[RunRequest], cell_timeout: Optional[float] = None
) -> Tuple[List[_Outcome], Optional[Dict[str, Any]]]:
    """Worker task: execute one same-trace batch of cells.

    Per-cell failures are captured as picklable error records instead
    of aborting the batch, so one poisoned cell cannot take its
    batch-mates' finished work with it.  Returns the outcomes plus the
    worker registry's telemetry snapshot *delta* for this batch
    (``None`` when telemetry is off).
    """
    from repro.fetch.fast_engine import clear_contexts

    outcomes: List[_Outcome] = []
    try:
        with _shared_batch_context(batch) as context:
            for request in batch:
                try:
                    with _deadline(cell_timeout):
                        report = run_request(
                            request, backend="process", context=context
                        )
                except Exception as exc:
                    outcomes.append((request, "error", _error_record(exc)))
                else:
                    outcomes.append((request, "ok", report))
    finally:
        # the worker's next batch is on another trace: free this
        # one's memos before the outcomes are pickled
        clear_contexts()
    registry = get_registry()
    if not registry.enabled:
        return outcomes, None
    snapshot = registry.snapshot()
    # ship only this batch's delta: replace the worker registry so the
    # parent can merge snapshots without double-counting
    set_registry(Registry(enabled=True))
    return outcomes, snapshot


#: exceptions that mean "the pool could not start at all"
_POOL_START_ERRORS = (OSError, PermissionError, ValueError, RuntimeError)


def _make_executor(workers: int, telemetry_enabled: bool) -> ProcessPoolExecutor:
    """Build the worker pool (separated out as the supervision /
    fallback seam — tests monkeypatch this to simulate pool loss)."""
    return ProcessPoolExecutor(
        max_workers=workers,
        mp_context=multiprocessing.get_context(),
        initializer=_worker_init,
        initargs=(telemetry_enabled,),
    )


def _terminate_executor(executor: Optional[ProcessPoolExecutor]) -> None:
    """Best-effort hard shutdown: cancel queued work and kill live
    workers so an interrupted run leaves no zombies behind."""
    if executor is None:
        return
    processes = list(getattr(executor, "_processes", {}).values())
    try:
        executor.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown is best-effort
        pass
    for process in processes:
        if process.is_alive():
            process.terminate()


def _execute_process(
    requests: Sequence[RunRequest],
    jobs: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
    store: Optional[Any] = None,
    observer: Optional[PlanObserver] = None,
    cancel: Optional[Callable[[], bool]] = None,
) -> _ExecuteResult:
    """Multiprocessing backend: same-trace batches fan out to a
    supervised ``ProcessPoolExecutor``.

    A *cancel* predicate is polled each scheduling round: once true,
    queued batches are cancelled, pending retries dropped, and only
    outcomes already delivered by the pool are harvested — cancelled
    cells are absent from both result mappings (batch granularity:
    batches already on a worker run to completion).

    Worker telemetry snapshots are merged into the parent's active
    registry, so counter totals and per-cell spans are equivalent to a
    serial run.  A broken pool (killed worker) is rebuilt and its
    in-flight cells redistributed; a pool that cannot start at all
    degrades to the serial path with a warning and a
    ``runner.pool_fallback`` counter.  ``KeyboardInterrupt`` tears the
    pool down hard (no zombie workers); every cell delivered before it
    is already in the store.
    """
    if not requests:
        return {}, {}
    if jobs is None or jobs < 1:
        jobs = os.cpu_count() or 1
    registry = get_registry()
    supervisor = _PlanSupervisor(policy, store=store, observer=observer)
    cell_timeout = supervisor.policy.cell_timeout

    def _fallback(executor: Optional[ProcessPoolExecutor], exc: BaseException):
        warnings.warn(
            f"multiprocessing pool failed to start ({type(exc).__name__}: "
            f"{exc}); falling back to the serial backend",
            RuntimeWarning,
            stacklevel=3,
        )
        registry.counter("runner.pool_fallback").add()
        _terminate_executor(executor)
        remaining = [
            request
            for request in requests
            if request not in supervisor.results
            and request not in supervisor.failures
        ]
        _run_serially(
            supervisor,
            remaining,
            manifest_extra={"pool_fallback": True},
            cancel=cancel,
        )
        return supervisor.results, supervisor.failures

    batches = _batches_by_trace(requests)
    workers = min(jobs, len(batches))
    executor: Optional[ProcessPoolExecutor] = None
    in_flight: Dict[Future, List[RunRequest]] = {}
    #: min-heap of (due_time, tiebreak, request) awaiting resubmission
    retry_heap: List[Tuple[float, int, RunRequest]] = []
    tiebreak = itertools.count()
    try:
        try:
            executor = _make_executor(workers, registry.enabled)
            for batch in batches:
                future = executor.submit(
                    _run_batch_outcomes, batch, cell_timeout
                )
                in_flight[future] = list(batch)
        except _POOL_START_ERRORS as exc:
            return _fallback(executor, exc)

        def _schedule_retry(request: RunRequest, delay: float) -> None:
            heapq.heappush(
                retry_heap,
                (time.monotonic() + delay, next(tiebreak), request),
            )

        def _handle_outcomes(outcomes, snapshot) -> None:
            registry.merge(snapshot)
            for request, status, payload in outcomes:
                if status == "ok":
                    supervisor.succeed(request, payload)
                else:
                    delay = supervisor.fail(request, payload)
                    if delay is not None:
                        _schedule_retry(request, delay)

        def _rebuild_pool(broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
            """Replace a broken pool, salvaging finished futures and
            redistributing the cells whose results were lost."""
            registry.counter("runner.pool_rebuilds").add()
            lost: List[RunRequest] = []
            for future, batch in in_flight.items():
                try:
                    outcomes, snapshot = future.result(timeout=0)
                except Exception:
                    lost.extend(batch)
                else:
                    _handle_outcomes(outcomes, snapshot)
            in_flight.clear()
            _terminate_executor(broken)
            for request in lost:
                delay = supervisor.fail(
                    request,
                    {
                        "type": "WorkerCrashError",
                        "message": (
                            "worker process died before delivering this "
                            "cell's result (broken process pool)"
                        ),
                        "traceback": "",
                    },
                )
                if delay is not None:
                    _schedule_retry(request, delay)
            return _make_executor(workers, registry.enabled)

        while in_flight or retry_heap:
            if cancel is not None and cancel():
                # drop queued work, drain batches already on a worker
                del retry_heap[:]
                for future in [f for f in in_flight if f.cancel()]:
                    in_flight.pop(future)
                for future in list(in_flight):
                    in_flight.pop(future)
                    try:
                        outcomes, snapshot = future.result()
                    except Exception:  # worker died mid-cancel: drop it
                        continue
                    _handle_outcomes(outcomes, snapshot)
                break
            now = time.monotonic()
            due: List[RunRequest] = []
            while retry_heap and retry_heap[0][0] <= now:
                due.append(heapq.heappop(retry_heap)[2])
            if due:
                submitted: set = set()
                try:
                    for batch in _batches_by_trace(due):
                        future = executor.submit(
                            _run_batch_outcomes, batch, cell_timeout
                        )
                        in_flight[future] = list(batch)
                        submitted.update(batch)
                except BrokenProcessPool:
                    # cells that made it in are redistributed by the
                    # rebuild below; requeue only the ones that didn't
                    for request in due:
                        if request not in submitted:
                            _schedule_retry(request, 0.0)
                    executor = _rebuild_pool(executor)
                except _POOL_START_ERRORS as exc:
                    return _fallback(executor, exc)
                continue
            if not in_flight:
                # nothing running; sleep until the next retry is due
                time.sleep(
                    min(max(retry_heap[0][0] - now, 0.0), 0.05)
                )
                continue
            done, _ = wait(
                set(in_flight), timeout=0.1, return_when=FIRST_COMPLETED
            )
            broken = False
            for future in done:
                batch = in_flight.pop(future)
                try:
                    outcomes, snapshot = future.result()
                except BrokenProcessPool:
                    # every other in-flight future is doomed too;
                    # salvage and rebuild once for all of them
                    in_flight[future] = batch
                    broken = True
                    break
                except Exception as exc:
                    # result failed to unpickle / unexpected executor
                    # error: charge each cell of the batch one attempt
                    record = _error_record(exc)
                    for request in batch:
                        delay = supervisor.fail(request, record)
                        if delay is not None:
                            _schedule_retry(request, delay)
                else:
                    _handle_outcomes(outcomes, snapshot)
            if broken:
                executor = _rebuild_pool(executor)
    except KeyboardInterrupt:
        _terminate_executor(executor)
        executor = None
        raise
    finally:
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)
    return supervisor.results, supervisor.failures


#: executor backends selectable via the CLI's ``--jobs`` flag
BACKENDS: Dict[str, Callable[..., _ExecuteResult]] = {
    "serial": _execute_serial,
    "process": _execute_process,
}


class RunPlan:
    """A deduplicating batch of simulation cells.

    Requests from any number of experiments are added; identical cells
    collapse to one execution whose report is shared by every
    requester.  ``requested``/``unique`` expose how much work dedup
    saved, and :meth:`execute` runs the unique cells through a named
    backend.  After a resilient execution (one with an
    :class:`ExecutionPolicy`), ``failures`` holds the quarantined
    cells' :class:`~repro.harness.checkpoint.CellFailure` records.
    """

    def __init__(self, requests: Iterable[RunRequest] = ()) -> None:
        self._order: List[RunRequest] = []
        self._seen: set = set()
        self.requested = 0
        self.failures: Dict[RunRequest, CellFailure] = {}
        #: cells served / executed by the last store-aware execution
        self.store_hits = 0
        self.store_misses = 0
        self.add_all(requests)

    def add(self, request: RunRequest) -> RunRequest:
        """Add one cell (deduplicated) and return it as its own key."""
        self.requested += 1
        if request not in self._seen:
            self._seen.add(request)
            self._order.append(request)
        return request

    def add_all(self, requests: Iterable[RunRequest]) -> None:
        """Add every cell of *requests* (deduplicated)."""
        for request in requests:
            self.add(request)

    @property
    def requests(self) -> Tuple[RunRequest, ...]:
        """The unique cells, in first-requested order."""
        return tuple(self._order)

    @property
    def unique(self) -> int:
        """Number of distinct cells that will actually execute."""
        return len(self._order)

    def execute(
        self,
        backend: str = "serial",
        jobs: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
        store: Optional[Any] = None,
        observer: Optional[PlanObserver] = None,
        cancel: Optional[Callable[[], bool]] = None,
    ) -> Dict[RunRequest, SimulationReport]:
        """Run every unique cell through *backend*; returns the full
        request → report mapping.

        With a *policy*, failing cells retry and quarantine instead of
        aborting: the mapping then omits quarantined cells, whose
        failure records land in ``self.failures``.

        With a *store* (any object with the
        :class:`~repro.service.store.ResultStore` ``fetch``/``put``
        contract), execution is **store-aware**: cells whose
        content key + trace key are already stored are served from it
        verbatim (no simulation, the stored report with its original
        provenance), only the misses execute through *backend*, and
        each freshly computed report is put to the store as it
        completes — so re-running a killed plan against the same store
        resumes it.  ``store_hits``/``store_misses`` record the
        split.  An *observer* receives per-cell progress events —
        see :data:`OBSERVER_EVENTS`.  A *cancel* predicate is polled
        between cells (serial) or scheduling rounds (process): once
        true, execution stops cooperatively and the mapping holds only
        the cells finished so far."""
        try:
            execute = BACKENDS[backend]
        except KeyError:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of "
                f"{tuple(sorted(BACKENDS))}"
            ) from None
        pending: List[RunRequest] = list(self._order)
        served: Dict[RunRequest, SimulationReport] = {}
        if store is not None:
            served = store.fetch(pending)
            for request, report in served.items():
                notify(observer, "store-hit", request, report)
            pending = [request for request in pending if request not in served]
        self.store_hits = len(served)
        self.store_misses = len(pending)
        results, failures = execute(
            pending, jobs, policy, store=store, observer=observer, cancel=cancel
        )
        self.failures = failures
        merged = dict(served)
        merged.update(results)
        return merged


# ---------------------------------------------------------------------------
# single-cell / single-grid conveniences (the historical API)
# ---------------------------------------------------------------------------


def run_config(
    config: ArchitectureConfig,
    trace: Trace,
    label: Optional[str] = None,
    warmup_fraction: float = DEFAULT_WARMUP,
) -> SimulationReport:
    """Simulate an already-generated *trace* under *config*."""
    engine = config.build()
    return engine.run(
        trace,
        label=label if label is not None else config.label(),
        warmup_fraction=warmup_fraction,
    )


def simulate(
    config: ArchitectureConfig,
    program: Union[str, Trace],
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    layout: str = "natural",
    warmup_fraction: float = DEFAULT_WARMUP,
) -> SimulationReport:
    """Simulate calibrated *program* (by name, or a prebuilt trace)
    under *config* and return the report."""
    if isinstance(program, Trace):
        return run_config(config, program, warmup_fraction=warmup_fraction)
    return run_request(
        RunRequest(
            config=config,
            program=program,
            instructions=instructions,
            seed=seed,
            layout=layout,
            warmup=warmup_fraction,
        )
    )


def sweep(
    configs: Sequence[ArchitectureConfig],
    programs: Iterable[str],
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    layout: str = "natural",
    warmup_fraction: float = DEFAULT_WARMUP,
    backend: str = "serial",
    jobs: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
) -> Dict[str, List[SimulationReport]]:
    """Simulate every config on every program.

    Returns ``{config_label: [report_per_program, ...]}`` with program
    order preserved.  The grid is executed as a deduplicated
    :class:`RunPlan`, so repeated configs cost nothing, and *backend*
    (with *jobs* workers) selects serial or parallel execution.  Under
    a resilience *policy*, quarantined cells are filled with
    :func:`quarantined_report` placeholders so the grid shape is
    always complete.
    """
    programs = list(programs)
    grid: Dict[str, List[RunRequest]] = {}
    plan = RunPlan()
    for config in configs:
        label = config.label()
        row = []
        for program in programs:
            row.append(
                plan.add(
                    RunRequest(
                        config=config,
                        program=program,
                        instructions=instructions,
                        seed=seed,
                        layout=layout,
                        warmup=warmup_fraction,
                    )
                )
            )
        grid[label] = row
    reports = plan.execute(backend=backend, jobs=jobs, policy=policy)
    for request in plan.failures:
        reports[request] = quarantined_report(request)
    return {
        label: [reports[request] for request in row]
        for label, row in grid.items()
    }
