"""Job model of the simulation service: states, event log, registry.

A submitted plan becomes a :class:`Job`: a queued unit of work with a
monotonically growing, thread-safe :class:`JobEventLog` that the HTTP
layer streams to clients as NDJSON while scheduler threads append to
it.  Job state moves strictly ``queued → running →
completed|failed|cancelled``; the terminal transition happens *after*
the final event is appended, so a streamer that observes a terminal
state has already seen every event.

The event log is bound to a durable backing (the ``job_events`` table
via :class:`repro.service.registry.RegistryEventBacking`): every
appended event is persisted *before* it becomes visible in memory, and
once the in-memory window exceeds :data:`EVENT_MEMORY_CAP` the oldest
entries are dropped from RAM — :meth:`JobEventLog.events_since`
transparently re-reads the spilled prefix from the backing, so
``/events?from=N`` behaves identically whether the requested offset
lives in memory, on disk, or straddles the boundary.
"""

from __future__ import annotations

import enum
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from repro.service.protocol import SERVICE_SCHEMA, ParsedJobSpec

#: in-memory event-window cap; beyond this, the oldest events live
#: only in the registry
EVENT_MEMORY_CAP = 1024


class JobState(str, enum.Enum):
    """Lifecycle of one job (strictly forward-moving)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"


class JobEventLog:
    """Append-only, thread-safe event sequence with blocking reads.

    Scheduler threads :meth:`append`; streamers poll
    :meth:`events_since` (cheap slice for in-memory offsets) or block
    on :meth:`wait_beyond` until new events land.  Events are plain
    dicts stamped with the service schema, a per-log sequence number
    and a wall-clock time.

    The *backing* (durable registry adapter exposing
    ``append(record)`` / ``read(start, stop)``) persists every record
    before the log publishes it, and the in-memory window is bounded to
    :data:`EVENT_MEMORY_CAP` events; *base* seeds the sequence counter
    past events already persisted by a previous process (restart
    recovery)."""

    def __init__(self, backing: Any, base: int = 0) -> None:
        self._events: List[Dict[str, Any]] = []
        self._condition = threading.Condition()
        self._backing = backing
        self._base = base  # seq of the first in-memory event
        self._total = base  # total events ever appended (next seq)

    def append(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Append one event; returns the stamped record.

        The record is persisted first, so any event a streamer can
        observe is already crash-safe."""
        with self._condition:
            record = {
                "schema": SERVICE_SCHEMA,
                "event": event,
                "seq": self._total,
                "t_s": time.time(),
                **fields,
            }
            self._backing.append(record)
            self._events.append(record)
            self._total += 1
            spill = len(self._events) - EVENT_MEMORY_CAP
            if spill > 0:
                del self._events[:spill]
                self._base += spill
            self._condition.notify_all()
        return record

    def events_since(self, offset: int) -> List[Dict[str, Any]]:
        """Every event with ``seq >= offset`` (possibly empty).

        Offsets below the in-memory window are served from the durable
        backing and stitched seamlessly onto the in-memory tail."""
        with self._condition:
            base = self._base
            tail = list(self._events[max(0, offset - base):])
        if offset >= base:
            return tail
        prefix = self._backing.read(offset, base)
        return prefix + tail

    def wait_beyond(self, offset: int, timeout: float = 1.0) -> bool:
        """Block until an event with ``seq >= offset`` exists (or
        *timeout* elapses); returns whether one does."""
        with self._condition:
            if self._total > offset:
                return True
            self._condition.wait(timeout)
            return self._total > offset

    def __len__(self) -> int:
        with self._condition:
            return self._total


class Job:
    """One submitted plan moving through the service.

    Everything mutable is guarded by the job's lock; ``status_dict``
    is the JSON the status endpoint returns, ``result``/``manifest``
    are populated atomically *before* the terminal state transition.

    ``cancel_requested`` is the cooperative cancellation flag: the
    HTTP layer (or the registry poll, for cross-replica cancels) sets
    it, the scheduler checks it between cells and lands the job in
    ``cancelled`` with whatever partial results made it to the store.
    ``suspended`` marks a job handed back to the registry by a
    draining replica — streamers treat it like a terminal event for
    *this* process while the job itself stays recoverable."""

    def __init__(
        self,
        spec: ParsedJobSpec,
        log: JobEventLog,
        job_id: Optional[str] = None,
    ) -> None:
        self.id = job_id or f"job-{uuid.uuid4().hex[:12]}"
        self.spec = spec
        self.log = log
        self.client = ""
        self.submitted_s = time.time()
        self.started_s: Optional[float] = None
        self.finished_s: Optional[float] = None
        self.result: Optional[Dict[str, Any]] = None
        self.manifest: Optional[Dict[str, Any]] = None
        self.error: Optional[str] = None
        self.suspended = False
        self._cancel_requested = False
        self._state = JobState.QUEUED
        self._lock = threading.Lock()

    @property
    def state(self) -> JobState:
        """Current lifecycle state (thread-safe read)."""
        with self._lock:
            return self._state

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in (
            JobState.COMPLETED,
            JobState.FAILED,
            JobState.CANCELLED,
        )

    @property
    def cancel_requested(self) -> bool:
        """Whether anyone asked this job to stop."""
        with self._lock:
            return self._cancel_requested

    def request_cancel(self) -> bool:
        """Set the cooperative cancel flag; ``False`` when the job is
        already terminal (nothing to cancel)."""
        with self._lock:
            if self._state in (
                JobState.COMPLETED,
                JobState.FAILED,
                JobState.CANCELLED,
            ):
                return False
            self._cancel_requested = True
            return True

    def mark_running(self) -> None:
        """Transition ``queued → running`` (scheduler-thread only)."""
        with self._lock:
            self._state = JobState.RUNNING
            self.started_s = time.time()

    def complete(
        self, result: Dict[str, Any], manifest: Dict[str, Any]
    ) -> None:
        """Attach the result + manifest, then go terminal."""
        with self._lock:
            self.result = result
            self.manifest = manifest
            self.finished_s = time.time()
            self._state = JobState.COMPLETED

    def fail(self, error: str, manifest: Optional[Dict[str, Any]] = None) -> None:
        """Record the failure reason, then go terminal."""
        with self._lock:
            self.error = error
            self.manifest = manifest
            self.finished_s = time.time()
            self._state = JobState.FAILED

    def mark_cancelled(
        self,
        result: Optional[Dict[str, Any]] = None,
        manifest: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Land in terminal ``cancelled``, keeping any partial result
        payload (everything computed so far stays in the store)."""
        with self._lock:
            self.result = result
            self.manifest = manifest
            self.finished_s = time.time()
            self._state = JobState.CANCELLED

    def status_dict(self) -> Dict[str, Any]:
        """The JSON body of ``GET /api/v1/jobs/<id>``."""
        with self._lock:
            return {
                "schema": SERVICE_SCHEMA,
                "job_id": self.id,
                "kind": self.spec.kind,
                "name": self.spec.name,
                "state": self._state.value,
                "cells": len(self.spec.cells),
                "events": len(self.log),
                "submitted_s": self.submitted_s,
                "started_s": self.started_s,
                "finished_s": self.finished_s,
                "error": self.error,
                "cancel_requested": self._cancel_requested,
            }
