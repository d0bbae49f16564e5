"""Structured instrumentation: counters, histograms, event traces,
spans and registries.

The telemetry substrate every hot layer reports through (engine,
runner, corpus, CLI — see DESIGN.md §10).  Design constraints:

* **zero cost when disabled** — a disabled :class:`Registry` hands out
  shared null objects whose methods are no-ops and allocates nothing,
  so instrumented code paths never need an ``if telemetry:`` guard of
  their own and the engine hot loop is untouched (the engine derives
  its per-phase counts from aggregates it keeps anyway);
* **picklable snapshots** — a registry serialises to a plain dict so
  process-pool workers can ship their measurements back to the parent,
  which merges them (counters and histograms add, spans concatenate);
* **one event schema** — :meth:`Registry.events` renders everything as
  flat dicts (``{"event": "counter"|"histogram"|"span", ...}``) that
  :func:`repro.telemetry.sinks.write_events` persists.

A module-level *active* registry (default: disabled) lets deeply
nested code emit telemetry without threading a registry argument
through every call chain; :func:`use` installs an enabled registry for
a scope, and pool-worker initialisers install one per process.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional

#: event-schema version stamped on every rendered event
EVENT_SCHEMA = "repro-telemetry/v1"


class Counter:
    """A named monotonically growing integer (e.g. cache probes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: int = 0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: int = 1) -> None:
        """Increase the counter by *amount* (default 1)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A fixed-log2-bucket histogram of non-negative observations.

    Bucket *b* counts observations in ``[2**(b-1), 2**b)`` (bucket 0
    counts exact zeros), i.e. the bucket index is
    ``int(value).bit_length()``.  Because the bucket boundaries are
    fixed powers of two, histograms from different process workers
    merge by plain per-bucket addition — the same property counters
    have — so serial and pooled runs aggregate identically.
    """

    __slots__ = ("name", "_buckets", "count", "total")

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0

    def observe(self, value, weight: int = 1) -> None:
        """Record *value* (negative values clamp to bucket 0)."""
        value = int(value)
        bucket = value.bit_length() if value > 0 else 0
        self._buckets[bucket] = self._buckets.get(bucket, 0) + weight
        self.count += weight
        self.total += value * weight

    @staticmethod
    def bucket_bounds(bucket: int):
        """``(low, high)`` half-open value range of *bucket*."""
        if bucket == 0:
            return (0, 1)
        return (1 << (bucket - 1), 1 << bucket)

    @property
    def buckets(self) -> Dict[int, int]:
        """Non-empty buckets by index (sorted)."""
        return {index: self._buckets[index] for index in sorted(self._buckets)}

    @property
    def mean(self) -> float:
        """Mean of all observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def absorb(self, other) -> None:
        """Add another histogram (or its :meth:`to_dict`) into this one."""
        if isinstance(other, Histogram):
            other = other.to_dict()
        for bucket, count in other.get("buckets", {}).items():
            bucket = int(bucket)
            self._buckets[bucket] = self._buckets.get(bucket, 0) + count
        self.count += other.get("count", 0)
        self.total += other.get("total", 0)

    def to_dict(self) -> Dict[str, Any]:
        """Picklable snapshot (the merge currency)."""
        return {"buckets": self.buckets, "count": self.count, "total": self.total}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.1f})"


class EventTrace:
    """A sampled ring buffer of structured per-event records.

    Keeps every ``sample``-th record (deterministic counting, so runs
    are reproducible) in a fixed-capacity ring — once full, the oldest
    record is overwritten.  ``seen`` always counts every offered
    record, so exact totals stay available even when the ring only
    holds a sampled, bounded window.
    """

    __slots__ = ("name", "capacity", "sample", "seen", "sampled", "_ring", "_next")

    def __init__(self, name: str, capacity: int = 4096, sample: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if sample < 1:
            raise ValueError("sample must be positive")
        self.name = name
        self.capacity = capacity
        self.sample = sample
        self.seen = 0
        self.sampled = 0
        self._ring: List[Dict[str, Any]] = []
        self._next = 0

    def record(self, fields: Dict[str, Any]) -> bool:
        """Offer one record; returns ``True`` when it was kept
        (every ``sample``-th offer, starting with the first)."""
        self.seen += 1
        if (self.seen - 1) % self.sample:
            return False
        self.sampled += 1
        if len(self._ring) < self.capacity:
            self._ring.append(fields)
        else:
            self._ring[self._next] = fields
            self._next = (self._next + 1) % self.capacity
        return True

    @property
    def records(self) -> List[Dict[str, Any]]:
        """Kept records, oldest first."""
        return self._ring[self._next:] + self._ring[: self._next]

    @property
    def dropped(self) -> int:
        """Sampled records that were overwritten by ring wraparound."""
        return self.sampled - len(self._ring)

    def to_dict(self) -> Dict[str, Any]:
        """Picklable snapshot (the attribution profile's ``trace``)."""
        return {
            "capacity": self.capacity,
            "sample": self.sample,
            "seen": self.seen,
            "sampled": self.sampled,
            "records": self.records,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EventTrace({self.name!r}, kept={len(self._ring)}/"
            f"{self.capacity}, seen={self.seen})"
        )


class Span:
    """One timed, tagged interval recorded as a discrete event.

    Every completed span is kept individually — tags carry the
    identity of what was timed (config label, program, backend, ...),
    which is what per-cell attribution needs.
    """

    __slots__ = ("name", "tags", "duration_s", "start_s", "pid", "_registry")

    def __init__(self, name: str, registry: "Registry", tags: Dict[str, Any]) -> None:
        self.name = name
        self.tags = tags
        self.duration_s = 0.0
        #: monotonic-clock start (``time.perf_counter``); on Linux the
        #: epoch is shared across forked pool workers, so merged spans
        #: line up on one timeline (what the Chrome-trace export needs)
        self.start_s = 0.0
        self.pid = 0
        self._registry = registry

    def __enter__(self) -> "Span":
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.duration_s = time.perf_counter() - self.start_s
        self.pid = os.getpid()
        self._registry._record_span(self)


class _NullCounter:
    """Shared no-op counter handed out by disabled registries."""

    __slots__ = ()

    def add(self, amount: int = 1) -> None:
        """Discard the increment."""


class _NullSpan:
    """Shared no-op span handed out by disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        pass


class _NullHistogram:
    """Shared no-op histogram handed out by disabled registries."""

    __slots__ = ()

    def observe(self, value, weight: int = 1) -> None:
        """Discard the observation."""

    def absorb(self, other) -> None:
        """Discard the merge."""


_NULL_COUNTER = _NullCounter()
_NULL_SPAN = _NullSpan()
_NULL_HISTOGRAM = _NullHistogram()


class Registry:
    """One run's worth of counters, histograms and spans.

    Disabled registries (``enabled=False``, the default for the
    module-level active registry) return the shared null instruments:
    no allocation, no branching at the instrumentation site, nothing
    recorded.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._spans: List[Span] = []
        self._histograms: Dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------

    def counter(self, name: str):
        """The named counter (created on first use; null if disabled)."""
        if not self.enabled:
            return _NULL_COUNTER
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def span(self, name: str, **tags):
        """A new span context manager (null if disabled)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(name, self, tags)

    def histogram(self, name: str):
        """The named histogram (created on first use; null if disabled)."""
        if not self.enabled:
            return _NULL_HISTOGRAM
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def _record_span(self, span: Span) -> None:
        self._spans.append(span)

    # -- read-out ------------------------------------------------------

    @property
    def counters(self) -> Dict[str, int]:
        """Counter values by name (sorted, for deterministic output)."""
        return {name: self._counters[name].value for name in sorted(self._counters)}

    @property
    def spans(self) -> List[Span]:
        """Completed spans in recording order."""
        return list(self._spans)

    @property
    def histograms(self) -> Dict[str, Dict[str, Any]]:
        """Histogram snapshots by name (sorted)."""
        return {
            name: self._histograms[name].to_dict()
            for name in sorted(self._histograms)
        }

    def snapshot(self) -> Dict[str, Any]:
        """Picklable dict of everything recorded (the merge currency);
        the ``histograms`` key appears only when non-empty."""
        snapshot: Dict[str, Any] = {
            "counters": self.counters,
            "spans": [
                {
                    "name": span.name,
                    "duration_s": span.duration_s,
                    "start_s": span.start_s,
                    "pid": span.pid,
                    "tags": dict(span.tags),
                }
                for span in self._spans
            ],
        }
        if self._histograms:
            snapshot["histograms"] = self.histograms
        return snapshot

    def merge(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Fold a worker's :meth:`snapshot` into this registry:
        counters and histograms add, spans concatenate."""
        if not snapshot or not self.enabled:
            return
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).add(value)
        for recorded in snapshot.get("spans", []):
            span = Span(recorded["name"], self, dict(recorded["tags"]))
            span.duration_s = recorded["duration_s"]
            span.start_s = recorded.get("start_s", 0.0)
            span.pid = recorded.get("pid", 0)
            self._spans.append(span)
        for name, histogram in snapshot.get("histograms", {}).items():
            self.histogram(name).absorb(histogram)

    def events(self) -> Iterator[Dict[str, Any]]:
        """Render everything recorded as flat, sink-ready event dicts."""
        for name, value in self.counters.items():
            yield {
                "schema": EVENT_SCHEMA,
                "event": "counter",
                "name": name,
                "value": value,
            }
        for name, histogram in self.histograms.items():
            yield {
                "schema": EVENT_SCHEMA,
                "event": "histogram",
                "name": name,
                # string keys so an NDJSON round trip is loss-free
                "buckets": {
                    str(bucket): count
                    for bucket, count in histogram["buckets"].items()
                },
                "count": histogram["count"],
                "total": histogram["total"],
            }
        for span in self._spans:
            yield {
                "schema": EVENT_SCHEMA,
                "event": "span",
                "name": span.name,
                "duration_s": span.duration_s,
                "start_s": span.start_s,
                "pid": span.pid,
                "tags": dict(span.tags),
            }


#: the process-wide active registry; disabled by default so the
#: instrumented hot paths cost nothing unless a caller opts in
_ACTIVE = Registry(enabled=False)


def get_registry() -> Registry:
    """The currently active registry (disabled singleton by default)."""
    return _ACTIVE


def set_registry(registry: Registry) -> Registry:
    """Install *registry* as the active one; returns the previous."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = registry
    return previous


@contextmanager
def use(registry: Registry) -> Iterator[Registry]:
    """Scope *registry* as the active one, restoring the previous on
    exit (exception-safe)."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
