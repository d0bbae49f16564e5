"""Telemetry subsystem: structured counters, timers, spans, sinks,
and run manifests.

Three pieces (DESIGN.md §10):

* :mod:`repro.telemetry.core` — the instrumentation API.  A
  :class:`Registry` hands out :class:`Counter` / :class:`Timer` /
  :class:`Span` instruments; a *disabled* registry (the process-wide
  default) hands out shared null objects, so instrumented code pays
  nothing unless a caller opts in via :func:`use`.
* :mod:`repro.telemetry.sinks` — where rendered events go:
  :class:`MemorySink` and the :class:`NDJSONSink` file writer with
  atomic rotation.
* :mod:`repro.telemetry.manifest` — the :class:`RunManifest`
  provenance record (git SHA, interpreter/platform, trace key,
  wall/CPU time, peak RSS) stamped on every simulation report.
"""

from repro.telemetry.core import (
    EVENT_SCHEMA,
    Counter,
    EventTrace,
    Histogram,
    Registry,
    Span,
    Timer,
    get_registry,
    set_registry,
    use,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA, RunManifest, collect
from repro.telemetry.sinks import (
    MemorySink,
    NDJSONSink,
    chrome_trace_events,
    read_events,
    write_chrome_trace,
    write_events,
)

__all__ = [
    "EVENT_SCHEMA",
    "MANIFEST_SCHEMA",
    "Counter",
    "Timer",
    "Histogram",
    "EventTrace",
    "Span",
    "Registry",
    "RunManifest",
    "MemorySink",
    "NDJSONSink",
    "chrome_trace_events",
    "collect",
    "get_registry",
    "set_registry",
    "use",
    "read_events",
    "write_chrome_trace",
    "write_events",
]
