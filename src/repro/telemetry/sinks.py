"""Event sinks: where rendered telemetry events go.

:func:`write_events` backs the CLI's ``--telemetry`` flag: it dumps a
full event stream (:meth:`repro.telemetry.core.Registry.events`) as
newline-delimited JSON, one event per line, to a temp file and
atomically publishes it with ``os.replace``; :func:`read_events`
parses such a file back.

:func:`write_chrome_trace` converts the span events of a rendered
stream into Chrome trace-event JSON (the ``about:tracing`` /
Perfetto format), so runner and engine spans can be inspected on a
timeline — one complete (``"ph": "X"``) event per span, grouped by
the recording pid.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, List


def write_events(path: str, events: Iterable[Dict[str, Any]]) -> int:
    """Atomically write *events* to *path* as NDJSON (temp file +
    ``os.replace``); returns the number of events written."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temp = f"{path}.tmp.{os.getpid()}"
    count = 0
    with open(temp, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
            count += 1
    os.replace(temp, path)
    return count


def chrome_trace_events(events: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Convert the ``span`` events of a rendered telemetry stream into
    Chrome trace-event dicts.

    Timestamps are re-based so the earliest span starts at 0 µs (the
    raw ``start_s`` values are monotonic-clock readings whose epoch is
    the machine's boot, which trace viewers render poorly).  Span tags
    become the event's ``args``.
    """
    spans = [event for event in events if event.get("event") == "span"]
    if not spans:
        return []
    base_s = min(span.get("start_s", 0.0) for span in spans)
    trace_events = []
    for span in spans:
        pid = span.get("pid", 0)
        trace_events.append(
            {
                "name": span["name"],
                "cat": "repro",
                "ph": "X",
                "ts": (span.get("start_s", 0.0) - base_s) * 1e6,
                "dur": span.get("duration_s", 0.0) * 1e6,
                "pid": pid,
                "tid": pid,
                "args": dict(span.get("tags", {})),
            }
        )
    trace_events.sort(key=lambda event: (event["pid"], event["ts"]))
    return trace_events


def write_chrome_trace(path: str, events: Iterable[Dict[str, Any]]) -> int:
    """Atomically write the spans of *events* to *path* as a Chrome
    trace (JSON object with a ``traceEvents`` array — loadable in
    ``about:tracing`` / Perfetto); returns the span count."""
    trace_events = chrome_trace_events(events)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(
            {"traceEvents": trace_events, "displayTimeUnit": "ms"},
            handle,
            sort_keys=True,
        )
        handle.write("\n")
    os.replace(temp, path)
    return len(trace_events)


def read_events(path: str) -> List[Dict[str, Any]]:
    """Parse an NDJSON file back into a list of event dicts."""
    events: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
