"""Span recorder for the benchmark's traced run.

The traced run measures each layer from outside: :func:`install`
replaces a fixed set of public functions of ``repro`` with wrappers
that record one span per call (name, start, end, parent span, pid,
thread); the callable it returns puts the originals back.  Nothing
under ``src/`` changes.

Spans stay in memory.  Pool workers inherit the wrappers through
``fork``; a recorder that finds itself in a forked process forgets the
parent's spans and appends its own to ``spans-<pid>.jsonl`` in its
spill directory each time a root span closes, because pool workers
exit without running ``atexit`` hooks.

Self time is a span's duration minus the part of it that its child
spans cover (:func:`self_times`).  :func:`layer_metrics` turns a span
list into the per-layer metrics named in ``BENCHMARK.json``, and
:func:`chrome_trace` into a Chrome-trace document that opens in
Perfetto.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
import weakref
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Span = Dict[str, Any]


class Recorder:
    """In-memory span sink shared by every installed wrapper.

    Spans are recorded only while :attr:`enabled` is true, so set-up
    and the correctness checks stay out of the trace.  Parents are
    tracked per thread, so the service's scheduler threads each build
    their own span tree.
    """

    def __init__(self, spill_dir: Optional[str] = None) -> None:
        self.enabled = False
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self._home_pid = os.getpid()
        self._pid = self._home_pid
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._spilled = 0
        #: per-context icache keys already replayed (memo-miss detection)
        self.icache_seen: "weakref.WeakKeyDictionary[Any, set]" = (
            weakref.WeakKeyDictionary()
        )

    def _stack(self) -> List[Span]:
        if os.getpid() != self._pid:
            # forked pool worker: the parent's spans are not ours
            self._pid = os.getpid()
            self.spans = []
            self._spilled = 0
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        """Open a span named *name* as a child of this thread's
        innermost open span."""
        stack = self._stack()
        span = {
            "name": name,
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "pid": self._pid,
            "tid": threading.get_ident(),
            "start": time.perf_counter_ns(),
            "end": None,
            "args": {},
        }
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        """Close *span* (now, unless its end is already stamped); a
        root span closing in a forked worker spills."""
        if span["end"] is None:
            span["end"] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)
        if not stack and self._pid != self._home_pid and self.spill_dir:
            self.spill()

    def spill(self) -> None:
        """Append the spans not yet written to this pid's spill file."""
        path = os.path.join(self.spill_dir, f"spans-{self._pid}.jsonl")
        dump(self.spans[self._spilled :], path, mode="a")
        self._spilled = len(self.spans)


def dump(spans: Iterable[Span], path: str, mode: str = "w") -> None:
    """Write *spans* to *path* as JSON lines."""
    with open(path, mode, encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def load(path: str) -> List[Span]:
    """The spans of a JSON-lines file (none when it does not exist)."""
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def load_spill(directory: str) -> List[Span]:
    """Every span spilled into *directory* by forked processes."""
    return [
        span
        for name in sorted(os.listdir(directory))
        if name.startswith("spans-") and name.endswith(".jsonl")
        for span in load(os.path.join(directory, name))
    ]


# ---------------------------------------------------------------------------
# wrapping
# ---------------------------------------------------------------------------

#: hook computing span arguments: (state, args, kwargs, result) -> dict
_Post = Callable[[Any, tuple, dict, Any], Dict[str, Any]]


def _wrap(
    recorder: Recorder,
    function: Callable,
    name: str,
    pre: Optional[Callable[[tuple, dict], Any]] = None,
    post: Optional[_Post] = None,
) -> Callable:
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        if not recorder.enabled:
            return function(*args, **kwargs)
        state = pre(args, kwargs) if pre is not None else None
        span = recorder.begin(name)
        result = None
        try:
            result = function(*args, **kwargs)
            return result
        finally:
            span["end"] = time.perf_counter_ns()
            if post is not None:
                span["args"] = post(state, args, kwargs, result)
            recorder.end(span)

    return wrapper


def _targets(recorder: Recorder) -> List[Tuple[Any, str, str, Any, Any]]:
    """(owner, attribute, span name, pre hook, post hook) per wrapped
    public function."""
    from repro.fetch.capability import engine_class
    from repro.fetch.fast_engine import FastEngine, TraceReplayContext
    from repro.harness import runner
    from repro.service.registry import JobRegistry
    from repro.service.store import ResultStore
    from repro.workloads import corpus, ingest
    from repro.workloads.trace import Trace

    def generate_pre(args, kwargs):
        return corpus.cache_info()["entries"]

    def generate_post(entries, args, kwargs, result):
        return {
            "miss": corpus.cache_info()["entries"] > entries,
            "key": list(corpus.trace_key(*args, **kwargs)),
        }

    def icache_pre(args, kwargs):
        context, geometry, replacement, interval = args
        key = (
            context.trace.name,
            context.trace.n_events,
            geometry.size_bytes,
            geometry.line_bytes,
            geometry.associativity,
            replacement,
            interval,
        )
        seen = recorder.icache_seen.setdefault(context, set())
        miss = key not in seen
        seen.add(key)
        return key, miss

    def icache_post(state, args, kwargs, result):
        key, miss = state
        return {"assoc": key[4] > 1, "miss": miss, "key": list(key)}

    def frontend_post(state, args, kwargs, result):
        return {"class": engine_class(args[1]).value}

    def run_post(state, args, kwargs, result):
        return {"events": args[1].n_events}

    def parse_post(state, args, kwargs, result):
        return {"records": 0 if result is None else result.n_events}

    return [
        (corpus, "generate_trace", "workloads.generate", generate_pre, generate_post),
        (runner, "generate_trace", "workloads.generate", generate_pre, generate_post),
        (Trace, "packed", "workloads.pack", None, None),
        (TraceReplayContext, "__init__", "engine.context_init", None, None),
        (TraceReplayContext, "prepare", "engine.prepare", None, None),
        (TraceReplayContext, "icache", "engine.icache", icache_pre, icache_post),
        (TraceReplayContext, "frontend_replay", "engine.frontend", None, frontend_post),
        (TraceReplayContext, "gshare", "engine.gshare", None, None),
        (TraceReplayContext, "ras", "engine.ras", None, None),
        (FastEngine, "run", "engine.run", None, run_post),
        (runner.RunPlan, "execute", "runner.execute", None, None),
        (ingest, "ingest_file", "ingest.parse", None, parse_post),
        (ingest, "store_external", "ingest.store", None, None),
        (ingest, "load_external", "ingest.load_verify", None, None),
        (corpus, "load_external", "ingest.load_verify", None, None),
        (ResultStore, "fetch", "store.fetch", None, None),
        (ResultStore, "put_many", "store.put_many", None, None),
        (ResultStore, "put", "store.put", None, None),
        (JobRegistry, "append_event", "registry.append", None, None),
    ]


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every traced public function; returns the undo callable."""
    undo: List[Tuple[Any, str, Any]] = []
    for owner, attribute, name, pre, post in _targets(recorder):
        original = getattr(owner, attribute)
        undo.append((owner, attribute, original))
        setattr(owner, attribute, _wrap(recorder, original, name, pre, post))

    def uninstall() -> None:
        for owner, attribute, original in reversed(undo):
            setattr(owner, attribute, original)

    return uninstall


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def self_times(spans: List[Span]) -> Dict[Tuple[int, int], int]:
    """Self time (ns) of every span, keyed by ``(pid, id)``: its
    duration minus the union of its direct children's intervals,
    clipped to the span."""
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[(span["pid"], span["parent"])].append(span)
    result: Dict[Tuple[int, int], int] = {}
    for span in spans:
        key = (span["pid"], span["id"])
        start, end = span["start"], span["end"]
        covered = 0
        cursor = start
        for child in sorted(children.get(key, ()), key=lambda s: s["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[key] = (end - start) - covered
    return result


def chrome_trace(spans: List[Span]) -> Dict[str, Any]:
    """Chrome-trace (Perfetto-loadable) document: one complete
    (``ph: X``) event per span, microseconds rebased to the first
    span."""
    origin = min((span["start"] for span in spans), default=0)
    events = [
        {
            "name": span["name"],
            "cat": span["name"].split(".", 1)[0],
            "ph": "X",
            "ts": (span["start"] - origin) / 1000.0,
            "dur": (span["end"] - span["start"]) / 1000.0,
            "pid": span["pid"],
            "tid": span["tid"],
            "args": span["args"],
        }
        for span in sorted(spans, key=lambda s: s["start"])
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def percentile(values: List[float], q: int) -> float:
    """The *q*-th percentile (nearest rank of the inclusive
    quantiles); 0.0 for no values."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    if q == 50:
        return float(statistics.median(values))
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def layer_metrics(
    spans: List[Span], main_pid: int, wall_s: float
) -> Dict[str, float]:
    """Span-derived per-layer metrics (layers that did not run read
    0).  *main_pid* is the run process; *wall_s* its traced timed
    region."""
    own = self_times(spans)
    self_s: Dict[str, float] = defaultdict(float)
    count: Dict[str, int] = defaultdict(int)
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in spans:
        key = (span["pid"], span["id"])
        name = span["name"]
        args = span["args"]
        if name == "engine.icache":
            name += ".assoc" if args.get("assoc") else ".direct"
        elif name == "engine.frontend":
            name += ".batched" if args.get("class") == "fast-batched" else ".single"
        self_s[name] += own[key] / 1e9
        count[name] += 1
        durations[name].append((span["end"] - span["start"]) / 1e9)

    def spans_named(name: str) -> List[Span]:
        return [span for span in spans if span["name"] == name]

    generated = [s for s in spans_named("workloads.generate") if s["args"].get("miss")]
    replays = [s for s in spans_named("engine.icache") if s["args"].get("miss")]
    parses = spans_named("ingest.parse")
    runs = spans_named("engine.run")
    all_executes = spans_named("runner.execute")
    executes = [s for s in all_executes if s["pid"] == main_pid]
    worker_roots = [
        s for s in spans if s["pid"] != main_pid and s["parent"] is None
    ]
    execute_s = sum(durations_of(executes))
    workers = len({s["pid"] for s in worker_roots})

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def ms_p50(name: str) -> float:
        return percentile(durations[name], 50) * 1000.0

    main_self = sum(
        own[(span["pid"], span["id"])] for span in spans if span["pid"] == main_pid
    )
    return {
        "workloads.generate_s": self_s["workloads.generate"],
        "workloads.traces_generated": len(generated),
        "workloads.trace_reuse_ratio": ratio(
            len({tuple(s["args"]["key"]) for s in generated}), len(generated)
        ),
        "workloads.pack_s": self_s["workloads.pack"],
        "ingest.parse_s": self_s["ingest.parse"],
        "ingest.records_per_s": ratio(
            sum(s["args"].get("records", 0) for s in parses),
            sum(durations_of(parses)),
        ),
        "ingest.store_s": self_s["ingest.store"],
        "ingest.load_verify_s": self_s["ingest.load_verify"],
        "engine.icache_s": self_s["engine.icache.direct"],
        "engine.icache_assoc_s": self_s["engine.icache.assoc"],
        "engine.icache_replays": len(replays),
        "engine.icache_reuse_ratio": ratio(
            len({tuple(s["args"]["key"]) for s in replays}), len(replays)
        ),
        "engine.frontend_batched_s": self_s["engine.frontend.batched"],
        "engine.frontend_single_s": self_s["engine.frontend.single"],
        "engine.gshare_s": self_s["engine.gshare"],
        "engine.ras_s": self_s["engine.ras"],
        "engine.prepare_s": self_s["engine.prepare"],
        "engine.classify_s": self_s["engine.run"],
        "engine.contexts_built": count["engine.context_init"],
        "engine.events_per_s": ratio(
            sum(s["args"].get("events", 0) for s in runs), sum(durations_of(runs))
        ),
        "runner.cells": len(runs),
        "runner.overhead_s": sum(
            own[(s["pid"], s["id"])] for s in all_executes
        ) / 1e9,
        "runner.worker_busy_ratio": ratio(
            sum(durations_of(worker_roots)), workers * execute_s
        ),
        "runner.pool_startup_s": (
            (min(s["start"] for s in worker_roots) - executes[0]["start"]) / 1e9
            if worker_roots and executes
            else 0.0
        ),
        "store.fetch_ms_p50": ms_p50("store.fetch"),
        "store.put_ms_p50": ms_p50("store.put"),
        "registry.append_ms_p50": ms_p50("registry.append"),
        "registry.events_persisted": count["registry.append"],
        "trace.span_coverage": ratio(main_self / 1e9, wall_s),
    }


def durations_of(spans: Iterable[Span]) -> List[float]:
    """Durations (s) of *spans*."""
    return [(span["end"] - span["start"]) / 1e9 for span in spans]
