"""Trace corpus: build-once, reuse-everywhere trace generation.

A full figure sweep simulates the same program trace under dozens of
architecture configurations; regenerating the trace each time would
dominate the runtime.  This module memoises traces keyed by the fully
resolved set of generation parameters — ``(program, instruction
budget, seed, layout)``, where the budget already folds in the global
``REPRO_TRACE_SCALE`` multiplier and the seed/length defaults come
from the program's calibrated profile.  :func:`trace_key` exposes that
key so the parallel run-plan executor can group simulation cells that
share a trace onto the same worker.

Worker processes each hold their own private cache (module state is
per process); :func:`clear_cache` gives pool initialisers and tests an
explicit way to start from — or return to — an empty corpus.  Within
a process generation is single-flight: threads that miss on the same
key at once (the service's scheduler threads) generate it once, and
every one of them gets the same trace object.

Setting ``REPRO_EXTERNAL_TRACE_DIR`` also persists generated traces
in the trace store (:mod:`repro.workloads.ingest`), shared across
processes and runs, as entries named after their trace key.  A stored
entry that is corrupt or unreadable (disk faults, injected chaos) is
**evicted and regenerated** instead of crashing the sweep, with
``corpus.trace_file_corrupt`` / ``corpus.trace_file_evictions``
telemetry counters making the recovery visible.

The global scale knob ``REPRO_TRACE_SCALE`` (an environment variable,
default 1.0) multiplies every requested budget, letting test runs use
short traces and full reproductions long ones without touching code.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, Optional, Tuple

from repro.telemetry.core import get_registry
from repro.workloads.generator import build_program
from repro.workloads.ingest import (
    EXTERNAL_DIR_ENV_VAR,
    is_external,
    load_external,
    read_entry,
    trace_digest,
    write_entry,
)
from repro.workloads.interpreter import execute
from repro.workloads.profiles import get_profile
from repro.workloads.trace import Trace

#: fully resolved memoisation key: (program, budget, seed, layout)
TraceKey = Tuple[str, int, int, str]

_CACHE: Dict[TraceKey, Trace] = {}

#: one lock per key being generated, taken only on a memo miss
_KEY_LOCKS: Dict[TraceKey, threading.Lock] = {}
_KEY_LOCKS_LOCK = threading.Lock()

#: environment variable multiplying every trace budget
SCALE_ENV_VAR = "REPRO_TRACE_SCALE"


def trace_scale() -> float:
    """Current global trace-length multiplier (>= 0, default 1.0)."""
    raw = os.environ.get(SCALE_ENV_VAR, "")
    if not raw:
        return 1.0
    try:
        scale = float(raw)
    except ValueError:
        raise ValueError(
            f"{SCALE_ENV_VAR} must be a number, got {raw!r}"
        ) from None
    if scale <= 0:
        raise ValueError(f"{SCALE_ENV_VAR} must be positive, got {scale}")
    return scale


def trace_key(
    name: str,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    layout: str = "natural",
) -> TraceKey:
    """Resolve every generation parameter into the memoisation key.

    ``instructions`` and ``seed`` default from the program's profile
    and the budget is scaled by ``REPRO_TRACE_SCALE``, so two requests
    that would generate the same trace always map to the same key —
    and two that would not, never do.

    Ingested ``external:<sha256>`` traces (docs/TRACES.md) are
    content-addressed immutable inputs: *instructions*, *seed* and the
    trace scale do not apply to them (a replay is always the full
    recorded stream), so their key is ``(name, 0, 0, layout)`` — the
    digest alone carries the identity.
    """
    if is_external(name):
        return (name, 0, 0, layout)
    profile = get_profile(name)
    if instructions is None:
        instructions = profile.default_instructions
    budget = max(1, int(instructions * trace_scale()))
    effective_seed = profile.seed if seed is None else seed
    return (name, budget, effective_seed, layout)


# ---------------------------------------------------------------------------
# store entries (opt-in via REPRO_EXTERNAL_TRACE_DIR)
# ---------------------------------------------------------------------------


def _entry_path(key: TraceKey) -> Optional[str]:
    """Store path of the synthetic trace *key*, or ``None`` when no
    store directory is set."""
    directory = os.environ.get(EXTERNAL_DIR_ENV_VAR)
    if not directory:
        return None
    return os.path.join(directory, "{}-{}-{}-{}.npz".format(*key))


def _load_entry(path: str, key: TraceKey) -> Optional[Trace]:
    """The stored trace for *key*, or ``None`` when it must be
    generated: the entry is absent, or it was corrupt and has been
    **evicted** (bad stored bytes never crash the sweep)."""
    registry = get_registry()
    try:
        trace = read_entry(path, key[0])
    except FileNotFoundError:
        registry.counter("corpus.trace_file_misses").add()
        return None
    except ValueError as exc:
        registry.counter("corpus.trace_file_corrupt").add()
        registry.counter("corpus.trace_file_evictions").add()
        warnings.warn(
            f"{exc}; evicting it, the trace will be regenerated",
            RuntimeWarning,
            stacklevel=2,
        )
        try:
            os.remove(path)
        except OSError:
            pass
        return None
    registry.counter("corpus.trace_file_hits").add()
    return trace


def generate_trace(
    name: str,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    layout: str = "natural",
) -> Trace:
    """Return the (memoised) trace for the calibrated program *name*.

    *instructions* defaults to the profile's calibrated trace length;
    either way it is multiplied by ``REPRO_TRACE_SCALE``.  With
    ``REPRO_EXTERNAL_TRACE_DIR`` set, traces also persist in the trace
    store: a corrupt entry is evicted and regenerated.

    ``external:<sha256>`` names resolve through the content-addressed
    external-trace store instead of the synthetic generator (see
    :mod:`repro.workloads.ingest`); the in-process memo tier is shared,
    so sweeps mixing synthetic and ingested programs batch the same
    way.  Concurrent misses on one key load or generate it once: the
    later callers wait for the first and return its object.
    """
    key = trace_key(name, instructions=instructions, seed=seed, layout=layout)
    registry = get_registry()
    trace = _CACHE.get(key)
    if trace is not None:
        registry.counter("corpus.trace_cache_hits").add()
        return trace
    with _KEY_LOCKS_LOCK:
        key_lock = _KEY_LOCKS.setdefault(key, threading.Lock())
    with key_lock:
        trace = _CACHE.get(key)
        if trace is not None:  # a concurrent caller produced it
            registry.counter("corpus.trace_cache_hits").add()
            return trace
        registry.counter("corpus.trace_cache_misses").add()
        trace = _CACHE[key] = _produce(key, name, layout)
    return trace


def _produce(key: TraceKey, name: str, layout: str) -> Trace:
    """Load or generate the trace for *key* (a memo miss)."""
    if is_external(name):
        return load_external(name)
    path = _entry_path(key)
    if path is not None:
        trace = _load_entry(path, key)
        if trace is not None:
            return trace
    registry = get_registry()
    profile = get_profile(name)
    _, budget, effective_seed, _ = key
    with registry.span(
        "corpus.generate_trace", program=name, instructions=budget
    ):
        program = build_program(profile, layout=layout, seed=effective_seed)
        trace = execute(
            program,
            budget,
            seed=effective_seed + 1,
            name=name,
            profile_indirect_repeat=profile.indirect_repeat,
        )
    if path is not None:
        try:
            write_entry(path, trace, digest=trace_digest(trace))
        except OSError:  # read-only / full disk: the store is best-effort
            pass
        else:
            registry.counter("corpus.trace_file_stores").add()
    return trace


def cache_info() -> Dict[str, object]:
    """Snapshot of the memoised corpus: entry count, cached keys and
    total instructions held (workers use this to bound memory)."""
    return {
        "entries": len(_CACHE),
        "keys": tuple(_CACHE),
        "instructions": sum(t.n_instructions for t in _CACHE.values()),
    }


def clear_cache() -> None:
    """Drop all memoised traces.

    Pool workers call this from their initialiser so each worker
    starts from an empty, private corpus (no stale state inherited
    across forks); tests use it to bound memory.
    """
    _CACHE.clear()
    with _KEY_LOCKS_LOCK:
        _KEY_LOCKS.clear()
