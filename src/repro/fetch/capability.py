"""Engine capability classification for sweep dispatch.

The fast engine's supported matrix is now closed over every paper
configuration: all front-ends (NLS table, NLS cache, Johnson
successor table, Steely/Sager goto-register table, plain and coupled
BTB, oracle, fall-through), set-associative instruction caches under
every replacement policy, flushes, warmup and attribution.  What
remains outside the matrix is named by a stable machine-readable
:class:`FallbackReason` — the value stamped into run manifests —
instead of the old free-text marker.

Within the matrix, :func:`engine_class` tells the harness *how* a
cell executes so plan batching can group compatible cells:

* ``fast-batched`` — replays as pure array passes; a batch of cells
  sharing a packed trace shares every pass through the
  :class:`~repro.fetch.fast_engine.TraceReplayContext` memos.
* ``fast-single`` — exact per-cell scalar replay of a structure with
  prediction-independent but order-sensitive state (associative BTB
  LRU stacks, coupled-BTB counters, NLS-cache LRU slot recency); the
  cell still shares every vectorised sub-replay (icache, flush
  epochs, residency probes) through the batch context.
* ``reference`` — the per-branch reference loop; only configurations
  with a :class:`FallbackReason` land here.
"""

from __future__ import annotations

import enum
from typing import Optional


class FallbackReason(enum.Enum):
    """Why a configuration cannot run on the fast engine.

    Values are stable machine-readable identifiers: they appear in
    ``RunManifest.extra["engine_fallback"]`` and are pinned by tests —
    add new members rather than renaming existing values.
    """

    #: only the gshare direction predictor has a vectorised replay
    DIRECTION_PREDICTOR = "unsupported-direction-predictor"
    #: wrong-path modelling feeds predictions back into cache state,
    #: breaking the trace-determined-state property every kernel needs
    WRONG_PATH = "wrong-path-modelling"


class EngineClass(str, enum.Enum):
    """How a configuration executes under sweep dispatch."""

    FAST_BATCHED = "fast-batched"
    FAST_SINGLE = "fast-single"
    REFERENCE = "reference"


def fallback_reason(config) -> Optional[FallbackReason]:
    """The :class:`FallbackReason` forcing *config* onto the reference
    engine, or ``None`` when the fast engine supports it."""
    if config.direction != "gshare":
        return FallbackReason.DIRECTION_PREDICTOR
    if config.model_wrong_path:
        return FallbackReason.WRONG_PATH
    return None


def engine_class(config) -> EngineClass:
    """Classify *config* for sweep batching (assuming ``engine="fast"``
    is requested; a cell that asks for the reference engine is simply
    not classified through here)."""
    if fallback_reason(config) is not None:
        return EngineClass.REFERENCE
    if config.frontend == "coupled-btb":
        return EngineClass.FAST_SINGLE
    if config.frontend == "btb" and config.btb_assoc != 1:
        return EngineClass.FAST_SINGLE
    if config.frontend == "nls-cache" and config.nls_cache_policy == "lru":
        return EngineClass.FAST_SINGLE
    return EngineClass.FAST_BATCHED
