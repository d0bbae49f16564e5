"""Architecture configurations: one value object describing a complete
simulated front-end + cache, buildable into a fresh
:class:`~repro.fetch.engine.FetchEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.core.johnson import JohnsonSuccessorIndex
from repro.fetch.attribution import AttributionCollector
from repro.core.nls_cache import NLSCache
from repro.core.nls_table import NLSTable
from repro.core.steely_sager import SteelySagerTable
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import (
    BTBFrontEnd,
    CoupledBTBFrontEnd,
    FallThroughFrontEnd,
    JohnsonFrontEnd,
    NLSCacheFrontEnd,
    NLSTableFrontEnd,
    OracleFrontEnd,
)
from repro.metrics.report import PenaltyModel
from repro.predictors.btb import BranchTargetBuffer, CoupledBTB
from repro.predictors.pht import make_direction_predictor
from repro.predictors.ras import ReturnAddressStack

FRONTENDS: Tuple[str, ...] = (
    "nls-table",
    "nls-cache",
    "btb",
    "coupled-btb",
    "steely-sager",
    "johnson",
    "oracle",
    "fall-through",
)

#: simulation engines: the pure-Python reference loop, or the
#: vectorised replay (which falls back to the reference for
#: configurations outside its supported matrix — see
#: :func:`repro.fetch.capability.fallback_reason`)
ENGINES: Tuple[str, ...] = ("reference", "fast")


@dataclass(frozen=True)
class ArchitectureConfig:
    """A complete simulated configuration.

    ``entries`` is the NLS-table size or the BTB size, depending on
    ``frontend``; ``btb_assoc`` only applies to BTBs;
    ``predictors_per_line``/``nls_cache_policy`` only to NLS-cache and
    Johnson front-ends.
    """

    frontend: str = "nls-table"
    cache_kb: int = 16
    cache_assoc: int = 1
    line_bytes: int = 32
    cache_replacement: str = "lru"
    entries: int = 1024
    btb_assoc: int = 1
    #: BTB allocation policy: 'taken-only' (the paper's) or 'all'
    btb_allocate: str = "taken-only"
    predictors_per_line: int = 2
    nls_cache_policy: str = "partition"
    direction: str = "gshare"
    pht_entries: int = 4096
    ras_entries: int = 32
    misfetch_penalty: float = 1.0
    mispredict_penalty: float = 4.0
    icache_miss_penalty: float = 5.0
    #: model wrong-path cache touches on misfetches (off in the paper)
    model_wrong_path: bool = False
    #: instructions between full state flushes (context switches);
    #: None = never (the paper's single-process traces)
    flush_interval: Optional[int] = None
    #: attach a cause-attribution collector (DESIGN.md §11) to the
    #: built engine: exact per-cause/per-site tallies plus a sampled
    #: event ring.  Part of the config so run-plan dedup keys on it
    #: and process workers rebuild it from the spec alone.
    attribution: bool = False
    #: keep every ``attribution_sample``-th penalty event in the ring
    attribution_sample: int = 64
    #: simulation engine: ``"reference"`` (the per-branch Python loop)
    #: or ``"fast"`` (the vectorised replay of
    #: :mod:`repro.fetch.fast_engine`); both produce identical reports
    engine: str = "reference"

    def __post_init__(self) -> None:
        if self.frontend not in FRONTENDS:
            raise ValueError(
                f"unknown frontend {self.frontend!r}; expected one of {FRONTENDS}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of {ENGINES}"
            )
        if self.cache_kb < 1:
            raise ValueError("cache size must be at least 1 KB")
        if self.attribution_sample < 1:
            raise ValueError("attribution_sample must be positive")

    # ------------------------------------------------------------------

    @property
    def geometry(self) -> CacheGeometry:
        """Instruction-cache geometry of this configuration."""
        return CacheGeometry(
            size_bytes=self.cache_kb * 1024,
            line_bytes=self.line_bytes,
            associativity=self.cache_assoc,
        )

    @property
    def penalties(self) -> PenaltyModel:
        """Penalty model of this configuration."""
        return PenaltyModel(
            misfetch=self.misfetch_penalty,
            mispredict=self.mispredict_penalty,
            icache_miss=self.icache_miss_penalty,
        )

    def label(self) -> str:
        """Human-readable configuration label used in reports."""
        cache = f"{self.cache_kb}K/{self.cache_assoc}w"
        if self.frontend == "btb":
            return f"btb-{self.entries}e-{self.btb_assoc}w @ {cache}"
        if self.frontend == "coupled-btb":
            return f"coupled-btb-{self.entries}e-{self.btb_assoc}w @ {cache}"
        if self.frontend == "nls-table":
            return f"nls-table-{self.entries}e @ {cache}"
        if self.frontend == "steely-sager":
            return f"steely-sager-{self.entries}e @ {cache}"
        if self.frontend == "nls-cache":
            return (
                f"nls-cache-{self.predictors_per_line}pl-"
                f"{self.nls_cache_policy} @ {cache}"
            )
        if self.frontend == "johnson":
            return f"johnson-{self.predictors_per_line}pl @ {cache}"
        return f"{self.frontend} @ {cache}"

    def with_cache(self, cache_kb: int, cache_assoc: int) -> "ArchitectureConfig":
        """Copy of this config with a different instruction cache."""
        return replace(self, cache_kb=cache_kb, cache_assoc=cache_assoc)

    def describe(self) -> "dict":
        """Provenance dict: label, frontend and every non-default field.

        The compact form run metadata and exports use — default knobs
        are elided so the description stays readable while still
        reconstructing the configuration exactly.
        """
        defaults = ArchitectureConfig()
        overrides = {
            spec.name: getattr(self, spec.name)
            for spec in fields(self)
            if getattr(self, spec.name) != getattr(defaults, spec.name)
        }
        return {"label": self.label(), "frontend": self.frontend, **overrides}

    # ------------------------------------------------------------------

    def build(self):
        """Build a fresh engine (fresh cache and predictor state).

        ``engine == "fast"`` builds the vectorised
        :class:`~repro.fetch.fast_engine.FastEngine` when the
        configuration lies in its supported matrix, and otherwise
        falls back to the reference engine with the reason recorded on
        ``engine.engine_fallback`` (the harness stamps it into the run
        manifest).
        """
        if self.engine == "fast":
            from repro.fetch.capability import fallback_reason
            from repro.fetch.fast_engine import FastEngine

            reason = fallback_reason(self)
            if reason is None:
                return FastEngine(self)
            engine = self._build_reference()
            engine.engine_fallback = reason.value
            return engine
        return self._build_reference()

    def _build_reference(self) -> FetchEngine:
        """Build the reference per-branch engine for this config."""
        cache = InstructionCache(self.geometry, replacement=self.cache_replacement)
        if self.frontend == "btb":
            frontend = BTBFrontEnd(
                BranchTargetBuffer(
                    self.entries, self.btb_assoc, allocate=self.btb_allocate
                )
            )
        elif self.frontend == "coupled-btb":
            frontend = CoupledBTBFrontEnd(
                CoupledBTB(self.entries, self.btb_assoc)
            )
        elif self.frontend == "nls-table":
            frontend = NLSTableFrontEnd(
                NLSTable(self.entries, cache.geometry), cache
            )
        elif self.frontend == "steely-sager":
            frontend = NLSTableFrontEnd(
                SteelySagerTable(self.entries, cache.geometry), cache
            )
            frontend.name = f"steely-sager-{self.entries}e"
        elif self.frontend == "nls-cache":
            frontend = NLSCacheFrontEnd(
                NLSCache(
                    cache,
                    predictors_per_line=self.predictors_per_line,
                    policy=self.nls_cache_policy,
                )
            )
        elif self.frontend == "johnson":
            frontend = JohnsonFrontEnd(
                JohnsonSuccessorIndex(
                    cache, predictors_per_line=self.predictors_per_line
                )
            )
        elif self.frontend == "oracle":
            frontend = OracleFrontEnd()
        else:  # fall-through
            frontend = FallThroughFrontEnd()
        return FetchEngine(
            cache=cache,
            frontend=frontend,
            direction_predictor=make_direction_predictor(
                self.direction, entries=self.pht_entries
            ),
            return_stack=ReturnAddressStack(self.ras_entries),
            penalties=self.penalties,
            model_wrong_path=self.model_wrong_path,
            flush_interval=self.flush_interval,
            attribution=(
                AttributionCollector(sample=self.attribution_sample)
                if self.attribution
                else None
            ),
        )
