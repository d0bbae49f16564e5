"""The trace-driven fetch engine.

Drives a block-compressed trace through:

* the instruction cache (every line of every executed block is
  fetched; misses are counted and fill the cache),
* the shared conditional-branch direction predictor (gshare by
  default) and the 32-entry return-address stack,
* one fetch front-end (BTB / NLS-table / NLS-cache / Johnson / ...).

Every executed break is classified as correct, **misfetched** (the
next-fetch address was wrong but repaired at decode: one bubble) or
**mispredicted** (direction or late-known target wrong, discovered at
execute: four bubbles), per the accounting of §5.2 — see DESIGN.md §5
for the full rule table.

The engine applies front-end updates one block late: the NLS set field
must be trained with the cache way the *target* line actually landed
in, which is only known once the next block has been fetched (§4 "the
NLS entries are updated after instructions are decoded").
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cache.icache import InstructionCache
from repro.fetch.attribution import (
    CAUSE_DIRECTION,
    CAUSE_FRONTEND_MISS,
    CAUSE_NLS_TYPE_MISMATCH,
    CAUSE_RAS_MISPOP,
    AttributionCollector,
)
from repro.fetch.frontends import (
    FetchFrontEnd,
    MECH_CONDITIONAL,
    MECH_OTHER,
    MECH_RETURN,
)
from repro.isa.branches import BranchKind
from repro.metrics.counters import SimulationCounters
from repro.metrics.report import PenaltyModel, SimulationReport
from repro.predictors.pht import GSharePredictor
from repro.predictors.ras import ReturnAddressStack
from repro.telemetry.core import get_registry
from repro.workloads.trace import Trace

def _no_address(handle) -> Optional[int]:
    """Default wrong-path address resolver: structures that store no
    full target (NLS, Johnson) cannot generate a wrong-path address."""
    return None


_KIND_TO_MECH = {
    int(BranchKind.RETURN): MECH_RETURN,
    int(BranchKind.CONDITIONAL): MECH_CONDITIONAL,
    int(BranchKind.UNCONDITIONAL): MECH_OTHER,
    int(BranchKind.CALL): MECH_OTHER,
    int(BranchKind.INDIRECT): MECH_OTHER,
}


class FetchEngine:
    """One simulation run: cache + shared predictors + one front-end.

    Predictor and cache state persists across :meth:`run` calls, so a
    fresh engine should be built per configuration (the harness does).
    """

    #: engine-selection identity stamped into run manifests (the
    #: vectorised counterpart reports ``"fast"``)
    engine_name = "reference"

    def __init__(
        self,
        cache: InstructionCache,
        frontend: FetchFrontEnd,
        direction_predictor=None,
        return_stack: Optional[ReturnAddressStack] = None,
        penalties: Optional[PenaltyModel] = None,
        model_wrong_path: bool = False,
        flush_interval: Optional[int] = None,
        attribution: Optional[AttributionCollector] = None,
    ) -> None:
        self.cache = cache
        self.frontend = frontend
        self.direction = (
            direction_predictor if direction_predictor is not None else GSharePredictor()
        )
        self.return_stack = (
            return_stack if return_stack is not None else ReturnAddressStack(32)
        )
        self.penalties = penalties or PenaltyModel()
        #: front-ends may opt out of return-stack integration (Johnson
        #: has none); coupled BTBs predict direction implicitly but
        #: still drive the stack
        self.uses_ras = getattr(frontend, "uses_ras", not frontend.implicit_direction)
        #: when set, misfetches also touch the wrongly-fetched line:
        #: a BTB with a stale full target pollutes the cache with a
        #: wrong-path fill, while a fall-through fetch only touches the
        #: sequential line (the paper notes the two architectures "may
        #: fetch different instructions", S5.2)
        self.model_wrong_path = model_wrong_path
        #: instructions between context switches: at each boundary the
        #: instruction cache, the front-end structure, the PHT and the
        #: return stack are all flushed, modelling the cold restart a
        #: real process suffers after being scheduled out
        if flush_interval is not None and flush_interval < 1:
            raise ValueError("flush_interval must be positive")
        self.flush_interval = flush_interval
        #: optional cause-attribution collector (DESIGN.md §11): when
        #: set, every counted break is classified into the closed
        #: taxonomy of :mod:`repro.fetch.attribution`; when ``None``
        #: the hot loop pays one pointer comparison per break
        self.attribution = attribution

    # ------------------------------------------------------------------

    def run(
        self,
        trace: Trace,
        label: Optional[str] = None,
        warmup_fraction: float = 0.0,
    ) -> SimulationReport:
        """Simulate *trace* and return the derived report.

        *warmup_fraction* (0..1) excludes the first fraction of events
        from the report while still training every structure — the
        paper's multi-hundred-million-instruction traces make cold
        start negligible, and warmup restores that property for the
        scaled-down traces used here.

        Front ends that keep a mismatch-cause histogram (the NLS
        designs) have it snapshotted into ``report.frontend_stats`` so
        downstream analyses never need the live engine — reports are
        self-contained and cross process boundaries intact.

        When a telemetry registry is active (see
        :mod:`repro.telemetry`), the run is wrapped in an
        ``engine.run`` span and per-phase counters are published —
        icache probes, front-end predicts, return-stack operations and
        blocks decoded.  The counts are derived from aggregates the
        loop maintains anyway (cache access totals, trace columns), so
        the hot loop itself carries **no** instrumentation and the
        disabled path costs nothing."""
        registry = get_registry()
        probe_base = self.cache.accesses
        with registry.span(
            "engine.run",
            label=label if label is not None else self.frontend.name,
            program=trace.name,
            frontend=self.frontend.name,
        ):
            counters = self._simulate(trace, warmup_fraction)
        if registry.enabled:
            kinds = trace.kinds
            blocks = len(kinds)
            predicts = trace.n_breaks
            ras_ops = 0
            if self.uses_ras:
                # one push per CALL, one pop per RETURN (whole trace,
                # warmup included — this is throughput accounting)
                ras_ops = int(
                    np.count_nonzero(
                        (kinds == BranchKind.CALL) | (kinds == BranchKind.RETURN)
                    )
                )
            registry.counter("engine.blocks_decoded").add(blocks)
            registry.counter("engine.icache_probes").add(
                self.cache.accesses - probe_base
            )
            registry.counter("engine.frontend_predicts").add(predicts)
            registry.counter("engine.ras_ops").add(ras_ops)
        collector = self.attribution
        if collector is not None and registry.enabled:
            # publish the closed-taxonomy totals alongside the phase
            # counters, and fold this run's penalty-gap distribution
            # into the process-wide histogram
            for cause_name, count in collector.causes.items():
                if count:
                    registry.counter(f"engine.cause.{cause_name}").add(count)
            registry.histogram("engine.penalty_gap").absorb(
                collector.gap_histogram
            )
        stats = getattr(self.frontend, "mismatch_causes", None)
        return SimulationReport.from_counters(
            counters,
            label=label if label is not None else self.frontend.name,
            program=trace.name,
            penalties=self.penalties,
            frontend_stats=dict(stats) if stats is not None else None,
            attribution=collector.snapshot() if collector is not None else None,
        )

    # ------------------------------------------------------------------

    def _context_switch(self) -> None:
        """Flush every stateful structure (see ``flush_interval``)."""
        self.cache.flush()
        flush = getattr(self.frontend, "flush", None)
        if flush is not None:
            flush()
        reset = getattr(self.direction, "reset", None)
        if reset is not None:
            reset()
        self.return_stack.clear()

    def _simulate(
        self, trace: Trace, warmup_fraction: float = 0.0
    ) -> SimulationCounters:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        cache = self.cache
        geometry = cache.geometry
        line_bytes = geometry.line_bytes
        line_mask = ~(line_bytes - 1)

        # the scalar loop below reads Python lists: indexing the
        # arrays per element would be several times slower
        starts = trace.starts.tolist()
        counts = trace.counts.tolist()
        kinds = trace.kinds.tolist()
        takens = trace.takens.tolist()
        targets = trace.targets.tolist()

        access = cache.access
        frontend = self.frontend
        fe_predict = frontend.predict
        fe_matches = frontend.target_matches
        fe_update = frontend.update
        implicit = frontend.implicit_direction
        perfect = getattr(frontend, "perfect", False)
        pht = self.direction
        pht_predict = pht.predict
        pht_update = pht.update
        ras = self.return_stack
        use_ras = self.uses_ras
        collector = self.attribution
        if collector is not None:
            collector.reset()
        observe = collector.observe if collector is not None else None

        counters = SimulationCounters()
        by_kind = {int(kind): counter for kind, counter in counters.by_kind.items()}
        base_accesses = cache.accesses
        base_misses = cache.misses

        NOT_A_BRANCH = int(BranchKind.NOT_A_BRANCH)
        CONDITIONAL = int(BranchKind.CONDITIONAL)
        UNCONDITIONAL = int(BranchKind.UNCONDITIONAL)
        CALL = int(BranchKind.CALL)
        RETURN = int(BranchKind.RETURN)

        pending = None  # deferred front-end update (see module docstring)
        n_instructions = 0
        warmup_boundary = int(len(starts) * warmup_fraction)
        model_wrong_path = self.model_wrong_path
        flush_interval = self.flush_interval
        instructions_since_flush = 0

        for index in range(len(starts)):
            if index == warmup_boundary and index > 0:
                # end of warmup: discard everything counted so far
                counters = SimulationCounters()
                by_kind = {
                    int(kind): counter for kind, counter in counters.by_kind.items()
                }
                base_accesses = cache.accesses
                base_misses = cache.misses
                n_instructions = 0
                if collector is not None:
                    # attribution mirrors the counter reset so its
                    # per-cause totals partition the reported aggregates
                    collector.reset()
            start = starts[index]
            count = counts[index]
            n_instructions += count

            if flush_interval is not None:
                instructions_since_flush += count
                if instructions_since_flush >= flush_interval:
                    instructions_since_flush = 0
                    pending = None
                    self._context_switch()

            # --- fetch the block's lines ---------------------------------
            line = start & line_mask
            end_line = (start + (count - 1) * 4) & line_mask
            way = access(line).way
            if pending is not None:
                # next_way: the way the next-fetch line landed in
                fe_update(
                    pending[0], pending[1], pending[2], pending[3], pending[4], way
                )
                pending = None
            while line != end_line:
                line += line_bytes
                way = access(line).way
            branch_way = way  # way of the line holding the break

            kind = kinds[index]
            if kind == NOT_A_BRANCH:
                continue

            taken = takens[index]
            target = targets[index]
            pc = start + (count - 1) * 4
            fall_through = pc + 4

            # --- front-end prediction ------------------------------------
            mech, handle = fe_predict(pc, branch_way)
            if perfect:
                mech = _KIND_TO_MECH[kind]

            misfetch = False
            mispredict = False
            cause = None  # taxonomy member when misfetch/mispredict
            detail = None  # extra fields for the sampled trace record

            if kind == CONDITIONAL:
                if implicit:
                    # Johnson: the pointer is the direction prediction
                    implied = frontend.implied_taken(handle, fall_through)
                    if implied != taken:
                        mispredict = True
                        # no entry at all means the "prediction" was the
                        # structural not-taken default, not a trained bit
                        cause = (
                            CAUSE_FRONTEND_MISS if mech is None else CAUSE_DIRECTION
                        )
                    elif taken and not fe_matches(handle, target):
                        misfetch = True
                        cause = frontend.last_mismatch_cause
                else:
                    predicted_taken = pht_predict(pc, target)
                    pht_update(pc, taken)
                    if predicted_taken != taken:
                        mispredict = True
                        cause = CAUSE_DIRECTION
                    elif taken:
                        if mech == MECH_CONDITIONAL or mech == MECH_OTHER:
                            if not fe_matches(handle, target):
                                misfetch = True
                                cause = frontend.last_mismatch_cause
                        else:
                            # no entry (fetched fall-through) or a
                            # return-typed alias (fetched stack top):
                            # repaired at decode from the computed target
                            misfetch = True
                            cause = (
                                CAUSE_FRONTEND_MISS
                                if mech is None
                                else CAUSE_NLS_TYPE_MISMATCH
                            )
                    else:
                        # direction right, not taken: the precomputed
                        # fall-through is correct unless a wrong-typed
                        # entry steered fetch elsewhere
                        if mech == MECH_OTHER or mech == MECH_RETURN:
                            misfetch = True
                            cause = CAUSE_NLS_TYPE_MISMATCH
            elif kind == UNCONDITIONAL or kind == CALL:
                if mech == MECH_OTHER:
                    if not fe_matches(handle, target):
                        misfetch = True
                        cause = frontend.last_mismatch_cause
                elif mech == MECH_CONDITIONAL:
                    # conditional-typed alias: fetch follows the PHT
                    # (consulted, not trained — this is not a
                    # conditional branch)
                    if not pht_predict(pc, target):
                        misfetch = True
                        cause = CAUSE_NLS_TYPE_MISMATCH
                    elif not fe_matches(handle, target):
                        misfetch = True
                        cause = frontend.last_mismatch_cause
                else:
                    # no entry or return-typed alias; the direct target
                    # is computed at decode
                    misfetch = True
                    cause = (
                        CAUSE_FRONTEND_MISS
                        if mech is None
                        else CAUSE_NLS_TYPE_MISMATCH
                    )
            elif kind == RETURN:
                predicted_return = ras.pop() if use_ras else None
                if not use_ras:
                    # Johnson predicts returns with the raw pointer; a
                    # wrong pointer is only discovered at execute
                    if not fe_matches(handle, target):
                        mispredict = True
                        cause = frontend.last_mismatch_cause
                elif mech == MECH_RETURN:
                    if predicted_return != target:
                        mispredict = True
                        cause = CAUSE_RAS_MISPOP
                        detail = {"underflow": predicted_return is None}
                else:
                    # the front-end did not identify the return; decode
                    # does, and repairs from the stack if it can
                    if predicted_return == target:
                        misfetch = True
                        cause = (
                            CAUSE_FRONTEND_MISS
                            if mech is None
                            else CAUSE_NLS_TYPE_MISMATCH
                        )
                    else:
                        mispredict = True
                        cause = CAUSE_RAS_MISPOP
                        detail = {"underflow": predicted_return is None}
            else:  # INDIRECT
                if mech == MECH_OTHER:
                    if not fe_matches(handle, target):
                        mispredict = True
                        cause = frontend.last_mismatch_cause
                elif mech == MECH_CONDITIONAL:
                    if not pht_predict(pc, target):
                        mispredict = True
                        cause = CAUSE_NLS_TYPE_MISMATCH
                    elif not fe_matches(handle, target):
                        mispredict = True
                        cause = frontend.last_mismatch_cause
                else:
                    # no prediction: the register target arrives at execute
                    mispredict = True
                    cause = (
                        CAUSE_FRONTEND_MISS
                        if mech is None
                        else CAUSE_NLS_TYPE_MISMATCH
                    )

            if misfetch and model_wrong_path:
                # touch the line fetch actually went to before decode
                # repaired it
                if mech is None:
                    access(fall_through & line_mask)
                else:
                    wrong = getattr(frontend, "predicted_address", _no_address)(
                        handle
                    )
                    if wrong is not None:
                        access(wrong & line_mask)

            if use_ras and kind == CALL:
                ras.push(fall_through)

            counter = by_kind[kind]
            counter.executed += 1
            if misfetch:
                counter.misfetched += 1
            elif mispredict:
                counter.mispredicted += 1

            if observe is not None:
                observe(
                    pc,
                    kind,
                    taken,
                    1 if misfetch else (2 if mispredict else 0),
                    cause,
                    detail,
                )

            pending = (pc, kind, taken, target, fall_through)

        # final pending update: resolve with a probe (no further fetch)
        if pending is not None and pending[2]:
            way = cache.probe(pending[3])
            fe_update(
                pending[0], pending[1], pending[2], pending[3], pending[4],
                way if way is not None else 0,
            )

        counters.n_instructions = n_instructions
        counters.icache_accesses = cache.accesses - base_accesses
        counters.icache_misses = cache.misses - base_misses
        return counters
