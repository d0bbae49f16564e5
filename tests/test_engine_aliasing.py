"""Engine micro-tests for tag-less type-field aliasing.

A small NLS-table makes two branches share a slot; the slot's type
field then steers the *wrong* prediction mechanism, and the engine
must classify the damage per docs/ACCOUNTING.md.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.core.nls_table import NLSTable
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import NLSTableFrontEnd
from repro.isa.branches import BranchKind
from repro.predictors.static_ import AlwaysNotTakenPredictor, AlwaysTakenPredictor
from tests.conftest import make_trace

C = BranchKind.CONDITIONAL
U = BranchKind.UNCONDITIONAL
RET = BranchKind.RETURN
CALL = BranchKind.CALL
IND = BranchKind.INDIRECT

#: NLS-table span with 64 entries: branches 256 bytes apart share a slot
SLOT_SPAN = 64 * 4


def build(direction):
    cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
    table = NLSTable(64, cache.geometry)
    engine = FetchEngine(
        cache, NLSTableFrontEnd(table, cache), direction_predictor=direction
    )
    return engine, table


class TestConditionalReadsOtherTypedAlias:
    def trace(self):
        """U (at a) trains the slot with type OTHER; the conditional at
        a+SLOT_SPAN reads that alias."""
        a = 0x1004
        cond = a + SLOT_SPAN
        t = 0x4000
        rows = []
        # train the slot: unconditional at a -> t, then return path to cond
        rows.append((a, 1, U, True, t))
        rows.append((t, 1, U, True, cond))
        # the aliasing conditional executes NOT taken
        rows.append((cond, 1, C, False, 0x5000))
        rows.append((cond + 4, 1, U, True, a))
        # round 2: slot now holds the conditional's own type; retrain
        rows.append((a, 1, U, True, t))
        rows.append((t, 1, U, True, cond))
        rows.append((cond, 1, C, False, 0x5000))
        rows.append((cond + 4, 1, U, True, a))
        trace = make_trace(rows, "alias")
        trace.validate()
        return trace

    def test_not_taken_with_other_alias_is_misfetch(self):
        engine, table = build(AlwaysNotTakenPredictor())
        report = engine.run(self.trace())
        executed, misfetched, mispredicted = report.by_kind[C]
        assert executed == 2
        # both executions read an OTHER-typed alias (the U at `a`
        # rewrites the slot every round): fetch followed the pointer,
        # decode repaired to the fall-through -> misfetch, not mispredict
        assert misfetched == 2
        assert mispredicted == 0


class TestUnconditionalReadsConditionalTypedAlias:
    def trace(self):
        """A conditional trains the slot; the unconditional at the
        aliasing pc then consults the PHT."""
        cond = 0x1004
        uncond = cond + SLOT_SPAN
        rows = []
        # train slot with a TAKEN conditional pointing at `uncond`
        rows.append((cond, 1, C, True, uncond))
        # the aliasing unconditional jumps to... the same target the
        # slot holds? No: its real target is elsewhere
        rows.append((uncond, 1, U, True, 0x4000))
        rows.append((0x4000, 1, U, True, cond))
        rows.append((cond, 1, C, True, uncond))
        rows.append((uncond, 1, U, True, 0x4000))
        rows.append((0x4000, 1, U, True, cond))
        trace = make_trace(rows, "alias")
        trace.validate()
        return trace

    def test_pht_not_taken_forces_misfetch(self):
        # with an always-not-taken PHT the conditional-typed alias
        # fetches the fall-through: every execution misfetches
        engine, table = build(AlwaysNotTakenPredictor())
        report = engine.run(self.trace())
        executed, misfetched, mispredicted = report.by_kind[U]
        # the unconditional at `uncond` reads its own correct entry on
        # round 2 (it rewrote the slot after round 1); round 1 is the
        # aliased one.  0x4000's branch trains normally.
        assert misfetched >= 1
        assert mispredicted == 0

    def test_mispredicts_never_charged_to_unconditionals(self):
        engine, table = build(AlwaysTakenPredictor())
        report = engine.run(self.trace())
        assert report.by_kind[U][2] == 0


class TestReturnTypedAliasOnCall:
    def test_call_reading_return_alias_misfetches(self):
        # slot trained by a return; the aliasing call must misfetch
        # (stack top fetched instead of the callee) but never mispredict
        ret_pc = 0x1004
        call_pc = ret_pc + SLOT_SPAN
        rows = []
        # set up: call A -> F; F returns (training slot type RETURN)
        rows.append((0x2000, 1, CALL, True, ret_pc - 0x100))
        # F body runs up to the return at ret_pc
        rows.append((ret_pc - 0x100, 65, RET, True, 0x2004))
        # now the aliasing call executes
        rows.append((0x2004, 1, U, True, call_pc))
        rows.append((call_pc, 1, CALL, True, 0x5000))
        rows.append((0x5000, 1, RET, True, call_pc + 4))
        rows.append((call_pc + 4, 1))
        trace = make_trace(rows, "alias")
        trace.validate()
        engine, table = build(AlwaysNotTakenPredictor())
        report = engine.run(trace)
        executed, misfetched, mispredicted = report.by_kind[CALL]
        assert executed == 2
        assert mispredicted == 0
        assert misfetched == 2  # both cold/aliased


class TestIndirectThroughConditionalAlias:
    def test_accidentally_right_counts_correct(self):
        cond = 0x1004
        ind = cond + SLOT_SPAN
        target = 0x4000
        rows = []
        # conditional trains the slot with a pointer to `target`
        rows.append((cond, 1, C, True, target))
        rows.append((target, 1, U, True, ind))
        # the aliasing indirect jump goes to the very same target
        rows.append((ind, 1, IND, True, target))
        rows.append((target, 1, U, True, 0x6000))
        rows.append((0x6000, 1))
        trace = make_trace(rows, "alias")
        trace.validate()
        engine, table = build(AlwaysTakenPredictor())
        report = engine.run(trace)
        executed, misfetched, mispredicted = report.by_kind[IND]
        assert executed == 1
        # PHT (always-taken) follows the aliased pointer, which happens
        # to resolve to the right place: correct by accident
        assert misfetched == 0 and mispredicted == 0

    def test_wrong_alias_target_is_mispredict(self):
        cond = 0x1004
        ind = cond + SLOT_SPAN
        trace = make_trace(
            [
                (cond, 1, C, True, 0x4000),
                (0x4000, 1, U, True, ind),
                (ind, 1, IND, True, 0x5000),  # alias points at 0x4000
                (0x5000, 1),
            ],
            "alias",
        )
        trace.validate()
        engine, table = build(AlwaysTakenPredictor())
        report = engine.run(trace)
        executed, misfetched, mispredicted = report.by_kind[IND]
        assert mispredicted == 1  # indirects never misfetch
        assert misfetched == 0
