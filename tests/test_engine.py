"""Fetch-engine tests on hand-crafted micro-traces.

Each scenario builds a tiny, fully-consistent trace and asserts the
exact misfetch/mispredict classification the paper's accounting rules
prescribe (DESIGN.md §5).
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.core.nls_table import NLSTable
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import (
    BTBFrontEnd,
    FallThroughFrontEnd,
    JohnsonFrontEnd,
    NLSTableFrontEnd,
    OracleFrontEnd,
)
from repro.core.johnson import JohnsonSuccessorIndex
from repro.isa.branches import BranchKind
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.static_ import AlwaysNotTakenPredictor, AlwaysTakenPredictor
from tests.conftest import make_trace

U = BranchKind.UNCONDITIONAL
C = BranchKind.CONDITIONAL
CALL = BranchKind.CALL
RET = BranchKind.RETURN
IND = BranchKind.INDIRECT


def build_engine(frontend_kind="btb", assoc=1, direction=None, entries=128):
    cache = InstructionCache(CacheGeometry(8 * 1024, 32, assoc))
    if frontend_kind == "btb":
        frontend = BTBFrontEnd(BranchTargetBuffer(entries, 1))
    elif frontend_kind == "nls":
        frontend = NLSTableFrontEnd(NLSTable(entries, cache.geometry), cache)
    elif frontend_kind == "johnson":
        frontend = JohnsonFrontEnd(JohnsonSuccessorIndex(cache))
    elif frontend_kind == "oracle":
        frontend = OracleFrontEnd()
    elif frontend_kind == "fall-through":
        frontend = FallThroughFrontEnd()
    else:
        raise ValueError(frontend_kind)
    return FetchEngine(
        cache,
        frontend,
        direction_predictor=direction or AlwaysTakenPredictor(),
    )


def kind_counts(report, kind):
    executed, misfetched, mispredicted = report.by_kind[kind]
    return executed, misfetched, mispredicted


class TestStraightLine:
    def test_no_breaks_no_penalties(self):
        trace = make_trace([(0x1000, 64)], "straight")
        report = build_engine("btb").run(trace)
        assert report.n_breaks == 0
        assert report.bep == 0.0
        assert report.n_instructions == 64

    def test_icache_misses_counted(self):
        trace = make_trace([(0x1000, 64)], "straight")  # 8 lines, all cold
        report = build_engine("btb").run(trace)
        assert report.icache_misses == 8
        # CPI = (64 + 8*5)/64
        assert report.cpi == pytest.approx((64 + 40) / 64)


class TestUnconditional:
    def self_loop(self, rounds):
        trace = make_trace([(0x1000, 8, U, True, 0x1000)] * rounds, "loop")
        trace.validate()
        return trace

    @pytest.mark.parametrize("frontend", ["btb", "nls"])
    def test_cold_misfetch_then_correct(self, frontend):
        report = build_engine(frontend).run(self_trace := self.self_loop(5))
        executed, misfetched, mispredicted = kind_counts(report, U)
        assert executed == 5
        assert misfetched == 1  # cold structure only
        assert mispredicted == 0

    def test_fall_through_always_misfetches(self):
        report = build_engine("fall-through").run(self.self_loop(5))
        assert kind_counts(report, U)[1] == 5

    def test_oracle_never_misfetches(self):
        report = build_engine("oracle").run(self.self_loop(5))
        assert kind_counts(report, U)[1] == 0


class TestConditionalDirection:
    def taken_loop(self, rounds):
        trace = make_trace([(0x1000, 8, C, True, 0x1000)] * rounds, "cond")
        trace.validate()
        return trace

    def test_direction_wrong_is_mispredict(self):
        engine = build_engine("btb", direction=AlwaysNotTakenPredictor())
        report = engine.run(self.taken_loop(5))
        executed, misfetched, mispredicted = kind_counts(report, C)
        assert mispredicted == 5
        assert misfetched == 0  # never double-counted

    def test_direction_right_target_cold_is_misfetch(self):
        engine = build_engine("btb", direction=AlwaysTakenPredictor())
        report = engine.run(self.taken_loop(5))
        executed, misfetched, mispredicted = kind_counts(report, C)
        assert mispredicted == 0
        assert misfetched == 1  # only the cold BTB miss

    def test_not_taken_fall_through_is_free(self):
        rows = []
        # block ends in a never-taken conditional; fall-through is the
        # next block
        address = 0x1000
        for _ in range(5):
            rows.append((address, 8, C, False, 0x4000))
            address += 32
        trace = make_trace(rows, "nt")
        trace.validate()
        engine = build_engine("btb", direction=AlwaysNotTakenPredictor())
        report = engine.run(trace)
        executed, misfetched, mispredicted = kind_counts(report, C)
        assert misfetched == 0 and mispredicted == 0


class TestCallReturn:
    def call_return_rounds(self, rounds):
        """main calls F, F returns, main jumps back; repeated.

        Addresses are staggered so the three branch pcs land in
        different sets of a 128-entry direct-mapped BTB — BTB conflict
        behaviour is tested separately in test_btb.py.
        """
        rows = []
        for _ in range(rounds):
            rows.append((0x1000, 4, CALL, True, 0x2020))  # pc=0x100C, ra=0x1010
            rows.append((0x2020, 4, RET, True, 0x1010))
            rows.append((0x1010, 4, U, True, 0x1000))
        trace = make_trace(rows, "callret")
        trace.validate()
        return trace

    @pytest.mark.parametrize("frontend", ["btb", "nls"])
    def test_steady_state_all_correct(self, frontend):
        report = build_engine(frontend).run(self.call_return_rounds(6))
        assert kind_counts(report, CALL) == (6, 1, 0)
        # cold return: the structure does not know it is a return, but
        # decode repairs from the (correct) stack -> misfetch once
        assert kind_counts(report, RET) == (6, 1, 0)
        assert kind_counts(report, U) == (6, 1, 0)

    def test_ras_overflow_mispredicts_oldest_frame(self):
        depth = 33  # one deeper than the 32-entry stack
        rows = []
        call_base = 0x0010_0000
        for i in range(depth):
            callee = call_base + (i + 1) * 0x100
            rows.append((call_base + i * 0x100, 1, CALL, True, callee))
        # innermost block returns to the last call's return address
        returns = [call_base + i * 0x100 + 4 for i in range(depth - 1, -1, -1)]
        rows.append((call_base + depth * 0x100, 1, RET, True, returns[0]))
        for position, address in enumerate(returns[:-1]):
            rows.append((address, 1, RET, True, returns[position + 1]))
        rows.append((returns[-1], 1))
        trace = make_trace(rows, "deep")
        trace.validate()
        report = build_engine("oracle").run(trace)
        executed, misfetched, mispredicted = kind_counts(report, RET)
        assert executed == depth
        assert mispredicted == 1  # exactly the overwritten frame
        assert kind_counts(report, CALL) == (depth, 0, 0)


class TestIndirect:
    def indirect_rounds(self, targets):
        rows = []
        for target in targets:
            rows.append((0x1000, 4, IND, True, target))  # pc = 0x100C
            rows.append((target, 4, U, True, 0x1000))
        trace = make_trace(rows, "indirect")
        trace.validate()
        return trace

    def test_stable_target_correct_after_cold(self):
        report = build_engine("btb").run(self.indirect_rounds([0x2020] * 5))
        executed, misfetched, mispredicted = kind_counts(report, IND)
        assert executed == 5
        assert mispredicted == 1  # cold only
        assert misfetched == 0  # indirects never misfetch

    def test_changing_target_mispredicts(self):
        targets = [0x2020, 0x3040, 0x2020, 0x3040, 0x2020]
        report = build_engine("btb").run(self.indirect_rounds(targets))
        assert kind_counts(report, IND)[2] == 5  # every switch + cold


class TestNLSDisplacement:
    def displacement_trace(self, rounds):
        """A -> T -> T2 -> A; T2 conflicts with T's cache set, so T is
        always displaced when A branches to it (and vice versa)."""
        a, t = 0x1000, 0x3020
        t2 = t + 8 * 1024  # same I-cache set as t (8K direct-mapped)
        rows = []
        for _ in range(rounds):
            rows.append((a, 8, U, True, t))
            rows.append((t, 8, U, True, t2))
            # t2's block is shorter so its branch pc avoids t's BTB set
            rows.append((t2, 4, U, True, a))
        trace = make_trace(rows, "displace")
        trace.validate()
        return trace

    def test_nls_pays_misfetch_on_displaced_target(self):
        report = build_engine("nls").run(self.displacement_trace(6))
        executed, misfetched, mispredicted = kind_counts(report, U)
        # A->T misfetches every round after the first (T displaced by
        # T2), T->T2 likewise; T2->A stays resident
        assert executed == 18
        assert misfetched >= 10

    def test_btb_immune_to_displacement(self):
        report = build_engine("btb").run(self.displacement_trace(6))
        executed, misfetched, mispredicted = kind_counts(report, U)
        assert misfetched == 3  # cold allocations only

    def test_cache_misses_identical_across_frontends(self):
        trace = self.displacement_trace(6)
        nls = build_engine("nls").run(trace)
        btb = build_engine("btb").run(trace)
        assert nls.icache_misses == btb.icache_misses


class TestNLSTaglessAliasing:
    def test_alias_misfetch(self):
        # two unconditional branches whose pcs collide in a small table
        # but whose targets differ
        table_span = 64 * 4
        a, b = 0x1008, 0x1008 + table_span
        ta, tb = 0x4000, 0x5030
        rows = []
        for _ in range(4):
            rows.append((a, 1, U, True, ta))   # pc = a
            rows.append((ta, 1, U, True, b))
            rows.append((b, 1, U, True, tb))   # pc = b, same slot as a
            rows.append((tb, 1, U, True, a))
        trace = make_trace(rows, "alias")
        trace.validate()
        report = build_engine("nls", entries=64).run(trace)
        executed, misfetched, mispredicted = kind_counts(report, U)
        # a and b keep overwriting the shared slot: both misfetch every
        # round; the two linking branches train fine
        assert misfetched >= 2 * 4

    def test_no_alias_with_larger_table(self):
        table_span = 64 * 4
        a, b = 0x1008, 0x1008 + table_span
        ta, tb = 0x4000, 0x5030
        rows = []
        for _ in range(4):
            rows.append((a, 1, U, True, ta))
            rows.append((ta, 1, U, True, b))
            rows.append((b, 1, U, True, tb))
            rows.append((tb, 1, U, True, a))
        trace = make_trace(rows, "alias")
        trace.validate()
        report = build_engine("nls", entries=1024).run(trace)
        assert kind_counts(report, U)[1] == 4  # cold only


class TestJohnson:
    def test_alternating_conditional_thrashes_pointer(self):
        # taken/not-taken alternation defeats 1-bit implicit direction
        rows = []
        a = 0x1000
        taken_rounds = 6
        for i in range(taken_rounds):
            if i % 2 == 0:
                rows.append((a, 8, C, True, a))  # stay (taken to self)
            else:
                rows.append((a, 8, C, False, a))
                rows.append((a + 32, 1, U, True, a))  # jump back for consistency
        trace = make_trace(rows, "alt")
        trace.validate()
        report = build_engine("johnson").run(trace)
        executed, misfetched, mispredicted = kind_counts(report, C)
        assert executed == taken_rounds
        # every execution disagrees with the pointer written last time
        assert mispredicted >= taken_rounds - 1

    def test_johnson_predicts_stable_branch(self):
        trace = make_trace([(0x1000, 8, U, True, 0x1000)] * 6, "stable")
        trace.validate()
        report = build_engine("johnson").run(trace)
        assert kind_counts(report, U)[1] <= 1


class TestWarmup:
    def test_warmup_excludes_cold_start(self):
        trace = make_trace([(0x1000, 8, U, True, 0x1000)] * 10, "loop")
        engine = build_engine("btb")
        report = engine.run(trace, warmup_fraction=0.5)
        executed, misfetched, mispredicted = kind_counts(report, U)
        assert executed == 5
        assert misfetched == 0  # the cold misfetch fell in the warmup

    def test_warmup_rejects_bad_fraction(self):
        trace = make_trace([(0x1000, 8, U, True, 0x1000)], "loop")
        with pytest.raises(ValueError):
            build_engine("btb").run(trace, warmup_fraction=1.0)

    def test_zero_warmup_keeps_everything(self):
        trace = make_trace([(0x1000, 8, U, True, 0x1000)] * 10, "loop")
        report = build_engine("btb").run(trace, warmup_fraction=0.0)
        assert report.n_breaks == 10


class TestSetFieldTraining:
    def test_nls_way_field_matches_cache_way(self):
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, 2))
        table = NLSTable(1024, cache.geometry)
        engine = FetchEngine(
            cache,
            NLSTableFrontEnd(table, cache),
            direction_predictor=AlwaysTakenPredictor(),
        )
        rows = []
        for _ in range(3):
            rows.append((0x1000, 8, U, True, 0x3020))
            rows.append((0x3020, 8, U, True, 0x1000))
        trace = make_trace(rows, "ways")
        trace.validate()
        engine.run(trace)
        prediction = table.lookup(0x1000 + 28)
        assert prediction.valid
        assert prediction.way == cache.probe(0x3020)


class TestReportConsistency:
    def test_counts_add_up(self, small_traces):
        report = build_engine("nls", entries=1024).run(small_traces["li"])
        total = sum(executed for executed, _, _ in report.by_kind.values())
        assert total == report.n_breaks
        assert report.misfetches + report.mispredicts <= report.n_breaks

    def test_cpi_formula(self):
        trace = make_trace([(0x1000, 8, U, True, 0x1000)] * 10, "loop")
        report = build_engine("btb").run(trace)
        expected = (
            report.n_instructions
            + report.bep * report.n_breaks
            + 5.0 * report.icache_misses
        ) / report.n_instructions
        assert report.cpi == pytest.approx(expected)
