"""Tests for the coupled-BTB front-end and its experiments."""

import pytest

from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import CoupledBTBFrontEnd
from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.harness.config import ArchitectureConfig
from repro.harness.experiments import SPECS
from repro.harness.runner import simulate
from repro.isa.branches import BranchKind
from repro.predictors.btb import CoupledBTB
from tests.conftest import make_trace

C = BranchKind.CONDITIONAL
U = BranchKind.UNCONDITIONAL


def build_engine(entries=128):
    cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
    return FetchEngine(cache, CoupledBTBFrontEnd(CoupledBTB(entries, 1)))


class TestCoupledFrontEnd:
    def test_flags(self):
        frontend = CoupledBTBFrontEnd(CoupledBTB(128, 1))
        assert frontend.implicit_direction is True
        assert frontend.uses_ras is True

    def test_miss_implies_static_not_taken(self):
        frontend = CoupledBTBFrontEnd(CoupledBTB(128, 1))
        mech, handle = frontend.predict(0x1000, 0)
        assert mech is None
        assert frontend.implied_taken(handle, 0x1004) is False

    def test_counter_drives_direction(self):
        frontend = CoupledBTBFrontEnd(CoupledBTB(128, 1))
        frontend.update(0x1000, C, True, 0x2000, 0x1004, 0)
        mech, handle = frontend.predict(0x1000, 0)
        assert frontend.implied_taken(handle, 0x1004) is True
        frontend.update(0x1000, C, False, 0x2000, 0x1004, 0)
        frontend.update(0x1000, C, False, 0x2000, 0x1004, 0)
        mech, handle = frontend.predict(0x1000, 0)
        assert frontend.implied_taken(handle, 0x1004) is False

    def test_resident_taken_branch_predicted(self):
        trace = make_trace([(0x1000, 8, C, True, 0x1000)] * 6, "loop")
        trace.validate()
        report = build_engine().run(trace)
        executed, misfetched, mispredicted = report.by_kind[C]
        # the first execution mispredicts (no entry -> static not-taken),
        # afterwards the in-entry counter predicts taken
        assert executed == 6
        assert mispredicted == 1
        assert misfetched == 0

    def test_missing_branch_has_no_dynamic_prediction(self):
        # a taken conditional that never re-enters the BTB (conflict
        # thrashing) mispredicts every time under the coupled design
        rows = []
        btb_span = 128 * 4
        a, b = 0x1000, 0x1000 + btb_span  # same BTB set (direct mapped)
        for _ in range(4):
            rows.append((a, 1, C, True, b))
            rows.append((b, 1, C, True, a))
        trace = make_trace(rows, "thrash")
        trace.validate()
        report = build_engine().run(trace)
        executed, misfetched, mispredicted = report.by_kind[C]
        assert executed == 8
        assert mispredicted == 8  # evicted before every re-execution

    def test_returns_still_use_the_stack(self):
        rows = []
        for _ in range(4):
            rows.append((0x1000, 4, BranchKind.CALL, True, 0x2020))
            rows.append((0x2020, 4, BranchKind.RETURN, True, 0x1010))
            rows.append((0x1010, 4, U, True, 0x1000))
        trace = make_trace(rows, "callret")
        trace.validate()
        report = build_engine().run(trace)
        executed, misfetched, mispredicted = report.by_kind[BranchKind.RETURN]
        assert mispredicted == 0  # the stack is live in the coupled design


class TestCoupledExperiments:
    def test_config_builds(self):
        report = simulate(
            ArchitectureConfig(frontend="coupled-btb", entries=128),
            "li",
            instructions=20_000,
        )
        assert report.n_breaks > 0

    def test_decoupled_beats_coupled_at_128(self):
        result = SPECS["coupled"].plan(programs=("gcc",), instructions=60_000).run()
        assert (
            result.data["decoupled 128 BTB + gshare"]
            < result.data["coupled 128 BTB (2-bit in entry)"]
        )


class TestWayPrediction:
    def test_accuracy_is_high_and_bounded(self):
        result = SPECS["way-prediction"].plan(
            programs=("li",), instructions=40_000
        ).run()
        accuracy = result.data["li"]
        assert 0.5 < accuracy <= 1.0

    def test_text_mentions_programs(self):
        result = SPECS["way-prediction"].plan(
            programs=("li",), instructions=20_000
        ).run()
        assert "li" in result.text
