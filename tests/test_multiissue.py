"""Tests for the multi-issue fetch-bandwidth model (§8 extension)."""

import pytest

from repro.fetch.multiissue import FetchBandwidthModel, MultiIssueReport
from repro.harness.config import ArchitectureConfig
from repro.harness.experiments import SPECS
from repro.isa.branches import BranchKind
from repro.workloads.corpus import generate_trace
from tests.conftest import make_trace


class TestBlockFetchCycles:
    def test_width_one_is_one_per_instruction(self):
        model = FetchBandwidthModel(width=1)
        assert model.block_fetch_cycles(0x1000, 7) == 7

    def test_aligned_block_packs_fully(self):
        model = FetchBandwidthModel(width=4)
        # 8 instructions starting at a line boundary: 2 groups of 4
        assert model.block_fetch_cycles(0x1000, 8) == 2

    def test_line_boundary_splits_group(self):
        model = FetchBandwidthModel(width=4)
        # start 2 instructions before a line end: 2 + 4 + 2
        assert model.block_fetch_cycles(0x1018, 8) == 3

    def test_width_wider_than_line(self):
        model = FetchBandwidthModel(width=16)
        # a line holds 8 instructions: one line read per cycle
        assert model.block_fetch_cycles(0x1000, 16) == 2

    def test_single_instruction(self):
        model = FetchBandwidthModel(width=8)
        assert model.block_fetch_cycles(0x101C, 1) == 1

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            FetchBandwidthModel(width=0)
        with pytest.raises(ValueError):
            FetchBandwidthModel(width=4, line_bytes=24)


class TestTraceCycles:
    def make_trace(self):
        trace = make_trace(
            [
                (0x1000, 8, BranchKind.UNCONDITIONAL, True, 0x1000),
                (0x1000, 8, BranchKind.UNCONDITIONAL, True, 0x1000),
            ],
            "t",
        )
        return trace

    def test_fetch_cycles_sums_blocks(self):
        model = FetchBandwidthModel(width=4)
        assert model.fetch_cycles(self.make_trace()) == 4

    def test_wider_is_never_slower(self):
        trace = generate_trace("li", instructions=20_000)
        cycles = [
            FetchBandwidthModel(width=width).fetch_cycles(trace)
            for width in (1, 2, 4, 8)
        ]
        assert cycles == sorted(cycles, reverse=True)

    def test_width_one_equals_instruction_count(self):
        trace = generate_trace("li", instructions=20_000)
        assert FetchBandwidthModel(width=1).fetch_cycles(trace) == trace.n_instructions


class TestEvaluate:
    def test_ipc_bounded_by_width(self):
        trace = generate_trace("li", instructions=30_000)
        config = ArchitectureConfig(frontend="nls-table", entries=1024)
        report = config.build().run(trace, warmup_fraction=0.0)
        for width in (1, 2, 4):
            result = FetchBandwidthModel(width).evaluate(trace, report)
            assert 0.0 < result.ipc <= width
            assert 0.0 < result.fetch_efficiency <= 1.0

    def test_requires_full_trace_report(self):
        trace = generate_trace("li", instructions=30_000)
        config = ArchitectureConfig(frontend="nls-table", entries=1024)
        warmed = config.build().run(trace, warmup_fraction=0.5)
        with pytest.raises(ValueError):
            FetchBandwidthModel(2).evaluate(trace, warmed)

    def test_report_totals(self):
        result = MultiIssueReport(
            width=4, n_instructions=100, fetch_cycles=40, penalty_cycles=10.0
        )
        assert result.total_cycles == 50.0
        assert result.ipc == pytest.approx(2.0)
        assert result.fetch_efficiency == pytest.approx(100 / 160)


class TestExperiment:
    def test_nls_advantage_grows_with_width(self):
        result = SPECS["multi-issue"].plan(
            programs=("gcc",), instructions=80_000, widths=(1, 8)
        ).run()
        nls = result.data["1024 NLS-table"]
        btb = result.data["128 BTB"]
        # absolute IPC gap widens with width
        assert (nls[8] - btb[8]) > (nls[1] - btb[1])

    def test_oracle_is_upper_bound(self):
        result = SPECS["multi-issue"].plan(
            programs=("li",), instructions=40_000, widths=(4,)
        ).run()
        assert result.data["oracle fetch"][4] >= result.data["1024 NLS-table"][4]
