"""Tests for the Steely-Sager computed-goto variant (§6.2)."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.core.nls_entry import NLSEntryType
from repro.core.steely_sager import SteelySagerTable
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import NLSTableFrontEnd
from repro.harness.config import ArchitectureConfig
from repro.harness.experiments import SPECS
from repro.harness.runner import simulate
from repro.isa.branches import BranchKind
from repro.predictors.static_ import AlwaysTakenPredictor
from tests.conftest import make_trace


def make_table():
    geometry = CacheGeometry(8 * 1024, 32, 1)
    return SteelySagerTable(1024, geometry), geometry


class TestTableSemantics:
    def test_rejects_associative_caches(self):
        with pytest.raises(ValueError):
            SteelySagerTable(1024, CacheGeometry(8 * 1024, 32, 2))

    def test_direct_branches_behave_like_nls(self):
        table, geometry = make_table()
        table.update(0x1000, BranchKind.CALL, True, 0x2000, 0)
        prediction = table.lookup(0x1000)
        assert prediction.valid
        assert prediction.line_field == geometry.line_field(0x2000)

    def test_indirect_uses_shared_register(self):
        table, geometry = make_table()
        a, b = 0x1000, 0x1010  # two indirect sites
        table.update(a, BranchKind.INDIRECT, True, 0x2000, 0)
        table.update(b, BranchKind.INDIRECT, True, 0x3000, 0)
        # site a now reads b's target: the single register was clobbered
        assert table.lookup(a).line_field == geometry.line_field(0x3000)
        assert table.lookup(b).line_field == geometry.line_field(0x3000)

    def test_cold_register_is_invalid(self):
        table, geometry = make_table()
        table.update(0x1000, BranchKind.INDIRECT, False, 0, 0)  # type only
        assert not table.lookup(0x1000).valid

    def test_indirect_slot_reclaimed_by_direct_branch(self):
        table, geometry = make_table()
        table.update(0x1000, BranchKind.INDIRECT, True, 0x2000, 0)
        table.update(0x1000, BranchKind.CALL, True, 0x4000, 0)
        assert table.lookup(0x1000).line_field == geometry.line_field(0x4000)

    def test_flush_clears_register(self):
        table, _ = make_table()
        table.update(0x1000, BranchKind.INDIRECT, True, 0x2000, 0)
        table.flush()
        assert not table.goto_valid


class TestEndToEnd:
    def test_two_hot_indirect_sites_thrash_register(self):
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
        table = SteelySagerTable(1024, cache.geometry)
        engine = FetchEngine(
            cache,
            NLSTableFrontEnd(table, cache),
            direction_predictor=AlwaysTakenPredictor(),
        )
        rows = []
        # two indirect sites alternating, each with a *stable* target
        for _ in range(6):
            rows.append((0x1000, 4, BranchKind.INDIRECT, True, 0x2020))
            rows.append((0x2020, 4, BranchKind.INDIRECT, True, 0x3040))
            rows.append((0x3040, 4, BranchKind.UNCONDITIONAL, True, 0x1000))
        trace = make_trace(rows, "thrash")
        trace.validate()
        report = engine.run(trace)
        executed, misfetched, mispredicted = report.by_kind[BranchKind.INDIRECT]
        # each site keeps reading the other's register value
        assert mispredicted == executed

    def test_per_entry_nls_handles_the_same_trace(self):
        report = simulate(
            ArchitectureConfig(frontend="nls-table", entries=1024),
            _stable_indirect_trace(),
        )
        executed, misfetched, mispredicted = report.by_kind[BranchKind.INDIRECT]
        assert mispredicted <= 2  # cold starts only

    def test_config_builds(self):
        report = simulate(
            ArchitectureConfig(frontend="steely-sager", entries=1024),
            "li",
            instructions=20_000,
        )
        assert report.n_breaks > 0

    def test_experiment_shows_register_penalty(self):
        result = SPECS["steely-sager"].plan(
            programs=("groff",), instructions=80_000
        ).run()
        assert (
            result.data["groff"]["steely-sager"]
            >= result.data["groff"]["nls-table"]
        )


def _stable_indirect_trace():
    rows = []
    for _ in range(6):
        rows.append((0x1000, 4, BranchKind.INDIRECT, True, 0x2020))
        rows.append((0x2020, 4, BranchKind.INDIRECT, True, 0x3040))
        rows.append((0x3040, 4, BranchKind.UNCONDITIONAL, True, 0x1000))
    trace = make_trace(rows, "stable")
    trace.validate()
    return trace
