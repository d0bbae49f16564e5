"""Engine scenarios specific to associative instruction caches: set
(way) prediction, way misfetches, and associativity benefits."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.core.nls_table import NLSTable
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import BTBFrontEnd, NLSTableFrontEnd
from repro.harness.config import ArchitectureConfig
from repro.harness.runner import simulate
from repro.isa.branches import BranchKind
from repro.metrics.report import PenaltyModel
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.static_ import AlwaysTakenPredictor
from tests.conftest import make_trace

U = BranchKind.UNCONDITIONAL


def nls_engine(assoc=2, **engine_kwargs):
    cache = InstructionCache(CacheGeometry(8 * 1024, 32, assoc))
    table = NLSTable(1024, cache.geometry)
    engine = FetchEngine(
        cache,
        NLSTableFrontEnd(table, cache),
        direction_predictor=AlwaysTakenPredictor(),
        **engine_kwargs,
    )
    return engine, cache, table


class TestWayMisfetch:
    def build_way_flip_trace(self, geometry):
        """A branches to T; T's line is evicted and refilled into the
        *other* way between executions, so the stale set field
        misfetches even though the line is resident."""
        a = 0x1000
        t = 0x3020
        # two more lines in T's set to churn the ways
        churn1 = t + geometry.size_bytes // geometry.associativity
        churn2 = churn1 + geometry.size_bytes // geometry.associativity
        rows = []
        for _ in range(8):
            rows.append((a, 4, U, True, t))
            rows.append((t, 4, U, True, churn1))
            rows.append((churn1, 4, U, True, churn2))
            rows.append((churn2, 4, U, True, a))
        trace = make_trace(rows, "wayflip")
        trace.validate()
        return trace, t

    def test_two_way_churn_causes_misfetches(self):
        engine, cache, table = nls_engine(assoc=2)
        trace, t = self.build_way_flip_trace(cache.geometry)
        report = engine.run(trace)
        executed, misfetched, mispredicted = report.by_kind[U]
        # with three lines rotating through a 2-way set, the target is
        # often displaced or way-flipped: substantial misfetches
        assert misfetched > executed // 4

    def test_btb_suffers_only_cache_misses(self):
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, 2))
        # 4-way BTB: the churn lines' branch pcs are one I-cache-way
        # apart, which also collides in a direct-mapped BTB — this test
        # isolates *cache* way behaviour, not BTB conflicts
        engine = FetchEngine(
            cache,
            BTBFrontEnd(BranchTargetBuffer(1024, 4)),
            direction_predictor=AlwaysTakenPredictor(),
        )
        trace, t = self.build_way_flip_trace(cache.geometry)
        report = engine.run(trace)
        executed, misfetched, mispredicted = report.by_kind[U]
        assert misfetched == 4  # cold allocations only


class TestAssociativityHelpsNLS:
    def test_four_way_reduces_nls_misfetch_on_gcc(self):
        # the Figure 7 trend: for a thrashing program, associativity
        # keeps more targets resident -> fewer NLS misfetches
        direct = simulate(
            ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=8,
                               cache_assoc=1),
            "gcc",
            instructions=120_000,
        )
        four_way = simulate(
            ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=8,
                               cache_assoc=4),
            "gcc",
            instructions=120_000,
        )
        assert four_way.icache_miss_rate < direct.icache_miss_rate
        assert four_way.bep_misfetch < direct.bep_misfetch + 0.02


class TestPenaltyOverrides:
    def test_custom_penalties_flow_through(self):
        engine, cache, table = nls_engine(
            assoc=1, penalties=PenaltyModel(misfetch=2.0, mispredict=10.0)
        )
        trace = make_trace([(0x1000, 8, U, True, 0x1000)] * 4, "loop")
        report = engine.run(trace)
        assert report.penalties.misfetch == 2.0
        # 1 cold misfetch out of 4 breaks at 2 cycles each
        assert report.bep == pytest.approx(25.0 * 2.0 / 100.0)

    def test_config_penalty_plumbing(self):
        report = simulate(
            ArchitectureConfig(
                frontend="btb",
                entries=128,
                mispredict_penalty=8.0,
                icache_miss_penalty=20.0,
            ),
            "li",
            instructions=30_000,
        )
        assert report.penalties.mispredict == 8.0
        assert report.penalties.icache_miss == 20.0
