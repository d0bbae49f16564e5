"""Tests for context-switch (periodic flush) modelling."""

import pytest

from repro.harness.config import ArchitectureConfig
from repro.harness.experiments import SPECS
from repro.harness.runner import simulate
from repro.isa.branches import BranchKind
from repro.predictors.pht import (
    BimodalPredictor,
    CombiningPredictor,
    GAgPredictor,
    GSharePredictor,
    PAgPredictor,
    PanDegeneratePredictor,
)
from repro.workloads.trace import Trace

SMALL = 60_000


class TestPredictorReset:
    @pytest.mark.parametrize(
        "cls",
        [
            GSharePredictor,
            PanDegeneratePredictor,
            GAgPredictor,
            BimodalPredictor,
            PAgPredictor,
            CombiningPredictor,
        ],
    )
    def test_reset_forgets_training(self, cls):
        predictor = cls(entries=256)
        pc = 0x4000
        for _ in range(20):
            predictor.update(pc, True)
        assert predictor.predict(pc)
        predictor.reset()
        assert not predictor.predict(pc)  # back to weakly not-taken


class TestFrontEndFlush:
    @pytest.mark.parametrize(
        "frontend",
        ["btb", "coupled-btb", "nls-table", "nls-cache", "johnson", "steely-sager"],
    )
    def test_flush_method_exists_and_runs(self, frontend):
        engine = ArchitectureConfig(frontend=frontend).build()
        flush = getattr(engine.frontend, "flush", None)
        assert flush is not None
        flush()  # must not raise on a fresh structure


class TestEngineFlushInterval:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(frontend="btb", flush_interval=0).build()

    def test_flush_reintroduces_cold_misfetches(self):
        trace = Trace("loop")
        for _ in range(100):
            trace.append(0x1000, 8, BranchKind.UNCONDITIONAL, True, 0x1000)
        never = ArchitectureConfig(frontend="btb", entries=128).build().run(trace)
        flushed = (
            ArchitectureConfig(frontend="btb", entries=128, flush_interval=80)
            .build()
            .run(trace)
        )
        assert never.misfetches == 1  # one cold start
        assert flushed.misfetches > 5  # one per flush

    def test_flush_also_cools_the_cache(self):
        never = simulate(
            ArchitectureConfig(frontend="nls-table", entries=1024),
            "li",
            instructions=SMALL,
            warmup_fraction=0.0,
        )
        flushed = simulate(
            ArchitectureConfig(
                frontend="nls-table", entries=1024, flush_interval=10_000
            ),
            "li",
            instructions=SMALL,
            warmup_fraction=0.0,
        )
        assert flushed.icache_misses > never.icache_misses


class TestExperiment:
    def test_bep_monotone_in_flush_frequency(self):
        result = SPECS["context-switch"].plan(
            programs=("li",), instructions=SMALL, intervals=(None, 10_000)
        ).run()
        never = result.data["never"]
        frequent = result.data["every 10,000"]
        for name in never:
            assert frequent[name] >= never[name]
