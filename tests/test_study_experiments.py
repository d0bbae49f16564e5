"""Tests for the secondary study experiments: misfetch causes, BTB
allocation policy, RAS depth, line size."""

import pytest

from repro.core.nls_entry import (
    MISMATCH_CAUSES,
    NLSEntryType,
    NLSPrediction,
    classify_nls_mismatch,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.harness.experiments import SPECS
from repro.isa.branches import BranchKind
from repro.predictors.btb import BranchTargetBuffer

SMALL = 60_000


class TestClassifyMismatch:
    def setup_method(self):
        self.cache = InstructionCache(CacheGeometry(8 * 1024, 32, 2))
        self.geometry = self.cache.geometry

    def prediction_for(self, target, way):
        return NLSPrediction(
            NLSEntryType.OTHER, self.geometry.line_field(target), way
        )

    def test_match_returns_none(self):
        target = 0x2000
        way = self.cache.access(target).way
        assert classify_nls_mismatch(
            self.prediction_for(target, way), target, self.cache
        ) is None

    def test_invalid(self):
        from repro.core.nls_entry import INVALID_PREDICTION

        assert (
            classify_nls_mismatch(INVALID_PREDICTION, 0x2000, self.cache)
            == "invalid"
        )

    def test_line_field_alias(self):
        target = 0x2000
        way = self.cache.access(target).way
        wrong = self.prediction_for(target + 4, way)
        assert classify_nls_mismatch(wrong, target, self.cache) == "line-field"

    def test_displaced(self):
        target = 0x2000
        way = self.cache.access(target).way
        prediction = self.prediction_for(target, way)
        self.cache.flush()
        assert classify_nls_mismatch(prediction, target, self.cache) == "displaced"

    def test_wrong_way(self):
        target = 0x2000
        way = self.cache.access(target).way
        assert (
            classify_nls_mismatch(
                self.prediction_for(target, way ^ 1), target, self.cache
            )
            == "wrong-way"
        )

    def test_all_causes_enumerated(self):
        assert set(MISMATCH_CAUSES) == {
            "invalid",
            "line-field",
            "displaced",
            "wrong-way",
        }


class TestMisfetchCausesExperiment:
    def test_displaced_share_falls_with_cache_size(self):
        result = SPECS["misfetch-causes"].plan(
            programs=("gcc",), instructions=SMALL, cache_sizes=(8, 32)
        ).run()
        small = result.data["8K"]
        large = result.data["32K"]
        assert large["displaced"] < small["displaced"]

    def test_alias_bucket_roughly_cache_independent(self):
        result = SPECS["misfetch-causes"].plan(
            programs=("gcc",), instructions=SMALL, cache_sizes=(8, 32)
        ).run()
        small = result.data["8K"]["line-field"]
        large = result.data["32K"]["line-field"]
        assert small > 0
        assert abs(small - large) < 0.5 * small


class TestBTBAllocation:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(128, 1, allocate="lru")

    def test_allocate_all_stores_not_taken_branches(self):
        btb = BranchTargetBuffer(128, 1, allocate="all")
        btb.record_not_taken(0x1000, BranchKind.CONDITIONAL, 0x2000)
        entry = btb.probe(0x1000)
        assert entry is not None and entry.target == 0x2000

    def test_taken_only_ignores_not_taken(self):
        btb = BranchTargetBuffer(128, 1, allocate="taken-only")
        btb.record_not_taken(0x1000, BranchKind.CONDITIONAL, 0x2000)
        assert btb.probe(0x1000) is None

    def test_taken_only_wins_experiment(self):
        result = SPECS["btb-allocation"].plan(
            programs=("gcc",), instructions=SMALL
        ).run()
        assert (
            result.data["128 BTB, allocate taken-only"]
            < result.data["128 BTB, allocate all"]
        )


class TestRASDepth:
    def test_deeper_stack_never_worse(self):
        result = SPECS["ras-depth"].plan(
            programs=("li",), instructions=SMALL, depths=(1, 32)
        ).run()
        assert result.data[32] <= result.data[1]

    def test_shallow_stack_mispredicts_on_call_heavy_program(self):
        result = SPECS["ras-depth"].plan(
            programs=("li",), instructions=SMALL, depths=(1,)
        ).run()
        assert result.data[1] > 0.0


class TestLineSize:
    def test_entry_bits_shrink_with_longer_lines(self):
        result = SPECS["line-size"].plan(
            programs=("li",), instructions=SMALL, line_sizes=(16, 64)
        ).run()
        # fewer sets but more instruction-offset bits: net -0 per x4?
        # set bits fall by 2, offset bits rise by 2 -> equal line field;
        # the entry width is therefore constant across line sizes at a
        # fixed cache size
        assert (
            result.data[16]["entry_bits"] == result.data[64]["entry_bits"]
        )

    def test_runs_and_reports_bep(self):
        result = SPECS["line-size"].plan(
            programs=("li",), instructions=SMALL, line_sizes=(32,)
        ).run()
        assert result.data[32]["bep"] > 0
