"""Smoke tests for the per-figure experiment drivers (scaled down)."""

import pytest

from repro.harness.experiments import SPECS, fig7_configs

SMALL = 20_000
TWO = ("li", "doduc")
TINY_GRID = ((8, 1), (16, 1))


class TestRegistry:
    def test_all_figures_registered(self):
        for name in ("table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"):
            assert name in SPECS

    def test_fig7_has_ten_configs(self):
        assert len(fig7_configs()) == 10


class TestCostExperiments:
    def test_fig3_data_keys(self):
        result = SPECS["fig3"].plan().run()
        assert "btb-128-1w" in result.data
        assert "nls-table-1024@16K" in result.data
        # the cost pairing used throughout the comparison
        ratio = result.data["nls-table-1024@16K"] / result.data["btb-128-1w"]
        assert 0.75 < ratio < 1.25

    def test_fig6_data(self):
        result = SPECS["fig6"].plan().run()
        assert result.data["128-4w"] > result.data["128-1w"]


class TestSimulationExperiments:
    def test_table1(self):
        result = SPECS["table1"].plan(programs=TWO, instructions=SMALL).run()
        assert set(result.data["attributes"]) == set(TWO)
        assert "li" in result.text

    def test_fig4(self):
        result = SPECS["fig4"].plan(
            programs=TWO, instructions=SMALL, cache_grid=TINY_GRID
        ).run()
        assert "nls-cache" in result.data
        assert "nls-table-1024" in result.data
        assert len(result.data["nls-table-1024"]) == 2

    def test_fig5(self):
        result = SPECS["fig5"].plan(
            programs=TWO, instructions=SMALL, cache_grid=TINY_GRID
        ).run()
        assert "btb-128-1w" in result.data
        assert "nls-1024@16K-1w" in result.data

    def test_fig7(self):
        result = SPECS["fig7"].plan(programs=("li",), instructions=SMALL).run()
        assert "li" in result.data
        assert len(result.data["li"]) == 10

    def test_fig8(self):
        result = SPECS["fig8"].plan(
            programs=TWO, instructions=SMALL, cache_grid=TINY_GRID
        ).run()
        for cache_label, cpis in result.data.items():
            for cpi in cpis.values():
                assert cpi >= 1.0

    def test_johnson(self):
        result = SPECS["johnson"].plan(programs=TWO, instructions=SMALL).run()
        assert len(result.data) == 3

    def test_ablation_nls_cache(self):
        result = SPECS["ablation-nls-cache"].plan(
            programs=("li",), instructions=SMALL
        ).run()
        assert len(result.data) == 6

    def test_ablation_direction(self):
        result = SPECS["ablation-direction"].plan(
            programs=("li",), instructions=SMALL
        ).run()
        assert "gshare" in result.data
        # static not-taken must be clearly worse than any dynamic PHT
        assert result.data["not-taken"] > result.data["gshare"]

    def test_ablation_layout(self):
        result = SPECS["ablation-layout"].plan(
            programs=("li",), instructions=SMALL
        ).run()
        assert set(result.data) == {"natural", "random"}

    def test_result_str(self):
        result = SPECS["fig6"].plan().run()
        assert result.title in str(result)
