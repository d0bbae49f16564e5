"""Tests for the harness: configs, runner, table rendering, CLI."""

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.config import FRONTENDS, ArchitectureConfig
from repro.harness.runner import run_config, simulate, sweep
from repro.harness.tables import bep_chart, format_table, stacked_bep_bar
from repro.metrics.report import SimulationReport

SMALL = 20_000


class TestArchitectureConfig:
    def test_defaults(self):
        config = ArchitectureConfig()
        assert config.frontend == "nls-table"
        assert config.geometry.size_bytes == 16 * 1024

    def test_rejects_unknown_frontend(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(frontend="ghb")

    def test_rejects_tiny_cache(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(cache_kb=0)

    @pytest.mark.parametrize("frontend", FRONTENDS)
    def test_build_every_frontend(self, frontend):
        engine = ArchitectureConfig(frontend=frontend).build()
        assert engine.cache.geometry.size_bytes == 16 * 1024

    def test_build_is_fresh_each_time(self):
        config = ArchitectureConfig(frontend="btb")
        a = config.build()
        b = config.build()
        assert a.cache is not b.cache
        assert a.frontend is not b.frontend

    def test_labels_are_distinct(self):
        labels = {
            ArchitectureConfig(frontend=frontend).label() for frontend in FRONTENDS
        }
        assert len(labels) == len(FRONTENDS)

    def test_with_cache(self):
        config = ArchitectureConfig(cache_kb=8).with_cache(32, 4)
        assert config.cache_kb == 32
        assert config.cache_assoc == 4

    def test_penalty_overrides(self):
        config = ArchitectureConfig(mispredict_penalty=6.0)
        assert config.penalties.mispredict == 6.0

    def test_direction_override_builds(self):
        engine = ArchitectureConfig(direction="bimodal").build()
        assert engine.direction.__class__.__name__ == "BimodalPredictor"


class TestRunner:
    def test_simulate_by_name(self):
        report = simulate(
            ArchitectureConfig(frontend="btb", entries=128), "li", instructions=SMALL
        )
        assert isinstance(report, SimulationReport)
        assert report.program == "li"
        assert report.n_breaks > 0

    def test_simulate_accepts_trace(self, small_traces):
        report = simulate(ArchitectureConfig(), small_traces["li"])
        assert report.program == "li"

    def test_run_config_label_default(self, small_traces):
        config = ArchitectureConfig(frontend="btb")
        report = run_config(config, small_traces["li"])
        assert report.label == config.label()

    def test_sweep_shape(self):
        configs = [
            ArchitectureConfig(frontend="btb", entries=128),
            ArchitectureConfig(frontend="nls-table", entries=1024),
        ]
        results = sweep(configs, ["li", "doduc"], instructions=SMALL)
        assert len(results) == 2
        for reports in results.values():
            assert [r.program for r in reports] == ["li", "doduc"]

    def test_deterministic_reports(self):
        config = ArchitectureConfig(frontend="nls-table")
        a = simulate(config, "li", instructions=SMALL)
        b = simulate(config, "li", instructions=SMALL)
        assert a.misfetches == b.misfetches
        assert a.mispredicts == b.mispredicts


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4.25]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "2.500" in text

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="T")
        assert text.startswith("T\n")

    def test_stacked_bar_composition(self):
        bar = stacked_bep_bar(0.5, 1.0, scale=30, maximum=1.5)
        assert bar.count("#") == 20  # mispredict part
        assert bar.count("+") == 10  # misfetch part

    def test_bep_chart_contains_values(self):
        text = bep_chart([("a", 0.1, 0.2), ("b", 0.0, 0.3)])
        assert "0.300" in text
        assert "a" in text and "b" in text


class TestCLI:
    def test_fig3_runs(self, capsys):
        assert cli_main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "NLS-table" in out and "BTB" in out

    def test_fig6_runs(self, capsys):
        assert cli_main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "access" in out

    def test_simulation_experiment_with_overrides(self, capsys):
        assert (
            cli_main(
                [
                    "johnson",
                    "--programs",
                    "li",
                    "--instructions",
                    str(SMALL),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Johnson" in out

    def test_out_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert cli_main(["fig3", "--out", str(out_dir)]) == 0
        assert (out_dir / "fig3.txt").exists()

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli_main(["fig99"])


class TestMiscRendering:
    def test_bep_chart_explicit_maximum(self):
        text = bep_chart([("x", 0.5, 0.5)], maximum=2.0, scale=20)
        # 1.0 of 2.0 at scale 20 -> 10 cells split 5/5
        line = text.splitlines()[-1]
        assert line.count("#") == 5 and line.count("+") == 5

    def test_structure_cost_str(self):
        from repro.cost.rbe import RBEModel
        from repro.cache.geometry import CacheGeometry

        cost = RBEModel().nls_table_cost(1024, CacheGeometry(16 * 1024, 32, 1))
        assert "NLS-table" in str(cost)
        assert "RBE" in str(cost)

    def test_report_summary_without_kind_breakdown(self):
        report = SimulationReport(
            label="x",
            program="y",
            n_instructions=100,
            n_breaks=10,
            misfetches=1,
            mispredicts=1,
            icache_accesses=20,
            icache_misses=2,
        )
        assert "BEP" in report.summary()


class TestCLIAll:
    def test_all_with_restricted_registry(self, capsys, monkeypatch, tmp_path):
        import repro.harness.cli as cli
        from repro.harness.experiments import SPECS

        monkeypatch.setattr(cli, "SPECS", {"fig6": SPECS["fig6"]})
        assert cli.main(["all", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig6.txt").exists()
        assert "access" in capsys.readouterr().out
