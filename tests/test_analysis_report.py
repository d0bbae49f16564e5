"""Cross-run analysis & reporting layer (docs/ANALYSIS.md).

Covers the tidy result loader (export directories and the
``EXPORTS.json`` set manifest), the statistical comparison
machinery (paired bootstrap, Mann-Whitney fallback, Benjamini-Hochberg
correction, verdicts and the gate), the rendered dashboard, the
``seed`` plan knob behind ``--seed``, the Prometheus exposition renderer, and
the ``harness analyze`` CLI end to end: two seeded export sets are
produced by the real CLI, an injected 25% BEP regression must be
flagged *regressed* and fail ``--gate``, while identical sets must
come back all *no-change* with a passing gate — deterministically, so
two invocations write byte-identical verdict tables.
"""

from __future__ import annotations

import json
import os
import re
import shutil

import pytest

from repro.analysis.results import (
    ResultFrame,
    load_export_sets,
    load_store,
    read_export_manifest,
)
from repro.analysis.stat_tests import (
    VERDICTS_SCHEMA,
    _mann_whitney_normal,
    benjamini_hochberg,
    compare,
    gate,
    metric_direction,
    paired_bootstrap_pvalue,
)
from repro.harness.cli import main as cli_main

#: tiny instruction budget — the analysis layer tests plumbing, not BEP
SMOKE = 5_000

#: the experiments the module-scoped export sets contain
SMOKE_EXPERIMENTS = ("fig5", "calibration")


def _export(directory: str, seed: int = 7) -> None:
    """Run the real CLI to produce one seeded export set."""
    for experiment in SMOKE_EXPERIMENTS:
        status = cli_main(
            [
                experiment,
                "--programs",
                "li",
                "espresso",
                "--instructions",
                str(SMOKE),
                "--seed",
                str(seed),
                "--engine",
                "fast",
                "--out",
                directory,
                "--formats",
                "json",
            ]
        )
        assert status == 0


def _relabel(directory, label: str) -> None:
    manifest_path = os.path.join(str(directory), "EXPORTS.json")
    with open(manifest_path) as handle:
        manifest = json.load(handle)
    manifest["label"] = label
    with open(manifest_path, "w") as handle:
        json.dump(manifest, handle, indent=2)


def _scale_fig5(directory, factor: float) -> None:
    """Multiply every fig5 BEP leaf by *factor* (regression injection)."""
    path = os.path.join(str(directory), "fig5.json")
    with open(path) as handle:
        payload = json.load(handle)

    def scale(node):
        if isinstance(node, dict):
            return {key: scale(value) for key, value in node.items()}
        if isinstance(node, (int, float)) and not isinstance(node, bool):
            return node * factor
        return node

    payload["data"] = scale(payload["data"])
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)


@pytest.fixture(scope="module")
def export_sets(tmp_path_factory):
    """Three export sets: ``base``, an identical relabelled ``head``,
    and ``regressed`` (fig5 BEP scaled x1.25)."""
    tmp = tmp_path_factory.mktemp("analysis")
    base = tmp / "base"
    _export(str(base))
    head = tmp / "head"
    shutil.copytree(base, head)
    _relabel(head, "head")
    regressed = tmp / "regressed"
    shutil.copytree(base, regressed)
    _relabel(regressed, "regressed")
    _scale_fig5(regressed, 1.25)
    return {"base": str(base), "head": str(head), "regressed": str(regressed)}


# ---------------------------------------------------------------------------
# the tidy loader
# ---------------------------------------------------------------------------


class TestLoader:
    def test_export_manifest_records_set_provenance(self, export_sets):
        manifest = read_export_manifest(export_sets["base"])
        assert manifest["schema"] == "repro-exports/v1"
        assert manifest["experiments"] == sorted(SMOKE_EXPERIMENTS)
        assert manifest["seed"] == 7
        assert manifest["engine"] == "fast"
        assert manifest["instructions"] == SMOKE

    def test_rows_carry_metric_seed_and_git_sha(self, export_sets):
        frame = load_export_sets([export_sets["base"]])
        fig5 = frame.filter(experiment="fig5")
        assert len(fig5) > 0
        assert set(fig5.column("metric")) == {"bep"}
        assert set(fig5.column("seed")) == {7}
        assert set(fig5.column("set")) == {"base"}
        assert all(isinstance(value, float) for value in fig5.column("value"))
        # calibration splits into the scalar error and the rank block
        metrics = set(frame.filter(experiment="calibration").column("metric"))
        assert "mean_abs_error" in metrics
        assert "rank_corr" in metrics

    def test_duplicate_set_labels_are_disambiguated(self, export_sets):
        frame = load_export_sets([export_sets["base"], export_sets["base"]])
        assert frame.unique("set") == ["base", "base#2"]
        # both copies contribute the same number of rows
        assert len(frame.filter(set="base")) == len(frame.filter(set="base#2"))

    def test_frame_verbs(self, export_sets):
        frame = load_export_sets([export_sets["base"]])
        experiments = frame.unique("experiment")
        assert experiments == sorted(SMOKE_EXPERIMENTS)
        grouped = frame.group_by("experiment", "metric")
        assert all(len(rows) > 0 for rows in grouped.values())
        assert len(frame.filter(experiment="nope")) == 0

    def test_to_pandas_requires_the_analysis_extra(self, export_sets):
        frame = load_export_sets([export_sets["base"]])
        try:
            import pandas  # noqa: F401
        except ImportError:
            with pytest.raises(ImportError, match=r"\[analysis\]"):
                frame.to_pandas()
        else:  # pragma: no cover - env-dependent
            dataframe = frame.to_pandas()
            assert len(dataframe) == len(frame)

    def test_load_store_flattens_cells(self, tmp_path):
        from repro.harness.config import ArchitectureConfig
        from repro.harness.runner import RunPlan, RunRequest
        from repro.service.store import ResultStore

        store = ResultStore(str(tmp_path / "store.sqlite"))
        request = RunRequest(
            config=ArchitectureConfig(frontend="btb", entries=32, cache_kb=8),
            program="li",
            instructions=2_000,
        )
        reports = RunPlan([request]).execute()
        store.put(request, reports[request])
        store.close()
        rows = load_store(str(tmp_path / "store.sqlite"))
        assert rows, "one stored cell should yield metric rows"
        assert {row["metric"] for row in rows} >= {"bep", "cpi"}
        assert all(row["set"] == "store" for row in rows)
        assert all(row["program"] == "li" for row in rows)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


class TestStatTests:
    def test_benjamini_hochberg_known_values(self):
        assert benjamini_hochberg([0.01, 0.02, 0.03, 0.04]) == pytest.approx(
            [0.04, 0.04, 0.04, 0.04]
        )
        q_values = benjamini_hochberg([0.001, 0.5])
        assert q_values[0] == pytest.approx(0.002)
        assert q_values[1] == pytest.approx(0.5)
        assert benjamini_hochberg([]) == []

    def test_paired_bootstrap_extremes(self):
        assert paired_bootstrap_pvalue([0.0, 0.0, 0.0]) == 1.0
        consistent = [0.1, 0.11, 0.09, 0.12, 0.1, 0.1, 0.11, 0.09]
        assert paired_bootstrap_pvalue(consistent) < 0.05

    def test_paired_bootstrap_is_seed_deterministic(self):
        diffs = [0.03, -0.01, 0.05, 0.02, 0.04]
        assert paired_bootstrap_pvalue(diffs, seed=5) == paired_bootstrap_pvalue(
            diffs, seed=5
        )

    def test_mann_whitney_fallback(self):
        separated = _mann_whitney_normal(
            [1.0, 1.1, 1.2, 1.3, 1.1, 1.2], [2.0, 2.1, 2.2, 2.3, 2.1, 2.2]
        )
        assert separated < 0.01
        identical = _mann_whitney_normal([1.0] * 6, [1.0] * 6)
        assert identical == pytest.approx(1.0)

    def test_metric_direction(self):
        assert metric_direction("bep") == "lower"
        assert metric_direction("accuracy") == "higher"
        assert metric_direction("flush_penalty") == "lower"
        assert metric_direction("cells_per_s") == "higher"
        assert metric_direction("mystery") is None

    def test_compare_is_deterministic(self, export_sets):
        frame = load_export_sets(
            [export_sets["base"], export_sets["regressed"]]
        )
        first = compare(frame, "base", "regressed")
        second = compare(frame, "base", "regressed")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["schema"] == VERDICTS_SCHEMA

    def test_identical_sets_are_all_no_change(self, export_sets):
        frame = load_export_sets([export_sets["base"], export_sets["head"]])
        verdicts = compare(frame, "base", "head")
        assert verdicts["counts"]["regressed"] == 0
        assert verdicts["counts"]["improved"] == 0
        assert all(
            comparison["verdict"] == "no-change"
            for comparison in verdicts["comparisons"]
        )
        assert gate(verdicts) == []

    def test_injected_regression_is_flagged_and_gated(self, export_sets):
        frame = load_export_sets(
            [export_sets["base"], export_sets["regressed"]]
        )
        verdicts = compare(frame, "base", "regressed")
        flagged = {
            (comparison["experiment"], comparison["verdict"])
            for comparison in verdicts["comparisons"]
        }
        assert ("fig5", "regressed") in flagged
        violations = gate(verdicts)
        assert len(violations) == 1
        assert "fig5.bep" in violations[0]
        assert "+25.0%" in violations[0]


# ---------------------------------------------------------------------------
# the seed knob (--seed)
# ---------------------------------------------------------------------------


class TestSeedKnob:
    """``seed`` is a plan-builder knob like ``instructions``: it pins
    every cell *and* every trace a renderer generates itself."""

    def test_seed_knob_pins_every_cell(self):
        from repro.harness.experiments import SPECS

        plan = SPECS["fig5"].plan(programs=["li"], instructions=2_000)
        seeded = SPECS["fig5"].plan(programs=["li"], instructions=2_000, seed=7)
        assert all(cell.seed == 7 for cell in seeded.cells)
        assert {cell.seed for cell in plan.cells} == {None}
        result = seeded.run()
        assert result.name == "fig5"
        assert result.data, "the renderer found its seeded reports"

    def test_trace_renderers_measure_the_seeded_traces(self):
        from repro.harness.experiments import SPECS
        from repro.workloads.corpus import generate_trace
        from repro.workloads.generator import build_program
        from repro.workloads.profiles import get_profile
        from repro.workloads.stats import measure
        from repro.workloads.validation import summarise

        programs, budget = ("li", "doduc"), 20_000
        measured = {
            name: measure(
                generate_trace(name, instructions=budget, seed=7),
                build_program(get_profile(name)),
            )
            for name in programs
        }
        knobs = {"programs": programs, "instructions": budget, "seed": 7}
        table1 = SPECS["table1"].plan(**knobs).run()
        assert table1.data["attributes"] == measured
        unseeded = SPECS["table1"].plan(programs=programs, instructions=budget).run()
        assert unseeded.data["attributes"] != measured
        calibration = SPECS["calibration"].plan(**knobs).run()
        summary = summarise(
            measured, {name: get_profile(name).paper for name in programs}
        )
        assert (
            calibration.data["mean_abs_error"]
            == summary.mean_absolute_scalar_error
        )

    def test_cli_seed_reaches_trace_renderers(self, capsys):
        argv = ["calibration", "--programs", "li", "--instructions", "20000"]
        bodies = []
        for seed in ("7", "8"):
            assert cli_main(argv + ["--seed", seed]) == 0
            bodies.append(capsys.readouterr().out.split("\n[")[0])
        assert bodies[0] != bodies[1]

    def test_cli_seeded_multi_issue_exits_zero(self, capsys):
        argv = ["multi-issue", "--programs", "li", "--instructions", "30000"]
        assert cli_main(argv + ["--seed", "7"]) == 0
        assert "oracle fetch" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# prometheus exposition (unit level; the live endpoint is covered in
# tests/test_service.py)
# ---------------------------------------------------------------------------

#: one exposition sample line: name{labels} value
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$"
)


class TestExposition:
    def test_render_is_valid_and_zero_fills_well_known_counters(self):
        from repro.telemetry.core import Registry
        from repro.telemetry.exposition import (
            WELL_KNOWN_COUNTERS,
            metric_name,
            render_prometheus,
        )

        registry = Registry(enabled=True)
        registry.counter("store.hits").add(3)
        registry.histogram("engine.penalty_gap").observe(4)
        text = render_prometheus(
            registry,
            job_counts={"completed": 2, "queued": 0},
            store_stats={"entries": 5, "payload_bytes": 1234, "db_bytes": 4096},
        )
        assert text.endswith("\n")
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
            else:
                assert _SAMPLE.match(line), line
        assert "repro_store_hits_total 3" in text
        assert "repro_store_misses_total 0" in text  # zero-filled
        assert "repro_engine_penalty_gap_observations_total 1" in text
        assert 'repro_service_jobs{state="completed"} 2' in text
        assert "repro_store_entries 5" in text
        for name in WELL_KNOWN_COUNTERS:
            assert f"{metric_name(name)}_total" in text

    def test_metric_name_sanitisation(self):
        from repro.telemetry.exposition import metric_name

        assert metric_name("store.hits") == "repro_store_hits"
        assert metric_name("weird name-1") == "repro_weird_name_1"
        assert metric_name("9lives") == "repro__9lives"


# ---------------------------------------------------------------------------
# the analyze CLI, end to end
# ---------------------------------------------------------------------------


class TestAnalyzeCLI:
    def test_identical_sets_pass_the_gate(self, export_sets, tmp_path, capsys):
        out = str(tmp_path / "report")
        status = cli_main(
            [
                "analyze",
                "--exports",
                export_sets["base"],
                export_sets["head"],
                "--out",
                out,
                "--format",
                "md",
                "--gate",
            ]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "gate passed" in printed
        assert os.path.exists(os.path.join(out, "REPORT.md"))
        with open(os.path.join(out, "verdicts.json")) as handle:
            verdicts = json.load(handle)
        assert verdicts["schema"] == VERDICTS_SCHEMA
        assert verdicts["counts"]["regressed"] == 0

    def test_injected_regression_fails_the_gate(
        self, export_sets, tmp_path, capsys
    ):
        out = str(tmp_path / "report")
        status = cli_main(
            [
                "analyze",
                "--exports",
                export_sets["base"],
                export_sets["regressed"],
                "--baseline",
                "base",
                "--out",
                out,
                "--gate",
            ]
        )
        assert status == 1
        printed = capsys.readouterr().out
        assert "gate FAILED" in printed
        assert "fig5.bep" in printed
        html_path = os.path.join(out, "index.html")
        with open(html_path) as handle:
            html = handle.read()
        assert "<svg" in html
        assert "Figure 5" in html
        with open(os.path.join(out, "verdicts.json")) as handle:
            verdicts = json.load(handle)
        assert verdicts["counts"]["regressed"] == 1

    def test_verdicts_are_byte_deterministic(self, export_sets, tmp_path):
        outputs = []
        for run in ("one", "two"):
            out = str(tmp_path / run)
            cli_main(
                [
                    "analyze",
                    "--exports",
                    export_sets["base"],
                    export_sets["regressed"],
                    "--out",
                    out,
                ]
            )
            with open(os.path.join(out, "verdicts.json"), "rb") as handle:
                outputs.append(handle.read())
        assert outputs[0] == outputs[1]

    def test_baseline_may_be_a_directory(self, export_sets, tmp_path, capsys):
        status = cli_main(
            [
                "analyze",
                "--exports",
                export_sets["regressed"],
                export_sets["base"],
                "--baseline",
                export_sets["base"],
                "--out",
                str(tmp_path / "report"),
            ]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "'base' vs 'regressed'" in printed
        assert "1 regressed" in printed

    def test_unknown_baseline_is_an_error(self, export_sets, tmp_path, capsys):
        status = cli_main(
            [
                "analyze",
                "--exports",
                export_sets["base"],
                export_sets["head"],
                "--baseline",
                "nope",
                "--out",
                str(tmp_path / "report"),
            ]
        )
        assert status == 2
        assert "matches no set label" in capsys.readouterr().out

    def test_analyze_requires_inputs(self):
        with pytest.raises(SystemExit):
            cli_main(["analyze"])

    def test_analyze_gate_takes_no_value(self, export_sets):
        with pytest.raises(SystemExit):
            cli_main(
                ["analyze", "--exports", export_sets["base"], "--gate", "x"]
            )

    def test_missing_export_directory_is_a_clean_error(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        status = cli_main(["analyze", "--exports", missing, missing])
        assert status == 2
        assert f"export directory {missing} does not exist" in (
            capsys.readouterr().out
        )

    def test_single_set_is_an_error(self, export_sets, capsys):
        status = cli_main(["analyze", "--exports", export_sets["base"]])
        assert status == 2
        assert "at least two result sets" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# dashboard rendering (direct, without the CLI)
# ---------------------------------------------------------------------------


class TestRendering:
    def test_dashboard_renders_figures_and_drilldowns(
        self, export_sets, tmp_path
    ):
        from repro.analysis.rendering import render_dashboard

        frame = load_export_sets(
            [export_sets["base"], export_sets["regressed"]]
        )
        verdicts = compare(frame, "base", "regressed")
        written = render_dashboard(
            frame, verdicts, str(tmp_path), fmt="html", backend="svg"
        )
        assert any(path.endswith("index.html") for path in written)
        with open(os.path.join(str(tmp_path), "index.html")) as handle:
            html = handle.read()
        assert html.count("<svg") >= 1
        assert "Figure 5" in html
        assert "Table 1 calibration audit" in html
        assert "regressed" in html

    def test_markdown_dashboard(self, export_sets, tmp_path):
        from repro.analysis.rendering import render_dashboard

        frame = load_export_sets([export_sets["base"], export_sets["head"]])
        verdicts = compare(frame, "base", "head")
        render_dashboard(frame, verdicts, str(tmp_path), fmt="md")
        with open(os.path.join(str(tmp_path), "REPORT.md")) as handle:
            markdown = handle.read()
        assert "| experiment |" in markdown or "| metric |" in markdown
        assert "no-change" in markdown

    def test_grouped_bars_svg_is_self_contained(self):
        from repro.analysis.figures import grouped_bars

        svg = grouped_bars(
            "Demo",
            [("a", {"s1": 0.1, "s2": 0.15}), ("b", {"s1": 0.2})],
            ["s1", "s2"],
            y_label="bep",
            backend="svg",
        )
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "Demo" in svg


# ---------------------------------------------------------------------------
# an empty ResultFrame stays safe end to end
# ---------------------------------------------------------------------------


def test_empty_frame_verbs():
    frame = ResultFrame()
    assert len(frame) == 0
    assert frame.unique("set") == []
    assert frame.filter(set="x").rows == []
    assert frame.group_by("set") == {}
