"""Tests for the spec → plan → backend executor layer.

Covers the :class:`RunPlan` dedup semantics, the corpus memoisation
key, run metadata provenance, the declarative experiment specs, the
serial ↔ process backend equivalence guarantee, and the CLI's ``list``
subcommand and ``--jobs`` flag.
"""

import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.fetch.capability import fallback_reason
from repro.harness.cli import main as cli_main
from repro.harness.config import ArchitectureConfig
from repro.harness.experiments import SPECS
from repro.harness.runner import (
    BACKENDS,
    DEFAULT_WARMUP,
    RunPlan,
    RunRequest,
    run_request,
    sweep,
)
from repro.harness.spec import run_plans
from repro.harness.tables import format_seconds
from repro.workloads.corpus import cache_info, clear_cache, generate_trace, trace_key

SMALL = 20_000


class TestTraceKey:
    def test_resolves_profile_defaults(self):
        name, budget, seed, layout = trace_key("li")
        assert name == "li" and budget > 0 and layout == "natural"
        # explicit values override the profile's defaults
        explicit = trace_key("li", instructions=1234, seed=7, layout="random")
        assert explicit == ("li", 1234, 7, "random")

    def test_distinct_parameters_distinct_keys(self):
        keys = {
            trace_key("li", instructions=SMALL),
            trace_key("li", instructions=SMALL + 1),
            trace_key("li", instructions=SMALL, seed=99),
            trace_key("li", instructions=SMALL, layout="random"),
        }
        assert len(keys) == 4

    def test_scale_env_folds_into_key(self, monkeypatch):
        base = trace_key("li", instructions=SMALL)
        monkeypatch.setenv("REPRO_TRACE_SCALE", "0.5")
        scaled = trace_key("li", instructions=SMALL)
        assert scaled[1] == SMALL // 2 and scaled != base

    def test_cache_info_and_clear(self):
        clear_cache()
        assert cache_info()["entries"] == 0
        generate_trace("li", instructions=SMALL)
        info = cache_info()
        assert info["entries"] == 1
        assert trace_key("li", instructions=SMALL) in info["keys"]
        assert info["instructions"] > 0
        clear_cache()
        assert cache_info()["entries"] == 0

    def test_memoised_same_object(self):
        a = generate_trace("li", instructions=SMALL)
        b = generate_trace("li", instructions=SMALL)
        assert a is b


class TestRunPlan:
    def request(self, **overrides):
        defaults = dict(
            config=ArchitectureConfig(frontend="btb", entries=128),
            program="li",
            instructions=SMALL,
        )
        defaults.update(overrides)
        return RunRequest(**defaults)

    def test_dedups_identical_cells(self):
        plan = RunPlan()
        plan.add(self.request())
        plan.add(self.request())
        assert plan.requested == 2
        assert plan.unique == 1

    def test_distinct_cells_kept(self):
        plan = RunPlan([self.request(), self.request(warmup=0.0)])
        assert plan.unique == 2

    def test_insertion_order_preserved(self):
        first = self.request()
        second = self.request(program="doduc")
        plan = RunPlan([first, second, first])
        assert plan.requests == (first, second)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            RunPlan([self.request()]).execute(backend="threads")

    def test_backend_registry(self):
        assert set(BACKENDS) == {"serial", "process"}

    def test_execute_returns_report_per_unique_cell(self):
        plan = RunPlan([self.request(), self.request(program="doduc")])
        reports = plan.execute()
        assert set(reports) == set(plan.requests)
        for request, report in reports.items():
            assert report.program == request.program

    def test_cross_experiment_dedup_saves_runs(self):
        # fig5 and fig7 share their BTB cells; the pooled plan must
        # execute strictly fewer cells than the sum of the parts
        plans = [
            SPECS["fig5"].plan(programs=("li",), instructions=SMALL),
            SPECS["fig7"].plan(programs=("li",), instructions=SMALL),
        ]
        pooled = RunPlan()
        for plan in plans:
            pooled.add_all(plan.cells)
        assert pooled.requested == sum(len(p.cells) for p in plans)
        assert pooled.unique < pooled.requested

    def test_sweep_dedups_repeated_configs(self):
        config = ArchitectureConfig(frontend="btb", entries=128)
        results = sweep([config, config], ["li"], instructions=SMALL)
        assert list(results) == [config.label()]
        assert results[config.label()][0].program == "li"


class TestRunMetadata:
    def test_report_carries_provenance(self):
        request = RunRequest(
            config=ArchitectureConfig(frontend="btb", entries=128),
            program="li",
            instructions=SMALL,
        )
        report = run_request(request)
        meta = report.meta
        assert meta is not None
        assert meta.program == "li"
        assert meta.config_label == request.config.label()
        assert meta.backend == "serial"
        assert meta.warmup == DEFAULT_WARMUP
        assert meta.wall_time_s > 0
        assert meta.pid > 0

    def test_meta_does_not_affect_equality(self):
        request = RunRequest(
            config=ArchitectureConfig(frontend="btb", entries=128),
            program="li",
            instructions=SMALL,
        )
        assert run_request(request) == run_request(request)

    def test_meta_exported_as_json(self):
        from repro.harness.export import to_json

        result = SPECS["johnson"].plan(programs=("li",), instructions=SMALL).run()
        # aggregated reports have no meta, but per-cell exports do
        request = RunRequest(
            config=ArchitectureConfig(frontend="btb", entries=128),
            program="li",
            instructions=SMALL,
        )
        result.data["cell"] = run_request(request)
        payload = json.loads(to_json(result))
        assert payload["data"]["cell"]["meta"]["backend"] == "serial"

    def test_config_describe_elides_defaults(self):
        config = ArchitectureConfig(frontend="btb", entries=128, cache_kb=32)
        described = config.describe()
        assert described["label"] == config.label()
        assert described["frontend"] == "btb"
        assert described["cache_kb"] == 32
        assert "line_bytes" not in described  # default elided


class TestSpecs:
    def test_cli_experiment_choices_are_the_registry(self, capsys):
        from repro.harness.cli import _build_parser

        parser = _build_parser()
        for name in SPECS:
            assert parser.parse_args([name]).experiment == name
        assert cli_main(["list"]) == 0
        assert f"{len(SPECS)} experiments;" in capsys.readouterr().out

    def test_plans_are_cheap_and_countable(self):
        plan = SPECS["fig4"].plan(programs=("li",), instructions=SMALL)
        # 2 programs' worth of grid collapsed to 1: 6 caches x 4 designs
        assert len(plan.cells) == 24

    def test_cost_model_experiments_declare_zero_cells(self):
        for name in ("fig3", "fig6", "address-space", "table1"):
            assert SPECS[name].plan().cells == ()

    def test_lone_plan_run_matches_pooled_run(self):
        knobs = {"programs": ("li",), "instructions": SMALL}
        alone = SPECS["johnson"].plan(**knobs).run()
        (pooled, _), _ = run_plans(
            [SPECS["johnson"].plan(**knobs), SPECS["fig4"].plan(**knobs)]
        )
        assert str(alone) == str(pooled)

    def test_run_plans_returns_results_in_order(self):
        plans = [
            SPECS["fig6"].plan(),
            SPECS["fig3"].plan(),
        ]
        results, pooled = run_plans(plans)
        assert [r.name for r in results] == ["fig6", "fig3"]
        assert pooled.unique == 0


@pytest.mark.parametrize("name", ["johnson", "misfetch-causes"])
def test_process_backend_matches_serial(name):
    """The satellite guarantee: the process backend produces
    byte-identical SimulationReports (and rendered text) to serial."""
    spec = SPECS[name]
    plan = spec.plan(programs=("li",), instructions=SMALL)
    serial = RunPlan(plan.cells).execute(backend="serial")
    process = RunPlan(plan.cells).execute(backend="process", jobs=2)
    assert set(serial) == set(process)
    for request in serial:
        # dataclass equality covers every simulation field (meta is
        # excluded from comparison by design: wall time and pid differ)
        assert serial[request] == process[request]
        assert process[request].meta.backend == "process"
        assert serial[request].frontend_stats == process[request].frontend_stats
    assert str(plan.finish(serial)) == str(plan.finish(process))


def test_paper_figure_sweep_runs_fast_on_both_backends():
    """The pooled fig4/fig5/fig8 plan stays inside the fast engine's
    closed matrix, and its fast reports are equal on both backends and
    to the reference engine's."""
    reference = RunPlan()
    for name in ("fig4", "fig5", "fig8"):
        plan = SPECS[name].plan(programs=("li",), instructions=SMALL)
        reference.add_all(plan.cells)
    fast = [
        replace(cell, config=replace(cell.config, engine="fast"))
        for cell in reference.requests
    ]
    fallbacks = [
        cell.config.label()
        for cell in fast
        if fallback_reason(cell.config) is not None
    ]
    assert fallbacks == []
    serial = RunPlan(fast).execute(backend="serial")
    process = RunPlan(fast).execute(backend="process", jobs=2)
    assert serial == process
    expected = reference.execute(backend="serial")
    for cell, fast_cell in zip(reference.requests, fast):
        assert serial[fast_cell] == expected[cell], fast_cell.config.label()


#: sha256 of each ``all --programs li --instructions 20000`` text export;
#: a renderer whose output drifts fails here by name
RENDERED_SHA256 = {
    "ablation-direction.txt": "8dbacc4dc3c805184ffcc0578164873b6ba6c9e78e07652c7e9983493f570b9f",
    "ablation-layout.txt": "047bfc26f0aa37cc998ebc96ed869818bbf11c3e2af0f80158237058ac8c1275",
    "ablation-nls-cache.txt": "6ae113d503e0821a7d2053a8a9340961436a0cb314c83e53ee35a8e4bbc9081d",
    "address-space.txt": "d8fa4bc7ab1e910be5575831025f3de0017a7f0d446f090b7728028fa61ba47b",
    "btb-allocation.txt": "e4146cb44dc225f5f29a9ebfdf07040a631965b9cdafc309c2695333f2f63dd2",
    "calibration.txt": "b324b29b92e9c47b73e4bad559763dd60df1765e4f7d9e51bca6b782d3fd1b4f",
    "context-switch.txt": "a352a6bbcda092a0382fb69c5939f44421abbd6afc06a314f4807a13b37c8b9f",
    "coupled.txt": "8a70918cd14913306d696a89d0844d7f5cfd1ecbbd005fa0bc21c425e30dd13c",
    "fig3.txt": "ef3ad4cd14f1a5399326c13e718ddc08368294e9f2272defe9f0e8908d9cc55d",
    "fig4.txt": "d3a03b2c8ec2d7e9b8b6e265d22c0797da9d0211b54b1ba5eb1a41408c7b99b4",
    "fig5.txt": "dc8c798c74121fd2c397d442112afdc25fc3e446a0b8a416fceda2ed9646e5b6",
    "fig6.txt": "6f8f2a8fd6ffe2745773386d2a95a6d427f963e81e24c155d22332244ab94974",
    "fig7.txt": "22c4b72ca66f09067c454609fe13a32b77463057d24b229d081db8e4255f2bf3",
    "fig8.txt": "0c2e338f02337b257bb9f606e8eea3440e64b9482e0a02f0f67baef88f8a4b32",
    "johnson.txt": "6c7f61534aab202c3651988bc953bca04af4ea125531dd3e089e2e7a0e9be18a",
    "line-size.txt": "7d25437110ac062530051ef426e2fcc0c825d841c0cd3533edd80a3a29bec109",
    "misfetch-causes.txt": "585ab7f98ebeccfdda7e896f3371545cef16d21ff74ba7cf4697ad66ecd7ec45",
    "multi-issue.txt": "d2c258fab084ec97b4c73ca656b0b6fe6bac9f16a8a87d9f3d3b380d706dfd87",
    "ras-depth.txt": "bf4dafa007853408f5fea115cb39373dfbcfa674a97f89a65806d928f45c52b2",
    "replay.txt": "07f2c645fe21e700361209712466654eb5143405f8f4cec3c8b9f5b301a2c8e9",
    "steely-sager.txt": "dba64c3326d16646c01f80cbccafc5fe80edc26659348fa2a9bab9b98acdb5ff",
    "table1.txt": "61e75ff9629a56c352a22af9b5d46981a421006d5a5cab82fcc66f3647b55ff4",
    "way-prediction.txt": "e3e1dede4d1b484d491eb34e80aa100b177fe201b000543b4b8429e20379e99a",
}


def test_every_experiment_renders_identically_on_both_engines(tmp_path, capsys):
    """``--engine fast`` is the CLI default and ``--engine reference``
    its oracle: ``all`` exports byte-identical text on both."""
    argv = ["all", "--programs", "li", "--instructions", str(SMALL)]
    exports = {}
    for engine in ("default", "reference"):
        out = tmp_path / engine
        flags = ["--out", str(out), "--formats", "txt"]
        if engine != "default":
            flags += ["--engine", engine]
        assert cli_main(argv + flags) == 0
        manifest = json.loads((out / "EXPORTS.json").read_text())
        assert manifest["engine"] == ("fast" if engine == "default" else engine)
        exports[engine] = {
            path.name: path.read_text() for path in sorted(out.glob("*.txt"))
        }
    capsys.readouterr()
    assert sorted(exports["default"]) == sorted(f"{name}.txt" for name in SPECS)
    assert exports["default"] == exports["reference"]
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in exports["default"].items()
    }
    for name, digest in RENDERED_SHA256.items():
        assert digests[name] == digest, name


class TestCLI:
    def test_list_subcommand(self, capsys):
        assert cli_main(["list", "--programs", "li"]) == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "cells" in out
        for name in SPECS:
            assert name in out
        assert "unique after cross-experiment dedup" in out

    def test_jobs_flag_parallel_run(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert (
            cli_main(
                [
                    "johnson",
                    "--programs",
                    "li",
                    "--instructions",
                    str(SMALL),
                    "--jobs",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Johnson" in out
        assert "process backend, jobs=2" in out

    def test_jobs_zero_means_auto(self, capsys):
        assert cli_main(["fig3", "--jobs", "0"]) == 0
        assert "jobs=auto" in capsys.readouterr().out

    def test_serial_and_parallel_cli_text_match(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        argv = ["johnson", "--programs", "li", "--instructions", str(SMALL)]
        assert cli_main(argv) == 0
        serial_out = capsys.readouterr().out
        assert cli_main(argv + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        body = lambda text: [  # noqa: E731 - tiny local helper
            line
            for line in text.splitlines()
            if line and not line.startswith("[")
        ]
        assert body(serial_out) == body(parallel_out)


class TestFormatSeconds:
    def test_sub_second_is_milliseconds(self):
        assert format_seconds(0.25) == "250ms"

    def test_seconds_one_decimal(self):
        assert format_seconds(12.34) == "12.3s"
