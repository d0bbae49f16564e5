"""Telemetry subsystem tests: registry/sinks, NDJSON round-trips,
manifests, serial↔process merge equivalence, backend robustness, and
the disabled-overhead guard."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.harness.config import ArchitectureConfig
from repro.harness.export import to_json
from repro.harness.runner import (
    CellExecutionError,
    RunPlan,
    RunRequest,
    _batches_by_trace,
    simulate,
)
from repro.harness.spec import ExperimentResult
from repro.telemetry import manifest as manifest_module
from repro.telemetry.core import (
    Registry,
    get_registry,
    set_registry,
    use,
)
from repro.telemetry.sinks import read_events, write_events
from repro.workloads.corpus import clear_cache, generate_trace

TINY = 4_000


# ---------------------------------------------------------------------------
# core: counters, histograms, spans, registries
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates(self):
        registry = Registry()
        registry.counter("x").add()
        registry.counter("x").add(4)
        assert registry.counters == {"x": 5}

    def test_span_records_tags_and_duration(self):
        registry = Registry()
        with registry.span("work", program="gcc", backend="serial"):
            pass
        (span,) = registry.spans
        assert span.name == "work"
        assert span.tags == {"program": "gcc", "backend": "serial"}
        assert span.duration_s >= 0.0

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = Registry(enabled=False)
        assert registry.counter("a") is registry.counter("b")
        assert registry.span("a") is registry.span("b")
        registry.counter("a").add(10)
        with registry.span("a"):
            pass
        assert registry.counters == {}
        assert registry.spans == []
        assert registry.snapshot() == {"counters": {}, "spans": []}

    def test_merge_adds_counters_and_concatenates_spans(self):
        a = Registry()
        a.counter("n").add(2)
        with a.span("s", k=1):
            pass
        b = Registry()
        b.counter("n").add(3)
        b.counter("m").add(1)
        with b.span("s", k=2):
            pass
        a.merge(b.snapshot())
        assert a.counters == {"m": 1, "n": 5}
        assert len(a.spans) == 2
        a.merge(None)  # no-op
        assert a.counters == {"m": 1, "n": 5}

    def test_use_scopes_and_restores_active_registry(self):
        default = get_registry()
        scoped = Registry()
        with use(scoped):
            assert get_registry() is scoped
            with pytest.raises(RuntimeError):
                with use(Registry()):
                    assert get_registry() is not scoped
                    raise RuntimeError("boom")
            assert get_registry() is scoped
        assert get_registry() is default

    def test_events_render_every_instrument(self):
        registry = Registry()
        registry.counter("c").add(7)
        registry.histogram("h").observe(5)
        with registry.span("s", tag="v"):
            pass
        events = list(registry.events())
        kinds = sorted(event["event"] for event in events)
        assert kinds == ["counter", "histogram", "span"]
        assert all(event["schema"] == "repro-telemetry/v1" for event in events)


# ---------------------------------------------------------------------------
# sinks
# ---------------------------------------------------------------------------


class TestSinks:
    def _registry(self) -> Registry:
        registry = Registry()
        registry.counter("hits").add(3)
        with registry.span("gen", program="li"):
            pass
        return registry

    def test_ndjson_round_trip(self, tmp_path):
        registry = self._registry()
        registry.histogram("sizes").observe(9)
        path = str(tmp_path / "events.ndjson")
        write_events(path, registry.events())
        assert read_events(path) == list(registry.events())

    def test_write_events_is_atomic_and_round_trips(self, tmp_path):
        registry = self._registry()
        path = str(tmp_path / "dump.ndjson")
        count = write_events(path, registry.events())
        assert count == 2
        assert read_events(path) == list(registry.events())
        assert [p for p in os.listdir(tmp_path) if ".tmp." in p] == []


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------


class TestManifest:
    def test_collect_fills_environment_fields(self):
        manifest = manifest_module.collect(
            config_label="cfg", program="li", trace_key=("li", 1, 2, "natural")
        )
        assert manifest.schema == manifest_module.MANIFEST_SCHEMA
        assert manifest.git_sha == "unknown" or len(manifest.git_sha) == 40
        assert manifest.python.count(".") == 2
        assert manifest.platform
        assert manifest.peak_rss_kb >= 0
        assert manifest.pid == os.getpid()
        payload = manifest.to_dict()
        assert payload["trace_key"] == ["li", 1, 2, "natural"]
        assert "extra" not in payload

    def test_reports_carry_a_manifest(self):
        config = ArchitectureConfig(frontend="nls-table", entries=64, cache_kb=8)
        report = simulate(config, "li", instructions=TINY)
        manifest = report.manifest
        assert manifest is not None
        assert manifest.config_label == config.label()
        assert manifest.program == "li"
        assert manifest.trace_key[0] == "li"
        assert manifest.wall_time_s > 0.0
        assert manifest.cpu_time_s >= 0.0

    def test_manifest_survives_json_export(self):
        config = ArchitectureConfig(frontend="btb", entries=32, cache_kb=8)
        report = simulate(config, "li", instructions=TINY)
        result = ExperimentResult(
            name="probe", title="probe", text="", data={"report": report}
        )
        payload = json.loads(to_json(result))
        manifest = payload["data"]["report"]["manifest"]
        for key in (
            "schema",
            "git_sha",
            "python",
            "platform",
            "config_label",
            "trace_key",
            "wall_time_s",
            "cpu_time_s",
            "peak_rss_kb",
        ):
            assert key in manifest, key


# ---------------------------------------------------------------------------
# runner integration: spans, merge equivalence, robustness
# ---------------------------------------------------------------------------


def _small_plan() -> RunPlan:
    plan = RunPlan()
    for frontend, kwargs in (("btb", {"entries": 32}), ("nls-table", {"entries": 64})):
        for program in ("li", "espresso"):
            plan.add(
                RunRequest(
                    config=ArchitectureConfig(frontend=frontend, cache_kb=8, **kwargs),
                    program=program,
                    instructions=TINY,
                )
            )
    return plan


class TestRunnerTelemetry:
    def test_serial_run_records_cell_spans_and_engine_counters(self):
        clear_cache()
        plan = _small_plan()
        with use(Registry()) as registry:
            plan.execute(backend="serial")
        counters = registry.counters
        assert counters["runner.cells"] == plan.unique
        assert counters["corpus.trace_cache_misses"] == 2
        assert counters["corpus.trace_cache_hits"] == plan.unique - 2
        assert counters["engine.blocks_decoded"] > 0
        assert counters["engine.frontend_predicts"] > 0
        assert counters["engine.icache_probes"] > 0
        cell_spans = [s for s in registry.spans if s.name == "runner.cell"]
        assert len(cell_spans) == plan.unique
        assert {s.tags["program"] for s in cell_spans} == {"li", "espresso"}

    def test_serial_and_process_telemetry_merge_equivalently(self):
        plan = _small_plan()

        clear_cache()
        with use(Registry()) as serial_registry:
            serial_reports = RunPlan(plan.requests).execute(backend="serial")

        clear_cache()
        with use(Registry()) as process_registry:
            process_reports = RunPlan(plan.requests).execute(
                backend="process", jobs=2
            )

        assert serial_reports == process_reports
        assert serial_registry.counters == process_registry.counters
        serial_spans = sorted(
            (s.name, s.tags.get("program", "")) for s in serial_registry.spans
        )
        process_spans = sorted(
            (s.name, s.tags.get("program", "")) for s in process_registry.spans
        )
        assert serial_spans == process_spans

    def test_disabled_telemetry_records_nothing(self):
        clear_cache()
        assert not get_registry().enabled
        _small_plan().execute(backend="serial")
        assert get_registry().counters == {}


class TestBackendRobustness:
    def test_batches_are_sorted_by_trace_key(self):
        plan = _small_plan()
        requests = list(plan.requests)
        batches_forward = _batches_by_trace(requests)
        batches_reversed = _batches_by_trace(list(reversed(requests)))
        keys_forward = [b[0].resolved_trace_key() for b in batches_forward]
        keys_reversed = [b[0].resolved_trace_key() for b in batches_reversed]
        assert keys_forward == sorted(keys_forward)
        assert keys_forward == keys_reversed

    def test_cell_execution_error_survives_pickling(self):
        import pickle

        error = CellExecutionError("cell failed: config='x' program='li'")
        clone = pickle.loads(pickle.dumps(error))
        assert isinstance(clone, CellExecutionError)
        assert str(clone) == str(error)

    def test_pool_start_failure_falls_back_to_serial(self, monkeypatch):
        import repro.harness.runner as runner_module

        def _broken_executor(*args, **kwargs):
            raise OSError("no semaphores in this sandbox")

        monkeypatch.setattr(runner_module, "_make_executor", _broken_executor)
        clear_cache()
        plan = _small_plan()
        registry = Registry(enabled=True)
        with use(registry):
            with pytest.warns(RuntimeWarning, match="falling back to the serial"):
                reports = plan.execute(backend="process", jobs=2)
        assert len(reports) == plan.unique
        assert all(r.meta.backend == "serial" for r in reports.values())
        # the degradation is observable: a telemetry counter ticks and
        # every report's manifest records the serial fallback
        assert registry.counter("runner.pool_fallback").value >= 1
        assert all(
            r.manifest.extra["pool_fallback"] for r in reports.values()
        )


# ---------------------------------------------------------------------------
# overhead guard: disabled telemetry must not slow the engine hot loop
# ---------------------------------------------------------------------------


class TestOverheadGuard:
    def test_disabled_telemetry_engine_overhead_under_5_percent(self):
        assert not get_registry().enabled
        trace = generate_trace("li", instructions=60_000)
        config = ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=16)

        runs = {
            # the raw hot loop, bypassing the instrumented run() wrapper
            "bare": lambda engine: engine._simulate(trace),
            # the instrumented entry point with telemetry disabled
            "instrumented": lambda engine: engine.run(trace),
        }
        # interleave the two within each repeat, alternating which goes
        # first, so a burst of host load hits both sides alike; compare
        # the best of each
        best = dict.fromkeys(runs, float("inf"))
        for repeat in range(15):
            for name in sorted(runs, reverse=repeat % 2 == 1):
                engine = config.build()
                started = time.perf_counter()
                runs[name](engine)
                best[name] = min(best[name], time.perf_counter() - started)
        bare, instrumented = best["bare"], best["instrumented"]
        overhead = instrumented / bare - 1.0
        # < 5% guard, plus a tiny absolute allowance for report
        # construction so a sub-millisecond blip cannot flake the suite
        assert instrumented <= bare * 1.05 + 2e-3, (
            f"disabled-telemetry overhead {overhead:.1%} exceeds 5% "
            f"(bare {bare:.4f}s vs instrumented {instrumented:.4f}s)"
        )
