"""Differential tests: the vectorised fast engine vs the reference loop.

The fast engine's contract is *byte-identical reports*: for every
configuration in its supported matrix, ``engine="fast"`` must produce
exactly the :class:`~repro.metrics.report.SimulationReport` the
reference per-branch loop produces — counters, per-kind breakdowns,
front-end mismatch histograms, attribution snapshots and telemetry
included.  Configurations outside the matrix must fall back to the
reference engine with the reason stamped for the run manifest.
"""

import json
import random
import sys
import threading
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.fetch.capability import (
    EngineClass,
    FallbackReason,
    engine_class,
    fallback_reason,
)
from repro.fetch import fast_engine
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import BTBFrontEnd, CoupledBTBFrontEnd
from repro.fetch.fast_engine import (
    FastEngine,
    TraceReplayContext,
    _cache_key,
    clear_contexts,
    retained_context,
)
from repro.harness.config import ArchitectureConfig
from repro.harness.export import _jsonable
from repro.harness import runner
from repro.harness.runner import ExecutionPolicy, RunPlan, RunRequest, run_request
from repro.harness.spec import ExperimentPlan, ExperimentResult, with_engine
from repro.isa.branches import BranchKind
from repro.predictors.btb import BranchTargetBuffer, CoupledBTB
from repro.telemetry.core import Registry, use
from repro.workloads.corpus import generate_trace
from repro.workloads.ingest import read_entry, trace_digest, write_entry
from repro.workloads.trace import Trace
from tests.conftest import make_trace

#: one representative configuration per supported front-end family —
#: the matrix is closed over every paper configuration, including the
#: associative cache + NLS-cache/Johnson/coupled-BTB combinations
SUPPORTED = [
    ("nls-table", {"entries": 1024}),
    ("nls-table", {"entries": 512, "cache_assoc": 4}),
    ("btb", {"entries": 128}),
    ("btb", {"entries": 128, "btb_assoc": 4}),
    ("steely-sager", {"entries": 512}),
    ("nls-cache", {}),
    ("nls-cache", {"nls_cache_policy": "lru"}),
    ("nls-cache", {"cache_assoc": 2, "cache_kb": 4}),
    ("johnson", {}),
    ("johnson", {"cache_assoc": 2, "cache_kb": 4}),
    ("coupled-btb", {"entries": 256}),
    ("coupled-btb", {"entries": 128, "btb_assoc": 4}),
    ("oracle", {}),
    ("fall-through", {}),
]

INSTRUCTIONS = 40_000


def run_both(config, program="li", instructions=INSTRUCTIONS, warmup=0.0):
    """Run *config* through both engines on the same trace."""
    trace = generate_trace(program, instructions=instructions)
    reference = (
        replace(config, engine="reference")
        .build()
        .run(trace, label=config.label(), warmup_fraction=warmup)
    )
    engine = replace(config, engine="fast").build()
    assert isinstance(engine, FastEngine), "config unexpectedly unsupported"
    fast = engine.run(trace, label=config.label(), warmup_fraction=warmup)
    return reference, fast


def _kept_walks(context) -> dict:
    """Cache key -> bytes of each associative-cache walk *context*
    keeps."""
    return {
        key[1]: size for key, size in context._bytes.items() if key[0] == "walk"
    }


def as_json(report) -> str:
    return json.dumps(_jsonable(report), sort_keys=True)


def stable_json(report) -> str:
    """:func:`as_json` without the manifest and run metadata, which
    carry wall time and pid and legitimately vary per run."""
    payload = _jsonable(report)
    payload.pop("manifest", None)
    payload.pop("meta", None)
    return json.dumps(payload, sort_keys=True)


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("frontend,kwargs", SUPPORTED)
    def test_reports_identical(self, frontend, kwargs):
        config = ArchitectureConfig(frontend=frontend, **kwargs)
        reference, fast = run_both(config, warmup=0.3)
        assert reference == fast
        assert reference.frontend_stats == fast.frontend_stats
        assert as_json(reference) == as_json(fast)

    @pytest.mark.parametrize("frontend,kwargs", SUPPORTED)
    def test_reports_identical_with_flushes(self, frontend, kwargs):
        config = ArchitectureConfig(
            frontend=frontend, flush_interval=7_777, **kwargs
        )
        reference, fast = run_both(config)
        assert reference == fast
        assert as_json(reference) == as_json(fast)

    def test_second_program(self):
        config = ArchitectureConfig(frontend="nls-table")
        reference, fast = run_both(config, program="espresso", warmup=0.3)
        assert as_json(reference) == as_json(fast)

    def test_small_cache_pressure(self):
        config = ArchitectureConfig(frontend="nls-table", cache_kb=1)
        reference, fast = run_both(config)
        assert as_json(reference) == as_json(fast)

    def test_btb_allocate_all(self):
        config = ArchitectureConfig(
            frontend="btb", entries=128, btb_allocate="all"
        )
        reference, fast = run_both(config)
        assert as_json(reference) == as_json(fast)

    def test_attribution_snapshots_identical(self):
        # attribution is compare=False on the report, so check explicitly
        config = ArchitectureConfig(
            frontend="nls-table", attribution=True, attribution_sample=8
        )
        reference, fast = run_both(config, warmup=0.3)
        assert reference == fast
        assert reference.attribution == fast.attribution

    def test_telemetry_counters_identical(self):
        trace = generate_trace("li", instructions=INSTRUCTIONS)
        totals = {}
        for engine_name in ("reference", "fast"):
            config = ArchitectureConfig(frontend="nls-table", engine=engine_name)
            registry = Registry(enabled=True)
            with use(registry):
                config.build().run(trace, label=config.label())
            totals[engine_name] = sorted(
                (event["name"], event["value"])
                for event in registry.events()
                if event.get("event") == "counter"
                and event["name"].startswith("engine.")
            )
        assert totals["reference"] == totals["fast"]


class TestSupportedMatrix:
    def test_supported_configs_have_no_reason(self):
        for frontend, kwargs in SUPPORTED:
            config = ArchitectureConfig(frontend=frontend, **kwargs)
            assert fallback_reason(config) is None, frontend

    @pytest.mark.parametrize(
        "override",
        [
            {"direction": "bimodal"},
            {"model_wrong_path": True},
        ],
    )
    def test_unsupported_configs_name_a_reason(self, override):
        config = ArchitectureConfig(**override)
        assert fallback_reason(config)

    def test_fallback_builds_reference_engine(self):
        config = ArchitectureConfig(direction="bimodal", engine="fast")
        engine = config.build()
        assert isinstance(engine, FetchEngine)
        assert engine.engine_name == "reference"
        assert engine.engine_fallback == "unsupported-direction-predictor"

    def test_fast_engine_rejects_unsupported_config(self):
        with pytest.raises(ValueError):
            FastEngine(ArchitectureConfig(model_wrong_path=True))


class TestCapability:
    def test_fallback_reason_values_are_pinned(self):
        # the manifest's engine_fallback field is machine-readable:
        # these strings are a stable contract with downstream tooling
        assert (
            FallbackReason.DIRECTION_PREDICTOR.value
            == "unsupported-direction-predictor"
        )
        assert FallbackReason.WRONG_PATH.value == "wrong-path-modelling"
        assert {r.value for r in FallbackReason} == {
            "unsupported-direction-predictor",
            "wrong-path-modelling",
        }

    def test_engine_class_values_are_pinned(self):
        assert EngineClass.FAST_BATCHED.value == "fast-batched"
        assert EngineClass.FAST_SINGLE.value == "fast-single"
        assert EngineClass.REFERENCE.value == "reference"

    @pytest.mark.parametrize(
        "override,expected",
        [
            ({"frontend": "nls-table"}, EngineClass.FAST_BATCHED),
            ({"frontend": "btb"}, EngineClass.FAST_BATCHED),
            ({"frontend": "btb", "btb_assoc": 4}, EngineClass.FAST_SINGLE),
            ({"frontend": "coupled-btb"}, EngineClass.FAST_SINGLE),
            (
                {"frontend": "nls-cache", "nls_cache_policy": "lru"},
                EngineClass.FAST_SINGLE,
            ),
            ({"frontend": "nls-cache"}, EngineClass.FAST_BATCHED),
            ({"frontend": "johnson"}, EngineClass.FAST_BATCHED),
            ({"direction": "bimodal"}, EngineClass.REFERENCE),
            ({"model_wrong_path": True}, EngineClass.REFERENCE),
        ],
    )
    def test_engine_class_classification(self, override, expected):
        assert engine_class(ArchitectureConfig(**override)) is expected

    def test_fallback_reason_none_for_supported(self):
        for frontend, kwargs in SUPPORTED:
            config = ArchitectureConfig(frontend=frontend, **kwargs)
            assert fallback_reason(config) is None

    def test_fast_engine_exposes_engine_class(self):
        engine = FastEngine(ArchitectureConfig(frontend="nls-table"))
        assert engine.engine_class is EngineClass.FAST_BATCHED
        engine = FastEngine(ArchitectureConfig(frontend="coupled-btb"))
        assert engine.engine_class is EngineClass.FAST_SINGLE


class TestHarnessWiring:
    def test_config_validates_engine(self):
        with pytest.raises(ValueError):
            ArchitectureConfig(engine="bogus")

    def test_describe_includes_non_default_engine(self):
        assert ArchitectureConfig(engine="fast").describe()["engine"] == "fast"
        assert "engine" not in ArchitectureConfig().describe()

    def test_manifest_stamps_engine(self):
        request = RunRequest(
            config=ArchitectureConfig(frontend="nls-table", engine="fast"),
            program="li",
            instructions=20_000,
        )
        report = run_request(request)
        assert report.manifest.extra["engine"] == "fast"
        assert report.manifest.extra["engine_class"] == "fast-batched"
        assert "engine_fallback" not in report.manifest.extra

    def test_manifest_stamps_fallback(self):
        request = RunRequest(
            config=ArchitectureConfig(direction="bimodal", engine="fast"),
            program="li",
            instructions=20_000,
        )
        report = run_request(request)
        assert report.manifest.extra["engine"] == "reference"
        assert (
            report.manifest.extra["engine_fallback"]
            == "unsupported-direction-predictor"
        )

    def test_manifest_stamps_reference_default(self):
        request = RunRequest(
            config=ArchitectureConfig(frontend="nls-table"),
            program="li",
            instructions=20_000,
        )
        report = run_request(request)
        assert report.manifest.extra["engine"] == "reference"

    def test_with_engine_rewrites_cells_and_aliases_reports(self):
        cells = tuple(
            RunRequest(
                config=ArchitectureConfig(frontend="nls-table"),
                program=program,
                instructions=20_000,
            )
            for program in ("li", "espresso")
        )

        def finish(reports):
            # renderers index by the ORIGINAL reference-engine cells
            return ExperimentResult(
                name="t",
                title="t",
                text="",
                data={"breaks": [reports[cell].n_breaks for cell in cells]},
            )

        (plan,) = with_engine(
            [ExperimentPlan(name="t", cells=cells, finish=finish)], "fast"
        )
        assert all(cell.config.engine == "fast" for cell in plan.cells)
        result = plan.run()
        assert all(n > 0 for n in result.data["breaks"])

    def test_with_engine_reference_is_identity(self):
        plan = ExperimentPlan(name="t", cells=(), finish=lambda reports: None)
        assert with_engine([plan], "reference") == [plan]


def _sample_config(rng: random.Random) -> ArchitectureConfig:
    """Draw one random configuration from the fast engine's closed matrix."""
    frontend = rng.choice(
        [
            "nls-table",
            "nls-cache",
            "btb",
            "coupled-btb",
            "steely-sager",
            "johnson",
            "oracle",
            "fall-through",
        ]
    )
    line_bytes = rng.choice([16, 32, 64])
    kwargs = dict(
        frontend=frontend,
        cache_kb=rng.choice([1, 2, 4, 16]),
        # Steely-Sager line successors require a direct-mapped cache
        cache_assoc=1 if frontend == "steely-sager" else rng.choice([1, 2, 4]),
        line_bytes=line_bytes,
        cache_replacement=rng.choice(["lru", "fifo", "random"]),
        pht_entries=rng.choice([1024, 4096]),
        ras_entries=rng.choice([8, 32]),
        flush_interval=rng.choice([None, 7_777]),
        attribution=rng.random() < 0.5,
    )
    if frontend in ("nls-table", "steely-sager", "btb", "coupled-btb"):
        kwargs["entries"] = rng.choice([64, 256, 1024])
    if frontend in ("btb", "coupled-btb"):
        kwargs["btb_assoc"] = rng.choice([1, 2, 4])
    if frontend == "btb":
        kwargs["btb_allocate"] = rng.choice(["taken-only", "all"])
    if frontend in ("nls-cache", "johnson"):
        # per-line predictor counts must divide the instructions per line
        per_line = line_bytes // 4
        kwargs["predictors_per_line"] = rng.choice(
            [pl for pl in (1, 2, 4, 8) if pl <= per_line]
        )
    if frontend == "nls-cache":
        kwargs["nls_cache_policy"] = rng.choice(["partition", "lru"])
    return ArchitectureConfig(**kwargs)


def _empty_trace() -> Trace:
    return make_trace([], "empty")


def _one_block_trace() -> Trace:
    trace = make_trace([(0x1000, 8, BranchKind.CONDITIONAL, True, 0x2000)], "one-block")
    return trace


def _self_loop_trace() -> Trace:
    trace = make_trace(
        [(0x1000, 8, BranchKind.UNCONDITIONAL, True, 0x1000)] * 40, "self-loop"
    )
    return trace


def _set_aliasing_trace() -> Trace:
    # 17 lines 8K apart share one set in every 8K/16K cache shape, so
    # even a 16-way set would thrash
    lines = [0x4000 + k * 8 * 1024 for k in range(17)]
    rows = []
    for _ in range(6):
        for k, start in enumerate(lines):
            kind = BranchKind.UNCONDITIONAL if k % 3 else BranchKind.CONDITIONAL
            rows.append((start, 2, kind, True, lines[(k + 1) % len(lines)]))
    trace = make_trace(rows, "set-aliasing")
    return trace


def _ras_trace() -> Trace:
    # a return before any call (underflow), calls 12 deep into an
    # 8-entry stack (overflow), then one return more than was pushed
    depth, base = 12, 0x10_0000
    rows = []
    rows.append((0x2000, 1, BranchKind.RETURN, True, base))
    for i in range(depth):
        callee = base + (i + 1) * 0x100
        rows.append((base + i * 0x100, 1, BranchKind.CALL, True, callee))
    returns = [base + i * 0x100 + 4 for i in range(depth - 1, -1, -1)]
    rows.append((base + depth * 0x100, 1, BranchKind.RETURN, True, returns[0]))
    for position, address in enumerate(returns[:-1]):
        rows.append((address, 1, BranchKind.RETURN, True, returns[position + 1]))
    rows.append((returns[-1], 1, BranchKind.RETURN, True, 0x3000))
    rows.append((0x3000, 1))
    trace = make_trace(rows, "ras-overflow-underflow")
    return trace


def _high_address_trace() -> Trace:
    # code at 2**61 bytes: line keys must not overflow int64
    a = (1 << 61) + 0x1000
    b = a + 16 * 1024
    rows = []
    for _ in range(20):
        rows.append((a, 3, BranchKind.CONDITIONAL, True, b))
        rows.append((b, 2, BranchKind.CALL, True, a + 0x400))
        rows.append((a + 0x400, 2, BranchKind.RETURN, True, b + 8))
        rows.append((b + 8, 1, BranchKind.UNCONDITIONAL, True, a))
    trace = make_trace(rows, "high-address")
    return trace


#: hand-built traces at the edges of the input space
DEGENERATE_TRACES = {
    "empty": _empty_trace,
    "one-block": _one_block_trace,
    "self-loop": _self_loop_trace,
    "set-aliasing": _set_aliasing_trace,
    "ras-overflow-underflow": _ras_trace,
    "high-address": _high_address_trace,
}

#: every front-end family, on small tables so the traces exercise them
DEGENERATE_FRONTENDS = [
    {"frontend": "nls-table", "entries": 64},
    {"frontend": "steely-sager", "entries": 64},
    {"frontend": "btb", "entries": 64},
    {"frontend": "btb", "entries": 64, "btb_assoc": 2},
    {"frontend": "coupled-btb", "entries": 64},
    {"frontend": "nls-cache"},
    {"frontend": "nls-cache", "nls_cache_policy": "lru"},
    {"frontend": "johnson"},
    {"frontend": "oracle"},
    {"frontend": "fall-through"},
]

#: (cache KB, associativity, flush interval) shapes replayed in turn
DEGENERATE_CACHES = [(8, 1, None), (8, 4, None), (16, 2, 25)]


class TestDifferentialFuzz:
    """Seeded fuzz across the closed matrix (satellite of the batched
    sweep work): random configurations must export byte-identical JSON
    from both engines, including attribution profiles and telemetry
    counter totals."""

    CASES = 12

    def test_random_configs_are_byte_identical(self):
        rng = random.Random(20260808)
        traces = {
            program: generate_trace(program, instructions=20_000)
            for program in ("li", "doduc")
        }
        for case in range(self.CASES):
            config = _sample_config(rng)
            program = rng.choice(sorted(traces))
            trace = traces[program]
            warmup = rng.choice([0.0, 0.3])
            exports = {}
            telemetry = {}
            for engine_name in ("reference", "fast"):
                cell = replace(config, engine=engine_name)
                registry = Registry(enabled=True)
                with use(registry):
                    report = cell.build().run(
                        trace, label=config.label(), warmup_fraction=warmup
                    )
                exports[engine_name] = as_json(report)
                telemetry[engine_name] = sorted(
                    (event["name"], event["value"])
                    for event in registry.events()
                    if event.get("event") == "counter"
                    and event["name"].startswith("engine.")
                )
                if config.attribution:
                    exports[engine_name] += json.dumps(
                        _jsonable(report.attribution), sort_keys=True
                    )
            detail = f"case {case}: {config.describe()} on {program}"
            assert exports["reference"] == exports["fast"], detail
            assert telemetry["reference"] == telemetry["fast"], detail


    @pytest.mark.parametrize("case", sorted(DEGENERATE_TRACES))
    def test_degenerate_traces_are_byte_identical(self, case):
        # reference, fast solo, and fast through one shared context
        # that releases each cache's memos before the next cache
        trace = DEGENERATE_TRACES[case]()
        trace.validate()
        context = TraceReplayContext(trace)
        for kb, assoc, interval in DEGENERATE_CACHES:
            for kwargs in DEGENERATE_FRONTENDS:
                if kwargs["frontend"] == "steely-sager" and assoc > 1:
                    continue  # Steely-Sager needs a direct-mapped cache
                config = ArchitectureConfig(
                    cache_kb=kb,
                    cache_assoc=assoc,
                    flush_interval=interval,
                    ras_entries=8,
                    attribution=True,
                    **kwargs,
                )
                label = config.label()
                reference = config.build().run(trace, label=label)
                fast = replace(config, engine="fast").build()
                solo = fast.run(trace, label=label)
                shared = replace(config, engine="fast").build()
                shared.attach_context(context)
                batched = shared.run(trace, label=label)
                detail = f"{case}: {config.describe()}"
                assert as_json(solo) == as_json(reference), detail
                assert as_json(batched) == as_json(reference), detail
            context.release(_cache_key(config.geometry, "lru", interval))


class TestBatchedContext:
    """The shared-context batched path must be invisible in the output:
    attaching a shared :class:`TraceReplayContext` changes throughput,
    never reports."""

    BATCH = [
        ArchitectureConfig(frontend="nls-table", entries=256),
        ArchitectureConfig(frontend="nls-table", entries=1024),
        ArchitectureConfig(frontend="steely-sager", entries=512),
        ArchitectureConfig(frontend="btb", entries=128),
        ArchitectureConfig(frontend="btb", entries=512, btb_allocate="all"),
        ArchitectureConfig(frontend="nls-cache", predictors_per_line=4),
        ArchitectureConfig(frontend="johnson", predictors_per_line=2),
        ArchitectureConfig(frontend="nls-table", pht_entries=1024),
        ArchitectureConfig(frontend="oracle"),
    ]

    @pytest.fixture(autouse=True)
    def _no_retained_contexts(self):
        # a context an earlier test left for the same trace would
        # already hold memos these tests count
        clear_contexts()

    def test_shared_context_matches_solo_runs(self):
        # two cache sizes share one context; releasing the first
        # cache's memos leaves nothing keyed by it and changes no report
        trace = generate_trace("li", instructions=20_000)
        context = TraceReplayContext(trace)
        for kb in (8, 32):
            batch = [replace(config, cache_kb=kb) for config in self.BATCH]
            for config in batch:
                solo = replace(config, engine="fast").build().run(
                    trace, label=config.label(), warmup_fraction=0.2
                )
                engine = replace(config, engine="fast").build()
                engine.attach_context(context)
                batched = engine.run(
                    trace, label=config.label(), warmup_fraction=0.2
                )
                assert as_json(batched) == as_json(solo), config.label()
            released = _cache_key(batch[0].geometry, "lru", None)
            context.release(released)
            assert not [key for key in context._memo if key[-1] == released]

    def test_table_slot_replay_is_shared_across_geometries(self):
        # the tag-less table's slot replay depends on (front-end, size,
        # flush interval) only: every cache geometry reuses it, and the
        # per-geometry line/way pass keeps reports byte-identical
        trace = generate_trace("li", instructions=20_000)
        context = TraceReplayContext(trace)
        # Steely–Sager addresses direct-mapped caches only (§6.2)
        geometries = {
            "nls-table": ((8, 1), (16, 4), (32, 1)),
            "steely-sager": ((8, 1), (16, 1), (32, 1)),
        }
        for frontend, shapes in geometries.items():
            for interval in (None, 4_000):
                for kb, assoc in shapes:
                    config = ArchitectureConfig(
                        frontend=frontend,
                        entries=256,
                        cache_kb=kb,
                        cache_assoc=assoc,
                        flush_interval=interval,
                    )
                    reference = config.build().run(
                        trace, label=config.label(), warmup_fraction=0.2
                    )
                    engine = replace(config, engine="fast").build()
                    engine.attach_context(context)
                    fast = engine.run(
                        trace, label=config.label(), warmup_fraction=0.2
                    )
                    assert as_json(fast) == as_json(reference), config.label()
        slot_memos = {key for key in context._memo if key[0] == "table-slots"}
        assert slot_memos == {
            ("table-slots", frontend, 256, interval)
            for frontend in geometries
            for interval in (None, 4_000)
        }

    def test_mixed_engine_classes_share_one_context_per_trace(self):
        # fast-batched and fast-single cells of one trace replay it
        # through one context: one icache replay per cache geometry,
        # on both backends
        configs = [
            ArchitectureConfig(frontend="nls-table", cache_kb=8),
            ArchitectureConfig(frontend="btb", entries=128, btb_assoc=4),
            ArchitectureConfig(frontend="nls-cache", nls_cache_policy="lru"),
            ArchitectureConfig(frontend="nls-table", cache_kb=16, cache_assoc=4),
            ArchitectureConfig(frontend="coupled-btb", entries=256, cache_kb=8),
        ]
        cells = [
            RunRequest(
                config=replace(config, engine="fast"),
                program="li",
                instructions=20_000,
            )
            for config in configs
        ]
        assert {engine_class(cell.config) for cell in cells} == {
            EngineClass.FAST_BATCHED,
            EngineClass.FAST_SINGLE,
        }
        geometries = {
            (config.geometry.size_bytes, config.geometry.associativity)
            for config in configs
        }
        for backend in ("serial", "process"):
            registry = Registry(enabled=True)
            with use(registry):
                reports = RunPlan(cells).execute(backend=backend, jobs=2)
            assert len(reports) == len(cells)
            assert registry.counters["replay.contexts_built"] == 1, backend
            assert registry.counters["replay.icache_replays"] == len(
                geometries
            ), backend

    #: cells of one trace whose request order interleaves three cache
    #: geometries and one flush interval
    RELEASE_CELLS = [
        RunRequest(
            config=ArchitectureConfig(
                engine="fast",
                frontend=frontend,
                cache_kb=kb,
                cache_assoc=assoc,
                flush_interval=interval,
            ),
            program="li",
            instructions=20_000,
        )
        for frontend in ("nls-table", "nls-cache", "johnson")
        for kb, assoc, interval in (
            (8, 1, None),
            (16, 2, None),
            (32, 4, None),
            (16, 2, 5_000),
        )
    ]

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_runner_releases_each_cache_after_its_last_cell(
        self, backend, monkeypatch
    ):
        cells = self.RELEASE_CELLS
        keys = {
            _cache_key(cell.config.geometry, "lru", cell.config.flush_interval)
            for cell in cells
        }
        assert len(keys) == 4
        # the batch runs each cache key's cells back to back
        (batch,) = runner._batches_by_trace(cells)
        order = [
            _cache_key(cell.config.geometry, "lru", cell.config.flush_interval)
            for cell in batch
        ]
        runs = [key for i, key in enumerate(order) if not i or key != order[i - 1]]
        assert len(runs) == len(keys)
        solo = {cell: stable_json(run_request(cell)) for cell in cells}
        releases = []
        original = TraceReplayContext.release

        def spy(context, cache_key):
            original(context, cache_key)
            left = [key for key in context._memo if key[-1] == cache_key]
            releases.append((context, cache_key, left))

        monkeypatch.setattr(TraceReplayContext, "release", spy)
        registry = Registry(enabled=True)
        with use(registry):
            reports = RunPlan(cells).execute(backend=backend, jobs=2)
        for cell in cells:
            assert stable_json(reports[cell]) == solo[cell], cell.config.label()
        # ordered by cache key, each cache released when the next
        # one's first memo is built: no memo is ever rebuilt
        assert registry.counters["replay.icache_replays"] == len(keys)
        assert registry.histograms["replay.memo_peak_bytes"]["count"] == 1
        if backend == "process":
            return  # the spy records inside the worker
        # every cache but the last (which the retained context keeps
        # until another cache is asked for) is released once, after
        # its last cell, leaving nothing behind
        assert [key for _, key, _ in releases] == runs[:-1]
        assert all(not left for _, _, left in releases)
        # without release every memo stays alive: the peak is the
        # total built, which the released context stays below
        released_context = releases[0][0]
        unreleased = TraceReplayContext(released_context.trace)
        monkeypatch.setattr(TraceReplayContext, "release", lambda *_: None)
        for cell in cells:
            engine = cell.config.build()
            engine.attach_context(unreleased)
            engine.run(unreleased.trace, warmup_fraction=cell.warmup)
        assert unreleased.peak_bytes == unreleased.live_bytes
        assert released_context.peak_bytes < unreleased.peak_bytes

    def test_release_keeps_cache_independent_memos(self):
        # cache-independent memo keys end in a flush interval or a size
        # (None here); no release, not even release(None), drops them
        trace = generate_trace("li", instructions=20_000)
        context = TraceReplayContext(trace)
        config = ArchitectureConfig(engine="fast", frontend="nls-table")
        engine = config.build()
        engine.attach_context(context)
        engine.run(trace)
        independent = {
            key for key in context._memo if not isinstance(key[-1], tuple)
        }
        assert any(key[-1] is None for key in independent)
        assert len(context._memo) > len(independent)
        context.release(None)
        context.release(_cache_key(config.geometry, "lru", None))
        assert set(context._memo) == independent

    def test_invalid_geometry_cell_fails_alone(self):
        # a 3K cache has no geometry, hence no cache key: it sorts and
        # fails on its own while its batch-mates share the context
        bad = RunRequest(
            config=ArchitectureConfig(engine="fast", cache_kb=3),
            program="li",
            instructions=20_000,
        )
        good = self.RELEASE_CELLS[:2]
        plan = RunPlan([*good, bad])
        reports = plan.execute(policy=ExecutionPolicy(max_retries=0))
        assert set(reports) == set(good)
        assert list(plan.failures) == [bad]

    def test_mismatched_context_is_ignored(self):
        config = ArchitectureConfig(frontend="nls-table")
        trace = generate_trace("li", instructions=20_000)
        other = generate_trace("doduc", instructions=20_000)
        engine = replace(config, engine="fast").build()
        engine.attach_context(TraceReplayContext(other))
        report = engine.run(trace, label=config.label())
        baseline = replace(config, engine="fast").build().run(
            trace, label=config.label()
        )
        assert as_json(report) == as_json(baseline)

    def test_run_plan_serial_matches_unbatched_requests(self):
        # the serial backend groups by (trace, signature) and shares a
        # context; reports must equal per-cell run_request results
        cells = tuple(
            RunRequest(
                config=replace(config, engine="fast"),
                program="li",
                instructions=20_000,
            )
            for config in self.BATCH[:4]
        )
        plan = RunPlan(cells)
        results = plan.execute(backend="serial")
        for cell in cells:
            direct = run_request(cell)
            assert stable_json(results[cell]) == stable_json(direct)
            assert results[cell].manifest.extra["engine_class"] in (
                "fast-batched",
                "fast-single",
            )


class TestRetainedContexts:
    """Contexts outlive their plan: one per trace, reused by later
    batches and shared by threads one batch at a time."""

    @pytest.fixture(autouse=True)
    def _no_retained_contexts(self):
        clear_contexts()

    def test_lookup_reuses_and_evicts_only_idle_contexts(self):
        li = generate_trace("li", instructions=20_000)
        doduc = generate_trace("doduc", instructions=20_000)
        espresso = generate_trace("espresso", instructions=20_000)
        registry = Registry(enabled=True)
        with use(registry):
            with retained_context(li) as first:
                pass
            with retained_context(li) as second:
                assert second is first
                # built while li's context is held: li's survives
                with retained_context(doduc) as other:
                    assert other is not first
            with retained_context(li) as held:
                assert held is first
            with retained_context(doduc) as again:
                assert again is other
            # both idle when espresso's is built: both are evicted
            with retained_context(espresso):
                pass
            with retained_context(li) as rebuilt:
                assert rebuilt is not first
        assert registry.counters["replay.contexts_built"] == 4

    def test_peak_bytes_is_per_batch(self):
        # the first plan peaks on its 4-way cache and ends holding a
        # direct-mapped one's memos; the second replays only that
        # cache, so its batch peak must be the smaller
        def cell(**knobs):
            return RunRequest(
                config=ArchitectureConfig(engine="fast", **knobs),
                program="li",
                instructions=20_000,
            )

        costly = cell(frontend="nls-cache", cache_kb=8, cache_assoc=4)
        cheap = cell(frontend="fall-through", cache_kb=16)
        registry = Registry(enabled=True)
        with use(registry):
            RunPlan([costly, cheap]).execute(backend="serial")
            first = registry.histograms["replay.memo_peak_bytes"]["total"]
            RunPlan([cheap]).execute(backend="serial")
        peaks = registry.histograms["replay.memo_peak_bytes"]
        assert registry.counters["replay.contexts_built"] == 1
        assert peaks["count"] == 2
        assert 0 < peaks["total"] - first < first

    def test_threads_sharing_a_trace_match_solo_runs(self):
        # two scheduler-like threads replay one trace with interleaved
        # cache keys; each batch holds the context, so neither sees
        # the other's half-built state and the memo accounting stays
        # exact (a tiny switch interval makes the threads interleave)
        configs = [
            ArchitectureConfig(engine="fast", frontend="nls-table", cache_kb=8),
            ArchitectureConfig(engine="fast", frontend="btb", cache_kb=16),
            ArchitectureConfig(
                engine="fast", frontend="nls-cache", cache_kb=8, cache_assoc=2
            ),
            ArchitectureConfig(engine="fast", frontend="johnson", cache_kb=32),
        ]
        cells = [
            RunRequest(config=config, program="li", instructions=20_000)
            for config in configs
        ]
        solo = {cell: stable_json(run_request(cell)) for cell in cells}
        plans = ([cells[0], cells[2]], [cells[1], cells[3]])
        start = threading.Barrier(len(plans))
        reports = {}
        errors = []

        def client(plan_cells):
            try:
                start.wait()
                for _ in range(3):
                    for cell in plan_cells:
                        reports.setdefault(cell, []).append(
                            stable_json(RunPlan([cell]).execute()[cell])
                        )
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(plan,)) for plan in plans
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        for cell in cells:
            assert reports[cell] == [solo[cell]] * 3, cell.config.label()
        (context,) = fast_engine._CONTEXTS.values()
        assert set(context._bytes) == set(context._memo)
        assert context.live_bytes == sum(context._bytes.values())

    def test_pool_worker_starts_without_retained_contexts(self):
        trace = generate_trace("li", instructions=20_000)
        with retained_context(trace) as context:
            pass
        runner._worker_init()
        with retained_context(trace) as fresh:
            assert fresh is not context


class TestWalkOnce:
    """An associative cache is walked once per context, however its
    cells interleave with other caches' and whatever release drops."""

    @pytest.fixture(autouse=True)
    def _no_retained_contexts(self):
        clear_contexts()

    def test_each_cache_is_walked_once_per_context(self, monkeypatch):
        trace = generate_trace("li", instructions=20_000)
        caches = ((8, 2, None), (16, 4, None), (8, 4, 5_000), (4, 8, None))
        # the cache changes from every cell to the next
        configs = [
            ArchitectureConfig(
                engine="fast",
                frontend=frontend,
                cache_kb=kb,
                cache_assoc=assoc,
                flush_interval=interval,
            )
            for frontend in ("nls-table", "nls-cache", "johnson")
            for kb, assoc, interval in caches
        ]
        solo = {
            config: stable_json(config.build().run(trace, label=config.label()))
            for config in configs
        }
        walked = []
        walk = fast_engine._assoc_cache_walk

        def counting(lines, n_sets, assoc, replacement, epoch_lengths):
            walked.append((n_sets, assoc, len(epoch_lengths)))
            return walk(lines, n_sets, assoc, replacement, epoch_lengths)

        released = []
        release = TraceReplayContext.release

        def checked(context, cache_key):
            walks = _kept_walks(context)
            release(context, cache_key)
            released.append(cache_key)
            # the walks stay, and count among the surviving memos
            assert _kept_walks(context) == walks
            assert context.live_bytes == sum(context._bytes.values())

        monkeypatch.setattr(fast_engine, "_assoc_cache_walk", counting)
        monkeypatch.setattr(TraceReplayContext, "release", checked)
        context = TraceReplayContext(trace)
        for _ in range(2):
            for config in configs:
                engine = config.build()
                engine.attach_context(context)
                report = engine.run(trace, label=config.label())
                assert stable_json(report) == solo[config], config.label()
        assert len(walked) == len(set(walked)) == len(caches)
        assert len(released) == 2 * len(configs) - 1
        assert set(_kept_walks(context)) == {
            _cache_key(config.geometry, "lru", config.flush_interval)
            for config in configs
        }

    def test_kept_walks_stay_within_the_line_stream(self):
        # a long-running service may see any number of flush intervals
        # on one trace; the walks it keeps never outweigh the line
        # stream, and a walk rebuilt after its eviction is unchanged
        trace = generate_trace("li", instructions=20_000)
        geometry = CacheGeometry(8192, 32, 2)
        context = TraceReplayContext(trace)
        intervals = [1_000 + 37 * step for step in range(40)]
        first = {}
        for interval in intervals * 2:
            replay = context.icache(geometry, "lru", interval)
            outcome = (replay.hit.tolist(), replay.way.tolist())
            assert first.setdefault(interval, outcome) == outcome
            context.release(_cache_key(geometry, "lru", interval))
            assert context.live_bytes == sum(context._bytes.values())
            assert sum(_kept_walks(context).values()) <= (
                context._bytes[("lines", 32)]
            )
        assert 1 < len(_kept_walks(context)) < len(intervals)

    def test_run_plans_leaves_no_retained_context(self):
        cell = RunRequest(
            config=ArchitectureConfig(engine="fast", frontend="nls-table"),
            program="li",
            instructions=20_000,
        )
        retained = []
        plan = ExperimentPlan(
            name="t",
            cells=(cell,),
            finish=lambda reports: retained.append(len(fast_engine._CONTEXTS)),
        )
        plan.run()
        # dropped before the renderers run, and still gone after
        assert retained == [0]
        assert not fast_engine._CONTEXTS

    def test_run_plans_keeps_contexts_other_batches_hold(self):
        # a scheduler thread's batch holds doduc's context while a
        # one-shot run on li ends: only li's idle context goes
        cell = RunRequest(
            config=ArchitectureConfig(engine="fast", frontend="nls-table"),
            program="li",
            instructions=20_000,
        )
        doduc = generate_trace("doduc", instructions=20_000)
        with retained_context(doduc) as held:
            ExperimentPlan(name="t", cells=(cell,), finish=lambda r: None).run()
            assert list(fast_engine._CONTEXTS.values()) == [held]
        clear_contexts()
        assert not fast_engine._CONTEXTS

    def test_interrupted_run_plans_leaves_no_retained_context(
        self, monkeypatch
    ):
        trace = generate_trace("li", instructions=20_000)

        def interrupted(plan, **_):
            with retained_context(trace):
                pass
            raise KeyboardInterrupt

        monkeypatch.setattr(RunPlan, "execute", interrupted)
        plan = ExperimentPlan(name="t", cells=(), finish=lambda r: None)
        with pytest.raises(KeyboardInterrupt):
            plan.run()
        assert not fast_engine._CONTEXTS

    def test_pool_batch_leaves_no_retained_context(self):
        cell = RunRequest(
            config=ArchitectureConfig(engine="fast", frontend="nls-table"),
            program="li",
            instructions=20_000,
        )
        ((request, status, _),), _ = runner._run_batch_outcomes([cell])
        assert (request, status) == (cell, "ok")
        assert not fast_engine._CONTEXTS


#: a pool of blocks, each picked many times so sets see repeats, hits
#: on older lines and evictions
_POOL = st.lists(st.integers(0, 1023), min_size=24, max_size=24)
_INTERVALS = st.one_of(st.none(), st.integers(16, 300))
_COND = BranchKind.CONDITIONAL


class TestWalkOracles:
    """Both scalar walks agree with the reference structures, driven
    the way ``FetchEngine`` drives them, flushes included."""

    @settings(max_examples=100, deadline=None)
    @given(
        pool=_POOL,
        blocks=st.lists(
            st.tuples(st.integers(0, 23), st.integers(1, 12)),
            min_size=40,
            max_size=200,
        ),
        interval=_INTERVALS,
        assoc=st.sampled_from([1, 2, 4, 8]),
        replacement=st.sampled_from(["lru", "fifo", "random"]),
    )
    def test_icache_replay_matches_instruction_cache(
        self, pool, blocks, interval, assoc, replacement
    ):
        geometry = CacheGeometry(1024, 32, assoc)
        rows = [(pool[block] * 4, count) for block, count in blocks]
        cache = InstructionCache(geometry, replacement)
        hits, ways = [], []
        since = 0
        for start, count in rows:
            if interval is not None:
                since += count
                if since >= interval:
                    since = 0
                    cache.flush()
            line = start & ~31
            last = (start + (count - 1) * 4) & ~31
            while True:
                access = cache.access(line)
                hits.append(access.hit)
                ways.append(access.way)
                if line == last:
                    break
                line += 32
        context = TraceReplayContext(make_trace(rows))
        replay = context.icache(geometry, replacement, interval)
        assert replay.hit.tolist() == hits
        assert replay.way.tolist() == ways

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random"])
    def test_fully_associative_cache_with_many_ways(self, replacement):
        # one 256-way set: ways past 127 and miss codes below -128
        # must survive the walk's compact outcome
        geometry = CacheGeometry(8192, 32, 256)
        rng = random.Random(7)
        starts = [rng.randrange(320) * 32 for _ in range(3_000)]
        rows = [(start, 1) for start in starts]
        cache = InstructionCache(geometry, replacement)
        accesses = [cache.access(start) for start in starts]
        context = TraceReplayContext(make_trace(rows))
        replay = context.icache(geometry, replacement, None)
        assert replay.hit.tolist() == [access.hit for access in accesses]
        assert replay.way.tolist() == [access.way for access in accesses]
        assert max(access.way for access in accesses if access.hit) >= 128

    @settings(max_examples=100, deadline=None)
    @given(
        # each pc has one kind, as in a program; conditionals dominate
        branches=st.lists(
            st.tuples(
                st.integers(0, 255),
                st.sampled_from(
                    [_COND, _COND, _COND, *BranchKind]
                ),
            ),
            min_size=12,
            max_size=12,
        ),
        events=st.lists(
            st.tuples(
                st.integers(0, 11),
                st.integers(1, 4),
                st.booleans(),
                st.integers(0, 4),
            ),
            min_size=40,
            max_size=200,
        ),
        interval=_INTERVALS,
        assoc=st.sampled_from([2, 4, 8]),
        flavour=st.sampled_from(["taken-only", "all", "coupled"]),
    )
    def test_btb_walk_matches_reference_btb(
        self, branches, events, interval, assoc, flavour
    ):
        coupled = flavour == "coupled"
        rows = []
        for branch, count, taken, target in events:
            word, kind = branches[branch]
            pc = 0x1000 + word * 4
            start = pc - (count - 1) * 4
            if kind == BranchKind.NOT_A_BRANCH:
                rows.append((start, count))
            else:
                taken = taken or kind != _COND
                rows.append((start, count, kind, taken, target * 0x40))
        if coupled:
            frontend = CoupledBTBFrontEnd(CoupledBTB(16, assoc))
            config = ArchitectureConfig(
                frontend="coupled-btb",
                entries=16,
                btb_assoc=assoc,
                flush_interval=interval,
            )
        else:
            frontend = BTBFrontEnd(BranchTargetBuffer(16, assoc, flavour))
            config = ArchitectureConfig(
                frontend="btb",
                entries=16,
                btb_assoc=assoc,
                btb_allocate=flavour,
                flush_interval=interval,
            )
        mech, match, implied = [], [], []
        pending = None
        since = 0
        for start, count, *branch in rows:
            if interval is not None:
                since += count
                if since >= interval:
                    since = 0
                    pending = None
                    frontend.flush()
            if pending is not None:
                frontend.update(*pending, 0)
                pending = None
            if not branch:
                continue
            kind, taken, target = branch
            pc = start + (count - 1) * 4
            found, handle = frontend.predict(pc, 0)
            mech.append(0 if found is None else int(found))
            match.append(frontend.target_matches(handle, target))
            if coupled:
                implied.append(frontend.implied_taken(handle, pc + 4))
            pending = (pc, kind, taken, target, pc + 4)
        replay = TraceReplayContext(make_trace(rows)).frontend_replay(config)
        assert replay.mech.tolist() == mech
        assert replay.match.tolist() == match
        if coupled:
            assert replay.implied.tolist() == implied


class TestPackedTrace:
    def test_packed_returns_the_same_read_only_columns(self):
        trace = generate_trace("li", instructions=10_000)
        packed = trace.packed()
        for column, array in trace.packed().items():
            assert array is packed[column]
            assert array is getattr(trace, column)
            assert not array.flags.writeable

    def test_save_load_roundtrip_preserves_packed(self, tmp_path):
        trace = generate_trace("li", instructions=10_000)
        path = str(tmp_path / "trace.npz")
        write_entry(path, trace, digest=trace_digest(trace))
        loaded = read_entry(path, trace.name)
        assert loaded.starts.tolist() == trace.starts.tolist()
        assert loaded.kinds.tolist() == trace.kinds.tolist()
        assert loaded.packed()["targets"].tolist() == trace.targets.tolist()
