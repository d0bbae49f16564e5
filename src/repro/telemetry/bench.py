"""Standardised benchmark runs and the perf regression gate.

``python -m repro.harness bench`` drives this module: it times the two
workloads the repo's perf story hinges on —

* **engine** — raw fetch-engine throughput (events and instructions
  simulated per second) for one representative configuration of each
  front-end family, the same shape as
  ``benchmarks/bench_engine_throughput.py``;
* **sweep** — a pooled, deduplicated multi-figure run plan executed
  with the reference engine and then with the batched fast engine on
  the serial and process backends, the same shape as
  ``benchmarks/bench_sweep_parallel.py``; the manifest carries the
  per-engine-class dispatch breakdown;

and emits each as a schema-versioned payload (``repro-bench/v1``)
written atomically to ``BENCH_engine.json`` / ``BENCH_sweep.json``.
Every payload embeds a :class:`~repro.telemetry.manifest.RunManifest`,
so a benchmark number is never divorced from the revision and machine
that produced it.

:func:`gate` implements ``bench --gate BASELINE.json``: every
throughput metric in the baseline (keys ending ``_per_s``, higher is
better) must be within ``tolerance`` of the current run — a current
value below ``baseline × (1 - tolerance)`` is a regression, as is a
metric that disappeared.  Extra metrics in the current payload are
ignored, so baselines age gracefully as benchmarks grow.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.telemetry import manifest as manifest_module

#: benchmark payload schema version
BENCH_SCHEMA = "repro-bench/v1"

#: default benchmark artifact filenames (written at the repo root)
ENGINE_BENCH_FILE = "BENCH_engine.json"
SWEEP_BENCH_FILE = "BENCH_sweep.json"

#: append-only perf-trajectory file (one NDJSON line per bench run)
BENCH_HISTORY_FILE = "BENCH_history.ndjson"

#: trajectory-line schema stamp
BENCH_HISTORY_SCHEMA = "repro-bench-history/v1"

#: one representative configuration per front-end family
ENGINE_FRONTENDS: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("btb", {"entries": 128}),
    ("nls-table", {"entries": 1024}),
    ("nls-cache", {}),
    ("johnson", {}),
)

#: full / smoke trace budgets for the engine benchmark
ENGINE_INSTRUCTIONS = 150_000
ENGINE_INSTRUCTIONS_SMOKE = 15_000

#: full / smoke shapes for the sweep benchmark
SWEEP_PROGRAMS: Tuple[str, ...] = ("li", "doduc")
SWEEP_PROGRAMS_SMOKE: Tuple[str, ...] = ("li",)
SWEEP_INSTRUCTIONS = 60_000
SWEEP_INSTRUCTIONS_SMOKE = 8_000
SWEEP_GRID: Tuple[Tuple[int, int], ...] = ((8, 1), (16, 1), (16, 4))
SWEEP_GRID_SMOKE: Tuple[Tuple[int, int], ...] = ((8, 1), (16, 1))


def _payload(kind: str, results: Dict[str, Dict[str, float]], **extra) -> Dict[str, Any]:
    return {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "manifest": manifest_module.collect(
            config_label=f"bench-{kind}", extra=extra or None
        ).to_dict(),
        "results": results,
    }


def bench_engine(
    instructions: int = ENGINE_INSTRUCTIONS,
    program: str = "gcc",
    repeats: int = 3,
    frontends: Sequence[Tuple[str, Dict[str, Any]]] = ENGINE_FRONTENDS,
) -> Dict[str, Any]:
    """Time the fetch-engine hot loop per front-end family.

    Each configuration simulates the same memoised *program* trace;
    the best (minimum) wall time of *repeats* rounds is reported,
    converted to events/s and instructions/s.  Front-ends inside the
    vectorised engine's supported matrix are additionally timed with
    ``engine="fast"`` under a ``<frontend>-fast`` label whose
    ``speedup_vs_reference`` records the wall-time ratio — the number
    ``docs/PERFORMANCE.md`` and the fast-engine acceptance gate key on.
    """
    from repro.fetch.fast_engine import unsupported_reason
    from repro.harness.config import ArchitectureConfig
    from repro.workloads.corpus import generate_trace

    trace = generate_trace(program, instructions=instructions)
    events = len(trace.starts)
    results: Dict[str, Dict[str, float]] = {}

    def _best_wall(config: "ArchitectureConfig") -> float:
        best = float("inf")
        for _ in range(max(1, repeats)):
            engine = config.build()
            started = time.perf_counter()
            engine.run(trace)
            best = min(best, time.perf_counter() - started)
        return best

    for frontend, kwargs in frontends:
        config = ArchitectureConfig(frontend=frontend, cache_kb=16, **kwargs)
        best = _best_wall(config)
        results[frontend] = {
            "wall_s": best,
            "events_per_s": events / best,
            "instructions_per_s": trace.n_instructions / best,
        }
        fast_config = ArchitectureConfig(
            frontend=frontend, cache_kb=16, engine="fast", **kwargs
        )
        if unsupported_reason(fast_config) is None:
            fast_best = _best_wall(fast_config)
            results[f"{frontend}-fast"] = {
                "wall_s": fast_best,
                "events_per_s": events / fast_best,
                "instructions_per_s": trace.n_instructions / fast_best,
                "speedup_vs_reference": best / fast_best,
            }
    return _payload(
        "engine", results, program=program, instructions=instructions, events=events
    )


def bench_sweep(
    programs: Sequence[str] = SWEEP_PROGRAMS,
    instructions: int = SWEEP_INSTRUCTIONS,
    cache_grid: Sequence[Tuple[int, int]] = SWEEP_GRID,
    jobs: Optional[int] = None,
    figures: Sequence[str] = ("fig4", "fig5", "fig8"),
) -> Dict[str, Any]:
    """Time a pooled multi-figure run plan: reference vs batched fast.

    The same deduplicated cell pool runs three ways — reference engine
    on the serial backend, then ``engine="fast"`` on the serial and
    process backends (where the runner groups cells by trace and
    replays each group through one shared
    :class:`~repro.fetch.fast_engine.TraceReplayContext`).
    ``speedup_vs_reference`` on the fast entries is the headline
    batched-sweep number; all three result sets are checked for
    equality so a throughput win can never hide a correctness drift.

    The manifest records how every cell dispatched
    (``engine_classes``: ``fast_batched`` / ``fast_single`` /
    ``reference`` / ``fallback`` counts) plus the labelled
    ``fallback_cells``; :func:`gate` fails a sweep payload whose
    paper-figure cells fell back to the reference engine.
    """
    from dataclasses import replace

    from repro.fetch.capability import engine_class, fallback_reason
    from repro.harness.experiments import SPECS
    from repro.harness.runner import RunPlan
    from repro.workloads.corpus import clear_cache

    plan = RunPlan()
    for name in figures:
        cells = SPECS[name].plan(
            programs=tuple(programs),
            instructions=instructions,
            cache_grid=tuple(cache_grid),
        ).cells
        plan.add_all(cells)

    fast_cells = [
        replace(cell, config=replace(cell.config, engine="fast"))
        for cell in plan.requests
    ]
    classes = {"fast_batched": 0, "fast_single": 0, "reference": 0, "fallback": 0}
    fallback_cells: List[Dict[str, str]] = []
    for cell in fast_cells:
        reason = fallback_reason(cell.config)
        if reason is not None:
            classes["reference"] += 1
            classes["fallback"] += 1
            fallback_cells.append(
                {"label": cell.config.label(), "reason": reason.value}
            )
        else:
            key = engine_class(cell.config).value.replace("-", "_")
            classes[key] += 1

    clear_cache()
    started = time.perf_counter()
    reference = RunPlan(plan.requests).execute(backend="serial")
    reference_wall = time.perf_counter() - started

    started = time.perf_counter()
    fast_serial = RunPlan(fast_cells).execute(backend="serial")
    fast_serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    fast_process = RunPlan(fast_cells).execute(backend="process", jobs=jobs)
    fast_process_wall = time.perf_counter() - started

    if fast_serial != fast_process:
        raise RuntimeError("serial and process backends disagreed on reports")
    for cell, fast_cell in zip(plan.requests, fast_cells):
        if reference[cell] != fast_serial[fast_cell]:
            raise RuntimeError(
                "fast and reference engines disagreed on "
                f"{fast_cell.config.label()} ({fast_cell.program})"
            )

    results = {
        "reference": {
            "wall_s": reference_wall,
            "cells_per_s": plan.unique / reference_wall,
        },
        "fast_serial": {
            "wall_s": fast_serial_wall,
            "cells_per_s": plan.unique / fast_serial_wall,
            "speedup_vs_reference": (
                reference_wall / fast_serial_wall if fast_serial_wall else 0.0
            ),
        },
        "fast_process": {
            "wall_s": fast_process_wall,
            "cells_per_s": plan.unique / fast_process_wall,
            "speedup_vs_reference": (
                reference_wall / fast_process_wall if fast_process_wall else 0.0
            ),
        },
    }
    return _payload(
        "sweep",
        results,
        programs=list(programs),
        instructions=instructions,
        figures=list(figures),
        cells_requested=plan.requested,
        cells_unique=plan.unique,
        speedup=reference_wall / fast_serial_wall if fast_serial_wall else 0.0,
        engine_classes=classes,
        fallback_cells=fallback_cells,
    )


def run_bench_suite(
    smoke: bool = False, jobs: Optional[int] = None
) -> Dict[str, Dict[str, Any]]:
    """Run both standard benchmarks; ``smoke`` shrinks every budget so
    the suite finishes in seconds (CI and tests)."""
    engine = bench_engine(
        instructions=ENGINE_INSTRUCTIONS_SMOKE if smoke else ENGINE_INSTRUCTIONS,
        repeats=1 if smoke else 3,
    )
    sweep = bench_sweep(
        programs=SWEEP_PROGRAMS_SMOKE if smoke else SWEEP_PROGRAMS,
        instructions=SWEEP_INSTRUCTIONS_SMOKE if smoke else SWEEP_INSTRUCTIONS,
        cache_grid=SWEEP_GRID_SMOKE if smoke else SWEEP_GRID,
        jobs=jobs,
    )
    return {"engine": engine, "sweep": sweep}


def write_bench(payload: Dict[str, Any], path: str) -> str:
    """Atomically write a benchmark *payload* as pretty JSON (temp
    file + ``os.replace``); returns *path*."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    temp = f"{path}.tmp.{os.getpid()}"
    with open(temp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(temp, path)
    return path


def append_history(
    suite: Dict[str, Dict[str, Any]], directory: str
) -> str:
    """Append every payload of *suite* to the directory's
    ``BENCH_history.ndjson`` trajectory file; returns the path.

    Each line is a self-contained, schema-versioned record — kind,
    git SHA, timestamp and the payload's result metrics — so the
    analysis dashboard (docs/ANALYSIS.md) can plot throughput over
    revisions instead of only comparing against the latest baseline
    pair.  Lines are single flushed ``write()`` calls: a crash can at
    worst tear the final line, which the loader skips.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, BENCH_HISTORY_FILE)
    with open(path, "a", encoding="utf-8") as handle:
        for kind in sorted(suite):
            payload = suite[kind]
            manifest = payload.get("manifest", {})
            line = {
                "schema": BENCH_HISTORY_SCHEMA,
                "kind": payload.get("kind", kind),
                "t_s": time.time(),
                "git_sha": manifest.get("git_sha"),
                "results": payload.get("results", {}),
            }
            handle.write(json.dumps(line, sort_keys=True) + "\n")
            handle.flush()
    return path


def load_bench(path: str) -> Dict[str, Any]:
    """Read a benchmark payload back, validating its schema stamp."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    schema = payload.get("schema")
    if schema != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench schema {schema!r} (expected {BENCH_SCHEMA!r})"
        )
    return payload


def gate(
    current: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.10,
) -> List[str]:
    """Compare *current* against *baseline*; returns the violations.

    Every ``*_per_s`` metric of every baseline result entry must
    satisfy ``current >= baseline × (1 - tolerance)``; a missing entry
    or metric is itself a violation.  A sweep payload whose manifest
    records fallback cells (``engine_classes.fallback > 0``) also
    fails: every paper-figure cell must run inside the fast engine's
    closed matrix.  An empty return means the gate passes.
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    violations: List[str] = []
    extra = current.get("manifest", {}).get("extra") or {}
    classes = extra.get("engine_classes")
    if classes and classes.get("fallback", 0) > 0:
        labels = ", ".join(
            f"{cell['label']} ({cell['reason']})"
            for cell in extra.get("fallback_cells", [])
        )
        violations.append(
            f"engine_classes.fallback: {classes['fallback']} sweep cell(s) "
            f"fell back to the reference engine"
            + (f": {labels}" if labels else "")
        )
    current_results = current.get("results", {})
    for label in sorted(baseline.get("results", {})):
        base_metrics = baseline["results"][label]
        cur_metrics = current_results.get(label)
        if cur_metrics is None:
            violations.append(f"{label}: missing from current benchmark results")
            continue
        for metric in sorted(base_metrics):
            if not metric.endswith("_per_s"):
                continue
            base_value = base_metrics[metric]
            cur_value = cur_metrics.get(metric)
            if cur_value is None:
                violations.append(f"{label}.{metric}: missing from current results")
                continue
            floor = base_value * (1.0 - tolerance)
            if cur_value < floor:
                slowdown = 100.0 * (1.0 - cur_value / base_value)
                violations.append(
                    f"{label}.{metric}: {cur_value:,.0f} < floor {floor:,.0f} "
                    f"({slowdown:.1f}% below baseline {base_value:,.0f})"
                )
    return violations
