"""Command-line interface: regenerate any table/figure of the paper.

Examples::

    python -m repro.harness table1
    python -m repro.harness fig5 --instructions 500000
    python -m repro.harness list
    python -m repro.harness all --out results/ --jobs 4
    python -m repro.harness attribute --smoke --attr-dir results/
    repro-harness fig7 --programs gcc cfront --telemetry run.ndjson
    python -m repro.harness fig5 --store results/store.sqlite --jobs 4
    python -m repro.harness serve --store results/store.sqlite --port 8787
    python -m repro.harness store stats --store results/store.sqlite
    python -m repro.harness store gc --store results/store.sqlite --gc-keep 500
    python -m repro.harness jobs list --store results/store.sqlite
    python -m repro.harness jobs cancel job-abc123 --store results/store.sqlite
    python -m repro.harness fig5 --seed 7 --out exports/seed7 --formats json
    python -m repro.harness analyze --exports exports/base exports/head --gate
    python -m repro.harness ingest --trace server.champsim.gz
    python -m repro.harness replay --trace trace.cbp --engine fast
    python -m repro.harness replay --programs server-frontend server-leaf

``list`` prints every registered experiment with its simulation cell
count (computed by materialising the plans — no simulation runs) and
the cross-experiment dedup total.  Every experiment run takes one
path: the requested experiments' plans are pooled into one
deduplicated run plan and executed by
:func:`repro.harness.spec.run_plans`.  ``--jobs N`` selects its
backend: 1 (the default) is the in-process serial backend, any other
value the multiprocessing backend (0 = one worker per CPU).  Cells run
on the vectorised replay engine (:mod:`repro.fetch.fast_engine`) by
default; ``--engine reference`` selects the per-branch reference loop,
the oracle the fast engine's reports are checked against.  Configs
outside the fast engine's matrix fall back to the reference loop with
the reason stamped in the run manifest.

``attribute`` runs attribution-enabled cells (see DESIGN.md §11) and
renders per-cause / per-site penalty profiles: ``ATTRIBUTION.md``
(top-K hot-offender tables whose BEP column decomposes the report's
BEP exactly) and ``ATTRIBUTION.json`` under ``--attr-dir``.  It also
audits cause conservation and exits non-zero on any violation.

``--telemetry FILE`` enables the telemetry registry for the run and
writes the recorded counters, timers, histograms and spans to *FILE*
as NDJSON (one event per line — DESIGN.md §10 documents the schema);
``--chrome-trace FILE`` renders the same run's spans as Chrome
trace-event JSON for ``about:tracing`` / Perfetto.  Both flags share
one registry, so they compose with every subcommand.

The resilience flags (DESIGN.md §12) turn failures from fatal into
managed: ``--max-retries`` and ``--cell-timeout`` bound each cell's
attempts and wall time; a cell that still fails is *quarantined* —
the sweep finishes, a ``FAILURES.json`` manifest (in ``--out``, or
the working directory) names the cell, and the exit status is
non-zero.  ``--store PATH`` writes every cell to the result store as
it completes, so re-running an aborted sweep with the same store
simulates only what had not finished.  ``--faults FILE`` arms the
deterministic fault-injection plan in :mod:`repro.testing.faults`
(used by the CI chaos-smoke job).

The service flags (docs/SERVICE.md) wire the harness to the
:mod:`repro.service` subsystem: ``--store PATH`` makes any experiment
run store-aware — cells already in the content-addressed result store
are served without simulation and fresh results are written back;
``serve`` starts the simulation service (async HTTP API + sharded job
queue, durable job registry, lease-based multi-replica recovery)
against that store — hardened via ``--keys`` / ``--rate`` /
``--max-queue`` / ``--max-inflight-jobs`` / ``--max-inflight-cells``
/ ``--read-timeout`` / ``--lease``; ``store stats`` / ``store gc`` /
``store verify`` administer the store itself, and ``jobs list`` /
``jobs cancel <id>`` administer the durable job registry (cancel
works offline — the owning replica polls the flag).

The analysis flags (docs/ANALYSIS.md) drive the cross-run reporting
layer: ``--seed N`` pins every cell's trace seed so repeated runs
produce independent seeded export sets, and ``analyze`` loads export
sets (``--exports DIR...``) and/or the result store, runs the
statistical baseline-vs-current comparison, renders the regression
dashboard (``--out`` / ``--format html|md``) and — with a bare
``--gate`` — exits non-zero on any significant regression.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys
import time
from typing import Callable, List, Optional

from repro.harness.config import ENGINES, FRONTENDS
from repro.harness.experiments import SPECS, ExperimentResult
from repro.harness.runner import (
    ExecutionPolicy,
    RunPlan,
    resolve_worker_count,
    validate_worker_count,
)
from repro.harness.spec import run_plans, with_engine
from repro.harness.tables import format_seconds, format_table
from repro.telemetry.core import Registry, use
from repro.telemetry.sinks import write_chrome_trace, write_events
from repro.testing.faults import FAULTS_ENV_VAR
from repro.workloads.ingest import EXTERNAL_DIR_ENV_VAR
from repro.workloads.profiles import PROFILES, paper_programs


def _jobs_value(text: str) -> int:
    """``--jobs`` validator: a clean one-line error instead of a
    traceback for non-integers and negatives (0 stays 'one per CPU').

    Delegates to :func:`repro.harness.runner.validate_worker_count`,
    the same resolver the service applies to a job spec's ``jobs``
    field, so CLI and HTTP submissions reject identical inputs with
    identical messages."""
    try:
        return validate_worker_count(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _program_value(text: str) -> str:
    """``--programs`` validator: a registered profile name or an
    ingested ``external:<sha256>`` trace key (docs/TRACES.md)."""
    from repro.workloads.ingest import is_external

    if text in PROFILES or is_external(text):
        return text
    raise argparse.ArgumentTypeError(
        f"unknown program {text!r}: expected one of "
        f"{', '.join(sorted(PROFILES))}, or an ingested "
        f"'external:<sha256>' trace key (see 'ingest --trace FILE')"
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Regenerate the tables and figures of Calder & Grunwald, "
            "'Next Cache Line and Set Prediction' (ISCA 1995)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(SPECS)
        + [
            "all",
            "analyze",
            "attribute",
            "ingest",
            "jobs",
            "list",
            "serve",
            "store",
        ],
        help=(
            "which table/figure to regenerate ('all' runs everything, "
            "'list' shows the registry with per-experiment cell counts, "
            "'attribute' renders per-cause/"
            "per-site penalty profiles, 'analyze' renders the cross-run "
            "regression dashboard from export sets, 'ingest' imports "
            "external branch traces into the corpus (docs/TRACES.md), "
            "'serve' starts the simulation service HTTP API, 'store' "
            "administers the result store, 'jobs' administers the "
            "durable job registry)"
        ),
    )
    parser.add_argument(
        "subaction",
        nargs="?",
        default=None,
        help=(
            "'store': stats (default), gc, or verify — see the store "
            "options group; 'jobs': list (default) or cancel"
        ),
    )
    parser.add_argument(
        "target",
        nargs="?",
        default=None,
        help="'jobs cancel' only: the job id to cancel",
    )
    parser.add_argument(
        "--programs",
        nargs="+",
        type=_program_value,
        metavar="PROGRAM",
        default=None,
        help=(
            "restrict to a subset of workloads: any profile name "
            "(the six paper programs plus server-frontend/server-leaf) "
            "or an ingested 'external:<sha256>' trace key"
        ),
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="trace length override (default: each profile's calibrated length)",
    )
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="fast",
        help=(
            "simulation engine: 'fast' (the vectorised replay, "
            "default; configs outside its supported matrix fall back "
            "to the reference engine, recorded in the run manifest) "
            "or 'reference' (the per-branch Python loop — identical "
            "reports, the oracle the fast engine is checked against)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help=(
            "generate every trace with seed N (default: each "
            "profile's calibrated seed) — repeated runs with different "
            "seeds produce the independent seeded export sets 'analyze' "
            "compares"
        ),
    )
    parser.add_argument(
        "--jobs",
        type=_jobs_value,
        default=1,
        help=(
            "worker processes: 1 = serial in-process (default), "
            "0 = one per CPU, N = a pool of N (both via the 'process' "
            "backend; values above the CPU count warn and clamp)"
        ),
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory to write result files into",
    )
    parser.add_argument(
        "--formats",
        nargs="+",
        choices=("txt", "json", "csv"),
        default=("txt",),
        help="output formats for --out (default: txt)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="FILE",
        default=None,
        help=(
            "enable the telemetry registry for the run and write the "
            "recorded events to FILE as NDJSON (one event per line)"
        ),
    )
    parser.add_argument(
        "--chrome-trace",
        metavar="FILE",
        default=None,
        help=(
            "enable the telemetry registry for the run and write its "
            "spans to FILE as Chrome trace-event JSON "
            "(about:tracing / Perfetto)"
        ),
    )
    resilience = parser.add_argument_group(
        "resilience options (DESIGN.md §12)"
    )
    resilience.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help=(
            "retries per cell before quarantine (default 2 once any "
            "resilience flag is active; deterministic failures — the "
            "same exception twice — quarantine immediately)"
        ),
    )
    resilience.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-cell deadline; an overrunning cell fails and retries",
    )
    resilience.add_argument(
        "--faults",
        metavar="FILE",
        default=None,
        help=(
            "arm the deterministic fault-injection plan in FILE "
            "(see repro.testing.faults; chaos testing only)"
        ),
    )
    service = parser.add_argument_group("service options (docs/SERVICE.md)")
    service.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help=(
            "content-addressed result store (SQLite): experiment runs "
            "serve cached cells from it and persist each fresh cell as "
            "it completes, so re-running a killed sweep resumes it; "
            "'serve' and 'store' default to ./repro-store.sqlite when "
            "this flag is omitted"
        ),
    )
    service.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve: interface to bind (default: 127.0.0.1)",
    )
    service.add_argument(
        "--port",
        type=int,
        default=8787,
        help="serve: TCP port to bind; 0 picks an ephemeral port "
        "(default: 8787)",
    )
    service.add_argument(
        "--concurrency",
        type=int,
        default=2,
        metavar="N",
        help="serve: scheduler threads running jobs in parallel "
        "(default: 2)",
    )
    service.add_argument(
        "--keys",
        metavar="KEYFILE",
        default=None,
        help="serve: require 'Authorization: Bearer <key>' on every "
        "/api/v1 request, validated against this repro-keys/v1 JSON "
        "keyfile (docs/SERVICE.md)",
    )
    service.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="serve: shed submissions with 429 + Retry-After once N "
        "jobs are queued (default: unbounded)",
    )
    service.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="R",
        help="serve: default per-client token-bucket refill, "
        "requests/second (default: unlimited)",
    )
    service.add_argument(
        "--burst",
        type=int,
        default=10,
        metavar="N",
        help="serve: token-bucket burst capacity (default: 10)",
    )
    service.add_argument(
        "--max-inflight-jobs",
        type=int,
        default=None,
        metavar="N",
        help="serve: per-client cap on jobs in flight (default: "
        "unlimited)",
    )
    service.add_argument(
        "--max-inflight-cells",
        type=int,
        default=None,
        metavar="N",
        help="serve: per-client cap on cells in flight (default: "
        "unlimited)",
    )
    service.add_argument(
        "--read-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="serve: per-request read deadline; slow requests get 408 "
        "(default: none)",
    )
    service.add_argument(
        "--lease",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="serve: job-lease duration — a replica silent this long "
        "forfeits its jobs to peers (default: 15)",
    )
    store_group = parser.add_argument_group("store options")
    store_group.add_argument(
        "--gc-max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="store gc: drop entries neither written nor hit within "
        "SECONDS",
    )
    store_group.add_argument(
        "--gc-keep",
        type=int,
        default=None,
        metavar="N",
        help="store gc: after any age pruning, keep only the N most "
        "recently hit entries",
    )
    store_group.add_argument(
        "--fix",
        action="store_true",
        help="store verify: delete corrupt entries instead of only "
        "reporting them",
    )
    analyze = parser.add_argument_group("analyze options (docs/ANALYSIS.md)")
    analyze.add_argument(
        "--exports",
        nargs="+",
        metavar="DIR",
        default=None,
        help=(
            "analyze: export-set directories to load (each written by "
            "'--out DIR --formats json'; the EXPORTS.json manifest "
            "provides set-level provenance)"
        ),
    )
    analyze.add_argument(
        "--baseline",
        metavar="REF",
        default=None,
        help=(
            "analyze: which export set is the comparison baseline — a "
            "set label or one of the --exports directories (default: "
            "the first --exports directory)"
        ),
    )
    analyze.add_argument(
        "--format",
        choices=("html", "md"),
        default="html",
        help="analyze: dashboard format (default: html)",
    )
    analyze.add_argument(
        "--alpha",
        type=float,
        default=0.05,
        help=(
            "analyze: significance level for the BH-corrected verdicts "
            "(default: 0.05)"
        ),
    )
    analyze.add_argument(
        "--gate",
        action="store_true",
        help=(
            "analyze: exit non-zero on any statistically significant "
            "regression in the verdict table"
        ),
    )
    analyze.add_argument(
        "--min-effect",
        type=float,
        default=0.005,
        metavar="FRACTION",
        help=(
            "analyze: relative differences at or below this fraction "
            "never gate, however significant (default: 0.005)"
        ),
    )
    ingest_group = parser.add_argument_group("ingest options (docs/TRACES.md)")
    ingest_group.add_argument(
        "--trace",
        action="append",
        metavar="FILE",
        default=None,
        help=(
            "external branch-trace file to ingest (repeatable; "
            "ChampSim-style binary or CBP-style text, gzip/xz "
            "transparent).  With 'ingest' the file is imported and its "
            "'external:<sha256>' key printed; with an experiment, the "
            "ingested trace joins that experiment's --programs roster"
        ),
    )
    ingest_group.add_argument(
        "--trace-format",
        choices=("auto", "champsim", "cbp"),
        default="auto",
        help=(
            "format of the --trace files (default: auto — sniffed from "
            "the decompressed magic bytes, never from the file name)"
        ),
    )
    ingest_group.add_argument(
        "--trace-dir",
        metavar="DIR",
        default=None,
        help=(
            "external-trace store directory (default: "
            "$REPRO_EXTERNAL_TRACE_DIR or ./external-traces)"
        ),
    )
    attribute = parser.add_argument_group("attribute options")
    attribute.add_argument(
        "--smoke",
        action="store_true",
        help="attribute: shrink every budget so the run finishes in seconds",
    )
    attribute.add_argument(
        "--frontends",
        nargs="+",
        choices=FRONTENDS,
        default=("nls-table", "btb"),
        help="attribute: front-ends to profile (default: nls-table btb)",
    )
    attribute.add_argument(
        "--top",
        type=int,
        default=10,
        help="attribute: hot-offender sites to rank (default: 10)",
    )
    attribute.add_argument(
        "--attr-sample",
        type=int,
        default=64,
        help=(
            "attribute: keep every Nth penalty event in the sampled "
            "ring (default: 64)"
        ),
    )
    attribute.add_argument(
        "--attr-dir",
        default=".",
        metavar="DIR",
        help=(
            "attribute: directory for ATTRIBUTION.md / ATTRIBUTION.json "
            "(default: cwd)"
        ),
    )
    return parser


def _experiment_kwargs(function, args: argparse.Namespace) -> dict:
    """CLI overrides (``--programs``/``--instructions``/``--seed``)
    accepted by the plan builder *function*."""
    parameters = inspect.signature(function).parameters
    return {
        knob: getattr(args, knob)
        for knob in ("programs", "instructions", "seed")
        if knob in parameters and getattr(args, knob) is not None
    }


def _list_experiments(args: argparse.Namespace) -> int:
    """``list`` subcommand: registry with cell counts and dedup totals."""
    pooled = RunPlan()
    rows = []
    for name in sorted(SPECS):
        spec = SPECS[name]
        plan = spec.plan(**_experiment_kwargs(spec.build, args))
        pooled.add_all(plan.cells)
        rows.append((name, len(plan.cells), spec.summary))
    print(format_table(["experiment", "cells", "summary"], rows))
    print()
    print(
        f"{len(rows)} experiments; {pooled.requested} simulation cells "
        f"requested, {pooled.unique} unique after cross-experiment dedup "
        f"({pooled.requested - pooled.unique} shared)."
    )
    return 0


def _write(result: ExperimentResult, args: argparse.Namespace) -> None:
    if args.out:
        from repro.harness.export import write_result

        write_result(result, args.out, formats=tuple(args.formats))


def _write_export_manifest(names: List[str], args: argparse.Namespace) -> None:
    """Stamp the ``--out`` directory's ``EXPORTS.json`` set manifest
    (experiments + seed/engine/git provenance) after a run's exports,
    making the directory a self-describing ``analyze`` export set."""
    if not args.out:
        return
    from repro.harness.export import write_export_manifest

    path = write_export_manifest(
        args.out,
        names,
        seed=args.seed,
        engine=args.engine,
        instructions=args.instructions,
        programs=args.programs,
    )
    print(f"[export manifest -> {path}]")


def _analysis_set_for_directory(frame, directory: str) -> Optional[str]:
    """The set label *directory*'s rows were loaded under (``None``
    when the directory contributed no rows to *frame*)."""
    target = os.path.normpath(directory)
    for row in frame.rows:
        source = row.get("source") or ""
        if source and os.path.normpath(os.path.dirname(source)) == target:
            return row["set"]
    return None


def _run_analyze(args: argparse.Namespace) -> int:
    """``analyze`` subcommand: the cross-run regression dashboard.

    Loads the requested export sets (and/or the result store) into one
    tidy :class:`~repro.analysis.results.ResultFrame`, runs the
    baseline-vs-current statistical comparison, renders the dashboard
    into ``--out`` and — with a bare ``--gate`` — exits non-zero when
    any metric's verdict is *regressed* (docs/ANALYSIS.md)."""
    from repro.analysis.rendering import render_dashboard
    from repro.analysis.results import load_export_sets, load_store
    from repro.analysis.stat_tests import compare
    from repro.analysis.stat_tests import gate as verdict_gate

    directories = list(args.exports or [])
    for directory in directories:
        if not os.path.isdir(directory):
            print(f"analyze: export directory {directory} does not exist")
            return 2
    frame = load_export_sets(directories)
    if args.store is not None:
        if not os.path.exists(args.store):
            print(f"analyze: store {args.store} does not exist")
            return 2
        frame.extend(load_store(args.store))
    # sets in load order: --exports order, then the store label
    ordered: List[str] = []
    for row in frame.rows:
        if row["set"] not in ordered:
            ordered.append(row["set"])
    if len(ordered) < 2:
        print(
            f"analyze: need at least two result sets to compare, got "
            f"{len(ordered)} ({', '.join(ordered) or 'none'}) — pass two "
            f"--exports directories (each written with --formats json)"
        )
        return 2
    if args.baseline is None:
        baseline = ordered[0]
    elif args.baseline in ordered:
        baseline = args.baseline
    else:
        resolved = _analysis_set_for_directory(frame, args.baseline)
        if resolved is None:
            print(
                f"analyze: --baseline {args.baseline!r} matches no set "
                f"label or --exports directory (sets: {', '.join(ordered)})"
            )
            return 2
        baseline = resolved
    current = [label for label in ordered if label != baseline][-1]
    verdicts = compare(
        frame,
        baseline,
        current,
        alpha=args.alpha,
        min_rel_effect=args.min_effect,
    )
    out_dir = args.out or "analysis-report"
    written = render_dashboard(frame, verdicts, out_dir, fmt=args.format)
    counts = verdicts["counts"]
    print(
        f"analyze: {len(frame)} rows across {len(ordered)} set(s); "
        f"{baseline!r} vs {current!r}: "
        + ", ".join(f"{counts[key]} {key}" for key in sorted(counts))
    )
    for path in written:
        print(f"  -> {path}")
    if args.gate:
        violations = verdict_gate(verdicts)
        if violations:
            print(f"gate FAILED (alpha {args.alpha:g}):")
            for violation in violations:
                print(f"  REGRESSION {violation}")
            return 1
        print(f"gate passed (alpha {args.alpha:g})")
    return 0


def _build_policy(args: argparse.Namespace) -> Optional[ExecutionPolicy]:
    """The run's :class:`ExecutionPolicy`, or ``None`` when no
    resilience flag is active (bit-identical legacy behaviour)."""
    active = (
        args.max_retries is not None
        or args.cell_timeout is not None
        or args.faults is not None
    )
    if not active:
        return None
    return ExecutionPolicy(
        max_retries=2 if args.max_retries is None else args.max_retries,
        cell_timeout=args.cell_timeout,
    )


def _report_failures(plan: RunPlan, args: argparse.Namespace) -> int:
    """Write ``FAILURES.json`` and print the quarantine summary;
    returns the process exit status (non-zero when cells failed)."""
    if not plan.failures:
        return 0
    from repro.harness.export import write_failures

    path = write_failures(args.out or ".", plan.failures.values())
    print(f"QUARANTINED {len(plan.failures)} cell(s); manifest -> {path}")
    for failure in plan.failures.values():
        request = failure.request
        print(
            f"  {request.config.label()} / {request.program}: "
            f"{failure.error_type}: {failure.message} "
            f"[{failure.kind} after {failure.attempts} attempt(s)]"
        )
    return 1


def _run_attribute(args: argparse.Namespace) -> int:
    """``attribute`` subcommand: run attribution-enabled cells, render
    the per-cause / per-site profiles, audit conservation."""
    from repro.analysis import attribution as analysis_module
    from repro.harness.config import ArchitectureConfig
    from repro.harness.runner import RunRequest

    programs = list(
        args.programs
        if args.programs is not None
        else (("li", "espresso") if args.smoke else paper_programs())
    )
    instructions = args.instructions
    if instructions is None and args.smoke:
        instructions = 50_000
    plan = RunPlan(
        RunRequest(
            config=ArchitectureConfig(
                frontend=frontend,
                attribution=True,
                attribution_sample=args.attr_sample,
                engine=args.engine,
            ),
            program=program,
            instructions=instructions,
        )
        for frontend in args.frontends
        for program in programs
    )
    backend = "serial" if args.jobs == 1 else "process"
    jobs = None if args.jobs < 1 else args.jobs
    reports = plan.execute(backend=backend, jobs=jobs, policy=_build_policy(args))
    profiles = []
    violations: List[str] = []
    for request in plan.requests:
        if request in plan.failures:
            continue  # quarantined cells are reported separately
        report = reports[request]
        violations.extend(
            f"{report.label} / {report.program}: {error}"
            for error in analysis_module.conservation_errors(report)
        )
        profiles.append(analysis_module.fold_attribution(report, top_k=args.top))
    markdown = analysis_module.render_markdown(profiles)
    print(markdown)
    os.makedirs(args.attr_dir, exist_ok=True)
    markdown_path = os.path.join(args.attr_dir, "ATTRIBUTION.md")
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(markdown)
    payload_path = os.path.join(args.attr_dir, "ATTRIBUTION.json")
    analysis_module.write_payload(payload_path, profiles)
    print(
        f"[attribute: {len(profiles)} profiles -> "
        f"{markdown_path}, {payload_path}]"
    )
    failure_status = _report_failures(plan, args)
    if violations:
        print("attribution conservation FAILED:")
        for violation in violations:
            print(f"  {violation}")
        return 1
    return failure_status


def _ingest_traces(args: argparse.Namespace) -> List[str]:
    """Ingest every ``--trace`` file into the external-trace store.

    Returns the ``external:<sha256>`` corpus keys in ``--trace``
    order.  Raises ``SystemExit(2)`` with a one-line actionable error
    — never a traceback — when a file is unreadable, malformed, or in
    an unsupported format (the docs/TRACES.md error contract).
    """
    from repro.workloads.formats import TraceFormatError
    from repro.workloads.ingest import (
        external_trace_dir,
        ingest_and_store,
    )
    from repro.workloads.stats import footprint

    names: List[str] = []
    for path in args.trace:
        try:
            trace, name = ingest_and_store(
                path, fmt=args.trace_format, directory=args.trace_dir
            )
        except TraceFormatError as exc:
            print(f"ingest: {exc}")
            raise SystemExit(2) from None
        except OSError as exc:
            reason = exc.strerror or str(exc)
            print(
                f"ingest: cannot read {path}: {reason} — check the path "
                f"and permissions"
            )
            raise SystemExit(2) from None
        except ValueError as exc:
            print(f"ingest: {path}: {exc}")
            raise SystemExit(2) from None
        fp = footprint(trace)
        print(
            f"ingested {path} -> {name}\n"
            f"  {trace.n_events:,} events, {trace.n_instructions:,} "
            f"instructions, {fp.code_bytes_touched / 1024:.0f} KB code "
            f"touched, {fp.distinct_branch_sites:,} branch sites\n"
            f"  stored in {external_trace_dir(args.trace_dir)}/"
        )
        names.append(name)
    return names


def _check_external_programs(args: argparse.Namespace) -> None:
    """Fail fast on unusable ``external:`` program keys.

    A malformed key or one missing from the external-trace store
    would otherwise surface as a traceback from deep inside a sweep;
    checking here keeps the docs/TRACES.md one-line error contract.
    Raises ``SystemExit(2)``."""
    from repro.workloads.ingest import external_trace_path, is_external

    for name in args.programs or ():
        if not is_external(name):
            continue
        try:
            path = external_trace_path(name, args.trace_dir)
        except ValueError as exc:
            print(f"ingest: {exc}")
            raise SystemExit(2) from None
        if not os.path.exists(path):
            print(
                f"ingest: no stored trace for {name} (expected "
                f"{path}); ingest it with 'python -m repro.harness "
                f"ingest --trace FILE' or point {EXTERNAL_DIR_ENV_VAR} "
                f"at the store that has it"
            )
            raise SystemExit(2)


def _run_ingest(args: argparse.Namespace) -> int:
    """``ingest`` subcommand: import external traces into the corpus.

    Each ``--trace`` file is parsed, normalised, digest-named and
    stored; the printed ``external:<sha256>`` keys are accepted
    anywhere a program name is — ``--programs``, service job specs,
    ``replay`` cells (docs/TRACES.md)."""
    names = _ingest_traces(args)
    print(
        f"\n{len(names)} trace(s) ready; replay with\n"
        f"  python -m repro.harness replay --programs "
        + " ".join(names)
    )
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``serve`` subcommand: start the simulation service HTTP API.

    Builds the result store (plus its durable job registry), a
    :class:`~repro.service.scheduler.JobScheduler` honouring the
    shared ``--jobs`` / resilience flags, and the admission layer when
    any of ``--keys`` / ``--rate`` / ``--max-queue`` /
    ``--max-inflight-*`` is given, then blocks serving HTTP until
    interrupted (docs/SERVICE.md).  SIGTERM drains gracefully —
    running jobs return to the registry for any replica to finish."""
    from repro.service.admission import (
        AdmissionController,
        ClientQuota,
        Keyring,
    )
    from repro.service.api import serve
    from repro.service.scheduler import JobScheduler
    from repro.service.store import DEFAULT_STORE_NAME, ResultStore
    from repro.telemetry.core import get_registry, set_registry

    if not get_registry().enabled:
        # /metrics scrapes the active registry; without an enabled one
        # every counter would read as a permanent zero
        set_registry(Registry(enabled=True))
    store = ResultStore(args.store or DEFAULT_STORE_NAME)
    backend = "serial" if args.jobs == 1 else "process"
    jobs = None if args.jobs < 1 else args.jobs
    admission = None
    gated = (
        args.keys is not None
        or args.max_queue is not None
        or args.rate is not None
        or args.max_inflight_jobs is not None
        or args.max_inflight_cells is not None
    )
    if gated:
        keyring = None
        if args.keys is not None:
            try:
                keyring = Keyring.load(args.keys)
            except (OSError, ValueError, KeyError) as exc:
                print(f"serve: cannot load --keys {args.keys}: {exc}")
                return 2
        admission = AdmissionController(
            keyring=keyring,
            default_quota=ClientQuota(
                rate=args.rate,
                burst=args.burst,
                max_jobs=args.max_inflight_jobs,
                max_cells=args.max_inflight_cells,
            ),
            max_queue=args.max_queue,
        )
    scheduler = JobScheduler(
        store,
        backend=backend,
        jobs=jobs,
        concurrency=max(1, args.concurrency),
        policy=_build_policy(args),
        admission=admission,
        lease_s=args.lease,
    )
    print(f"result store: {store.path}", flush=True)
    print(f"replica: {scheduler.owner}", flush=True)
    try:
        serve(
            scheduler,
            host=args.host,
            port=args.port,
            read_timeout=args.read_timeout,
        )
    finally:
        store.close()
    return 0


def _run_jobs(args: argparse.Namespace) -> int:
    """``jobs`` subcommand: administer the durable job registry.

    ``list`` tabulates every registry row (any replica's — the
    registry lives in the shared store file); ``cancel <job-id>`` sets
    the durable cancel flag, which the owning replica's scheduler
    polls between cells.  Both work against the store file directly,
    with no running service required."""
    from repro.service.registry import JobRegistry
    from repro.service.store import DEFAULT_STORE_NAME

    path = args.store or DEFAULT_STORE_NAME
    if not os.path.exists(path):
        print(f"store {path} does not exist")
        return 1
    registry = JobRegistry(path)
    try:
        if args.subaction == "cancel":
            if registry.request_cancel(args.target):
                print(f"cancel requested for {args.target}")
                return 0
            row = registry.get(args.target)
            if row is None:
                print(f"unknown job {args.target!r}")
            else:
                print(f"job {args.target} is already {row['state']}")
            return 1
        rows = [
            (
                row["job_id"],
                row["state"] + ("*" if row["cancel_requested"] else ""),
                row["name"],
                str(row["cells"]),
                str(row["events"]),
                row["owner"] or "-",
                row["client"] or "-",
            )
            for row in registry.list_jobs()
        ]
        if not rows:
            print("no jobs in the registry")
            return 0
        print(
            format_table(
                ["job", "state", "name", "cells", "events", "owner", "client"],
                rows,
            )
        )
        return 0
    finally:
        registry.close()


def _run_store(args: argparse.Namespace) -> int:
    """``store`` subcommand: administer the result store.

    ``stats`` prints the store statistics, ``gc`` prunes by age and/or
    count (``--gc-max-age`` / ``--gc-keep``), ``verify`` re-checksums
    every payload (``--fix`` deletes corrupt rows) and exits non-zero
    when corruption was found and left in place."""
    from repro.service.store import DEFAULT_STORE_NAME, ResultStore

    path = args.store or DEFAULT_STORE_NAME
    if not os.path.exists(path):
        print(f"store {path} does not exist")
        return 1
    store = ResultStore(path)
    try:
        if args.subaction == "stats":
            stats = store.stats()
            rows = [
                (key, str(stats[key]))
                for key in (
                    "path",
                    "entries",
                    "total_hits",
                    "payload_bytes",
                    "db_bytes",
                    "programs",
                    "configs",
                )
            ]
            print(format_table(["statistic", "value"], rows))
            return 0
        if args.subaction == "gc":
            outcome = store.gc(max_age_s=args.gc_max_age, keep=args.gc_keep)
            print(
                f"store gc: removed {outcome['removed']} entr(ies), "
                f"{outcome['kept']} kept"
            )
            return 0
        outcome = store.verify(fix=args.fix)
        status = "OK" if not outcome["corrupt"] else "FAILED"
        print(
            f"store verify {status}: {outcome['checked']} entr(ies) "
            f"checked, {len(outcome['corrupt'])} corrupt, "
            f"{outcome['removed']} removed"
        )
        for entry in outcome["corrupt"]:
            print(
                f"  CORRUPT cell={entry['cell_key']} "
                f"reason={entry.get('reason', 'checksum-mismatch')}"
            )
        return 0 if outcome["ok"] or args.fix else 1
    finally:
        store.close()


def _with_telemetry(
    args: argparse.Namespace, body: Callable[[argparse.Namespace], int]
) -> int:
    """Shared ``--telemetry`` / ``--chrome-trace`` wiring: when either
    flag is set, run *body* under one enabled registry and dump the
    recorded events to the requested sinks; otherwise run *body* bare.
    Every subcommand (experiments, ``attribute``, ``analyze``) goes
    through here, so the flags compose uniformly."""
    if not args.telemetry and not args.chrome_trace:
        return body(args)
    registry = Registry(enabled=True)
    with use(registry):
        status = body(args)
    events = list(registry.events())
    if args.telemetry:
        count = write_events(args.telemetry, events)
        print(f"[telemetry: {count} events -> {args.telemetry}]")
    if args.chrome_trace:
        count = write_chrome_trace(args.chrome_trace, events)
        print(f"[chrome-trace: {count} spans -> {args.chrome_trace}]")
    return status


def _validate_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """Cross-flag validation: one-line errors, never a traceback."""
    if args.faults is not None and not os.path.exists(args.faults):
        parser.error(f"--faults plan file not found: {args.faults}")
    if args.instructions is not None and args.instructions < 1:
        parser.error(f"--instructions must be >= 1, got {args.instructions}")
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    for flag, value in (
        ("--gc-max-age", args.gc_max_age),
        ("--gc-keep", args.gc_keep),
    ):
        if value is not None and value < 0:
            parser.error(f"{flag} must be >= 0, got {value:g}")
    if args.cell_timeout is not None and args.cell_timeout <= 0:
        parser.error(
            f"--cell-timeout must be positive, got {args.cell_timeout}"
        )
    if args.experiment == "analyze" and not args.exports and args.store is None:
        parser.error("analyze requires --exports DIR... and/or --store")
    if args.experiment == "ingest" and not args.trace:
        parser.error("ingest requires at least one --trace FILE")
    if args.experiment == "store":
        if args.subaction is None:
            args.subaction = "stats"
        if args.subaction not in ("stats", "gc", "verify"):
            parser.error(
                f"store action must be stats, gc or verify, "
                f"got {args.subaction!r}"
            )
    elif args.experiment == "jobs":
        if args.subaction is None:
            args.subaction = "list"
        if args.subaction not in ("list", "cancel"):
            parser.error(
                f"jobs action must be list or cancel, got {args.subaction!r}"
            )
        if args.subaction == "cancel" and args.target is None:
            parser.error("jobs cancel requires a job id")
        if args.subaction == "list" and args.target is not None:
            parser.error("jobs list takes no job id")
    elif args.subaction is not None:
        parser.error(
            f"{args.experiment!r} takes no sub-action "
            f"(got {args.subaction!r})"
        )
    if args.experiment not in ("jobs",) and args.target is not None:
        parser.error(
            f"{args.experiment!r} takes no target (got {args.target!r})"
        )
    if args.jobs > 0:
        # shared resolver with the service (warns + clamps above the
        # CPU count); 0 stays 0 = "one worker per CPU" downstream
        args.jobs = resolve_worker_count(args.jobs)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``repro-harness`` / ``python -m repro.harness``."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    _validate_args(parser, args)
    # --faults and --trace-dir reach cells (and forked pool workers)
    # through the environment, so both are exported *before* any pool
    # spawns (repro.testing.faults.active_plan, corpus resolution) and
    # restored afterwards, so an in-process caller keeps its own
    exported = {
        name: value
        for name, value in (
            (FAULTS_ENV_VAR, args.faults),
            (EXTERNAL_DIR_ENV_VAR, args.trace_dir),
        )
        if value is not None
    }
    previous = {name: os.environ.get(name) for name in exported}
    os.environ.update(exported)
    try:
        return _with_telemetry(args, _dispatch)
    finally:
        for name, value in previous.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _dispatch(args: argparse.Namespace) -> int:
    """Route the parsed arguments to the right subcommand body."""
    if args.experiment == "ingest":
        return _run_ingest(args)
    if args.trace:
        # --trace alongside an experiment: ingest first, then run the
        # experiment with the ingested keys joining the roster
        names = _ingest_traces(args)
        args.programs = (args.programs or []) + names
    _check_external_programs(args)
    if args.experiment == "list":
        return _list_experiments(args)
    if args.experiment == "analyze":
        return _run_analyze(args)
    if args.experiment == "attribute":
        return _run_attribute(args)
    if args.experiment == "serve":
        return _run_serve(args)
    if args.experiment == "store":
        return _run_store(args)
    if args.experiment == "jobs":
        return _run_jobs(args)
    names = sorted(SPECS) if args.experiment == "all" else [args.experiment]
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    policy = _build_policy(args)
    # collect every requested experiment's cells into one deduplicated
    # plan and execute it — on the process backend for --jobs != 1,
    # in-process otherwise (both backends share identical
    # retry/quarantine semantics); --store additionally serves
    # already-persisted cells from the content-addressed result store
    # and writes each fresh one back as it completes
    started = time.time()
    plans = with_engine(
        [
            SPECS[name].plan(**_experiment_kwargs(SPECS[name].build, args))
            for name in names
        ],
        args.engine,
    )
    backend = "serial" if args.jobs == 1 else "process"
    jobs = None if args.jobs < 1 else args.jobs
    store = None
    if args.store is not None:
        from repro.service.store import ResultStore

        store = ResultStore(args.store)
    try:
        results, plan = run_plans(
            plans, backend=backend, jobs=jobs, policy=policy, store=store
        )
    finally:
        if store is not None:
            store.close()
    elapsed = time.time() - started
    for result in results:
        print(f"=== {result.title} ===")
        print(result.text)
        print()
        _write(result, args)
    _write_export_manifest(names, args)
    print(
        f"[{len(results)} experiments in {format_seconds(elapsed)}: "
        f"{plan.requested} cells requested, {plan.unique} executed "
        f"({backend} backend, jobs={args.jobs if args.jobs >= 1 else 'auto'})]"
    )
    if args.store is not None:
        print(
            f"[store {args.store}: {plan.store_hits} cell(s) served, "
            f"{plan.store_misses} simulated]"
        )
    return _report_failures(plan, args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
