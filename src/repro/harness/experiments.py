"""Per-figure experiment specs.

One :class:`~repro.harness.spec.ExperimentSpec` per table/figure of
the paper, registered in :data:`SPECS`.  Each spec's plan builder
declares the simulation cells the experiment needs (as picklable
:class:`~repro.harness.runner.RunRequest` values) and a ``finish``
renderer that turns the cell reports into an
:class:`ExperimentResult` carrying both the rendered monospace text
(what the CLI prints and EXPERIMENTS.md records) and the raw data
(what the tests and benchmarks assert on).

Most experiments average each configuration over every traced
program.  Such an experiment declares its rows (data key, label,
config, layout) and picks a renderer: the shared BEP bars or nested
table, or a short one of its own.  :func:`_grid_plan` builds the
cells, one per (row, program) in row-major order, and the one
``finish``.  Only the experiments that declare no cells (table1,
fig3, fig6, address-space, calibration, way-prediction), multi-issue
(which also reads the traces) and the program-major fig7 and
steely-sager write their own ``finish``.

Every run takes one path: ``SPECS[name].plan(**knobs)`` materialises
the plan and :func:`repro.harness.spec.run_plans` executes it — alone
(``ExperimentPlan.run``) or pooled and deduplicated with other
experiments (the CLI, the service and ``bench/``).

All simulation experiments accept ``programs`` / ``instructions`` /
``seed`` (and most ``warmup``) so benchmarks can run scaled-down or
independently seeded versions; defaults reproduce the full
configuration of the paper's evaluation (§5.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Sequence, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cost.rbe import RBEModel
from repro.cost.timing import AccessTimeModel
from repro.harness.config import ArchitectureConfig
from repro.harness.runner import DEFAULT_WARMUP, RunRequest
from repro.harness.spec import (
    ExperimentPlan,
    ExperimentResult,
    ExperimentSpec,
    ReportMap,
)
from repro.harness.tables import bep_chart, format_table
from repro.isa.branches import BranchKind
from repro.metrics.report import SimulationReport, average_reports
from repro.workloads.corpus import generate_trace
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile, paper_programs
from repro.workloads.stats import TraceAttributes, measure

#: the paper's instruction-cache grid: {8K,16K,32K} x {direct, 4-way}
CACHE_GRID: Tuple[Tuple[int, int], ...] = (
    (8, 1),
    (8, 4),
    (16, 1),
    (16, 4),
    (32, 1),
    (32, 4),
)


def _programs(programs: Optional[Sequence[str]]) -> List[str]:
    return list(programs) if programs is not None else list(paper_programs())


class _Row(NamedTuple):
    """One row of an averaged experiment: its ``data`` key (an
    ``(outer, inner)`` pair nests), the label of its mean report, and
    the configuration and layout every program runs under."""

    key: Hashable
    label: str
    config: ArchitectureConfig
    layout: str = "natural"


#: what an averaged experiment's renderer receives: each row with its
#: per-program reports, in program order
_RowReports = Sequence[Tuple[_Row, List[SimulationReport]]]

#: an averaged experiment's renderer: rows in, ``(text, data)`` out
_Render = Callable[[_RowReports], Tuple[str, Dict]]


def _grid_plan(
    name: str,
    title: str,
    rows: Sequence[_Row],
    programs: Optional[Sequence[str]],
    instructions: Optional[int],
    seed: Optional[int],
    warmup: float,
    render: _Render,
) -> ExperimentPlan:
    """The plan of an experiment that runs every row on every program.

    One cell per (row, program), row-major.  ``finish`` hands *render*
    each row with its per-program reports and wraps the ``(text,
    data)`` it returns in the :class:`ExperimentResult`.
    """
    program_names = _programs(programs)
    grid = [
        (
            row,
            [
                RunRequest(
                    config=row.config,
                    program=program,
                    instructions=instructions,
                    seed=seed,
                    layout=row.layout,
                    warmup=warmup,
                )
                for program in program_names
            ],
        )
        for row in rows
    ]

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render every row's per-program reports into the result."""
        text, data = render(
            [(row, [reports[cell] for cell in cells]) for row, cells in grid]
        )
        return ExperimentResult(name=name, title=title, text=text, data=data)

    cells = tuple(cell for _, row_cells in grid for cell in row_cells)
    return ExperimentPlan(name=name, cells=cells, finish=finish)


def _bep_bars(rows: _RowReports) -> Tuple[str, Dict]:
    """BEP bars of each row's mean report, with ``data[key]`` its BEP
    (``data[outer][inner]`` for an ``(outer, inner)`` key)."""
    chart = []
    data: Dict = {}
    for row, reports in rows:
        mean = average_reports(reports, label=row.label)
        chart.append((row.label, mean.bep_misfetch, mean.bep_mispredict))
        if isinstance(row.key, tuple):
            outer, inner = row.key
            data.setdefault(outer, {})[inner] = mean.bep
        else:
            data[row.key] = mean.bep
    return bep_chart(chart), data


def _nested_table(headers: Sequence[str], value: str, **columns: str) -> _Render:
    """A renderer tabulating each row's ``(outer, inner)`` key, then
    each ``attribute=format`` column of its mean report, with
    ``data[outer][inner]`` the mean's *value* attribute."""

    def render(rows: _RowReports) -> Tuple[str, Dict]:
        """Tabulate each row's mean report."""
        table = []
        data: Dict = {}
        for row, reports in rows:
            mean = average_reports(reports, label=row.label)
            outer, inner = row.key
            values = (fmt.format(getattr(mean, a)) for a, fmt in columns.items())
            table.append((outer, inner, *values))
            data.setdefault(outer, {})[inner] = getattr(mean, value)
        return format_table(headers, table), data

    return render


# ---------------------------------------------------------------------------
# Table 1 — measured attributes of the traced programs
# ---------------------------------------------------------------------------


def _table1_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
) -> ExperimentPlan:
    """Regenerate Table 1 from the synthetic traces, with the paper's
    measured row under each program for comparison."""
    program_names = _programs(programs)

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        lines = [TraceAttributes.header()]
        rows = {}
        for name in program_names:
            profile = get_profile(name)
            trace = generate_trace(name, instructions=instructions, seed=seed)
            program = build_program(profile)
            attributes = measure(trace, program)
            rows[name] = attributes
            lines.append(attributes.row())
            paper = profile.paper
            if paper is not None:
                lines.append(
                    f"{'  (paper)':<10} {paper.instructions:>13,} "
                    f"{paper.pct_breaks:>7.2f} {paper.q50:>6} {paper.q90:>6} "
                    f"{paper.q99:>6} {paper.q100:>7} "
                    f"{paper.static_conditionals:>7} {paper.pct_taken:>7.2f} "
                    f"{paper.pct_cbr:>6.2f} {paper.pct_ij:>5.2f} "
                    f"{paper.pct_br:>5.2f} {paper.pct_call:>6.2f} "
                    f"{paper.pct_ret:>6.2f}"
                )
        return ExperimentResult(
            name="table1",
            title="Table 1: measured attributes of the traced programs",
            text="\n".join(lines),
            data={"attributes": rows},
        )

    return ExperimentPlan(name="table1", cells=(), finish=finish)


# ---------------------------------------------------------------------------
# Figure 3 — RBE implementation costs
# ---------------------------------------------------------------------------


def _fig3_plan(line_bytes: int = 32) -> ExperimentPlan:
    """Register-bit-equivalent costs of every studied structure."""

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        model = RBEModel()
        rows: List[Tuple[str, int, float]] = []
        data: Dict[str, float] = {}
        for kb in (8, 16, 32, 64):
            geometry = CacheGeometry(kb * 1024, line_bytes, 1)
            cost = model.nls_cache_cost(geometry)
            rows.append((cost.label, cost.storage_bits, cost.rbe))
            data[f"nls-cache@{kb}K"] = cost.rbe
        for entries in (512, 1024, 2048):
            for kb in (8, 16, 32, 64):
                geometry = CacheGeometry(kb * 1024, line_bytes, 1)
                cost = model.nls_table_cost(entries, geometry)
                rows.append((cost.label, cost.storage_bits, cost.rbe))
                data[f"nls-table-{entries}@{kb}K"] = cost.rbe
        for entries in (128, 256):
            for assoc in (1, 2, 4):
                cost = model.btb_cost(entries, assoc)
                rows.append((cost.label, cost.storage_bits, cost.rbe))
                data[f"btb-{entries}-{assoc}w"] = cost.rbe
        text = format_table(
            ["structure", "bits", "RBE"],
            [(label, bits, f"{rbe:,.0f}") for label, bits, rbe in rows],
        )
        return ExperimentResult(
            name="fig3",
            title="Figure 3: register-bit-equivalent costs (Mulder et al. model)",
            text=text,
            data=data,
        )

    return ExperimentPlan(name="fig3", cells=(), finish=finish)


# ---------------------------------------------------------------------------
# Figure 4 — NLS-cache vs NLS-table sizes, average BEP
# ---------------------------------------------------------------------------


def _fig4_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_grid: Sequence[Tuple[int, int]] = CACHE_GRID,
) -> ExperimentPlan:
    """Average BEP of the NLS-cache and 512/1024/2048-entry NLS-tables
    across instruction-cache configurations."""
    rows = []
    for kb, assoc in cache_grid:
        cache = f"{kb}K {assoc}-way"
        rows.append(
            _Row(
                ("nls-cache", cache),
                f"NLS-cache @ {cache}",
                ArchitectureConfig(
                    frontend="nls-cache", cache_kb=kb, cache_assoc=assoc
                ),
            )
        )
        rows += [
            _Row(
                (f"nls-table-{entries}", cache),
                f"{entries} NLS-table @ {cache}",
                ArchitectureConfig(
                    frontend="nls-table",
                    entries=entries,
                    cache_kb=kb,
                    cache_assoc=assoc,
                ),
            )
            for entries in (512, 1024, 2048)
        ]
    title = (
        "Figure 4: average branch execution penalty, NLS-cache vs "
        "512/1024/2048-entry NLS-tables"
    )
    return _grid_plan(
        "fig4", title, rows, programs, instructions, seed, warmup, _bep_bars
    )


# ---------------------------------------------------------------------------
# Figure 5 — BTB vs 1024-entry NLS-table, average BEP
# ---------------------------------------------------------------------------


def _fig5_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_grid: Sequence[Tuple[int, int]] = CACHE_GRID,
) -> ExperimentPlan:
    """Average BEP of the 128/256-entry BTBs (direct and 4-way) against
    the 1024-entry NLS-table at every cache configuration.

    The BTB rows are simulated at a 16K direct-mapped cache: the BTB's
    BEP does not depend on the instruction cache (§7), which fig8
    (CPI) and the data dict make checkable.
    """
    rows = [
        _Row(
            f"btb-{entries}-{assoc}w",
            f"{entries} {'direct' if assoc == 1 else f'{assoc}-way'} BTB",
            ArchitectureConfig(
                frontend="btb", entries=entries, btb_assoc=assoc, cache_kb=16
            ),
        )
        for entries in (128, 256)
        for assoc in (1, 4)
    ]
    rows += [
        _Row(
            f"nls-1024@{kb}K-{assoc}w",
            f"1024 NLS-table, {kb}K {'direct' if assoc == 1 else f'{assoc}-way'}",
            ArchitectureConfig(
                frontend="nls-table", entries=1024, cache_kb=kb, cache_assoc=assoc
            ),
        )
        for kb, assoc in cache_grid
    ]
    title = "Figure 5: average BEP, BTBs vs the 1024-entry NLS-table"
    return _grid_plan(
        "fig5", title, rows, programs, instructions, seed, warmup, _bep_bars
    )


# ---------------------------------------------------------------------------
# Figure 6 — BTB access times
# ---------------------------------------------------------------------------


def _fig6_plan() -> ExperimentPlan:
    """BTB access-time estimates (CACTI-style model)."""

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        model = AccessTimeModel()
        rows = []
        data: Dict[str, float] = {}
        for entries in (128, 256):
            for assoc in (1, 2, 4):
                t = model.access_time_ns(entries, assoc)
                ratio = model.associativity_penalty(entries, assoc)
                label = (
                    f"{entries}-entry {'direct' if assoc == 1 else f'{assoc}-way'}"
                )
                rows.append((label, f"{t:.2f}", f"{ratio:.2f}x"))
                data[f"{entries}-{assoc}w"] = t
        text = format_table(["BTB organisation", "access ns", "vs direct"], rows)
        return ExperimentResult(
            name="fig6",
            title="Figure 6: BTB access time (Wilton-Jouppi style model)",
            text=text,
            data=data,
        )

    return ExperimentPlan(name="fig6", cells=(), finish=finish)


# ---------------------------------------------------------------------------
# Figure 7 — per-program BEP comparison
# ---------------------------------------------------------------------------


def fig7_configs() -> List[Tuple[str, ArchitectureConfig]]:
    """The ten per-program configurations of Figure 7."""
    configs: List[Tuple[str, ArchitectureConfig]] = []
    for entries in (128, 256):
        for assoc in (1, 4):
            configs.append(
                (
                    f"{entries} {'Direct' if assoc == 1 else '4-way'} BTB",
                    ArchitectureConfig(
                        frontend="btb", entries=entries, btb_assoc=assoc, cache_kb=16
                    ),
                )
            )
    for kb in (8, 16, 32):
        for assoc in (1, 4):
            configs.append(
                (
                    f"1024 NLS-table, {kb}K {'Direct' if assoc == 1 else '4-way'}",
                    ArchitectureConfig(
                        frontend="nls-table",
                        entries=1024,
                        cache_kb=kb,
                        cache_assoc=assoc,
                    ),
                )
            )
    return configs


def _fig7_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
) -> ExperimentPlan:
    """Per-program BEP for the ten configurations of Figure 7."""
    program_names = _programs(programs)
    configs = fig7_configs()
    grid: List[Tuple[str, List[Tuple[str, RunRequest]]]] = []
    for program in program_names:
        row = []
        for label, config in configs:
            row.append(
                (
                    label,
                    RunRequest(
                        config=config,
                        program=program,
                        instructions=instructions,
                        seed=seed,
                        warmup=warmup,
                    ),
                )
            )
        grid.append((program, row))

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        sections: List[str] = []
        data: Dict[str, Dict[str, SimulationReport]] = {}
        for program, row in grid:
            chart_rows = []
            for label, cell in row:
                report = reports[cell]
                chart_rows.append(
                    (label, report.bep_misfetch, report.bep_mispredict)
                )
                data.setdefault(program, {})[label] = report
            sections.append(bep_chart(chart_rows, title=program))
        return ExperimentResult(
            name="fig7",
            title="Figure 7: per-program BEP, NLS-table vs BTB",
            text="\n\n".join(sections),
            data=data,
        )

    cells = tuple(cell for _, row in grid for _, cell in row)
    return ExperimentPlan(name="fig7", cells=cells, finish=finish)


# ---------------------------------------------------------------------------
# Figure 8 — CPI comparison
# ---------------------------------------------------------------------------


def _fig8_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_grid: Sequence[Tuple[int, int]] = CACHE_GRID,
) -> ExperimentPlan:
    """Average CPI of the BTBs and the 1024-entry NLS-table, per cache
    configuration (unlike the BEP, the CPI of every architecture moves
    with the cache because of the 5-cycle miss penalty)."""
    variants: List[Tuple[str, ArchitectureConfig]] = [
        ("128 Direct BTB", ArchitectureConfig(frontend="btb", entries=128, btb_assoc=1)),
        ("128 4-way BTB", ArchitectureConfig(frontend="btb", entries=128, btb_assoc=4)),
        ("256 Direct BTB", ArchitectureConfig(frontend="btb", entries=256, btb_assoc=1)),
        ("256 4-way BTB", ArchitectureConfig(frontend="btb", entries=256, btb_assoc=4)),
        (
            "1024 NLS-table",
            ArchitectureConfig(frontend="nls-table", entries=1024),
        ),
    ]
    rows = []
    for kb, assoc in cache_grid:
        cache = f"{kb}K {'direct' if assoc == 1 else f'{assoc}-way'}"
        rows += [
            _Row((cache, name), f"{name} @ {cache}", base.with_cache(kb, assoc))
            for name, base in variants
        ]
    render = _nested_table(["cache", "front-end", "CPI"], "cpi", cpi="{:.4f}")
    title = "Figure 8: cycles per instruction (single issue)"
    return _grid_plan("fig8", title, rows, programs, instructions, seed, warmup, render)


# ---------------------------------------------------------------------------
# §6.2 — Johnson's coupled successor-index design
# ---------------------------------------------------------------------------


def _johnson_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_kb: int = 16,
    cache_assoc: int = 1,
) -> ExperimentPlan:
    """NLS-table vs NLS-cache vs Johnson's coupled 1-bit design."""
    rows = [
        _Row(
            label,
            label,
            ArchitectureConfig(
                frontend=frontend, cache_kb=cache_kb, cache_assoc=cache_assoc, **extra
            ),
        )
        for label, frontend, extra in (
            ("1024 NLS-table + gshare", "nls-table", {"entries": 1024}),
            ("NLS-cache (2/line) + gshare", "nls-cache", {}),
            ("Johnson successor index (1-bit)", "johnson", {}),
        )
    ]
    title = (
        "S6.2 comparison: decoupled NLS vs Johnson's coupled "
        f"successor-index design ({cache_kb}K {cache_assoc}-way cache)"
    )
    return _grid_plan(
        "johnson", title, rows, programs, instructions, seed, warmup, _bep_bars
    )


# ---------------------------------------------------------------------------
# §4.1 / §7 ablations
# ---------------------------------------------------------------------------


def _ablation_nls_cache_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_kb: int = 16,
) -> ExperimentPlan:
    """NLS-cache design space: predictors per line x association
    policy (§5.1 "one to four NLS predictors per cache line with
    varying replacement policies")."""
    rows = []
    for per_line in (1, 2, 4):
        for policy in ("partition", "lru"):
            label = f"NLS-cache {per_line}/line {policy}"
            config = ArchitectureConfig(
                frontend="nls-cache",
                cache_kb=cache_kb,
                predictors_per_line=per_line,
                nls_cache_policy=policy,
            )
            rows.append(_Row(label, label, config))
    title = f"NLS-cache ablation ({cache_kb}K direct-mapped cache)"
    return _grid_plan(
        "ablation-nls-cache",
        title,
        rows,
        programs,
        instructions,
        seed,
        warmup,
        _bep_bars,
    )


def _ablation_direction_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
) -> ExperimentPlan:
    """Direction-predictor ablation under the 1024-entry NLS-table."""
    rows = [
        _Row(
            direction,
            direction,
            ArchitectureConfig(
                frontend="nls-table", entries=1024, cache_kb=16, direction=direction
            ),
        )
        for direction in (
            "gshare",
            "pan",
            "gag",
            "bimodal",
            "pag",
            "combining",
            "taken",
            "not-taken",
            "btfnt",
        )
    ]
    title = "Direction predictor ablation (1024 NLS-table, 16K cache)"
    return _grid_plan(
        "ablation-direction",
        title,
        rows,
        programs,
        instructions,
        seed,
        warmup,
        _bep_bars,
    )


def _ablation_layout_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_kb: int = 16,
) -> ExperimentPlan:
    """Program-layout ablation (§7: restructuring lowers the I-cache
    miss rate, which improves the NLS architecture but not the BTB)."""
    rows = [
        _Row((layout, name), f"{name} / {layout}", config, layout)
        for layout in ("natural", "random")
        for name, config in (
            (
                "1024 NLS-table",
                ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=cache_kb),
            ),
            ("128 BTB", ArchitectureConfig(frontend="btb", entries=128, cache_kb=cache_kb)),
        )
    ]
    render = _nested_table(
        ["layout", "front-end", "I-miss", "BEP(misfetch)", "BEP"],
        "bep",
        icache_miss_rate="{:.2%}",
        bep_misfetch="{:.3f}",
        bep="{:.3f}",
    )
    title = "Layout ablation: procedure placement vs NLS/BTB BEP"
    return _grid_plan(
        "ablation-layout", title, rows, programs, instructions, seed, warmup, render
    )


def _coupled_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_kb: int = 16,
) -> ExperimentPlan:
    """Coupled (Pentium-style) vs decoupled BTB (§2).

    In the coupled design the 2-bit direction counters live inside the
    BTB entries, so branches that miss fall back to static prediction;
    the decoupled design predicts *every* conditional with the shared
    PHT — the reason the paper (and its authors' earlier study [2])
    simulate decoupled designs.
    """
    rows = [
        _Row(
            name,
            name,
            ArchitectureConfig(
                frontend=frontend, entries=entries, btb_assoc=1, cache_kb=cache_kb
            ),
        )
        for entries in (128, 256)
        for name, frontend in (
            (f"decoupled {entries} BTB + gshare", "btb"),
            (f"coupled {entries} BTB (2-bit in entry)", "coupled-btb"),
        )
    ]
    title = "S2 comparison: coupled vs decoupled BTB direction prediction"
    return _grid_plan(
        "coupled", title, rows, programs, instructions, seed, warmup, _bep_bars
    )


def _way_prediction_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    cache_kb: int = 16,
    cache_assoc: int = 2,
) -> ExperimentPlan:
    """Fall-through way prediction accuracy (§4.2, second approach).

    Replays each trace against an associative cache carrying per-line
    successor-way fields and reports how often the predicted way is
    right — the figure of merit for turning an associative cache into
    a direct-mapped-latency one on the sequential path.
    """
    program_names = _programs(programs)

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        from repro.cache.icache import InstructionCache
        from repro.cache.setpred import FallThroughWayPredictor

        rows = []
        data: Dict[str, float] = {}
        geometry = CacheGeometry(cache_kb * 1024, 32, cache_assoc)
        for program in program_names:
            trace = generate_trace(program, instructions=instructions, seed=seed)
            cache = InstructionCache(geometry)
            predictor = FallThroughWayPredictor(cache)
            line_bytes = geometry.line_bytes
            previous_line = None
            for start, count in zip(trace.starts.tolist(), trace.counts.tolist()):
                end = start + (count - 1) * 4
                line = start & ~(line_bytes - 1)
                end_line = end & ~(line_bytes - 1)
                while True:
                    if previous_line is not None and line == previous_line + line_bytes:
                        predicted = predictor.predict(previous_line)
                        way = cache.access(line).way
                        predictor.record_outcome(predicted, way)
                        predictor.update(previous_line, way)
                    else:
                        way = cache.access(line).way
                    previous_line = line
                    if line == end_line:
                        break
                    line += line_bytes
            rows.append(
                (
                    program,
                    predictor.predictions,
                    f"{100 * predictor.accuracy:.2f}%",
                    f"{100 * cache.miss_rate:.2f}%",
                )
            )
            data[program] = predictor.accuracy
        text = format_table(
            ["program", "sequential fetches", "way-pred accuracy", "I-miss"], rows
        )
        return ExperimentResult(
            name="way-prediction",
            title=(
                f"S4.2 fall-through way prediction ({cache_kb}K "
                f"{cache_assoc}-way cache)"
            ),
            text=text,
            data=data,
        )

    return ExperimentPlan(name="way-prediction", cells=(), finish=finish)


def _multi_issue_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    widths: Sequence[int] = (1, 2, 4, 8),
    cache_kb: int = 16,
) -> ExperimentPlan:
    """Issue-width extension (§8): IPC of the equal-cost NLS-table and
    BTB as the fetch width grows.

    Penalty cycles are fixed per event, but a wider machine loses more
    useful work per bubble, so fetch prediction quality matters more —
    "nothing in the design of the NLS architecture appears to be a
    problem for wide-issue architectures" (§8) becomes checkable.
    """
    program_names = _programs(programs)
    variants = (
        ("1024 NLS-table", ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=cache_kb)),
        ("128 BTB", ArchitectureConfig(frontend="btb", entries=128, cache_kb=cache_kb)),
        ("oracle fetch", ArchitectureConfig(frontend="oracle", cache_kb=cache_kb)),
    )
    # multi-issue evaluation needs full-trace reports (warmup 0)
    grid = {
        (name, program): RunRequest(
            config=config,
            program=program,
            instructions=instructions,
            seed=seed,
            warmup=0.0,
        )
        for name, config in variants
        for program in program_names
    }

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        from repro.fetch.multiissue import FetchBandwidthModel

        rows = []
        data: Dict[str, Dict[int, float]] = {}
        for name, config in variants:
            per_width: Dict[int, List[float]] = {width: [] for width in widths}
            for program in program_names:
                trace = generate_trace(program, instructions=instructions, seed=seed)
                report = reports[grid[(name, program)]]
                for width in widths:
                    model = FetchBandwidthModel(width, config.geometry.line_bytes)
                    per_width[width].append(model.evaluate(trace, report).ipc)
            for width in widths:
                ipc = sum(per_width[width]) / len(per_width[width])
                rows.append((name, width, f"{ipc:.3f}"))
                data.setdefault(name, {})[width] = ipc
        text = format_table(["front-end", "fetch width", "IPC"], rows)
        return ExperimentResult(
            name="multi-issue",
            title="S8 extension: IPC vs fetch width (single-cycle line-limited fetch)",
            text=text,
            data=data,
        )

    return ExperimentPlan(
        name="multi-issue", cells=tuple(grid.values()), finish=finish
    )


def _address_space_plan(
    bits_list: Sequence[int] = (32, 40, 48, 64),
    cache_kb: int = 16,
) -> ExperimentPlan:
    """Address-space scaling (§7): "as the program address space
    increases ... the area needed by the BTB would also increase.  By
    comparison, the NLS-table design does not use a tag nor does it
    store the full target address, so an increased address space has
    no effect on the size of the NLS-table"."""

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        from repro.isa.geometry import AddressSpace

        model = RBEModel()
        geometry = CacheGeometry(cache_kb * 1024, 32, 1)
        nls_cost = model.nls_table_cost(1024, geometry).rbe
        rows = []
        data: Dict[str, Dict[int, float]] = {
            "btb-128": {},
            "btb-256": {},
            "nls-1024": {},
        }
        for bits in bits_list:
            space = AddressSpace(bits)
            for entries in (128, 256):
                cost = model.btb_cost(entries, 1, space).rbe
                rows.append((f"{bits}-bit", f"{entries}-entry BTB", f"{cost:,.0f}"))
                data[f"btb-{entries}"][bits] = cost
            rows.append((f"{bits}-bit", "1024-entry NLS-table", f"{nls_cost:,.0f}"))
            data["nls-1024"][bits] = nls_cost
        text = format_table(["address space", "structure", "RBE"], rows)
        return ExperimentResult(
            name="address-space",
            title="S7: structure cost vs program address-space size",
            text=text,
            data=data,
        )

    return ExperimentPlan(name="address-space", cells=(), finish=finish)


def _steely_sager_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_kb: int = 16,
) -> ExperimentPlan:
    """Per-entry NLS indirect prediction vs the Steely-Sager single
    computed-goto register (§6.2), per program.

    Programs with several interleaved hot indirect sites thrash the
    single register; programs with one dominant site barely notice.
    """
    program_names = _programs(programs)
    grid: List[Tuple[str, str, RunRequest]] = []
    for program in program_names:
        for name, frontend in (
            ("nls-table", "nls-table"),
            ("steely-sager", "steely-sager"),
        ):
            config = ArchitectureConfig(
                frontend=frontend, entries=1024, cache_kb=cache_kb, cache_assoc=1
            )
            grid.append(
                (
                    program,
                    name,
                    RunRequest(
                        config=config,
                        program=program,
                        instructions=instructions,
                        seed=seed,
                        warmup=warmup,
                    ),
                )
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows = []
        data: Dict[str, Dict[str, float]] = {}
        for program, name, cell in grid:
            report = reports[cell]
            indirect = report.by_kind and {
                kind.name: counts for kind, counts in report.by_kind.items()
            }.get("INDIRECT")
            indirect_mp = (
                100.0 * indirect[2] / indirect[0] if indirect and indirect[0] else 0.0
            )
            rows.append(
                (program, name, f"{indirect_mp:.1f}%", f"{report.bep:.3f}")
            )
            data.setdefault(program, {})[name] = report.bep
        text = format_table(
            ["program", "indirect predictor", "IJ mispredict", "BEP"], rows
        )
        return ExperimentResult(
            name="steely-sager",
            title=(
                "S6.2: per-entry NLS indirect prediction vs the Steely-Sager "
                "computed-goto register"
            ),
            text=text,
            data=data,
        )

    cells = tuple(cell for _, _, cell in grid)
    return ExperimentPlan(name="steely-sager", cells=cells, finish=finish)


def _calibration_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
) -> ExperimentPlan:
    """Measured-vs-paper calibration quality of the synthetic
    workloads (value errors per column, rank agreement per attribute).
    """
    program_names = _programs(programs)

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        from repro.workloads.validation import summarise

        measured = {}
        papers = {}
        for name in program_names:
            profile = get_profile(name)
            trace = generate_trace(name, instructions=instructions, seed=seed)
            measured[name] = measure(trace, build_program(profile))
            papers[name] = profile.paper
        summary = summarise(measured, papers)
        rows = []
        for program, comparisons in summary.per_program.items():
            for comparison in comparisons:
                rows.append(
                    (
                        program,
                        comparison.field,
                        f"{comparison.measured:.2f}",
                        f"{comparison.paper:.2f}",
                        f"{comparison.absolute_error:+.2f}",
                    )
                )
        lines = [format_table(["program", "column", "measured", "paper", "error"], rows)]
        if summary.rank_correlations:
            rank_rows = [
                (field, f"{value:+.2f}")
                for field, value in sorted(summary.rank_correlations.items())
            ]
            lines.append("")
            lines.append(
                format_table(
                    ["attribute", "rank corr (programs)"],
                    rank_rows,
                    title="cross-program rank agreement with Table 1",
                )
            )
            lines.append("")
            worst = summary.worst_field
            lines.append(
                f"mean |error| = {summary.mean_absolute_scalar_error:.2f} points; "
                f"worst: {worst[1]} on {worst[0]} ({worst[2]:+.2f})"
            )
        return ExperimentResult(
            name="calibration",
            title="Workload calibration: measured vs paper Table 1",
            text="\n".join(lines),
            data={
                "mean_abs_error": summary.mean_absolute_scalar_error,
                "rank_correlations": summary.rank_correlations,
            },
        )

    return ExperimentPlan(name="calibration", cells=(), finish=finish)


def _misfetch_causes_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_sizes: Sequence[int] = (8, 16, 32),
) -> ExperimentPlan:
    """Why NLS taken-target predictions fail, per cache size (§7).

    The paper's displacement argument predicts the ``displaced``
    bucket shrinks as the cache grows while the tag-less aliasing
    buckets stay put; this experiment shows the distribution directly.
    """
    rows = [
        _Row(
            f"{kb}K",
            f"{kb}K",
            ArchitectureConfig(
                frontend="nls-table", entries=1024, cache_kb=kb, cache_assoc=1
            ),
        )
        for kb in cache_sizes
    ]

    def render(rows: _RowReports) -> Tuple[str, Dict]:
        """Tabulate each cache size's misfetch causes, summed over programs."""
        table = []
        data: Dict[str, Dict[str, int]] = {}
        for row, reports in rows:
            totals = {"invalid": 0, "line-field": 0, "displaced": 0, "wrong-way": 0}
            for report in reports:
                for cause, count in report.frontend_stats.items():
                    totals[cause] += count
            total = sum(totals.values()) or 1
            table.append(
                (
                    row.key,
                    totals["invalid"],
                    totals["line-field"],
                    totals["displaced"],
                    f"{100 * totals['displaced'] / total:.1f}%",
                )
            )
            data[row.key] = totals
        headers = ["cache", "invalid", "alias/stale", "displaced", "displaced share"]
        return format_table(headers, table), data

    title = "NLS misfetch causes vs cache size (1024-entry table, direct mapped)"
    return _grid_plan(
        "misfetch-causes", title, rows, programs, instructions, seed, warmup, render
    )


def _btb_allocation_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
) -> ExperimentPlan:
    """Taken-only vs allocate-all BTB policies (§3's cited result)."""
    rows = [
        _Row(
            f"{entries} BTB, allocate {allocate}",
            f"{entries} BTB, allocate {allocate}",
            ArchitectureConfig(
                frontend="btb", entries=entries, btb_allocate=allocate, cache_kb=16
            ),
        )
        for entries in (128, 256)
        for allocate in ("taken-only", "all")
    ]
    title = "S3: BTB allocation policy (taken-only vs all branches)"
    return _grid_plan(
        "btb-allocation", title, rows, programs, instructions, seed, warmup, _bep_bars
    )


def _ras_depth_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> ExperimentPlan:
    """Return-stack depth sweep (the Kaeli-Emma structure both
    architectures rely on, §3)."""
    rows = [
        _Row(
            depth,
            f"{depth} RAS entries",
            ArchitectureConfig(
                frontend="nls-table", entries=1024, cache_kb=16, ras_entries=depth
            ),
        )
        for depth in depths
    ]

    def render(rows: _RowReports) -> Tuple[str, Dict]:
        """Tabulate each depth's return mispredict rate over all programs."""
        table = []
        data: Dict[int, float] = {}
        for row, reports in rows:
            returns = [report.by_kind[BranchKind.RETURN] for report in reports]
            executed = sum(ex for ex, _, _ in returns)
            mispredicted = sum(mp for _, _, mp in returns)
            rate = 100.0 * mispredicted / executed if executed else 0.0
            table.append((row.key, executed, f"{rate:.2f}%"))
            data[row.key] = rate
        headers = ["RAS entries", "returns", "return mispredict"]
        return format_table(headers, table), data

    title = "Return-address-stack depth sweep (1024 NLS-table, 16K cache)"
    return _grid_plan(
        "ras-depth", title, rows, programs, instructions, seed, warmup, render
    )


def _line_size_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    line_sizes: Sequence[int] = (16, 32, 64),
) -> ExperimentPlan:
    """Cache line-size sweep: longer lines shrink the NLS line field
    (fewer sets) but raise per-miss cost and change the fall-through
    packing; the paper fixes 32-byte lines (§5.1)."""
    rows = [
        _Row(
            line_bytes,
            f"{line_bytes}B lines",
            ArchitectureConfig(
                frontend="nls-table", entries=1024, cache_kb=16, line_bytes=line_bytes
            ),
        )
        for line_bytes in line_sizes
    ]

    def render(rows: _RowReports) -> Tuple[str, Dict]:
        """Tabulate each line size's NLS entry bits and mean report."""
        table = []
        data: Dict[int, Dict[str, float]] = {}
        for row, reports in rows:
            mean = average_reports(reports, label=row.label)
            entry_bits = RBEModel().nls_entry_bits(row.config.geometry)
            table.append(
                (
                    f"{row.key}B",
                    entry_bits,
                    f"{100 * mean.icache_miss_rate:.2f}%",
                    f"{mean.bep_misfetch:.3f}",
                    f"{mean.bep:.3f}",
                )
            )
            data[row.key] = {"bep": mean.bep, "entry_bits": entry_bits}
        headers = ["line size", "NLS entry bits", "I-miss", "BEP(misfetch)", "BEP"]
        return format_table(headers, table), data

    title = "Line-size sweep (1024 NLS-table, 16K direct cache)"
    return _grid_plan(
        "line-size", title, rows, programs, instructions, seed, warmup, render
    )


def _context_switch_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    intervals: Sequence[Optional[int]] = (None, 500_000, 100_000, 25_000),
) -> ExperimentPlan:
    """Context-switch sensitivity: BEP under periodic full state
    flushes (I-cache, front-end, PHT, return stack).

    The paper's single-process traces never flush; this study shows
    how quickly each architecture re-learns.  Warmup is disabled —
    cold restarts are the effect being measured.
    """
    rows = [
        _Row(
            ("never" if interval is None else f"every {interval:,}", name),
            name,
            ArchitectureConfig(
                frontend=frontend, cache_kb=16, flush_interval=interval, **kwargs
            ),
        )
        for interval in intervals
        for name, frontend, kwargs in (
            ("1024 NLS-table", "nls-table", {"entries": 1024}),
            ("128 BTB", "btb", {"entries": 128}),
        )
    ]
    render = _nested_table(
        ["flush interval", "front-end", "I-miss", "BEP"],
        "bep",
        icache_miss_rate="{:.2%}",
        bep="{:.3f}",
    )
    title = "Context-switch sensitivity (periodic full state flush)"
    # cold restarts are the effect being measured: no warmup
    return _grid_plan(
        "context-switch", title, rows, programs, instructions, seed, 0.0, render
    )


# ---------------------------------------------------------------------------
# Replay — compact sweep for external traces & modern server profiles
# ---------------------------------------------------------------------------

#: the replay roster: four equal-cache configurations spanning the
#: paper's design space (no predictor, capacity-pressed BTB, the
#: NLS-table, and the coupled BTB the paper argues against)
REPLAY_ROSTER: Tuple[Tuple[str, ArchitectureConfig], ...] = (
    ("fall-through", ArchitectureConfig(frontend="fall-through", cache_kb=16)),
    (
        "btb-256-4w",
        ArchitectureConfig(frontend="btb", entries=256, btb_assoc=4, cache_kb=16),
    ),
    (
        "nls-table-1024",
        ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=16),
    ),
    (
        "coupled-btb-256-4w",
        ArchitectureConfig(
            frontend="coupled-btb", entries=256, btb_assoc=4, cache_kb=16
        ),
    ),
)


def _replay_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
) -> ExperimentPlan:
    """Compact 4-configuration sweep per workload (docs/TRACES.md).

    Built for traces that are not part of the paper's roster: ingested
    external traces (``external:<sha256>`` program names, via the
    CLI's ``--trace``) and the modern-server profiles.  Defaults to
    the two server profiles when no programs are given.

    Per workload: fall-through (no predictor), a capacity-pressed
    256-entry 4-way BTB, the paper's 1024-entry NLS-table and the
    coupled 256-entry BTB, all at 16 K of instruction cache — enough
    to place a new trace on the paper's BEP map at a glance.
    """
    from repro.workloads.profiles import server_programs

    program_names = list(programs if programs is not None else server_programs())
    rows = [_Row(key, config.label(), config) for key, config in REPLAY_ROSTER]

    def render(rows: _RowReports) -> Tuple[str, Dict]:
        """Tabulate every (program, configuration) report."""
        table = []
        data: Dict[str, Dict[str, float]] = {}
        for row, reports in rows:
            data[row.key] = {}
            for program, report in zip(program_names, reports):
                table.append(
                    (
                        program if len(program) <= 24 else program[:21] + "...",
                        row.key,
                        f"{report.pct_misfetched:.2f}",
                        f"{report.pct_mispredicted:.2f}",
                        f"{report.bep:.3f}",
                        f"{report.icache_miss_rate * 100:.2f}%",
                        f"{report.cpi:.4f}",
                    )
                )
                data[row.key][program] = report.bep
        headers = ["program", "config", "%MfB", "%MpB", "BEP", "miss", "CPI"]
        return format_table(headers, table), data

    title = "Replay: compact sweep over external/modern workloads"
    return _grid_plan(
        "replay", title, rows, program_names, instructions, seed, warmup, render
    )


#: declarative registry: one spec per table/figure (used by the CLI's
#: ``list`` subcommand and the cross-experiment parallel executor)
SPECS: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            "table1", "measured attributes of the traced programs", _table1_plan
        ),
        ExperimentSpec(
            "fig3", "register-bit-equivalent costs (Mulder et al.)", _fig3_plan
        ),
        ExperimentSpec(
            "fig4", "average BEP, NLS-cache vs NLS-table sizes", _fig4_plan
        ),
        ExperimentSpec(
            "fig5", "average BEP, BTBs vs the 1024-entry NLS-table", _fig5_plan
        ),
        ExperimentSpec(
            "fig6", "BTB access times (Wilton-Jouppi model)", _fig6_plan
        ),
        ExperimentSpec(
            "fig7", "per-program BEP, NLS-table vs BTB", _fig7_plan
        ),
        ExperimentSpec(
            "fig8", "cycles per instruction (single issue)", _fig8_plan
        ),
        ExperimentSpec(
            "johnson", "decoupled NLS vs Johnson's coupled design", _johnson_plan
        ),
        ExperimentSpec(
            "ablation-nls-cache",
            "NLS-cache predictors/line x policy ablation",
            _ablation_nls_cache_plan,
        ),
        ExperimentSpec(
            "ablation-direction",
            "direction-predictor ablation under the NLS-table",
            _ablation_direction_plan,
        ),
        ExperimentSpec(
            "ablation-layout",
            "procedure-placement ablation, NLS vs BTB",
            _ablation_layout_plan,
        ),
        ExperimentSpec(
            "coupled", "coupled vs decoupled BTB direction prediction", _coupled_plan
        ),
        ExperimentSpec(
            "way-prediction",
            "fall-through way prediction accuracy (S4.2)",
            _way_prediction_plan,
        ),
        ExperimentSpec(
            "multi-issue", "IPC vs fetch width (S8 extension)", _multi_issue_plan
        ),
        ExperimentSpec(
            "address-space",
            "structure cost vs address-space size (S7)",
            _address_space_plan,
        ),
        ExperimentSpec(
            "steely-sager",
            "NLS indirect prediction vs Steely-Sager register",
            _steely_sager_plan,
        ),
        ExperimentSpec(
            "calibration", "workload calibration vs paper Table 1", _calibration_plan
        ),
        ExperimentSpec(
            "misfetch-causes",
            "NLS misfetch-cause histogram vs cache size",
            _misfetch_causes_plan,
        ),
        ExperimentSpec(
            "btb-allocation",
            "taken-only vs allocate-all BTB policies (S3)",
            _btb_allocation_plan,
        ),
        ExperimentSpec(
            "ras-depth", "return-address-stack depth sweep", _ras_depth_plan
        ),
        ExperimentSpec(
            "line-size", "cache line-size sweep under the NLS-table", _line_size_plan
        ),
        ExperimentSpec(
            "context-switch",
            "BEP under periodic full state flushes",
            _context_switch_plan,
        ),
        ExperimentSpec(
            "replay",
            "compact sweep over external/modern workloads",
            _replay_plan,
        ),
    )
}
