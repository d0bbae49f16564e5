"""Per-figure experiment specs.

One :class:`~repro.harness.spec.ExperimentSpec` per table/figure of
the paper, registered in :data:`SPECS`.  Each spec's plan builder
declares the simulation cells the experiment needs (as picklable
:class:`~repro.harness.runner.RunRequest` values) and a small
``finish`` renderer that turns the cell reports into an
:class:`ExperimentResult` carrying both the rendered monospace text
(what the CLI prints and EXPERIMENTS.md records) and the raw data
(what the tests and benchmarks assert on).  Cost-model experiments
(fig3, fig6, address-space) declare zero cells and do all their work
in the renderer.

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

from typing import Dict, List, Optional, Sequence, Tuple

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


def _cells(
    config: ArchitectureConfig,
    programs: Sequence[str],
    instructions: Optional[int],
    seed: Optional[int],
    warmup: float,
    layout: str = "natural",
) -> Tuple[RunRequest, ...]:
    """One cell per program for *config*."""
    return tuple(
        RunRequest(
            config=config,
            program=program,
            instructions=instructions,
            seed=seed,
            layout=layout,
            warmup=warmup,
        )
        for program in programs
    )


def _mean(
    reports: ReportMap, cells: Sequence[RunRequest], label: str
) -> SimulationReport:
    """Equal-weight average of *cells*' reports, relabelled."""
    return average_reports([reports[cell] for cell in cells], label=label)


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
    program_names = _programs(programs)
    entries_list = (512, 1024, 2048)
    groups: List[Tuple[str, str, str, Tuple[RunRequest, ...]]] = []
    for kb, assoc in cache_grid:
        cache_label = f"{kb}K {assoc}-way"
        config = ArchitectureConfig(
            frontend="nls-cache", cache_kb=kb, cache_assoc=assoc
        )
        groups.append(
            (
                "nls-cache",
                cache_label,
                f"NLS-cache @ {cache_label}",
                _cells(config, program_names, instructions, seed, warmup),
            )
        )
        for entries in entries_list:
            config = ArchitectureConfig(
                frontend="nls-table",
                entries=entries,
                cache_kb=kb,
                cache_assoc=assoc,
            )
            groups.append(
                (
                    f"nls-table-{entries}",
                    cache_label,
                    f"{entries} NLS-table @ {cache_label}",
                    _cells(config, program_names, instructions, seed, warmup),
                )
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows: List[Tuple[str, float, float]] = []
        data: Dict[str, Dict[str, float]] = {}
        for key, cache_label, label, cells in groups:
            report = _mean(reports, cells, label)
            chart_rows.append(
                (report.label, report.bep_misfetch, report.bep_mispredict)
            )
            data.setdefault(key, {})[cache_label] = report.bep
        return ExperimentResult(
            name="fig4",
            title=(
                "Figure 4: average branch execution penalty, NLS-cache vs "
                "512/1024/2048-entry NLS-tables"
            ),
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, _, _, group in groups for cell in group)
    return ExperimentPlan(name="fig4", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    groups: List[Tuple[str, str, Tuple[RunRequest, ...]]] = []
    for entries in (128, 256):
        for assoc in (1, 4):
            config = ArchitectureConfig(
                frontend="btb", entries=entries, btb_assoc=assoc, cache_kb=16
            )
            groups.append(
                (
                    f"btb-{entries}-{assoc}w",
                    f"{entries} {'direct' if assoc == 1 else f'{assoc}-way'} BTB",
                    _cells(config, program_names, instructions, seed, warmup),
                )
            )
    for kb, assoc in cache_grid:
        config = ArchitectureConfig(
            frontend="nls-table", entries=1024, cache_kb=kb, cache_assoc=assoc
        )
        groups.append(
            (
                f"nls-1024@{kb}K-{assoc}w",
                f"1024 NLS-table, {kb}K {'direct' if assoc == 1 else f'{assoc}-way'}",
                _cells(config, program_names, instructions, seed, warmup),
            )
        )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows: List[Tuple[str, float, float]] = []
        data: Dict[str, float] = {}
        for key, label, cells in groups:
            report = _mean(reports, cells, label)
            chart_rows.append(
                (report.label, report.bep_misfetch, report.bep_mispredict)
            )
            data[key] = report.bep
        return ExperimentResult(
            name="fig5",
            title="Figure 5: average BEP, BTBs vs the 1024-entry NLS-table",
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, _, group in groups for cell in group)
    return ExperimentPlan(name="fig5", cells=cells, finish=finish)


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
    program_names = _programs(programs)
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
    groups: List[Tuple[str, str, str, Tuple[RunRequest, ...]]] = []
    for kb, assoc in cache_grid:
        cache_label = f"{kb}K {'direct' if assoc == 1 else f'{assoc}-way'}"
        for name, base in variants:
            config = base.with_cache(kb, assoc)
            groups.append(
                (
                    cache_label,
                    name,
                    f"{name} @ {cache_label}",
                    _cells(config, program_names, instructions, seed, warmup),
                )
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows = []
        data: Dict[str, Dict[str, float]] = {}
        for cache_label, name, label, cells in groups:
            report = _mean(reports, cells, label)
            rows.append((cache_label, name, f"{report.cpi:.4f}"))
            data.setdefault(cache_label, {})[name] = report.cpi
        text = format_table(["cache", "front-end", "CPI"], rows)
        return ExperimentResult(
            name="fig8",
            title="Figure 8: cycles per instruction (single issue)",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, _, _, group in groups for cell in group)
    return ExperimentPlan(name="fig8", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    variants = [
        (
            "1024 NLS-table + gshare",
            ArchitectureConfig(
                frontend="nls-table",
                entries=1024,
                cache_kb=cache_kb,
                cache_assoc=cache_assoc,
            ),
        ),
        (
            "NLS-cache (2/line) + gshare",
            ArchitectureConfig(
                frontend="nls-cache", cache_kb=cache_kb, cache_assoc=cache_assoc
            ),
        ),
        (
            "Johnson successor index (1-bit)",
            ArchitectureConfig(
                frontend="johnson", cache_kb=cache_kb, cache_assoc=cache_assoc
            ),
        ),
    ]
    groups = [
        (label, _cells(config, program_names, instructions, seed, warmup))
        for label, config in variants
    ]

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows = []
        data: Dict[str, float] = {}
        for label, cells in groups:
            report = _mean(reports, cells, label)
            chart_rows.append(
                (label, report.bep_misfetch, report.bep_mispredict)
            )
            data[label] = report.bep
        return ExperimentResult(
            name="johnson",
            title=(
                "S6.2 comparison: decoupled NLS vs Johnson's coupled "
                f"successor-index design ({cache_kb}K {cache_assoc}-way cache)"
            ),
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="johnson", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    groups = []
    for per_line in (1, 2, 4):
        for policy in ("partition", "lru"):
            label = f"NLS-cache {per_line}/line {policy}"
            config = ArchitectureConfig(
                frontend="nls-cache",
                cache_kb=cache_kb,
                predictors_per_line=per_line,
                nls_cache_policy=policy,
            )
            groups.append(
                (label, _cells(config, program_names, instructions, seed, warmup))
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows = []
        data: Dict[str, float] = {}
        for label, cells in groups:
            report = _mean(reports, cells, label)
            chart_rows.append((label, report.bep_misfetch, report.bep_mispredict))
            data[label] = report.bep
        return ExperimentResult(
            name="ablation-nls-cache",
            title=f"NLS-cache ablation ({cache_kb}K direct-mapped cache)",
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="ablation-nls-cache", cells=cells, finish=finish)


def _ablation_direction_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
) -> ExperimentPlan:
    """Direction-predictor ablation under the 1024-entry NLS-table."""
    program_names = _programs(programs)
    groups = []
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
    ):
        config = ArchitectureConfig(
            frontend="nls-table", entries=1024, cache_kb=16, direction=direction
        )
        groups.append(
            (direction, _cells(config, program_names, instructions, seed, warmup))
        )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows = []
        data: Dict[str, float] = {}
        for direction, cells in groups:
            report = _mean(reports, cells, direction)
            chart_rows.append(
                (direction, report.bep_misfetch, report.bep_mispredict)
            )
            data[direction] = report.bep
        return ExperimentResult(
            name="ablation-direction",
            title="Direction predictor ablation (1024 NLS-table, 16K cache)",
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="ablation-direction", cells=cells, finish=finish)


def _ablation_layout_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    cache_kb: int = 16,
) -> ExperimentPlan:
    """Program-layout ablation (§7: restructuring lowers the I-cache
    miss rate, which improves the NLS architecture but not the BTB)."""
    program_names = _programs(programs)
    groups = []
    for layout in ("natural", "random"):
        for name, config in (
            (
                "1024 NLS-table",
                ArchitectureConfig(frontend="nls-table", entries=1024, cache_kb=cache_kb),
            ),
            ("128 BTB", ArchitectureConfig(frontend="btb", entries=128, cache_kb=cache_kb)),
        ):
            groups.append(
                (
                    layout,
                    name,
                    _cells(
                        config, program_names, instructions, seed, warmup, layout
                    ),
                )
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows = []
        data: Dict[str, Dict[str, float]] = {}
        for layout, name, cells in groups:
            average = _mean(reports, cells, f"{name} / {layout}")
            rows.append(
                (
                    layout,
                    name,
                    f"{100 * average.icache_miss_rate:.2f}%",
                    f"{average.bep_misfetch:.3f}",
                    f"{average.bep:.3f}",
                )
            )
            data.setdefault(layout, {})[name] = average.bep
        text = format_table(
            ["layout", "front-end", "I-miss", "BEP(misfetch)", "BEP"], rows
        )
        return ExperimentResult(
            name="ablation-layout",
            title="Layout ablation: procedure placement vs NLS/BTB BEP",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, _, group in groups for cell in group)
    return ExperimentPlan(name="ablation-layout", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    groups = []
    for entries in (128, 256):
        for name, frontend in (
            (f"decoupled {entries} BTB + gshare", "btb"),
            (f"coupled {entries} BTB (2-bit in entry)", "coupled-btb"),
        ):
            config = ArchitectureConfig(
                frontend=frontend, entries=entries, btb_assoc=1, cache_kb=cache_kb
            )
            groups.append(
                (name, _cells(config, program_names, instructions, seed, warmup))
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows = []
        data: Dict[str, float] = {}
        for name, cells in groups:
            report = _mean(reports, cells, name)
            chart_rows.append((name, report.bep_misfetch, report.bep_mispredict))
            data[name] = report.bep
        return ExperimentResult(
            name="coupled",
            title="S2 comparison: coupled vs decoupled BTB direction prediction",
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="coupled", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    groups: List[Tuple[int, Tuple[RunRequest, ...]]] = []
    for kb in cache_sizes:
        config = ArchitectureConfig(
            frontend="nls-table", entries=1024, cache_kb=kb, cache_assoc=1
        )
        groups.append((kb, _cells(config, program_names, instructions, seed, warmup)))

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows = []
        data: Dict[str, Dict[str, int]] = {}
        for kb, cells in groups:
            totals = {"invalid": 0, "line-field": 0, "displaced": 0, "wrong-way": 0}
            for cell in cells:
                for cause, count in reports[cell].frontend_stats.items():
                    totals[cause] += count
            total = sum(totals.values()) or 1
            rows.append(
                (
                    f"{kb}K",
                    totals["invalid"],
                    totals["line-field"],
                    totals["displaced"],
                    f"{100 * totals['displaced'] / total:.1f}%",
                )
            )
            data[f"{kb}K"] = dict(totals)
        text = format_table(
            ["cache", "invalid", "alias/stale", "displaced", "displaced share"], rows
        )
        return ExperimentResult(
            name="misfetch-causes",
            title="NLS misfetch causes vs cache size (1024-entry table, direct mapped)",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="misfetch-causes", cells=cells, finish=finish)


def _btb_allocation_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
) -> ExperimentPlan:
    """Taken-only vs allocate-all BTB policies (§3's cited result)."""
    program_names = _programs(programs)
    groups = []
    for entries in (128, 256):
        for allocate in ("taken-only", "all"):
            config = ArchitectureConfig(
                frontend="btb", entries=entries, btb_allocate=allocate, cache_kb=16
            )
            label = f"{entries} BTB, allocate {allocate}"
            groups.append(
                (label, _cells(config, program_names, instructions, seed, warmup))
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        chart_rows = []
        data: Dict[str, float] = {}
        for label, cells in groups:
            report = _mean(reports, cells, label)
            chart_rows.append((label, report.bep_misfetch, report.bep_mispredict))
            data[label] = report.bep
        return ExperimentResult(
            name="btb-allocation",
            title="S3: BTB allocation policy (taken-only vs all branches)",
            text=bep_chart(chart_rows),
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="btb-allocation", cells=cells, finish=finish)


def _ras_depth_plan(
    programs: Optional[Sequence[str]] = None,
    instructions: Optional[int] = None,
    seed: Optional[int] = None,
    warmup: float = DEFAULT_WARMUP,
    depths: Sequence[int] = (1, 2, 4, 8, 16, 32),
) -> ExperimentPlan:
    """Return-stack depth sweep (the Kaeli-Emma structure both
    architectures rely on, §3)."""
    program_names = _programs(programs)
    groups: List[Tuple[int, Tuple[RunRequest, ...]]] = []
    for depth in depths:
        config = ArchitectureConfig(
            frontend="nls-table", entries=1024, cache_kb=16, ras_entries=depth
        )
        groups.append(
            (depth, _cells(config, program_names, instructions, seed, warmup))
        )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        from repro.isa.branches import BranchKind

        rows = []
        data: Dict[int, float] = {}
        for depth, cells in groups:
            mispredicted = 0
            executed = 0
            for cell in cells:
                ex, mf, mp = reports[cell].by_kind[BranchKind.RETURN]
                executed += ex
                mispredicted += mp
            rate = 100.0 * mispredicted / executed if executed else 0.0
            rows.append((depth, executed, f"{rate:.2f}%"))
            data[depth] = rate
        text = format_table(["RAS entries", "returns", "return mispredict"], rows)
        return ExperimentResult(
            name="ras-depth",
            title="Return-address-stack depth sweep (1024 NLS-table, 16K cache)",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, group in groups for cell in group)
    return ExperimentPlan(name="ras-depth", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    groups: List[Tuple[int, ArchitectureConfig, Tuple[RunRequest, ...]]] = []
    for line_bytes in line_sizes:
        config = ArchitectureConfig(
            frontend="nls-table", entries=1024, cache_kb=16, line_bytes=line_bytes
        )
        groups.append(
            (
                line_bytes,
                config,
                _cells(config, program_names, instructions, seed, warmup),
            )
        )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows = []
        data: Dict[int, Dict[str, float]] = {}
        model = RBEModel()
        for line_bytes, config, cells in groups:
            report = _mean(reports, cells, f"{line_bytes}B lines")
            entry_bits = model.nls_entry_bits(config.geometry)
            rows.append(
                (
                    f"{line_bytes}B",
                    entry_bits,
                    f"{100 * report.icache_miss_rate:.2f}%",
                    f"{report.bep_misfetch:.3f}",
                    f"{report.bep:.3f}",
                )
            )
            data[line_bytes] = {"bep": report.bep, "entry_bits": entry_bits}
        text = format_table(
            ["line size", "NLS entry bits", "I-miss", "BEP(misfetch)", "BEP"], rows
        )
        return ExperimentResult(
            name="line-size",
            title="Line-size sweep (1024 NLS-table, 16K direct cache)",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, _, group in groups for cell in group)
    return ExperimentPlan(name="line-size", cells=cells, finish=finish)


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
    program_names = _programs(programs)
    groups: List[Tuple[str, str, Tuple[RunRequest, ...]]] = []
    for interval in intervals:
        label = "never" if interval is None else f"every {interval:,}"
        for name, frontend, kwargs in (
            ("1024 NLS-table", "nls-table", {"entries": 1024}),
            ("128 BTB", "btb", {"entries": 128}),
        ):
            config = ArchitectureConfig(
                frontend=frontend, cache_kb=16, flush_interval=interval, **kwargs
            )
            # cold restarts are the effect being measured: no warmup
            groups.append(
                (label, name, _cells(config, program_names, instructions, seed, 0.0))
            )

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows = []
        data: Dict[str, Dict[str, float]] = {}
        for label, name, cells in groups:
            report = _mean(reports, cells, name)
            rows.append(
                (
                    label,
                    name,
                    f"{100 * report.icache_miss_rate:.2f}%",
                    f"{report.bep:.3f}",
                )
            )
            data.setdefault(label, {})[name] = report.bep
        text = format_table(["flush interval", "front-end", "I-miss", "BEP"], rows)
        return ExperimentResult(
            name="context-switch",
            title="Context-switch sensitivity (periodic full state flush)",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, _, group in groups for cell in group)
    return ExperimentPlan(name="context-switch", cells=cells, finish=finish)


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

    program_names = (
        list(programs) if programs is not None else list(server_programs())
    )
    groups: List[Tuple[str, str, Tuple[RunRequest, ...]]] = [
        (
            key,
            config.label(),
            _cells(config, program_names, instructions, seed, warmup),
        )
        for key, config in REPLAY_ROSTER
    ]

    def finish(reports: ReportMap) -> ExperimentResult:
        """Render this experiment's cell reports into its result."""
        rows: List[Tuple[str, ...]] = []
        data: Dict[str, Dict[str, float]] = {}
        for key, _, cells in groups:
            per_program: Dict[str, float] = {}
            for cell in cells:
                report = reports[cell]
                display = (
                    cell.program
                    if len(cell.program) <= 24
                    else cell.program[:21] + "..."
                )
                rows.append(
                    (
                        display,
                        key,
                        f"{report.pct_misfetched:.2f}",
                        f"{report.pct_mispredicted:.2f}",
                        f"{report.bep:.3f}",
                        f"{report.icache_miss_rate * 100:.2f}%",
                        f"{report.cpi:.4f}",
                    )
                )
                per_program[cell.program] = report.bep
            data[key] = per_program
        text = format_table(
            ["program", "config", "%MfB", "%MpB", "BEP", "miss", "CPI"], rows
        )
        return ExperimentResult(
            name="replay",
            title="Replay: compact sweep over external/modern workloads",
            text=text,
            data=data,
        )

    cells = tuple(cell for _, _, group in groups for cell in group)
    return ExperimentPlan(name="replay", cells=cells, finish=finish)


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
