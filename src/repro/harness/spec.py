"""Declarative experiment specs: the spec → plan → backend pipeline.

An :class:`ExperimentSpec` is the registered, declarative form of one
table/figure: a name, a one-line summary, and a *plan builder* that —
given the experiment's keyword knobs (programs, trace length, cache
grid, ...) — materialises an :class:`ExperimentPlan`: the exact
simulation cells the experiment needs plus a ``finish`` renderer that
turns the cell reports into the final :class:`ExperimentResult`.

Splitting *what to simulate* (cells) from *how to present it*
(finish) is what makes the full-paper reproduction embarrassingly
parallel: :func:`run_plans` pools the cells of many experiments into
one deduplicated :class:`~repro.harness.runner.RunPlan`, executes the
unique cells through any backend, and hands each experiment's
renderer the shared reports.  Cost-model experiments (fig3, fig6, …)
simply declare zero cells and do all their work in ``finish``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness.runner import (
    ExecutionPolicy,
    RunPlan,
    RunRequest,
    quarantined_report,
)
from repro.metrics.report import SimulationReport

#: the request → report mapping a plan's ``finish`` renderer receives
ReportMap = Mapping[RunRequest, SimulationReport]


@dataclass
class ExperimentResult:
    """Rendered text plus raw data of one regenerated table/figure."""

    name: str
    title: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.title}\n\n{self.text}"


@dataclass(frozen=True)
class ExperimentPlan:
    """The materialised cells + renderer of one experiment invocation.

    ``cells`` may repeat or overlap other experiments' cells — the
    executor dedups; ``finish`` must only read ``reports[cell]`` for
    its own cells, so it works identically whether the reports came
    from a private serial run or a shared parallel plan.
    """

    name: str
    cells: Tuple[RunRequest, ...]
    finish: Callable[[ReportMap], ExperimentResult]

    def run(
        self,
        backend: str = "serial",
        jobs: Optional[int] = None,
        policy: Optional[ExecutionPolicy] = None,
    ) -> ExperimentResult:
        """Execute this plan's cells alone and render the result.

        The single-plan case of :func:`run_plans`: one executor entry
        serves a lone experiment and a pooled sweep alike.
        """
        (result,), _ = run_plans([self], backend=backend, jobs=jobs, policy=policy)
        return result


@dataclass(frozen=True)
class ExperimentSpec:
    """A registered experiment: name, summary, and plan builder.

    ``build(**kwargs)`` accepts the experiment's keyword knobs
    (``programs``, ``instructions``, ``seed``, ``warmup``, grids, ...)
    and returns the materialised :class:`ExperimentPlan`; building a
    plan is cheap (no simulation), so cell counts can be inspected
    without running anything.  ``spec.plan(**knobs).run()`` executes
    one experiment; :func:`run_plans` executes many, pooled.
    """

    name: str
    summary: str
    build: Callable[..., ExperimentPlan]

    def plan(self, **kwargs) -> ExperimentPlan:
        """Materialise the plan for the given experiment knobs."""
        return self.build(**kwargs)


def _with_placeholders(
    reports: Mapping[RunRequest, SimulationReport], plan: RunPlan
) -> Mapping[RunRequest, SimulationReport]:
    """Fill quarantined cells with zero-metric placeholders so every
    renderer can finish the sweep (DESIGN.md §12 — graceful
    degradation); the CLI separately reports the failures and exits
    non-zero."""
    if not plan.failures:
        return reports
    filled = dict(reports)
    for request in plan.failures:
        filled[request] = quarantined_report(request)
    return filled


def with_engine(
    plans: Sequence[ExperimentPlan], engine: str
) -> List[ExperimentPlan]:
    """Copies of *plans* with every cell's config switched to *engine*.

    The engine-selection seam of the harness: plan builders declare
    *what* to simulate with the default (reference) engine, and the
    CLI and the service rewrite the materialised cells for the
    requested engine — so specs stay engine-agnostic and dedup keys
    still collapse identical cells within one engine choice.  ``finish``
    renderers close over the *original* requests they built, so each
    rewritten plan's renderer receives the reports aliased under both
    the rewritten and the original (reference-engine) keys.
    """
    if engine == "reference":
        return list(plans)
    return [
        replace(
            plan,
            cells=tuple(
                replace(cell, config=replace(cell.config, engine=engine))
                for cell in plan.cells
            ),
            finish=_engine_transparent(plan.finish),
        )
        for plan in plans
    ]


def _engine_transparent(
    finish: Callable[[ReportMap], ExperimentResult]
) -> Callable[[ReportMap], ExperimentResult]:
    """Wrap a renderer so engine-rewritten reports are also reachable
    under the reference-engine request keys the renderer captured."""

    def wrapper(reports: ReportMap) -> ExperimentResult:
        """Alias engine-rewritten reports under reference-engine keys."""
        aliased: Dict[RunRequest, SimulationReport] = dict(reports)
        for request, report in reports.items():
            if request.config.engine != "reference":
                aliased.setdefault(
                    replace(
                        request,
                        config=replace(request.config, engine="reference"),
                    ),
                    report,
                )
        return finish(aliased)

    return wrapper


def run_plans(
    plans: Sequence[ExperimentPlan],
    backend: str = "serial",
    jobs: Optional[int] = None,
    policy: Optional[ExecutionPolicy] = None,
    store=None,
    observer=None,
) -> Tuple[List[ExperimentResult], RunPlan]:
    """Execute many experiments against one shared, deduplicated plan.

    Returns the rendered results (in *plans* order) together with the
    executed :class:`RunPlan`, whose ``requested``/``unique`` counters
    report how many engine runs cross-experiment dedup saved.  Under a
    resilience *policy*, quarantined cells render as placeholder
    reports and their failure records stay on ``plan.failures``.  With
    a *store* (a :class:`repro.service.store.ResultStore`), cells
    already persisted are served without simulation and each fresh
    cell is written back as it completes; *observer* receives per-cell progress events
    (see :data:`repro.harness.runner.OBSERVER_EVENTS`).
    """
    plan = RunPlan()
    for experiment in plans:
        plan.add_all(experiment.cells)
    reports = _with_placeholders(
        plan.execute(
            backend=backend,
            jobs=jobs,
            policy=policy,
            store=store,
            observer=observer,
        ),
        plan,
    )
    return [experiment.finish(reports) for experiment in plans], plan
