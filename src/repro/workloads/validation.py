"""Calibration validation: measured trace attributes vs the paper.

Quantifies how close each synthetic workload sits to its Table 1 row.
Used by ``repro.harness calibration`` and recorded in EXPERIMENTS.md so
the fidelity of the ATOM-trace substitution is auditable rather than
asserted.

Two kinds of agreement are tracked:

* **value agreement** — per-column relative/absolute error of the
  scalar attributes (break density, taken rate, type mix);
* **rank agreement** — whether the six programs keep the paper's
  ordering on each attribute (the comparisons in §7 depend on program
  *character*, not exact values): Spearman-style rank correlation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.workloads.profiles import PaperAttributes
from repro.workloads.stats import TraceAttributes


@dataclass(frozen=True)
class FieldComparison:
    """One attribute compared against the paper's value."""

    field: str
    measured: float
    paper: float

    @property
    def absolute_error(self) -> float:
        """Measured minus paper value."""
        return self.measured - self.paper

    @property
    def relative_error(self) -> float:
        """Relative error; falls back to absolute when paper ~ 0."""
        if abs(self.paper) < 1e-9:
            return self.absolute_error
        return self.absolute_error / self.paper


#: scalar columns compared per program (name, measured attr, paper attr)
_SCALAR_FIELDS: Tuple[Tuple[str, str, str], ...] = (
    ("%breaks", "pct_breaks", "pct_breaks"),
    ("%taken", "pct_taken", "pct_taken"),
    ("%CBr", "pct_cbr", "pct_cbr"),
    ("%IJ", "pct_ij", "pct_ij"),
    ("%Br", "pct_br", "pct_br"),
    ("%Call", "pct_call", "pct_call"),
    ("%Ret", "pct_ret", "pct_ret"),
)

#: rank-compared columns (dynamic concentration scales with trace
#: length, so only the cross-program ordering is meaningful)
_RANK_FIELDS: Tuple[str, ...] = ("q50", "q90", "q99", "q100")


def compare_program(
    measured: TraceAttributes, paper: PaperAttributes
) -> List[FieldComparison]:
    """Compare one program's measured attributes with its Table 1 row."""
    comparisons = []
    for label, measured_attr, paper_attr in _SCALAR_FIELDS:
        comparisons.append(
            FieldComparison(
                field=label,
                measured=getattr(measured, measured_attr),
                paper=getattr(paper, paper_attr),
            )
        )
    return comparisons


def _ranks(values: Sequence[float]) -> List[int]:
    order = sorted(range(len(values)), key=lambda index: values[index])
    ranks = [0] * len(values)
    for rank, index in enumerate(order):
        ranks[index] = rank
    return ranks


def rank_correlation(a: Sequence[float], b: Sequence[float]) -> float:
    """Spearman rank correlation of two equal-length sequences."""
    if len(a) != len(b) or len(a) < 2:
        raise ValueError("need two equal-length sequences of at least 2")
    ranks_a = _ranks(a)
    ranks_b = _ranks(b)
    n = len(a)
    d_squared = sum((x - y) ** 2 for x, y in zip(ranks_a, ranks_b))
    return 1.0 - 6.0 * d_squared / (n * (n * n - 1))


@dataclass(frozen=True)
class CalibrationSummary:
    """Aggregate calibration quality over all programs."""

    per_program: Dict[str, List[FieldComparison]]
    rank_correlations: Dict[str, float]

    @property
    def mean_absolute_scalar_error(self) -> float:
        """Mean |absolute error| over all scalar comparisons (all the
        scalar columns are percentages, so this is in points)."""
        errors = [
            abs(comparison.absolute_error)
            for comparisons in self.per_program.values()
            for comparison in comparisons
        ]
        return sum(errors) / len(errors) if errors else 0.0

    @property
    def worst_field(self) -> Tuple[str, str, float]:
        """(program, field, absolute error) of the worst comparison."""
        worst = ("", "", 0.0)
        for program, comparisons in self.per_program.items():
            for comparison in comparisons:
                if abs(comparison.absolute_error) > abs(worst[2]):
                    worst = (program, comparison.field, comparison.absolute_error)
        return worst


def summarise(
    measured: Dict[str, TraceAttributes],
    papers: Dict[str, PaperAttributes],
) -> CalibrationSummary:
    """Build the full calibration summary for a set of programs."""
    per_program = {
        name: compare_program(measured[name], papers[name]) for name in measured
    }
    names = list(measured)
    correlations: Dict[str, float] = {}
    if len(names) >= 2:
        for field in _RANK_FIELDS:
            correlations[field] = rank_correlation(
                [getattr(measured[name], field) for name in names],
                [getattr(papers[name], field) for name in names],
            )
        for label, measured_attr, paper_attr in _SCALAR_FIELDS:
            correlations[label] = rank_correlation(
                [getattr(measured[name], measured_attr) for name in names],
                [getattr(papers[name], paper_attr) for name in names],
            )
    return CalibrationSummary(
        per_program=per_program, rank_correlations=correlations
    )
