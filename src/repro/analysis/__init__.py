"""Analysis tools layered on top of the simulator.

* :mod:`repro.analysis.attribution` — per-static-site cause profiles:
  fold an engine's attribution snapshot into ranked hot-offender
  tables with an exact BEP decomposition (DESIGN.md §11);
* :mod:`repro.analysis.breakdown` — per-branch-kind penalty
  attribution (which kinds pay misfetch vs mispredict cycles);
* :mod:`repro.analysis.capacity` — structure-capacity curves (BTB hit
  rate and NLS occupancy/alias rate vs entry count);
* :mod:`repro.analysis.sensitivity` — penalty-model sensitivity: how
  the NLS-vs-BTB conclusion moves as the misfetch/mispredict/miss
  penalties change with pipeline depth;
* :mod:`repro.analysis.results` — cross-run loading: export sets
  and the result store flattened into one tidy table
  (:class:`~repro.analysis.results.ResultFrame`, pandas-upgradable);
* :mod:`repro.analysis.stat_tests` — paired-bootstrap / Mann-Whitney
  comparisons across seeds with Benjamini-Hochberg correction and a
  machine-readable verdict table;
* :mod:`repro.analysis.figures` / :mod:`repro.analysis.rendering` —
  paper-figure reproductions (Figs 4/5/8, Table 1 audit) rendered
  into a self-contained HTML/markdown regression dashboard
  (``harness analyze``, docs/ANALYSIS.md).
"""

from repro.analysis.attribution import (
    AttributionProfile,
    SiteProfile,
    conservation_errors,
    fold_attribution,
    render_markdown,
)
from repro.analysis.breakdown import penalty_breakdown
from repro.analysis.capacity import btb_capacity_curve, nls_capacity_curve
from repro.analysis.rendering import render_dashboard
from repro.analysis.results import ResultFrame, load_export_sets, load_store
from repro.analysis.sensitivity import penalty_sensitivity
from repro.analysis.stat_tests import compare, gate

__all__ = [
    "AttributionProfile",
    "SiteProfile",
    "conservation_errors",
    "fold_attribution",
    "render_markdown",
    "penalty_breakdown",
    "btb_capacity_curve",
    "nls_capacity_curve",
    "penalty_sensitivity",
    "ResultFrame",
    "load_export_sets",
    "load_store",
    "compare",
    "gate",
    "render_dashboard",
]
