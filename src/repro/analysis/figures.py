"""Paper-figure reproductions for the regression dashboard.

Charts are built from tidy :class:`~repro.analysis.results.ResultFrame`
rows and rendered as **self-contained markup**: inline SVG, with no
dependency beyond the standard library, so the dashboard renders in
the numpy-only environment.

The three figure builders mirror the paper figures the harness
regenerates:

* :func:`fig4_chart` — grouped BEP bars, NLS-cache vs NLS-tables per
  instruction-cache configuration (Figure 4);
* :func:`fig5_chart` — BEP bars, BTBs vs the 1024-entry NLS-table,
  overlaying every loaded export set (Figure 5);
* :func:`fig8_chart` — CPI per cache configuration and front-end
  (Figure 8);

plus :func:`calibration_audit`, the Table 1 calibration table (mean
absolute error and per-attribute rank correlations per set).
"""

from __future__ import annotations

from html import escape
from typing import Dict, List, Optional, Tuple

from repro.analysis.results import ResultFrame

#: fill colours cycled across chart series (colourblind-safe-ish)
PALETTE = (
    "#4878cf",
    "#ee854a",
    "#6acc65",
    "#d65f5f",
    "#956cb4",
    "#8c613c",
    "#dc7ec0",
    "#797979",
)

#: grouped-bar data: ``[(category, {series: value})]`` plus series order
GroupedBars = Tuple[List[Tuple[str, Dict[str, float]]], List[str]]


# ---------------------------------------------------------------------------
# SVG primitives (the dependency-free default)
# ---------------------------------------------------------------------------


def _svg_grouped_bars(
    title: str,
    groups: List[Tuple[str, Dict[str, float]]],
    series: List[str],
    y_label: str,
    width: int = 760,
    height: int = 340,
) -> str:
    """Inline-SVG grouped bar chart (categories on x, one bar per
    series inside each category, legend on the right)."""
    margin_left, margin_right = 56, 150
    margin_top, margin_bottom = 34, 70
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    peak = max(
        (value for _, values in groups for value in values.values()),
        default=0.0,
    )
    peak = peak or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{margin_left}" y="18" font-size="13" '
        f'font-weight="bold">{escape(title)}</text>',
        f'<text x="12" y="{margin_top + plot_h / 2:.0f}" '
        f'transform="rotate(-90 12 {margin_top + plot_h / 2:.0f})" '
        f'text-anchor="middle">{escape(y_label)}</text>',
    ]
    # y grid: four ticks
    for tick in range(5):
        value = peak * tick / 4.0
        y = margin_top + plot_h - plot_h * tick / 4.0
        parts.append(
            f'<line x1="{margin_left}" y1="{y:.1f}" '
            f'x2="{margin_left + plot_w}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{y + 4:.1f}" '
            f'text-anchor="end">{value:.2f}</text>'
        )
    group_w = plot_w / max(len(groups), 1)
    bar_w = max(2.0, min(24.0, group_w * 0.8 / max(len(series), 1)))
    for position, (category, values) in enumerate(groups):
        group_x = margin_left + group_w * position
        cluster_w = bar_w * len(series)
        start_x = group_x + (group_w - cluster_w) / 2.0
        for rank, name in enumerate(series):
            value = values.get(name)
            if value is None:
                continue
            bar_h = plot_h * value / peak
            x = start_x + bar_w * rank
            y = margin_top + plot_h - bar_h
            colour = PALETTE[rank % len(PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w:.1f}" '
                f'height="{bar_h:.1f}" fill="{colour}">'
                f"<title>{escape(category)} / {escape(name)}: "
                f"{value:.4f}</title></rect>"
            )
        label_x = group_x + group_w / 2.0
        label_y = margin_top + plot_h + 12
        parts.append(
            f'<text x="{label_x:.1f}" y="{label_y}" text-anchor="end" '
            f'transform="rotate(-30 {label_x:.1f} {label_y})">'
            f"{escape(category)}</text>"
        )
    legend_x = margin_left + plot_w + 12
    for rank, name in enumerate(series):
        y = margin_top + 16 * rank
        colour = PALETTE[rank % len(PALETTE)]
        parts.append(
            f'<rect x="{legend_x}" y="{y}" width="10" height="10" '
            f'fill="{colour}"/>'
        )
        parts.append(
            f'<text x="{legend_x + 14}" y="{y + 9}">{escape(name)}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def grouped_bars(
    title: str,
    groups: List[Tuple[str, Dict[str, float]]],
    series: List[str],
    y_label: str,
) -> str:
    """Render one grouped-bar chart as inline SVG ("" when empty)."""
    if not groups or not series:
        return ""
    return _svg_grouped_bars(title, groups, series, y_label)


# ---------------------------------------------------------------------------
# figure builders (tidy rows -> chart)
# ---------------------------------------------------------------------------


def _pivot(
    frame: ResultFrame,
    experiment: str,
    metric: str,
    set_label: Optional[str] = None,
) -> Dict[str, Dict[str, float]]:
    """``{category: {series: mean value}}`` for one experiment/metric,
    averaging across seeds/programs; two-part keys split into
    (category, series), flat keys pivot sets as the series."""
    rows = frame.filter(experiment=experiment, metric=metric)
    if set_label is not None:
        rows = rows.filter(set=set_label)
    sums: Dict[Tuple[str, str], List[float]] = {}
    for row in rows:
        parts = str(row["key"]).split("/")
        if set_label is None:
            category, series = str(row["key"]), str(row["set"])
        elif len(parts) >= 2:
            category, series = parts[0], "/".join(parts[1:])
        else:
            category, series = parts[0], metric
        sums.setdefault((category, series), []).append(float(row["value"]))
    pivot: Dict[str, Dict[str, float]] = {}
    for (category, series), values in sums.items():
        pivot.setdefault(category, {})[series] = sum(values) / len(values)
    return pivot


def _as_groups(pivot: Dict[str, Dict[str, float]]) -> GroupedBars:
    groups = [(category, pivot[category]) for category in sorted(pivot)]
    series = sorted({name for _, values in pivot.items() for name in values})
    return groups, series


def fig4_chart(frame: ResultFrame, set_label: str) -> str:
    """Figure 4 reproduction: BEP of the NLS-cache and NLS-tables per
    instruction-cache configuration, for one export set."""
    pivot = _pivot(frame, "fig4", "bep", set_label=set_label)
    groups, series = _as_groups(pivot)
    return grouped_bars(
        f"Figure 4 — average BEP, NLS predictors ({set_label})",
        groups,
        series,
        "branch execution penalty (cycles)",
    )


def fig5_chart(frame: ResultFrame) -> str:
    """Figure 5 reproduction: BEP of BTBs vs the 1024-entry NLS-table,
    one bar series per loaded export set (baseline vs current)."""
    pivot = _pivot(frame, "fig5", "bep", set_label=None)
    groups, series = _as_groups(pivot)
    return grouped_bars(
        "Figure 5 — average BEP, BTBs vs 1024-entry NLS-table (all sets)",
        groups,
        series,
        "branch execution penalty (cycles)",
    )


def fig8_chart(frame: ResultFrame, set_label: str) -> str:
    """Figure 8 reproduction: CPI per cache configuration and
    front-end, for one export set."""
    pivot = _pivot(frame, "fig8", "cpi", set_label=set_label)
    groups, series = _as_groups(pivot)
    return grouped_bars(
        f"Figure 8 — cycles per instruction ({set_label})",
        groups,
        series,
        "CPI (single issue)",
    )


def calibration_audit(frame: ResultFrame) -> List[Tuple[str, str, str]]:
    """Table 1 calibration audit rows: ``(set, measure, value)`` for
    the mean absolute error and each rank correlation, per set."""
    rows: List[Tuple[str, str, str]] = []
    for set_label in frame.unique("set"):
        subset = frame.filter(set=set_label, experiment="calibration")
        for row in subset.filter(metric="mean_abs_error"):
            rows.append(
                (str(set_label), "mean |error| (points)", f"{row['value']:.2f}")
            )
        for row in sorted(
            subset.filter(metric="rank_corr"), key=lambda r: str(r["key"])
        ):
            rows.append(
                (
                    str(set_label),
                    f"rank corr: {row['key']}",
                    f"{row['value']:+.2f}",
                )
            )
    return rows
