"""Self-contained regression dashboard rendering (HTML / markdown).

Assembles everything the analysis layer computed — the tidy result
frame, the statistical verdict table and the paper-figure
reproductions — into one artifact a reviewer (or a CI
artifact browser) can open directly:

* **HTML** (``index.html``): inline CSS + inline SVG / base64 images,
  no external assets, so the file works from a CI artifact zip;
* **markdown** (``REPORT.md``): the same sections as GitHub-flavoured
  tables (figures render as their drill-down tables);

plus ``verdicts.json``, the machine-readable verdict table
(``repro-verdicts/v1``) the ``analyze --gate`` CI contract consumes.

Layout: a summary header (sets, seeds, git SHAs, verdict counts), the
verdict table, Figures 4/5/8, the Table 1 calibration audit, and a
per-experiment drill-down of every (key, metric) with baseline vs
current values and relative deltas.
"""

from __future__ import annotations

import json
import os
from html import escape
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis import figures as figures_module
from repro.analysis.results import ResultFrame

#: dashboard filenames inside the --out directory
HTML_NAME = "index.html"
MARKDOWN_NAME = "REPORT.md"
VERDICTS_NAME = "verdicts.json"

_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       color: #1a1a1a; max-width: 72rem; }
h1 { border-bottom: 2px solid #4878cf; padding-bottom: .3rem; }
h2 { margin-top: 2rem; }
table { border-collapse: collapse; margin: .8rem 0; font-size: .9rem; }
th, td { border: 1px solid #ccc; padding: .25rem .6rem; text-align: left; }
th { background: #f0f3fa; }
tr.regressed td { background: #fde8e8; }
tr.improved td { background: #e8f8e8; }
.verdict-regressed { color: #b91c1c; font-weight: bold; }
.verdict-improved { color: #15803d; font-weight: bold; }
.verdict-no-change { color: #666; }
.verdict-shifted { color: #b45309; }
.summary-chip { display: inline-block; padding: .15rem .6rem;
                border-radius: 1rem; margin-right: .4rem;
                background: #f0f3fa; font-size: .9rem; }
figure { margin: 1rem 0; }
""".strip()


def _html_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    row_classes: Optional[Sequence[str]] = None,
) -> str:
    lines = ["<table>", "<tr>"]
    lines += [f"<th>{escape(str(header))}</th>" for header in headers]
    lines.append("</tr>")
    for position, row in enumerate(rows):
        cls = row_classes[position] if row_classes else ""
        lines.append(f'<tr class="{cls}">' if cls else "<tr>")
        lines += [f"<td>{escape(str(cell))}</td>" for cell in row]
        lines.append("</tr>")
    lines.append("</table>")
    return "".join(lines)


def _markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    def clean(cell: Any) -> str:
        """The cell as text, with pipes escaped."""
        return str(cell).replace("|", "\\|")

    lines = [
        "| " + " | ".join(clean(header) for header in headers) + " |",
        "|" + "---|" * len(headers),
    ]
    lines += ["| " + " | ".join(clean(cell) for cell in row) + " |" for row in rows]
    return "\n".join(lines)


def _verdict_rows(
    verdicts: Dict[str, Any]
) -> Tuple[List[List[str]], List[str]]:
    rows: List[List[str]] = []
    classes: List[str] = []
    ordered = sorted(
        verdicts.get("comparisons", []),
        key=lambda row: (
            {"regressed": 0, "improved": 1, "shifted": 2}.get(row["verdict"], 3),
            str(row["experiment"]),
            str(row["metric"]),
        ),
    )
    for row in ordered:
        rows.append(
            [
                str(row["experiment"]),
                str(row["metric"]),
                row["verdict"],
                f"{row['baseline_mean']:.4f}",
                f"{row['current_mean']:.4f}",
                f"{row['rel_diff']:+.2%}",
                f"{row['p_value']:.4f}",
                f"{row['q_value']:.4f}",
                f"{row['test']} (n={row['n_pairs'] or row['n_baseline']})",
            ]
        )
        classes.append(
            row["verdict"] if row["verdict"] in ("regressed", "improved") else ""
        )
    return rows, classes


_VERDICT_HEADERS = (
    "experiment",
    "metric",
    "verdict",
    "baseline",
    "current",
    "Δ rel",
    "p",
    "q (BH)",
    "test",
)


def _drilldown(
    frame: ResultFrame,
    experiment: str,
    baseline: Optional[str],
    sets: Sequence[str],
) -> Tuple[List[str], List[List[str]]]:
    """Per-experiment drill-down table: one row per (key, metric) with
    every set's mean value and the relative delta vs baseline."""
    subset = frame.filter(experiment=experiment)
    means: Dict[Tuple[str, str, str], List[float]] = {}
    for row in subset:
        means.setdefault(
            (str(row["key"]), str(row["metric"]), str(row["set"])), []
        ).append(float(row["value"]))
    keys = sorted({(key, metric) for key, metric, _ in means})
    headers = ["key", "metric"] + [str(s) for s in sets]
    if baseline is not None and len(sets) > 1:
        headers.append("Δ vs baseline")
    rows: List[List[str]] = []
    for key, metric in keys:
        cells = [key, metric]
        per_set: Dict[str, float] = {}
        for set_label in sets:
            values = means.get((key, metric, str(set_label)))
            if values:
                per_set[str(set_label)] = sum(values) / len(values)
                cells.append(f"{per_set[str(set_label)]:.4f}")
            else:
                cells.append("—")
        if baseline is not None and len(sets) > 1:
            base = per_set.get(str(baseline))
            others = [v for s, v in per_set.items() if s != str(baseline)]
            if base and others:
                cells.append(f"{(others[-1] - base) / abs(base):+.2%}")
            else:
                cells.append("—")
        rows.append(cells)
    return headers, rows


def render_dashboard(
    frame: ResultFrame,
    verdicts: Optional[Dict[str, Any]],
    out_dir: str,
    fmt: str = "html",
    title: str = "NLS reproduction — cross-run analysis",
) -> List[str]:
    """Render the dashboard into *out_dir*; returns the written paths.

    *fmt* selects ``html`` (``index.html``) or ``md`` (``REPORT.md``);
    ``verdicts.json`` is always written when a verdict table exists.
    """
    if fmt not in ("html", "md"):
        raise ValueError(f"unknown dashboard format {fmt!r}")
    os.makedirs(out_dir, exist_ok=True)
    written: List[str] = []
    sets = [str(s) for s in frame.unique("set")]
    baseline = verdicts.get("baseline") if verdicts else None
    current = verdicts.get("current") if verdicts else None
    figure_set = current or (sets[-1] if sets else "")

    summary_bits: List[Tuple[str, str]] = []
    for set_label in sets:
        subset = frame.filter(set=set_label)
        seeds = subset.unique("seed")
        shas = [str(sha)[:12] for sha in subset.unique("git_sha")]
        summary_bits.append(
            (
                set_label,
                f"{len(subset)} rows, "
                f"experiments: {', '.join(map(str, subset.unique('experiment')))}"
                + (f", seeds: {', '.join(map(str, seeds))}" if seeds else "")
                + (f", git: {', '.join(shas)}" if shas else ""),
            )
        )
    counts = (verdicts or {}).get("counts", {})

    experiments = [str(e) for e in frame.unique("experiment")]
    drilldowns = [
        (experiment, _drilldown(frame, experiment, baseline, sets))
        for experiment in experiments
    ]
    calibration_rows = figures_module.calibration_audit(frame)
    verdict_rows, verdict_classes = (
        _verdict_rows(verdicts) if verdicts else ([], [])
    )

    if fmt == "html":
        charts = [
            figures_module.fig4_chart(frame, figure_set),
            figures_module.fig5_chart(frame),
            figures_module.fig8_chart(frame, figure_set),
        ]
        parts = [
            "<!DOCTYPE html><html><head><meta charset='utf-8'/>",
            f"<title>{escape(title)}</title>",
            f"<style>{_CSS}</style></head><body>",
            f"<h1>{escape(title)}</h1>",
        ]
        for verdict_name in ("regressed", "improved", "no-change", "shifted"):
            if verdict_name in counts:
                parts.append(
                    f'<span class="summary-chip verdict-{verdict_name}">'
                    f"{counts[verdict_name]} {verdict_name}</span>"
                )
        parts.append("<h2>Export sets</h2>")
        parts.append(
            _html_table(["set", "contents"], [list(bit) for bit in summary_bits])
        )
        if verdict_rows:
            parts.append(
                f"<h2>Verdicts — {escape(str(baseline))} → "
                f"{escape(str(current))}</h2>"
            )
            parts.append(
                _html_table(_VERDICT_HEADERS, verdict_rows, verdict_classes)
            )
        parts.append("<h2>Paper figures</h2>")
        for chart in charts:
            if chart:
                parts.append(f"<figure>{chart}</figure>")
        if calibration_rows:
            parts.append("<h2>Table 1 calibration audit</h2>")
            parts.append(
                _html_table(
                    ["set", "measure", "value"],
                    [list(row) for row in calibration_rows],
                )
            )
        parts.append("<h2>Per-experiment drill-down</h2>")
        for experiment, (headers, rows) in drilldowns:
            parts.append(f"<h3>{escape(experiment)}</h3>")
            parts.append(_html_table(headers, rows))
        parts.append("</body></html>")
        path = os.path.join(out_dir, HTML_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(parts) + "\n")
        written.append(path)
    else:
        lines = [f"# {title}", ""]
        if counts:
            lines.append(
                " · ".join(
                    f"**{counts[name]} {name}**"
                    for name in ("regressed", "improved", "no-change", "shifted")
                    if name in counts
                )
            )
            lines.append("")
        lines += ["## Export sets", ""]
        lines.append(
            _markdown_table(
                ["set", "contents"], [list(bit) for bit in summary_bits]
            )
        )
        if verdict_rows:
            lines += ["", f"## Verdicts — {baseline} → {current}", ""]
            lines.append(_markdown_table(_VERDICT_HEADERS, verdict_rows))
        if calibration_rows:
            lines += ["", "## Table 1 calibration audit", ""]
            lines.append(
                _markdown_table(
                    ["set", "measure", "value"],
                    [list(row) for row in calibration_rows],
                )
            )
        lines += ["", "## Per-experiment drill-down", ""]
        for experiment, (headers, rows) in drilldowns:
            lines += [f"### {experiment}", ""]
            lines.append(_markdown_table(headers, rows))
            lines.append("")
        path = os.path.join(out_dir, MARKDOWN_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        written.append(path)

    if verdicts is not None:
        path = os.path.join(out_dir, VERDICTS_NAME)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(verdicts, handle, indent=2, sort_keys=True)
            handle.write("\n")
        written.append(path)
    return written
