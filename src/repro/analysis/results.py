"""Tidy cross-run result loading (the analysis layer's data plane).

Every run artifact the harness emits — ``--out`` export directories
(``<experiment>.json`` plus the ``EXPORTS.json`` set manifest) and
the content-addressed SQLite result store — flattens here into one long
("tidy") table: one row per observed metric value, keyed by

    (set, experiment, key, metric, value, seed, git_sha, program, source)

where *set* labels the export set the value came from (the unit the
statistical comparisons in :mod:`repro.analysis.stat_tests` pair
across), *key* is the ``/``-joined path of the leaf inside the
experiment's data dict (e.g. ``nls-cache/8K direct``), and *metric*
names what the value measures (``bep``, ``cpi``, ``rank_corr``, ...).

The table is a plain list of dicts wrapped in :class:`ResultFrame` —
deliberately dependency-free so the analysis layer works in the bare
``numpy``-only environment; :meth:`ResultFrame.to_pandas` upgrades to
a real ``pandas.DataFrame`` when the optional ``[analysis]`` extra is
installed.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: per-directory export-set manifest filename (written by the CLI)
EXPORT_MANIFEST_NAME = "EXPORTS.json"

#: tidy-table column order (stable, part of the documented schema)
COLUMNS = (
    "set",
    "experiment",
    "key",
    "metric",
    "value",
    "seed",
    "git_sha",
    "program",
    "source",
)

#: metric names carried by a serialised report-like export object
REPORT_METRICS = (
    "bep",
    "bep_misfetch",
    "bep_mispredict",
    "pct_misfetched",
    "pct_mispredicted",
    "icache_miss_rate",
    "cpi",
)

#: what the scalar leaves of each experiment's data dict measure;
#: experiments absent here fall back to the leaf's last path component
DEFAULT_METRIC = {
    "fig3": "rbe",
    "fig4": "bep",
    "fig5": "bep",
    "fig6": "rbe",
    "fig8": "cpi",
    "johnson": "bep",
    "flush": "bep",
    "layout": "bep",
    "coupled": "bep",
    "misfetch-causes": "count",
    "gshare": "accuracy",
}

Row = Dict[str, Any]


class ResultFrame:
    """A tidy table of result rows with small pandas-like helpers.

    Rows are plain dicts sharing the :data:`COLUMNS` keys.  The class
    only implements the handful of verbs the analysis layer needs
    (filter / unique / group-by); anything heavier should go through
    :meth:`to_pandas`.
    """

    def __init__(self, rows: Optional[Iterable[Row]] = None) -> None:
        self.rows: List[Row] = [dict(row) for row in rows or ()]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def extend(self, rows: Iterable[Row]) -> "ResultFrame":
        """Append *rows* in place; returns self for chaining."""
        self.rows.extend(dict(row) for row in rows)
        return self

    def filter(self, **equals: Any) -> "ResultFrame":
        """Rows whose columns equal every given keyword value."""
        return ResultFrame(
            row
            for row in self.rows
            if all(row.get(column) == value for column, value in equals.items())
        )

    def column(self, name: str) -> List[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def unique(self, name: str) -> List[Any]:
        """Sorted distinct non-``None`` values of one column."""
        return sorted(
            {row.get(name) for row in self.rows} - {None},
            key=lambda value: (str(type(value)), value),
        )

    def group_by(self, *names: str) -> Dict[Tuple[Any, ...], List[Row]]:
        """Rows bucketed by a column tuple (insertion-ordered)."""
        groups: Dict[Tuple[Any, ...], List[Row]] = {}
        for row in self.rows:
            groups.setdefault(
                tuple(row.get(name) for name in names), []
            ).append(row)
        return groups

    def to_pandas(self):
        """The same table as a ``pandas.DataFrame`` (requires the
        optional ``[analysis]`` extra)."""
        try:
            import pandas
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise ImportError(
                "pandas is not installed; install the '[analysis]' extra "
                "(pip install repro[analysis]) for DataFrame output"
            ) from exc
        return pandas.DataFrame(self.rows, columns=list(COLUMNS))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ResultFrame({len(self.rows)} rows, "
            f"sets={self.unique('set')}, "
            f"experiments={self.unique('experiment')})"
        )


# ---------------------------------------------------------------------------
# export-directory loading
# ---------------------------------------------------------------------------


def _is_report_like(value: Any) -> bool:
    """A dict produced by serialising a :class:`SimulationReport`."""
    return isinstance(value, dict) and "bep" in value and "label" in value


def _report_rows(
    base: Row, path: Tuple[str, ...], payload: Dict[str, Any]
) -> Iterator[Row]:
    """One row per metric of a serialised report-like object, with the
    report's own ``meta``/``manifest`` provenance when present."""
    meta = payload.get("meta") or {}
    manifest = payload.get("manifest") or {}
    for metric in REPORT_METRICS:
        value = payload.get(metric)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        row = dict(base)
        row["key"] = "/".join(path) if path else payload.get("label", "")
        row["metric"] = metric
        row["value"] = float(value)
        row["program"] = payload.get("program") or row.get("program")
        if meta.get("seed") is not None:
            row["seed"] = meta["seed"]
        if manifest.get("git_sha"):
            row["git_sha"] = manifest["git_sha"]
        yield row


def _leaf_rows(
    base: Row, experiment: str, path: Tuple[str, ...], value: Any
) -> Iterator[Row]:
    """Flatten one data-dict subtree into tidy rows."""
    if _is_report_like(value):
        yield from _report_rows(base, path, value)
        return
    if isinstance(value, dict):
        for key in value:
            yield from _leaf_rows(base, experiment, path + (str(key),), value[key])
        return
    if isinstance(value, (list, tuple)):
        for position, inner in enumerate(value):
            yield from _leaf_rows(
                base, experiment, path + (str(position),), inner
            )
        return
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return  # strings and nulls carry no comparable measurement
    row = dict(base)
    if experiment == "calibration":
        # calibration's two leaves measure different things: the scalar
        # mean error and the per-attribute rank correlations
        if path and path[0] == "rank_correlations":
            row["key"] = "/".join(path[1:])
            row["metric"] = "rank_corr"
        else:
            row["key"] = "/".join(path[:-1])
            row["metric"] = path[-1] if path else "value"
    elif experiment in DEFAULT_METRIC:
        row["key"] = "/".join(path)
        row["metric"] = DEFAULT_METRIC[experiment]
    else:
        row["key"] = "/".join(path[:-1]) if len(path) > 1 else "/".join(path)
        row["metric"] = path[-1] if path else "value"
    row["value"] = float(value)
    yield row


def read_export_manifest(directory: str) -> Dict[str, Any]:
    """The ``EXPORTS.json`` set manifest of *directory* (``{}`` when
    absent or unreadable — older export sets have none)."""
    path = os.path.join(directory, EXPORT_MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def load_export_set(directory: str, label: Optional[str] = None) -> List[Row]:
    """Flatten one export directory into tidy rows.

    Every ``<experiment>.json`` file written by ``--out ... --formats
    json`` contributes rows; set-level provenance (seed, git SHA,
    label) comes from the directory's ``EXPORTS.json`` manifest when
    present, falling back to per-report ``meta``/``manifest`` fields
    and the directory basename.
    """
    manifest = read_export_manifest(directory)
    set_label = label or manifest.get("label") or os.path.basename(
        os.path.normpath(directory)
    )
    base: Row = {
        "set": set_label,
        "experiment": None,
        "key": "",
        "metric": "",
        "value": None,
        "seed": manifest.get("seed"),
        "git_sha": manifest.get("git_sha"),
        "program": None,
        "source": "",
    }
    rows: List[Row] = []
    for filename in sorted(os.listdir(directory)):
        if not filename.endswith(".json"):
            continue
        if filename == EXPORT_MANIFEST_NAME or filename.startswith(
            ("FAILURES", "ATTRIBUTION")
        ):
            continue
        path = os.path.join(directory, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if not isinstance(payload, dict) or "data" not in payload:
            continue
        experiment = payload.get("name") or filename[: -len(".json")]
        file_base = dict(base)
        file_base["experiment"] = experiment
        file_base["source"] = path
        rows.extend(_leaf_rows(file_base, experiment, (), payload["data"]))
    return rows


def load_export_sets(
    directories: Sequence[str], labels: Optional[Sequence[Optional[str]]] = None
) -> ResultFrame:
    """Load many export directories into one :class:`ResultFrame`.

    Duplicate set labels are disambiguated with a numeric suffix so
    two directories with identical manifests stay distinguishable.
    """
    frame = ResultFrame()
    seen: Dict[str, int] = {}
    for position, directory in enumerate(directories):
        label = labels[position] if labels else None
        rows = load_export_set(directory, label=label)
        if rows:
            used = rows[0]["set"]
            count = seen.get(used, 0)
            seen[used] = count + 1
            if count:
                for row in rows:
                    row["set"] = f"{used}#{count + 1}"
        frame.extend(rows)
    return frame


# ---------------------------------------------------------------------------
# result-store loading
# ---------------------------------------------------------------------------


def load_store(path: str, label: str = "store") -> List[Row]:
    """Flatten the SQLite result store into per-cell tidy rows.

    Each stored cell contributes one row per derived report metric,
    with ``key`` the stored config label and seed / git SHA recovered
    from the payload's own ``meta`` / ``manifest`` provenance.
    """
    import sqlite3

    from repro.harness.checkpoint import report_from_dict

    rows: List[Row] = []
    connection = sqlite3.connect(path)
    try:
        stored = connection.execute(
            "SELECT cell_key, config_label, program, payload FROM results "
            "ORDER BY cell_key"
        ).fetchall()
    finally:
        connection.close()
    for cell, config_label, program, payload_text in stored:
        try:
            report = report_from_dict(json.loads(payload_text))
        except (json.JSONDecodeError, KeyError, TypeError):
            continue  # verify/--fix owns corrupt rows; loading skips them
        meta = report.meta
        manifest = report.manifest
        for metric in REPORT_METRICS:
            rows.append(
                {
                    "set": label,
                    "experiment": "store",
                    "key": f"{config_label}/{cell}",
                    "metric": metric,
                    "value": float(getattr(report, metric)),
                    "seed": meta.seed if meta is not None else None,
                    "git_sha": manifest.git_sha if manifest is not None else None,
                    "program": program,
                    "source": path,
                }
            )
    return rows
