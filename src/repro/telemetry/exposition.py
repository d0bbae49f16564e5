"""Prometheus text-exposition rendering of the telemetry registry.

The live leg of the analysis layer: the service's ``GET /metrics``
endpoint (docs/SERVICE.md, docs/TELEMETRY.md) renders the active
:class:`~repro.telemetry.core.Registry` — plus the scheduler's
job-state totals and the result store's size statistics — in the
Prometheus text exposition format (version 0.0.4), so the same
counters that feed job manifests and the offline dashboard can be
scraped by any Prometheus-compatible collector.

Mapping rules:

* counters — ``repro_<name>_total`` (dots become underscores), TYPE
  ``counter``; the well-known store/scheduler counters are always
  present (zero-valued when nothing recorded yet), so scrapes have a
  stable shape from the first request;
* histograms — ``repro_<name>_observations_total`` and
  ``repro_<name>_sum`` (the log2 buckets don't map onto Prometheus'
  cumulative buckets, so only the aggregates are exposed);
* job states — ``repro_service_jobs{state="..."}`` gauges from
  ``JobScheduler.counts()``;
* store stats — ``repro_store_entries`` / ``repro_store_payload_bytes``
  / ``repro_store_db_bytes`` gauges.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional

from repro.telemetry.core import Registry

#: counters guaranteed to appear in every exposition (zero-filled)
WELL_KNOWN_COUNTERS = (
    "store.hits",
    "store.misses",
    "store.puts",
    "store.dedup_skips",
    "store.corrupt_evictions",
    "service.jobs_submitted",
    "service.jobs_completed",
    "service.jobs_failed",
    "service.jobs_cancelled",
    "service.jobs_recovered",
    "service.cells_served_from_store",
    "service.cells_computed",
    "service.requests_shed",
    "service.lease_takeovers",
)

_INVALID = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(name: str, prefix: str = "repro") -> str:
    """Sanitise a dotted registry name into a legal Prometheus metric
    name (``store.hits`` → ``repro_store_hits``)."""
    flattened = _INVALID.sub("_", name.replace(".", "_"))
    flattened = flattened.strip("_") or "metric"
    if flattened[0].isdigit():
        flattened = f"_{flattened}"
    return f"{prefix}_{flattened}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _sample(name: str, value: Any, labels: Optional[Dict[str, str]] = None) -> str:
    rendered = ""
    if labels:
        inner = ",".join(
            f'{key}="{_escape_label(str(val))}"'
            for key, val in sorted(labels.items())
        )
        rendered = f"{{{inner}}}"
    if isinstance(value, float):
        return f"{name}{rendered} {value!r}"
    return f"{name}{rendered} {value}"


def render_prometheus(
    registry: Registry,
    job_counts: Optional[Dict[str, int]] = None,
    store_stats: Optional[Dict[str, Any]] = None,
    extra_gauges: Optional[Dict[str, Any]] = None,
) -> str:
    """Render *registry* (plus optional scheduler job-state totals and
    store statistics) as Prometheus text exposition; always ends with
    a trailing newline as the format requires.

    *extra_gauges* maps bare metric names (already underscored, e.g.
    ``service_queue_depth``) to instantaneous values — the hook the
    service uses for operational gauges that aren't counters (queue
    depth, lease ages)."""
    lines: List[str] = []
    counters = dict.fromkeys(WELL_KNOWN_COUNTERS, 0)
    counters.update(registry.counters)
    for name in sorted(counters):
        metric = f"{metric_name(name)}_total"
        lines.append(f"# HELP {metric} Registry counter {name}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(_sample(metric, counters[name]))
    for name, histogram in registry.histograms.items():
        observations = f"{metric_name(name)}_observations_total"
        lines.append(f"# HELP {observations} Observations of histogram {name}")
        lines.append(f"# TYPE {observations} counter")
        lines.append(_sample(observations, histogram["count"]))
        total = f"{metric_name(name)}_sum"
        lines.append(f"# HELP {total} Sum of observed values of histogram {name}")
        lines.append(f"# TYPE {total} gauge")
        lines.append(_sample(total, histogram["total"]))
    if job_counts is not None:
        metric = "repro_service_jobs"
        lines.append(f"# HELP {metric} Jobs per scheduler state")
        lines.append(f"# TYPE {metric} gauge")
        for state in sorted(job_counts):
            lines.append(
                _sample(metric, job_counts[state], labels={"state": state})
            )
    if store_stats is not None:
        for key, help_text in (
            ("entries", "Cells in the result store"),
            ("total_hits", "Accumulated store row hits"),
            ("payload_bytes", "Stored payload bytes"),
            ("db_bytes", "Store database file size"),
        ):
            value = store_stats.get(key)
            if not isinstance(value, (int, float)):
                continue
            metric = f"repro_store_{key}"
            lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} gauge")
            lines.append(_sample(metric, value))
    for name in sorted(extra_gauges or {}):
        value = extra_gauges[name]
        if not isinstance(value, (int, float)):
            continue
        metric = metric_name(name)
        lines.append(f"# HELP {metric} Service gauge {name}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(_sample(metric, value))
    return "\n".join(lines) + "\n"
