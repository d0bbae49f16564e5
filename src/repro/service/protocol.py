"""Wire formats of the simulation service.

Everything that crosses the HTTP boundary is defined here, as plain
JSON-ready dicts (docs/SERVICE.md documents the schemas):

* **cells** — :func:`request_to_dict` / :func:`request_from_dict`
  round-trip a :class:`~repro.harness.runner.RunRequest` (including
  its full :class:`~repro.harness.config.ArchitectureConfig`) so
  clients can submit explicit design-space points;
* **job specs** — :func:`parse_job_spec` validates a submission body:
  either a registered experiment by name (``{"experiment": "fig5",
  "programs": [...], "instructions": N}``) or explicit ``cells``,
  plus execution knobs (``engine``, ``backend``, ``jobs``) — worker
  counts go through the same validated resolver as the CLI's
  ``--jobs`` (:func:`repro.harness.runner.resolve_worker_count`);
* **results** — :func:`job_result_payload` renders a completed job's
  reports (checkpoint-serialised, byte-stable) and, for experiment
  jobs, the rendered table/figure.

Validation failures raise :class:`JobSpecError` with a one-line
message the API maps to HTTP 400.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.harness.checkpoint import cell_key, report_to_dict
from repro.harness.config import ENGINES, ArchitectureConfig
from repro.harness.runner import (
    DEFAULT_WARMUP,
    BACKENDS,
    RunRequest,
    resolve_worker_count,
)
from repro.metrics.report import SimulationReport

#: service wire-schema stamp (submissions, events, results)
SERVICE_SCHEMA = "repro-service/v1"


class JobSpecError(ValueError):
    """A job submission failed validation (maps to HTTP 400)."""


# ---------------------------------------------------------------------------
# cell (de)serialisation
# ---------------------------------------------------------------------------

_CONFIG_FIELDS = tuple(spec.name for spec in fields(ArchitectureConfig))


def config_from_dict(payload: Mapping[str, Any]) -> ArchitectureConfig:
    """Rebuild an :class:`ArchitectureConfig` from its dict form.

    Accepts the compact :meth:`ArchitectureConfig.describe` shape
    (``label`` is ignored) as well as a full field dump; unknown keys
    are a :class:`JobSpecError`, not silently dropped."""
    cleaned = {
        key: value for key, value in payload.items() if key != "label"
    }
    unknown = sorted(set(cleaned) - set(_CONFIG_FIELDS))
    if unknown:
        raise JobSpecError(f"unknown config field(s): {', '.join(unknown)}")
    try:
        config = ArchitectureConfig(**cleaned)
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"invalid config: {exc}") from None
    if "flush_interval" in cleaned and cleaned["flush_interval"] is not None:
        if not isinstance(cleaned["flush_interval"], int):
            raise JobSpecError("flush_interval must be an integer or null")
    return config


def request_to_dict(request: RunRequest) -> Dict[str, Any]:
    """JSON-encodable form of one simulation cell."""
    return {
        "config": request.config.describe(),
        "program": request.program,
        "instructions": request.instructions,
        "seed": request.seed,
        "layout": request.layout,
        "warmup": request.warmup,
    }


def request_from_dict(payload: Mapping[str, Any]) -> RunRequest:
    """Rebuild one simulation cell from its wire form."""
    if "config" not in payload or "program" not in payload:
        raise JobSpecError("each cell needs at least 'config' and 'program'")
    unknown = sorted(
        set(payload)
        - {"config", "program", "instructions", "seed", "layout", "warmup"}
    )
    if unknown:
        raise JobSpecError(f"unknown cell field(s): {', '.join(unknown)}")
    try:
        return RunRequest(
            config=config_from_dict(payload["config"]),
            program=str(payload["program"]),
            instructions=payload.get("instructions"),
            seed=payload.get("seed"),
            layout=str(payload.get("layout", "natural")),
            warmup=float(
                DEFAULT_WARMUP
                if payload.get("warmup") is None
                else payload["warmup"]
            ),
        )
    except JobSpecError:
        raise
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"invalid cell: {exc}") from None


# ---------------------------------------------------------------------------
# job specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedJobSpec:
    """A validated job submission, ready for the scheduler.

    ``finish`` is the experiment's renderer when the job was submitted
    by experiment name (``None`` for explicit-cell jobs); ``jobs`` is
    the resolved concrete worker count for the plan execution."""

    kind: str  # "experiment" or "cells"
    name: str
    cells: Tuple[RunRequest, ...]
    finish: Optional[Callable[..., Any]]
    backend: str
    jobs: Optional[int]
    engine: str
    raw: Dict[str, Any]


def parse_job_spec(payload: Any) -> ParsedJobSpec:
    """Validate one submission body into a :class:`ParsedJobSpec`.

    Exactly one of ``experiment`` (a registered spec name, with
    optional ``programs``/``instructions`` knobs) or ``cells`` (a
    non-empty list of explicit cell dicts) must be present."""
    from repro.harness.experiments import SPECS
    from repro.harness.spec import with_engine

    if not isinstance(payload, Mapping):
        raise JobSpecError("job spec must be a JSON object")
    has_experiment = "experiment" in payload
    has_cells = "cells" in payload
    if has_experiment == has_cells:
        raise JobSpecError(
            "job spec needs exactly one of 'experiment' or 'cells'"
        )
    engine = str(payload.get("engine", "reference"))
    if engine not in ENGINES:
        raise JobSpecError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    backend = str(payload.get("backend", "serial"))
    if backend not in BACKENDS:
        raise JobSpecError(
            f"unknown backend {backend!r}; expected one of "
            f"{tuple(sorted(BACKENDS))}"
        )
    jobs: Optional[int] = None
    if payload.get("jobs") is not None:
        try:
            jobs = resolve_worker_count(payload["jobs"], warn=False)
        except ValueError as exc:
            raise JobSpecError(str(exc)) from None

    if has_experiment:
        name = str(payload["experiment"])
        if name not in SPECS:
            raise JobSpecError(
                f"unknown experiment {name!r}; see GET /api/v1/experiments"
            )
        knobs: Dict[str, Any] = {}
        if payload.get("programs") is not None:
            programs = payload["programs"]
            if not isinstance(programs, (list, tuple)) or not programs:
                raise JobSpecError("'programs' must be a non-empty list")
            # any registered profile (paper + server) plus ingested
            # external:<sha256> trace keys (docs/TRACES.md) — the
            # worker resolves the key through the external-trace store
            from repro.workloads.ingest import is_external
            from repro.workloads.profiles import PROFILES

            known = set(PROFILES)
            bad = sorted(
                name
                for name in set(map(str, programs))
                if name not in known and not is_external(name)
            )
            if bad:
                raise JobSpecError(f"unknown program(s): {', '.join(bad)}")
            knobs["programs"] = [str(program) for program in programs]
        if payload.get("instructions") is not None:
            if (
                not isinstance(payload["instructions"], int)
                or payload["instructions"] < 1
            ):
                raise JobSpecError("'instructions' must be a positive integer")
            knobs["instructions"] = payload["instructions"]
        try:
            plan = SPECS[name].plan(**knobs)
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"cannot build {name!r} plan: {exc}") from None
        plan = with_engine([plan], engine)[0]
        return ParsedJobSpec(
            kind="experiment",
            name=name,
            cells=tuple(plan.cells),
            finish=plan.finish,
            backend=backend,
            jobs=jobs,
            engine=engine,
            raw=dict(payload),
        )

    cells_payload = payload["cells"]
    if not isinstance(cells_payload, (list, tuple)) or not cells_payload:
        raise JobSpecError("'cells' must be a non-empty list")
    cells = tuple(request_from_dict(cell) for cell in cells_payload)
    if engine != "reference":
        from dataclasses import replace

        cells = tuple(
            replace(cell, config=replace(cell.config, engine=engine))
            for cell in cells
        )
    return ParsedJobSpec(
        kind="cells",
        name=str(payload.get("name", "cells")),
        cells=cells,
        finish=None,
        backend=backend,
        jobs=jobs,
        engine=engine,
        raw=dict(payload),
    )


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------


def job_result_payload(
    job_id: str,
    spec: ParsedJobSpec,
    reports: Mapping[RunRequest, SimulationReport],
    sources: Mapping[RunRequest, str],
    rendered: Optional[Any] = None,
) -> Dict[str, Any]:
    """The ``GET /api/v1/jobs/<id>/result`` document.

    One entry per unique cell (submission order) with its content
    address, provenance source (``store`` / ``computed`` /
    ``quarantined``) and checkpoint-serialised report — cells served
    from the store are byte-identical to the job that first computed
    them.  Experiment jobs additionally carry the rendered result."""
    seen = set()
    cells: List[Dict[str, Any]] = []
    for request in spec.cells:
        if request in seen:
            continue
        seen.add(request)
        report = reports.get(request)
        cells.append(
            {
                "cell": cell_key(request),
                "config": request.config.label(),
                "program": request.program,
                "source": sources.get(request, "unknown"),
                "report": None if report is None else report_to_dict(report),
            }
        )
    payload: Dict[str, Any] = {
        "schema": SERVICE_SCHEMA,
        "job_id": job_id,
        "kind": spec.kind,
        "name": spec.name,
        "cells": cells,
    }
    if rendered is not None:
        from repro.harness.export import _jsonable

        payload["result"] = {
            "name": rendered.name,
            "title": rendered.title,
            "text": rendered.text,
            "data": _jsonable(rendered.data),
        }
    return payload
