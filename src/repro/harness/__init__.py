"""Experiment harness: architecture configs, the spec → plan → backend
executor, and one declarative spec per table/figure of the paper (see
``python -m repro.harness`` and DESIGN.md, "Harness architecture").
"""

from repro.harness.checkpoint import CellFailure
from repro.harness.config import ArchitectureConfig
from repro.harness.runner import (
    BACKENDS,
    CellExecutionError,
    CellTimeoutError,
    ExecutionPolicy,
    RunPlan,
    RunRequest,
    run_config,
    run_request,
    simulate,
    sweep,
)
from repro.harness.spec import (
    ExperimentPlan,
    ExperimentResult,
    ExperimentSpec,
    run_plans,
)

__all__ = [
    "ArchitectureConfig",
    "BACKENDS",
    "CellExecutionError",
    "CellFailure",
    "CellTimeoutError",
    "ExecutionPolicy",
    "ExperimentPlan",
    "ExperimentResult",
    "ExperimentSpec",
    "RunPlan",
    "RunRequest",
    "run_config",
    "run_plans",
    "run_request",
    "simulate",
    "sweep",
]
