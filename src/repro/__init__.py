"""repro — reproduction of Calder & Grunwald, "Next Cache Line and Set
Prediction" (ISCA 1995).

The package implements the paper's NLS fetch predictors plus every
substrate the evaluation depends on: a synthetic-workload generator
standing in for the ATOM traces, an instruction-cache simulator,
direction predictors (gshare PHT, return stack), branch target
buffers, the trace-driven fetch engine with the paper's penalty
accounting, and the RBE-area / access-time cost models.

Quick start::

    from repro import ArchitectureConfig, simulate

    nls = ArchitectureConfig(frontend="nls-table", entries=1024,
                             cache_kb=16, cache_assoc=1)
    report = simulate(nls, "gcc", instructions=200_000)
    print(report.summary())

See ``examples/`` for runnable scenarios and ``repro.harness`` for the
per-figure experiment drivers (``python -m repro.harness --help``).
"""

import importlib
from typing import Any

#: public name -> the module it is re-exported from.  Resolved lazily
#: (PEP 562), so ``import repro.<subpackage>`` pays only for what that
#: subpackage imports, not for every re-export of this file.
_EXPORTS = {
    "CacheGeometry": "repro.cache",
    "InstructionCache": "repro.cache",
    "btb_capacity_curve": "repro.analysis",
    "nls_capacity_curve": "repro.analysis",
    "penalty_breakdown": "repro.analysis",
    "penalty_sensitivity": "repro.analysis",
    "JohnsonSuccessorIndex": "repro.core",
    "NLSCache": "repro.core",
    "NLSEntryType": "repro.core",
    "NLSPrediction": "repro.core",
    "NLSTable": "repro.core",
    "SteelySagerTable": "repro.core",
    "FetchBandwidthModel": "repro.fetch.multiissue",
    "MultiIssueReport": "repro.fetch.multiissue",
    "AccessTimeModel": "repro.cost",
    "RBEModel": "repro.cost",
    "BTBFrontEnd": "repro.fetch",
    "FallThroughFrontEnd": "repro.fetch",
    "FetchEngine": "repro.fetch",
    "JohnsonFrontEnd": "repro.fetch",
    "NLSCacheFrontEnd": "repro.fetch",
    "NLSTableFrontEnd": "repro.fetch",
    "OracleFrontEnd": "repro.fetch",
    "ArchitectureConfig": "repro.harness.config",
    "simulate": "repro.harness.runner",
    "sweep": "repro.harness.runner",
    "BranchKind": "repro.isa",
    "PenaltyModel": "repro.metrics",
    "SimulationReport": "repro.metrics",
    "average_reports": "repro.metrics",
    "BranchTargetBuffer": "repro.predictors",
    "GSharePredictor": "repro.predictors",
    "ReturnAddressStack": "repro.predictors",
    "Trace": "repro.workloads",
    "WorkloadProfile": "repro.workloads",
    "build_program": "repro.workloads",
    "execute": "repro.workloads",
    "generate_trace": "repro.workloads",
    "get_profile": "repro.workloads",
    "measure": "repro.workloads",
    "paper_programs": "repro.workloads",
}


def __getattr__(name: str) -> Any:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__version__ = "1.0.0"

__all__ = [
    "__version__",
    # architecture building blocks
    "CacheGeometry",
    "InstructionCache",
    "NLSTable",
    "NLSCache",
    "NLSEntryType",
    "NLSPrediction",
    "JohnsonSuccessorIndex",
    "SteelySagerTable",
    "BranchTargetBuffer",
    "GSharePredictor",
    "ReturnAddressStack",
    # fetch simulation
    "FetchEngine",
    "BTBFrontEnd",
    "NLSTableFrontEnd",
    "NLSCacheFrontEnd",
    "JohnsonFrontEnd",
    "OracleFrontEnd",
    "FallThroughFrontEnd",
    # metrics & costs
    "PenaltyModel",
    "SimulationReport",
    "average_reports",
    "RBEModel",
    "AccessTimeModel",
    "FetchBandwidthModel",
    "MultiIssueReport",
    # analysis
    "penalty_breakdown",
    "penalty_sensitivity",
    "btb_capacity_curve",
    "nls_capacity_curve",
    # workloads
    "BranchKind",
    "Trace",
    "WorkloadProfile",
    "get_profile",
    "paper_programs",
    "build_program",
    "execute",
    "generate_trace",
    "measure",
    # harness
    "ArchitectureConfig",
    "simulate",
    "sweep",
]
