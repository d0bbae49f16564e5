"""Synthetic workloads standing in for the paper's ATOM traces.

The paper traced SPEC92 programs and C++ applications on a DEC Alpha
with ATOM (§5).  Those binaries, inputs and the tracing infrastructure
are not available here, so this package synthesises *consistent*
control-flow traces from generated programs:

* :mod:`repro.workloads.program` — the static program model
  (procedures, basic blocks, branch sites with targets);
* :mod:`repro.workloads.generator` — builds a program from a
  :class:`~repro.workloads.profiles.WorkloadProfile`;
* :mod:`repro.workloads.interpreter` — executes the program with a
  seeded RNG, emitting a block-compressed :class:`Trace`;
* :mod:`repro.workloads.profiles` — six profiles calibrated to the
  per-program columns of Table 1 (branch density, type mix, taken
  rate, dynamic-site concentration, code footprint), plus two
  modern-server profiles (``server-frontend``, ``server-leaf``) with
  multi-MB footprints and flat site popularity (docs/WORKLOADS.md);
* :mod:`repro.workloads.stats` — re-measures the Table 1 attributes
  from a trace so the calibration is auditable;
* :mod:`repro.workloads.formats` / :mod:`repro.workloads.ingest` —
  external-trace ingestion: ChampSim/CBP-style readers normalising
  recorded branch streams into canonical traces named by content
  digest (``external:<sha256>``, docs/TRACES.md).

Traces are *consistent*: instruction runs fall through sequentially,
taken branches land exactly on the next event's start address, calls
and returns balance, and return targets equal the pushed return
addresses — the properties the cache and NLS simulations rely on.
"""

from repro.workloads.trace import Trace
from repro.workloads.program import (
    Block,
    CallSite,
    ConditionalSite,
    IndirectSite,
    LoopSite,
    Procedure,
    ReturnSite,
    Site,
    SyntheticProgram,
    UnconditionalSite,
)
from repro.workloads.profiles import (
    WorkloadProfile,
    PROFILES,
    get_profile,
    paper_programs,
    server_programs,
)
from repro.workloads.generator import build_program
from repro.workloads.ingest import ingest_and_store, is_external, load_external
from repro.workloads.interpreter import execute
from repro.workloads.stats import TraceAttributes, TraceFootprint, footprint, measure
from repro.workloads.corpus import generate_trace

__all__ = [
    "Trace",
    "SyntheticProgram",
    "Procedure",
    "Block",
    "Site",
    "ConditionalSite",
    "LoopSite",
    "UnconditionalSite",
    "CallSite",
    "IndirectSite",
    "ReturnSite",
    "WorkloadProfile",
    "PROFILES",
    "get_profile",
    "paper_programs",
    "server_programs",
    "ingest_and_store",
    "is_external",
    "load_external",
    "build_program",
    "execute",
    "TraceAttributes",
    "TraceFootprint",
    "footprint",
    "measure",
    "generate_trace",
]
