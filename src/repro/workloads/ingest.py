"""External trace ingestion: records → canonical ``Trace`` → corpus.

This module turns external branch-record streams (parsed by
:mod:`repro.workloads.formats`) into the repo's canonical
block-compressed :class:`~repro.workloads.trace.Trace`, names them by
content digest, and stores them in a content-addressed on-disk store
so every downstream layer — corpus memoisation, the on-disk trace
cache, the result store, and service jobs — treats ingested traces
as first-class corpus members.

Normalisation (specified in docs/TRACES.md):

* the first block starts at the entry PC the trace declares (CBP
  ``# entry`` directive / ChampSim ``CSBT`` header), else at the
  first record's PC (inferred single-instruction first block);
* each record closes the current block: ``count = (pc - start)/4 + 1``;
* the next block starts at ``target`` when taken, ``pc + 4``
  otherwise, so the resulting trace satisfies every
  :meth:`~repro.workloads.trace.Trace.validate` invariant **by
  construction**;
* rejected (with the record's exact position): misaligned PCs or
  targets, PCs before the current block start (control-flow
  discontinuities), addresses ≥ 2^63 (outside the packed ``int64``
  columns), not-taken records of unconditional kinds, and taken
  records with target 0.

Identity: :func:`trace_digest` hashes the packed NumPy columns (SHA-256
over dtype-tagged column bytes, *excluding* the name), and ingested
traces are named ``external:<digest>`` — the trace-key scheme
``corpus.trace_key`` recognises.  The digest is stable across formats:
the same control flow ingested from a CBP text file and a ChampSim
binary file dedups to one corpus entry.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable, Optional, Tuple

from repro.isa.branches import BranchKind
from repro.isa.geometry import INSTRUCTION_BYTES
from repro.workloads.trace import Trace

#: prefix of content-addressed trace names (the corpus trace-key form)
EXTERNAL_PREFIX = "external:"

#: environment variable naming the external-trace store directory
EXTERNAL_DIR_ENV_VAR = "REPRO_EXTERNAL_TRACE_DIR"

#: default store directory (relative to the working directory)
DEFAULT_EXTERNAL_DIR = "external-traces"

#: version tag folded into the content digest; bump on any change to
#: the packed representation or the hashing scheme
DIGEST_VERSION = b"repro-trace/v1"

#: largest address representable in the packed int64 columns
_MAX_ADDRESS = (1 << 63) - 1

#: branch kinds that always redirect (a not-taken record is malformed)
_ALWAYS_TAKEN = frozenset(
    (BranchKind.UNCONDITIONAL, BranchKind.CALL, BranchKind.RETURN, BranchKind.INDIRECT)
)


def is_external(name: str) -> bool:
    """True when *name* is an ``external:<digest>`` trace key."""
    return name.startswith(EXTERNAL_PREFIX)


def external_trace_dir(directory: Optional[str] = None) -> str:
    """Resolve the external-trace store directory.

    Explicit *directory* wins, then ``REPRO_EXTERNAL_TRACE_DIR``, then
    the ``external-traces`` default.
    """
    return (
        directory
        or os.environ.get(EXTERNAL_DIR_ENV_VAR)
        or DEFAULT_EXTERNAL_DIR
    )


def trace_digest(trace: Trace) -> str:
    """Content digest of *trace*: SHA-256 over its packed columns.

    The name is excluded, so renaming a trace never changes its
    identity; dtypes are folded in so a representation change can
    never silently collide with the old scheme.
    """
    digest = hashlib.sha256(DIGEST_VERSION)
    for column, array in sorted(trace.packed().items()):
        digest.update(column.encode("ascii"))
        digest.update(str(array.dtype).encode("ascii"))
        digest.update(array.tobytes())
    return digest.hexdigest()


def external_name(trace: Trace) -> str:
    """The ``external:<sha256>`` corpus name of *trace*."""
    return EXTERNAL_PREFIX + trace_digest(trace)


def ingest_records(records: Iterable, source: str = "<records>") -> Trace:
    """Normalise a branch-record stream into a canonical ``Trace``.

    *records* is what a format reader yields: optionally an
    ``("entry", pc)`` sentinel first, then
    :class:`~repro.workloads.formats.BranchRecord` values.  Raises
    :class:`~repro.workloads.formats.TraceFormatError` (naming
    *source* and the offending record's position) on the first record
    that violates the normalisation rules, and returns a trace that
    passes :meth:`~repro.workloads.trace.Trace.validate` by
    construction.  The returned trace is named by content digest
    (``external:<sha256>``).
    """
    from repro.workloads.formats import TraceFormatError

    trace = Trace()
    start: Optional[int] = None
    iterator = iter(records)
    for item in iterator:
        if isinstance(item, tuple) and item and item[0] == "entry":
            entry = item[1]
            if entry % INSTRUCTION_BYTES:
                raise TraceFormatError(
                    source,
                    "entry",
                    f"entry address {entry:#x} is not 4-byte aligned",
                )
            start = entry
            continue
        record = item
        position = record.position
        if start is None:
            start = record.pc
        for field, value in (("PC", record.pc), ("target", record.target)):
            if value % INSTRUCTION_BYTES:
                raise TraceFormatError(
                    source,
                    position,
                    f"{field} {value:#x} is not 4-byte aligned",
                )
            if value > _MAX_ADDRESS:
                raise TraceFormatError(
                    source,
                    position,
                    f"{field} {value:#x} exceeds the 63-bit address space",
                )
        if record.kind == BranchKind.NOT_A_BRANCH:
            raise TraceFormatError(
                source, position, "NOT_A_BRANCH records cannot close a block"
            )
        if record.pc < start:
            raise TraceFormatError(
                source,
                position,
                f"branch PC {record.pc:#x} precedes the current block "
                f"start {start:#x} (control-flow discontinuity: the "
                f"previous record's direction/target contradicts this PC)",
            )
        if not record.taken and record.kind in _ALWAYS_TAKEN:
            raise TraceFormatError(
                source,
                position,
                f"{record.kind.name} branches always redirect; "
                f"a not-taken record is malformed",
            )
        if record.taken and record.target == 0:
            raise TraceFormatError(
                source, position, "taken branch with target 0x0"
            )
        count = (record.pc - start) // INSTRUCTION_BYTES + 1
        trace.append(
            start=start,
            count=count,
            kind=record.kind,
            taken=record.taken,
            target=record.target,
        )
        start = record.target if record.taken else record.pc + INSTRUCTION_BYTES
    if not trace.starts:
        raise TraceFormatError(source, "end of input", "contains no branch records")
    trace.name = external_name(trace)
    return trace


def ingest_file(path: str, fmt: str = "auto", source: str = "") -> Trace:
    """Parse + normalise the external trace at *path*.

    ``fmt`` is a registered format name or ``'auto'`` (magic-byte
    sniffing).  The returned trace is named ``external:<sha256>`` but
    **not** yet stored — use :func:`ingest_and_store` for the full
    pipeline.
    """
    from repro.workloads.formats import read_records

    source = source or path
    return ingest_records(read_records(path, fmt=fmt, source=source), source=source)


def external_trace_path(name: str, directory: Optional[str] = None) -> str:
    """On-disk path of the stored trace *name* (``external:<digest>``)."""
    if not is_external(name):
        raise ValueError(f"not an external trace name: {name!r}")
    digest = name[len(EXTERNAL_PREFIX) :]
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        raise ValueError(
            f"malformed external trace name {name!r}: expected "
            f"'external:<64 hex sha256 chars>'"
        )
    return os.path.join(external_trace_dir(directory), f"{digest}.npz")


def store_external(trace: Trace, directory: Optional[str] = None) -> str:
    """Persist *trace* into the content-addressed store; return its name.

    Writes ``<digest>.npz`` with an atomic tmp + rename (concurrent
    ingests of the same trace are idempotent).  The trace is renamed
    to its ``external:<digest>`` form first, so what is stored replays
    under exactly the name the corpus resolves.
    """
    trace.name = external_name(trace)
    target_dir = external_trace_dir(directory)
    os.makedirs(target_dir, exist_ok=True)
    path = external_trace_path(trace.name, directory)
    if not os.path.exists(path):
        tmp = f"{path}.{os.getpid()}.tmp.npz"
        trace.save(tmp)
        os.replace(tmp, path)
    return trace.name


def load_external(name: str, directory: Optional[str] = None) -> Trace:
    """Load the stored external trace *name*, verifying its digest.

    Raises ``FileNotFoundError`` with an actionable message when the
    trace was never ingested (or the store directory is wrong), and
    ``ValueError`` when the stored bytes no longer hash to the name
    (store corruption) — external traces are immutable inputs, so
    unlike the synthetic trace cache they are never silently
    regenerated.
    """
    path = external_trace_path(name, directory)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"external trace {name!r} is not in the store at "
            f"{external_trace_dir(directory)!r}; ingest it first with "
            f"'python -m repro.harness ingest --trace FILE' or point "
            f"{EXTERNAL_DIR_ENV_VAR} at the right directory"
        )
    trace = Trace.load(path)
    digest = trace_digest(trace)
    if EXTERNAL_PREFIX + digest != name:
        raise ValueError(
            f"stored trace at {path} hashes to {digest}, not the "
            f"{name[len(EXTERNAL_PREFIX):]} its name claims: the store "
            f"file is corrupt; delete it and re-ingest"
        )
    trace.name = name
    return trace


def ingest_and_store(
    path: str, fmt: str = "auto", directory: Optional[str] = None
) -> Tuple[Trace, str]:
    """Full pipeline: parse, normalise, digest, store.

    Returns ``(trace, name)`` where *name* is the ``external:<sha256>``
    corpus key the trace replays under.
    """
    trace = ingest_file(path, fmt=fmt)
    name = store_external(trace, directory)
    return trace, name
