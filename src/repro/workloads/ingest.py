"""External trace ingestion and the trace store.

This module turns external branch-record streams (parsed by
:mod:`repro.workloads.formats`) into the repo's canonical
block-compressed :class:`~repro.workloads.trace.Trace`, names them by
content digest, and stores them in the on-disk trace store so every
downstream layer — corpus memoisation, the result store, and service
jobs — treats ingested traces as first-class corpus members.

The store is one directory of ``.npz`` entries holding packed trace
columns; :func:`write_entry` is the only code that writes one and
:func:`read_entry` the only code that reads one back.  An entry is
valid only if its columns hash (:func:`trace_digest`) to the digest it
is filed under: an ingested trace is filed as ``<digest>.npz``, while
a synthetic trace the corpus persists is filed under its trace key and
records its digest in a ``digest`` member beside the columns.

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

The rules run as array predicates over each ``RecordChunk`` the format
readers decode, with the block start carried from one chunk to the
next; only the first violating record has its position rendered.

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
from typing import Dict, Iterable, Iterator, Optional, Tuple

import numpy as np

from repro.isa.branches import BranchKind
from repro.isa.geometry import INSTRUCTION_BYTES
from repro.testing import faults as faults_module
from repro.workloads.trace import PACKED_DTYPES, Trace

#: prefix of content-addressed trace names (the corpus trace-key form)
EXTERNAL_PREFIX = "external:"

#: environment variable naming the trace store directory
EXTERNAL_DIR_ENV_VAR = "REPRO_EXTERNAL_TRACE_DIR"

#: default store directory (relative to the working directory)
DEFAULT_EXTERNAL_DIR = "external-traces"

#: version tag folded into the content digest; bump on any change to
#: the packed representation or the hashing scheme
DIGEST_VERSION = b"repro-trace/v1"

#: largest address representable in the packed int64 columns
_MAX_ADDRESS = (1 << 63) - 1

#: branch kinds that always redirect (a not-taken record is malformed)
_ALWAYS_TAKEN = np.array(
    [BranchKind.UNCONDITIONAL, BranchKind.CALL, BranchKind.RETURN, BranchKind.INDIRECT],
    dtype=np.int8,
)


def is_external(name: str) -> bool:
    """True when *name* is an ``external:<digest>`` trace key."""
    return name.startswith(EXTERNAL_PREFIX)


def external_trace_dir(directory: Optional[str] = None) -> str:
    """Resolve the trace store directory.

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


def _close_blocks(
    chunk, start: Optional[int], source: str
) -> Tuple[Dict[str, np.ndarray], int]:
    """Normalise one chunk whose first block starts at *start* (the
    first record's PC when ``None``).

    Returns the chunk's packed trace columns and the start of the block
    after its last record.  Raises ``TraceFormatError`` on the first
    record that breaks a rule; within a record the rules are checked
    in the docs/TRACES.md order.
    """
    from repro.workloads.formats import TraceFormatError

    pc, target, kind, taken = chunk.pc, chunk.target, chunk.kind, chunk.taken
    if start is None:
        start = int(pc[0])
    if pc.dtype == object or target.dtype == object:
        # a CBP value wider than 64 bits: exact Python-int arithmetic
        pc, target = pc.astype(object), target.astype(object)
        four, limit = INSTRUCTION_BYTES, _MAX_ADDRESS
    else:
        four, limit = np.uint64(INSTRUCTION_BYTES), np.uint64(_MAX_ADDRESS)
    following = np.where(taken, target, pc + four)
    behind = np.empty(len(pc), dtype=np.bool_)
    behind[0] = int(pc[0]) < start
    behind[1:] = pc[1:] < following[:-1]

    def block_start(i: int) -> int:
        """Start of the block that record *i* closes."""
        return start if i == 0 else int(following[i - 1])

    checks = (
        (pc % four != 0, lambda i: f"PC {int(pc[i]):#x} is not 4-byte aligned"),
        (
            pc > limit,
            lambda i: f"PC {int(pc[i]):#x} exceeds the 63-bit address space",
        ),
        (
            target % four != 0,
            lambda i: f"target {int(target[i]):#x} is not 4-byte aligned",
        ),
        (
            target > limit,
            lambda i: f"target {int(target[i]):#x} exceeds the 63-bit address space",
        ),
        (
            kind == BranchKind.NOT_A_BRANCH,
            lambda i: "NOT_A_BRANCH records cannot close a block",
        ),
        (
            behind,
            lambda i: f"branch PC {int(pc[i]):#x} precedes the current block "
            f"start {block_start(i):#x} (control-flow discontinuity: the "
            f"previous record's direction/target contradicts this PC)",
        ),
        (
            ~taken & np.isin(kind, _ALWAYS_TAKEN),
            lambda i: f"{BranchKind(int(kind[i])).name} branches always "
            f"redirect; a not-taken record is malformed",
        ),
        (taken & (target == 0), lambda i: "taken branch with target 0x0"),
    )
    violations = np.logical_or.reduce([mask for mask, _ in checks])
    if violations.any():
        index = int(np.argmax(violations))
        message = next(text for mask, text in checks if mask[index])
        raise TraceFormatError(source, chunk.position(index), message(index))
    pcs = pc.astype(np.int64)
    starts = np.empty(len(pc), dtype=np.int64)
    starts[0] = start
    starts[1:] = following[:-1]
    columns = {
        "starts": starts,
        "counts": (pcs - starts) // INSTRUCTION_BYTES + 1,
        "kinds": kind.astype(np.int8),
        "takens": taken.astype(np.bool_),
        "targets": target.astype(np.int64),
    }
    return columns, int(following[-1])


def _normalise(chunks: Iterable, source: str) -> Trace:
    """The one normaliser: fold a ``RecordChunk`` stream into a
    canonical ``Trace`` named ``external:<sha256>``."""
    from repro.workloads.formats import TraceFormatError

    start: Optional[int] = None
    parts = []
    for chunk in chunks:
        if chunk.entry is not None:
            if chunk.entry % INSTRUCTION_BYTES:
                raise TraceFormatError(
                    source,
                    "entry",
                    f"entry address {chunk.entry:#x} is not 4-byte aligned",
                )
            start = chunk.entry
        if len(chunk.pc):
            columns, start = _close_blocks(chunk, start, source)
            parts.append(columns)
    if not parts:
        raise TraceFormatError(source, "end of input", "contains no branch records")
    packed = {
        name: np.concatenate([part[name] for part in parts]) for name in PACKED_DTYPES
    }
    parts.clear()  # free the chunk columns before the trace is hashed
    trace = Trace(**packed)
    trace.name = external_name(trace)
    return trace


def _record_chunks(records: Iterable) -> Iterator:
    """Pack a ``BranchRecord`` stream into ``RecordChunk`` columns: one
    chunk per ``("entry", pc)`` sentinel run.  A reader error is
    re-raised after the records before it are yielded."""
    from repro.workloads.formats import RecordChunk, TraceFormatError, address_column

    def pack(batch, entry):
        """One ``RecordChunk`` of *batch*'s columns."""
        return RecordChunk(
            pc=address_column([record.pc for record in batch]),
            kind=np.array([int(record.kind) for record in batch], dtype=np.int8),
            taken=np.array([bool(record.taken) for record in batch], dtype=np.bool_),
            target=address_column([record.target for record in batch]),
            position=lambda index: batch[index].position,
            entry=entry,
        )

    batch: list = []
    entry = None
    try:
        for item in records:
            if isinstance(item, tuple) and item and item[0] == "entry":
                if batch or entry is not None:
                    yield pack(batch, entry)
                batch, entry = [], item[1]
            else:
                batch.append(item)
    except TraceFormatError:
        yield pack(batch, entry)
        raise
    yield pack(batch, entry)


def ingest_records(records: Iterable, source: str = "<records>") -> Trace:
    """Normalise a branch-record stream into a canonical ``Trace``.

    *records* is what a format's ``read`` yields: optionally an
    ``("entry", pc)`` sentinel first, then
    :class:`~repro.workloads.formats.BranchRecord` values.  They are
    packed into columns and go through the same normaliser as
    :func:`ingest_file`.  Raises
    :class:`~repro.workloads.formats.TraceFormatError` (naming
    *source* and the offending record's position) on the first record
    that violates the normalisation rules, and returns a trace that
    passes :meth:`~repro.workloads.trace.Trace.validate` by
    construction.  The returned trace is named by content digest
    (``external:<sha256>``).
    """
    return _normalise(_record_chunks(records), source)


def ingest_file(path: str, fmt: str = "auto", source: str = "") -> Trace:
    """Parse + normalise the external trace at *path*.

    ``fmt`` is a registered format name or ``'auto'`` (magic-byte
    sniffing).  The file is decoded chunk by chunk straight into
    columns; no per-record objects are built.  The returned trace is
    named ``external:<sha256>`` but **not** yet stored — use
    :func:`ingest_and_store` for the full pipeline.
    """
    from repro.workloads.formats import read_columns

    source = source or path
    return _normalise(read_columns(path, fmt=fmt, source=source), source)


# ---------------------------------------------------------------------------
# the trace store
# ---------------------------------------------------------------------------


def write_entry(path: str, trace: Trace, digest: Optional[str] = None) -> None:
    """Write *trace*'s packed columns as the store entry at *path*.

    The store's one writer: the ``.npz`` goes to a temp file that is
    renamed into place, so a reader never sees a torn entry and
    concurrent writers of the same entry are idempotent.  A synthetic
    entry passes its *digest*, which is stored beside the columns; an
    ingested entry is filed under its digest and stores none.
    """
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    members = {} if digest is None else {"digest": np.asarray(digest)}
    tmp = f"{path}.{os.getpid()}.tmp.npz"
    try:
        np.savez_compressed(
            tmp, name=np.asarray(trace.name), **trace.packed(), **members
        )
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_entry(path: str, name: str, digest: Optional[str] = None) -> Trace:
    """Load the store entry at *path* as the trace *name*, verified.

    The store's one loader.  The entry's columns must hash to
    *digest* (an ingested entry's name) or, when that is ``None``, to
    the entry's own ``digest`` member.  Raises ``FileNotFoundError``
    when there is no entry, and ``ValueError`` when the entry cannot
    be read or hashes to another digest; what to do about a bad entry
    is the caller's policy.
    """
    if not os.path.exists(path):
        raise FileNotFoundError(f"no stored trace at {path}")
    # chaos hook: lets the fault-injection harness corrupt the entry
    # at the exact moment a real disk fault would surface
    faults_module.fire("trace-file", program=name, path=path)
    try:
        with np.load(path, allow_pickle=False) as data:
            trace = Trace.from_packed(data, name=name)
            expected = str(data["digest"]) if digest is None else digest
    except Exception as exc:  # truncated archive, bad zip, missing member ...
        raise ValueError(
            f"stored trace at {path} cannot be read ({exc!r}): the store "
            f"file is corrupt"
        ) from exc
    actual = trace_digest(trace)
    if actual != expected:
        claim = "its digest member records" if digest is None else "its name claims"
        raise ValueError(
            f"stored trace at {path} hashes to {actual}, not the "
            f"{expected} {claim}: the store file is corrupt"
        )
    return trace


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

    Writes ``<digest>.npz`` through :func:`write_entry` unless it is
    already stored.  The trace is renamed to its ``external:<digest>``
    form first, so what is stored replays under exactly the name the
    corpus resolves.
    """
    trace.name = external_name(trace)
    path = external_trace_path(trace.name, directory)
    if not os.path.exists(path):
        write_entry(path, trace)
    return trace.name


def load_external(name: str, directory: Optional[str] = None) -> Trace:
    """Load the stored external trace *name*, verifying its digest.

    Raises ``FileNotFoundError`` with an actionable message when the
    trace was never ingested (or the store directory is wrong), and
    ``ValueError`` when the stored bytes no longer hash to the name
    (store corruption) — external traces are immutable inputs, so
    unlike synthetic store entries they are never silently
    regenerated.
    """
    path = external_trace_path(name, directory)
    try:
        return read_entry(path, name, digest=name[len(EXTERNAL_PREFIX) :])
    except FileNotFoundError:
        raise FileNotFoundError(
            f"external trace {name!r} is not in the store at "
            f"{external_trace_dir(directory)!r}; ingest it first with "
            f"'python -m repro.harness ingest --trace FILE' or point "
            f"{EXTERNAL_DIR_ENV_VAR} at the right directory"
        ) from None
    except ValueError as exc:
        raise ValueError(f"{exc}; delete it and re-ingest") from None


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
