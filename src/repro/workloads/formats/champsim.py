"""ChampSim-style binary branch-trace format.

A fixed-width little-endian binary stream of executed-branch records
modelled on ChampSim's branch-trace representation: each record is
``RECORD_BYTES`` (18) bytes, struct format ``<QBBQ`` —

    pc      u64   address of the branch instruction
    type    u8    ChampSim branch-type code (see ``TYPE_CODES``)
    taken   u8    0 or 1
    target  u64   branch target address

ChampSim branch-type codes map onto the canonical
:class:`~repro.isa.branches.BranchKind` as::

    1 BRANCH_DIRECT_JUMP   -> UNCONDITIONAL
    2 BRANCH_INDIRECT      -> INDIRECT
    3 BRANCH_CONDITIONAL   -> CONDITIONAL
    4 BRANCH_DIRECT_CALL   -> CALL
    5 BRANCH_INDIRECT_CALL -> CALL
    6 BRANCH_RETURN        -> RETURN

Code 0 (``NOT_BRANCH``) is rejected: this format carries only
block-terminating branch records, matching what the repro's engines
replay.  An optional 16-byte header — magic ``CSBT``, u32 version
(currently 1), u64 entry PC, all little-endian — pins the address the
traced program entered at; headerless files infer the entry as the
first record's PC.  Grammar and error taxonomy: docs/TRACES.md.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator, Union

import numpy as np

from repro.isa.branches import BranchKind
from repro.workloads.trace import Trace

#: header magic for traces that carry an explicit entry PC
MAGIC = b"CSBT"
#: header layout: magic, u32 version, u64 entry pc (little-endian)
HEADER_STRUCT = struct.Struct("<4sIQ")
HEADER_BYTES = HEADER_STRUCT.size
#: current (and only) header version
HEADER_VERSION = 1

#: record layout: pc u64, type u8, taken u8, target u64 (little-endian)
RECORD_STRUCT = struct.Struct("<QBBQ")
RECORD_BYTES = RECORD_STRUCT.size

#: ChampSim branch-type code -> canonical branch kind
TYPE_CODES = {
    1: BranchKind.UNCONDITIONAL,  # BRANCH_DIRECT_JUMP
    2: BranchKind.INDIRECT,  # BRANCH_INDIRECT
    3: BranchKind.CONDITIONAL,  # BRANCH_CONDITIONAL
    4: BranchKind.CALL,  # BRANCH_DIRECT_CALL
    5: BranchKind.CALL,  # BRANCH_INDIRECT_CALL
    6: BranchKind.RETURN,  # BRANCH_RETURN
}
#: one record as a packed NumPy structured dtype (same layout as RECORD_STRUCT)
RECORD_DTYPE = np.dtype(
    [("pc", "<u8"), ("type", "u1"), ("taken", "u1"), ("target", "<u8")]
)
#: type code -> BranchKind value, -1 for the codes this reader rejects
_KIND_OF_CODE = np.full(256, -1, dtype=np.int8)
for _code, _kind in TYPE_CODES.items():
    _KIND_OF_CODE[_code] = _kind
del _code, _kind

#: canonical kind -> the code the writer emits (calls always direct)
_WRITE_CODES = {
    BranchKind.UNCONDITIONAL: 1,
    BranchKind.INDIRECT: 2,
    BranchKind.CONDITIONAL: 3,
    BranchKind.CALL: 4,
    BranchKind.RETURN: 6,
}


def plausible_record(chunk: bytes) -> bool:
    """Heuristic format sniff: could *chunk* be one valid record?

    Used by auto-detection for headerless files: the type byte must
    be a known ChampSim code and the taken byte 0/1.  Text files
    essentially never satisfy both at these offsets.
    """
    if len(chunk) != RECORD_BYTES:
        return False
    _, type_code, taken, _ = RECORD_STRUCT.unpack(chunk)
    return type_code in TYPE_CODES and taken in (0, 1)


def _error(source: str, position: str, reason: str):
    from repro.workloads.formats import TraceFormatError

    raise TraceFormatError(source, position, reason)


def _position(header_bytes: int, first: int, index: int) -> str:
    record = first + index
    return f"record {record} (byte offset {header_bytes + record * RECORD_BYTES})"


def _decode(
    buffer: bytes, count: int, first: int, header_bytes: int, entry, source: str
) -> Iterator:
    """Yield the leading *count* records of *buffer* as one chunk (its
    valid prefix, when a record is malformed), then raise on the first
    malformed record."""
    from repro.workloads.formats import RecordChunk

    records = np.frombuffer(buffer, dtype=RECORD_DTYPE, count=count)
    kind = _KIND_OF_CODE[records["type"]]
    taken = records["taken"]
    bad = (kind < 0) | (taken > 1)
    valid = int(np.argmax(bad)) if bad.any() else count
    yield RecordChunk(
        pc=np.ascontiguousarray(records["pc"][:valid]),
        kind=kind[:valid],
        taken=taken[:valid] == 1,
        target=np.ascontiguousarray(records["target"][:valid]),
        position=lambda index: _position(header_bytes, first, index),
        entry=entry,
    )
    if valid == count:
        return
    position = _position(header_bytes, first, valid)
    type_code = int(records["type"][valid])
    if kind[valid] < 0:
        if type_code == 0:
            _error(
                source,
                position,
                "type code 0 (NOT_BRANCH): this reader accepts "
                "branch-record streams only",
            )
        _error(
            source,
            position,
            f"unknown ChampSim branch-type code {type_code}; "
            f"expected one of {sorted(TYPE_CODES)}",
        )
    _error(
        source, position, f"taken byte must be 0 or 1, got {int(taken[valid])}"
    )


def read_columns(
    path_or_stream: Union[str, BinaryIO], source: str = ""
) -> Iterator:
    """Decode a ChampSim-style binary trace into ``RecordChunk`` columns.

    The one decoder of this format: each decompressed chunk is viewed
    through ``np.frombuffer`` over :data:`RECORD_DTYPE` and its type
    codes mapped through a lookup array.  A ``CSBT`` header's entry PC
    rides on the first chunk.  Truncated headers and records, unknown
    type codes, and bad taken bytes raise ``TraceFormatError`` naming
    the 0-based record index and its byte offset in the
    (decompressed) stream, after the records before them are yielded.
    """
    from repro.workloads.formats import open_stream, read_chunks

    if isinstance(path_or_stream, str):
        source = source or path_or_stream
    source = source or "<stream>"
    stream = open_stream(path_or_stream)
    try:
        blocks = read_chunks(stream, source)
        pending = b""
        for block in blocks:
            pending += block
            if len(pending) >= HEADER_BYTES:
                break
        entry = None
        header_bytes = 0
        if pending[: len(MAGIC)] == MAGIC:
            if len(pending) < HEADER_BYTES:
                _error(source, "header", "truncated CSBT header")
            _, version, entry = HEADER_STRUCT.unpack_from(pending)
            if version != HEADER_VERSION:
                _error(
                    source,
                    "header",
                    f"unsupported CSBT header version {version} "
                    f"(supported: {HEADER_VERSION})",
                )
            header_bytes = HEADER_BYTES
            pending = pending[HEADER_BYTES:]
        first = 0
        while True:
            count = len(pending) // RECORD_BYTES
            if count or entry is not None:
                yield from _decode(pending, count, first, header_bytes, entry, source)
                entry = None
                first += count
                pending = pending[count * RECORD_BYTES :]
            block = next(blocks, None)
            if block is None:
                break
            pending += block
        if pending:
            _error(
                source,
                _position(header_bytes, first, 0),
                f"truncated record: got {len(pending)} of {RECORD_BYTES} bytes",
            )
    finally:
        stream.close()


def read(
    path_or_stream: Union[str, BinaryIO], source: str = ""
) -> Iterator:
    """Stream ``BranchRecord`` values from a ChampSim-style binary trace.

    A view over :func:`read_columns`: when the file opens with a
    ``CSBT`` header, the first yielded item is the sentinel tuple
    ``("entry", pc)``; every subsequent item is a
    :class:`~repro.workloads.formats.BranchRecord`.
    """
    from repro.workloads.formats import iter_records

    return iter_records(read_columns(path_or_stream, source))


def write(trace: Trace, path: str) -> None:
    """Serialise *trace* to a ChampSim-style binary file at *path*.

    Always emits the ``CSBT`` header carrying the first block's start
    address so that ingestion reconstructs the exact block structure
    (headerless export would lose the length of the first block).
    """
    from repro.workloads.trace import INSTRUCTION_BYTES

    with open(path, "wb") as handle:
        entry = int(trace.starts[0]) if len(trace) else 0
        handle.write(HEADER_STRUCT.pack(MAGIC, HEADER_VERSION, entry))
        for start, count, kind, taken, target in zip(
            *(column.tolist() for column in trace.packed().values())
        ):
            pc = start + (count - 1) * INSTRUCTION_BYTES
            handle.write(
                RECORD_STRUCT.pack(
                    pc, _WRITE_CODES[BranchKind(kind)], int(taken), target
                )
            )
