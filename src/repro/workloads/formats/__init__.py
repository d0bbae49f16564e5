"""External branch-trace formats (docs/TRACES.md).

This package is the documented trace-format layer of the ingestion
pipeline: one module per accepted external format, each exposing the
same three-function surface —

* ``read_columns(path_or_stream, source=...)`` — the format's one
  decoder: a **chunked** reader that decodes the decompressed stream
  ``CHUNK_BYTES`` at a time straight into :class:`RecordChunk`
  columns (never holding the whole file).  On the first malformed
  byte or line it first yields the valid records before it, then
  raises :class:`TraceFormatError` with the exact record position;
* ``read(path_or_stream, source=...)`` — a thin view over
  ``read_columns`` yielding one :class:`BranchRecord` per record;
* ``write(trace, path)`` — the inverse serialiser, used by the
  round-trip property tests and for exporting synthetic traces to
  external tools.

Registered formats (``FORMATS``):

* ``champsim`` — :mod:`repro.workloads.formats.champsim`, a binary
  ChampSim-style branch-record stream (fixed 18-byte little-endian
  records using ChampSim's branch-type codes, optional ``CSBT``
  header carrying the entry PC);
* ``cbp`` — :mod:`repro.workloads.formats.cbp`, a CBP-style text
  format (one ``PC KIND TARGET TAKEN`` record per line, ``#``
  comments, optional ``# entry`` directive).

Both readers are transparently gzip/xz-aware: :func:`open_stream`
sniffs the compression magic (not the file name), so ``trace.gz`` and
``trace.xz`` ingest exactly like their uncompressed forms, and
:func:`read_chunks` turns a truncated or corrupt compressed stream
into a positional :class:`TraceFormatError`.  :func:`detect_format`
sniffs the *format* the same way — the ``CSBT`` magic or a plausible
binary record stream means ``champsim``, anything decodable as text
means ``cbp``.

The grammar of each format, the normalisation rules that turn record
streams into the canonical block-compressed
:class:`~repro.workloads.trace.Trace`, and the error taxonomy are
specified normatively in docs/TRACES.md; the parsers here implement
that spec and the spec documents the parsers.
"""

from __future__ import annotations

import gzip
import io
import lzma
import zlib
from dataclasses import dataclass
from typing import (
    BinaryIO,
    Callable,
    Dict,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Union,
)

import numpy as np

from repro.isa.branches import BranchKind

#: magic prefixes of the supported stream compressors
_GZIP_MAGIC = b"\x1f\x8b"
_XZ_MAGIC = b"\xfd7zXZ\x00"

#: decompressed bytes the readers decode per chunk: bounds their memory
#: whatever the trace length, and is large enough that per-chunk NumPy
#: overhead is noise
CHUNK_BYTES = 1 << 20

#: what a truncated or corrupt gzip/xz stream raises while it is read
_COMPRESSION_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error, lzma.LZMAError)

#: largest value an unsigned 64-bit address column holds
_U64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class BranchRecord:
    """One normalised external branch record.

    The least common denominator of ChampSim- and CBP-style traces:
    the branch instruction's address, its class, the (taken-)target
    and the executed direction.  ``position`` is the human-readable
    location of the record in its source file (``line 12`` /
    ``record 3 (byte offset 70)``) — every validation error downstream
    of the parser quotes it verbatim.
    """

    pc: int
    kind: BranchKind
    target: int
    taken: bool
    position: str


class TraceFormatError(ValueError):
    """An external trace file failed parsing or normalisation.

    Carries the source name, the exact record position, and the
    reason; the rendered message is always the one-line
    ``<source>: <position>: <reason>`` form docs/TRACES.md specifies,
    which the CLI surfaces without a traceback.
    """

    def __init__(self, source: str, position: str, reason: str) -> None:
        super().__init__(f"{source}: {position}: {reason}")
        self.source = source
        self.position = position
        self.reason = reason


class RecordChunk(NamedTuple):
    """A run of consecutive records decoded into columns.

    ``pc``/``target`` are ``uint64`` (``object`` when a CBP value does
    not fit 64 bits, so normalisation can still quote it exactly),
    ``kind`` holds :class:`BranchKind` values as ``int8`` and ``taken``
    is ``bool``.  ``position(i)`` renders record *i*'s location in its
    source file (``line 12`` / ``record 3 (byte offset 70)``) — called
    only for the record an error names.  ``entry`` is the entry
    address a ``# entry`` directive or ``CSBT`` header declared ahead
    of this chunk's records, else ``None``.
    """

    pc: np.ndarray
    kind: np.ndarray
    taken: np.ndarray
    target: np.ndarray
    position: Callable[[int], str]
    entry: Optional[int] = None


def address_column(values: list) -> np.ndarray:
    """Pack Python-int addresses as ``uint64``, or ``object`` when one
    is negative or wider than 64 bits."""
    if values and (min(values) < 0 or max(values) > _U64_MAX):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.uint64)


def iter_records(chunks: Iterable[RecordChunk]) -> Iterator:
    """View a chunk stream record by record: an ``("entry", pc)``
    sentinel for each declared entry, then one :class:`BranchRecord`
    per record, in file order."""
    for chunk in chunks:
        if chunk.entry is not None:
            yield ("entry", chunk.entry)
        rows = zip(
            chunk.pc.tolist(),
            chunk.kind.tolist(),
            chunk.target.tolist(),
            chunk.taken.tolist(),
        )
        for index, (pc, kind, target, taken) in enumerate(rows):
            yield BranchRecord(
                pc=pc,
                kind=BranchKind(kind),
                target=target,
                taken=taken,
                position=chunk.position(index),
            )


def open_stream(path_or_stream: Union[str, BinaryIO]) -> BinaryIO:
    """Open *path_or_stream* as a binary stream, decompressing if needed.

    Compression is detected from the stream's **magic bytes** (gzip
    ``1f 8b``, xz ``fd 37 7a 58 5a 00``), never from the file name,
    so renamed or extension-less files still ingest.  The returned
    stream reads the decompressed bytes lazily — multi-hundred-MB
    traces never materialise in memory.  Its ``read1`` returns what
    one decompression step produced, so :func:`read_chunks` keeps
    every byte decoded before a stream turns out to be damaged.
    """
    if isinstance(path_or_stream, str):
        raw: BinaryIO = open(path_or_stream, "rb")
    else:
        raw = path_or_stream
    buffered = io.BufferedReader(raw)  # type: ignore[arg-type]
    magic = buffered.peek(len(_XZ_MAGIC))[: len(_XZ_MAGIC)]
    if magic.startswith(_GZIP_MAGIC):
        return gzip.GzipFile(fileobj=buffered)  # type: ignore[return-value]
    if magic.startswith(_XZ_MAGIC):
        return lzma.LZMAFile(buffered)  # type: ignore[return-value]
    return buffered


def read_chunks(
    stream: BinaryIO, source: str, size: Optional[int] = None
) -> Iterator[bytes]:
    """Yield the decompressed bytes of *stream* in blocks of *size*
    (default ``CHUNK_BYTES``); only the last block may be shorter.

    A truncated or corrupt gzip/xz stream raises
    :class:`TraceFormatError` at ``byte offset N`` — N counts the
    decompressed bytes read before the damage — after yielding those
    bytes, so errors in the intact part are reported first.
    """
    size = size or CHUNK_BYTES
    offset = 0
    while True:
        pieces = []
        got = 0
        try:
            while got < size:
                piece = stream.read1(size - got)  # type: ignore[attr-defined]
                if not piece:
                    break
                pieces.append(piece)
                got += len(piece)
        except _COMPRESSION_ERRORS as exc:
            if pieces:
                yield b"".join(pieces)
            raise TraceFormatError(
                source,
                f"byte offset {offset + got}",
                "compressed stream is truncated or corrupt",
            ) from exc
        if pieces:
            yield b"".join(pieces)
        if got < size:
            return
        offset += got


def detect_format(path: str, source: str = "") -> str:
    """Sniff which registered format *path* holds.

    Detection order (docs/TRACES.md): a ``CSBT`` magic (after
    transparent decompression) is ``champsim``; a decompressed size
    that is an exact multiple of the champsim record width whose first
    record carries a valid type/taken byte pair is ``champsim``;
    anything else is tried as ``cbp`` text.  Ambiguity is resolved
    toward text, which fails loudly (with a position) if it was wrong.
    """
    from repro.workloads.formats import champsim

    with open_stream(path) as stream:
        head = next(
            read_chunks(stream, source or path, champsim.RECORD_BYTES), b""
        )
    if head.startswith(champsim.MAGIC):
        return "champsim"
    if len(head) == champsim.RECORD_BYTES and champsim.plausible_record(head):
        return "champsim"
    return "cbp"


def get_format(name: str):
    """Look up a registered format module by name."""
    try:
        return FORMATS[name]
    except KeyError:
        raise ValueError(
            f"unknown trace format {name!r}; available: {sorted(FORMATS)}"
        ) from None


def read_records(
    path: str, fmt: str = "auto", source: str = ""
) -> Iterator[BranchRecord]:
    """Stream the :class:`BranchRecord` values of *path*: a view over
    :func:`read_columns`, which takes the same arguments."""
    return iter_records(read_columns(path, fmt=fmt, source=source))


def read_columns(
    path: str, fmt: str = "auto", source: str = ""
) -> Iterator[RecordChunk]:
    """Stream the :class:`RecordChunk` columns of *path*.

    ``fmt='auto'`` delegates to :func:`detect_format`; *source* (for
    error messages) defaults to the path itself.
    """
    if fmt == "auto":
        fmt = detect_format(path, source)
    module = get_format(fmt)
    return module.read_columns(path, source=source or path)


from repro.workloads.formats import cbp, champsim  # noqa: E402

#: registry of format modules, keyed by the names the CLI accepts
FORMATS: Dict[str, object] = {
    "champsim": champsim,
    "cbp": cbp,
}

__all__ = [
    "BranchRecord",
    "CHUNK_BYTES",
    "RecordChunk",
    "TraceFormatError",
    "FORMATS",
    "address_column",
    "open_stream",
    "read_chunks",
    "detect_format",
    "get_format",
    "iter_records",
    "read_columns",
    "read_records",
]
