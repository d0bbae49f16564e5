"""CBP-style text branch-trace format.

A line-oriented UTF-8 text format modelled on the Championship Branch
Prediction (CBP) workload distributions: one executed-branch record
per line, whitespace-separated —

    PC KIND TARGET TAKEN

* ``PC`` / ``TARGET`` — non-negative integers, decimal or ``0x`` hex
  (parsed with base auto-detection), 4-byte aligned;
* ``KIND`` — one of ``CND`` (conditional), ``JMP`` (direct
  unconditional), ``CALL``, ``RET``, ``IND`` (indirect jump),
  case-insensitive;
* ``TAKEN`` — ``T``/``1`` (taken) or ``N``/``0`` (not taken).

Blank lines are skipped.  Lines starting with ``#`` are comments,
with one recognised directive: ``# entry 0xADDR`` before the first
record pins the address the traced program entered at — the start of
the first basic block.  Without it, ingestion infers the entry as the
first record's PC (a single-instruction first block).  The full
grammar and error taxonomy live in docs/TRACES.md.
"""

from __future__ import annotations

import codecs
from itertools import compress, repeat
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.isa.branches import BranchKind
from repro.workloads.trace import Trace

#: mapping between the textual kind mnemonics and canonical kinds
KIND_NAMES = {
    "CND": BranchKind.CONDITIONAL,
    "JMP": BranchKind.UNCONDITIONAL,
    "CALL": BranchKind.CALL,
    "RET": BranchKind.RETURN,
    "IND": BranchKind.INDIRECT,
}
_KIND_MNEMONICS = {kind: name for name, kind in KIND_NAMES.items()}
#: upper-cased mnemonic -> BranchKind value, the decoder's lookup
_KIND_CODES = {name: int(kind) for name, kind in KIND_NAMES.items()}
#: upper-cased TAKEN flag -> direction
_TAKEN_FLAGS = {"T": True, "1": True, "N": False, "0": False}

#: directive pinning the traced program's entry address
ENTRY_DIRECTIVE = "# entry"


def _error(source: str, line_no: int, reason: str):
    from repro.workloads.formats import TraceFormatError

    raise TraceFormatError(source, f"line {line_no}", reason)


def _not_integer(field: str, text: str) -> str:
    return f"{field} {text!r} is not an integer"


def _negative(field: str, text: str) -> str:
    return f"{field} {text!r} is negative"


def _ints(tokens: List[str]) -> Tuple[List[int], int]:
    """``int(text, 0)`` of every token, in C.  Returns the values and
    the index of the first token that is not an integer (``len`` when
    all are); the values stop there."""
    try:
        return list(map(int, tokens, repeat(0, len(tokens)))), len(tokens)
    except ValueError:
        values: List[int] = []
        for token in tokens:
            try:
                values.append(int(token, 0))
            except ValueError:
                break
        return values, len(values)


def _first_negative(values: List[int]) -> int:
    if values and min(values) < 0:
        return next(index for index, value in enumerate(values) if value < 0)
    return len(values)


def _first_none(values: list) -> int:
    return values.index(None) if None in values else len(values)


def _tokenise(text: str, count: int) -> Tuple[List[str], np.ndarray]:
    """``str.split()`` each of the *count* ``\\n``-separated lines of
    *text*: the flat token list and each line's token count."""
    widths = map(len, map(str.split, text.split("\n")))
    return text.split(), np.fromiter(widths, dtype=np.intp, count=count)


def _universal(text: str) -> str:
    """Translate universal newlines (``\\r\\n``, ``\\r``) to ``\\n``,
    as ``TextIOWrapper`` does."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


class _Cursor:
    """What the decoder knows between chunks."""

    __slots__ = ("lines", "entry_seen", "records_seen")

    def __init__(self) -> None:
        self.lines = 0
        self.entry_seen = False
        self.records_seen = False


def _decode(text: str, cursor: _Cursor, source: str) -> Iterator:
    """Decode *text*, complete lines joined by ``\\n``, into a
    ``RecordChunk``.

    Lines are split, classified and parsed in bulk.  On the first
    malformed line (checks within a line run in field order) the
    records before it are yielded, then ``TraceFormatError`` names it.
    """
    from repro.workloads.formats import RecordChunk, address_column

    count = text.count("\n") + 1
    first_line = cursor.lines + 1
    cursor.lines += count
    tokens, widths = _tokenise(text, count)
    ends = np.cumsum(widths)

    def fields(row: int) -> List[str]:
        """The whitespace-separated tokens of data row *row*."""
        return tokens[ends[row] - widths[row] : ends[row]]

    data = widths > 0
    comments: List[int] = []
    if "#" in text:
        lines = text.split("\n")
        comments = [
            int(row)
            for row in np.flatnonzero(data)
            if tokens[ends[row] - widths[row]][0] == "#"
        ]
        data[comments] = False
    wrong = data & (widths != 4)
    stop = int(np.argmax(wrong)) if wrong.any() else count
    failure: Optional[str] = None
    if stop < count:
        failure = f"expected 4 fields (PC KIND TARGET TAKEN), got {widths[stop]}"
    entry = None
    for row in comments:
        if row >= stop:
            break
        line = lines[row].strip()
        if not line.lower().startswith(ENTRY_DIRECTIVE):
            continue
        reason = None
        if cursor.records_seen or data[:row].any():
            reason = "entry directive must precede the first record"
        elif cursor.entry_seen:
            reason = "duplicate entry directive"
        elif len(fields(row)) != 3:
            reason = "entry directive needs exactly one address"
        else:
            address = fields(row)[2]
            values, _ = _ints([address])
            if not values:
                reason = _not_integer("entry address", address)
            elif values[0] < 0:
                reason = _negative("entry address", address)
            else:
                entry = values[0]
                cursor.entry_seen = True
        if reason is not None:
            stop, failure = row, reason
            break

    rows = np.flatnonzero(data[:stop])
    tokens = tokens[: ends[stop - 1]] if stop else []
    if comments:
        owner = np.repeat(np.arange(stop), widths[:stop])
        tokens = list(compress(tokens, data[owner].tolist()))
    pc_text, kind_text, target_text, flag_text = (tokens[i::4] for i in range(4))
    pcs, pc_bad = _ints(pc_text)
    targets, target_bad = _ints(target_text)
    kinds = list(map(_KIND_CODES.get, map(str.upper, kind_text)))
    flags = list(map(_TAKEN_FLAGS.get, map(str.upper, flag_text)))
    checks = (
        (pc_bad, lambda r: _not_integer("PC", pc_text[r])),
        (_first_negative(pcs), lambda r: _negative("PC", pc_text[r])),
        (
            _first_none(kinds),
            lambda r: f"unknown branch kind {kind_text[r]!r}; "
            f"expected one of {sorted(KIND_NAMES)}",
        ),
        (target_bad, lambda r: _not_integer("target", target_text[r])),
        (_first_negative(targets), lambda r: _negative("target", target_text[r])),
        (
            _first_none(flags),
            lambda r: f"taken flag {flag_text[r]!r} must be one of T, N, 1, 0",
        ),
    )
    valid = min(row for row, _ in checks)
    if valid < len(rows):
        stop = int(rows[valid])
        failure = next(message(valid) for row, message in checks if row == valid)
    line_numbers = rows[:valid] + first_line
    if valid or entry is not None:
        cursor.records_seen = cursor.records_seen or valid > 0
        yield RecordChunk(
            pc=address_column(pcs[:valid]),
            kind=np.array(kinds[:valid], dtype=np.int8),
            taken=np.array(flags[:valid], dtype=np.bool_),
            target=address_column(targets[:valid]),
            position=lambda index: f"line {line_numbers[index]}",
            entry=entry,
        )
    if failure is not None:
        _error(source, first_line + stop, failure)


def read_columns(
    path_or_stream: Union[str, BinaryIO], source: str = ""
) -> Iterator:
    """Decode a CBP-style text trace into ``RecordChunk`` columns.

    The one decoder of this format.  Each decompressed chunk goes
    through an incremental UTF-8 decoder (a character split across
    chunks still decodes), is split on universal newlines, and its
    complete lines are parsed in bulk by :func:`_decode`; the partial
    last line carries over to the next chunk.  An ``# entry``
    directive's address rides on the chunk it was read in.  Malformed
    lines raise ``TraceFormatError`` naming the 1-based line number;
    bytes that are not UTF-8 raise it naming their absolute byte
    offset in the decompressed stream.  Either way the records before
    the error are yielded first.
    """
    from repro.workloads.formats import TraceFormatError, open_stream, read_chunks

    if isinstance(path_or_stream, str):
        source = source or path_or_stream
    source = source or "<stream>"
    stream = open_stream(path_or_stream)
    decoder = codecs.getincrementaldecoder("utf-8")("strict")
    cursor = _Cursor()
    try:
        blocks = read_chunks(stream, source)
        offset = 0
        carry = ""
        while True:
            block = next(blocks, None)
            final = block is None
            held = decoder.getstate()[0]
            try:
                text = carry + decoder.decode(block or b"", final)
            except UnicodeDecodeError as exc:
                valid = (held + (block or b""))[: exc.start].decode("utf-8")
                text = _universal(carry + valid)
                cut = text.rfind("\n")
                if cut >= 0:
                    yield from _decode(text[:cut], cursor, source)
                raise TraceFormatError(
                    source,
                    f"byte offset {offset - len(held) + exc.start}",
                    "file is not valid UTF-8 text",
                ) from None
            if final:
                if text:
                    yield from _decode(_universal(text), cursor, source)
                return
            offset += len(block)
            # a trailing \r may be the first half of \r\n: hold it back
            cr = text.endswith("\r")
            text = _universal(text[:-1] if cr else text)
            cut = text.rfind("\n")
            carry = text[cut + 1 :] + ("\r" if cr else "")
            if cut >= 0:
                yield from _decode(text[:cut], cursor, source)
    finally:
        stream.close()


def read(
    path_or_stream: Union[str, BinaryIO], source: str = ""
) -> Iterator:
    """Stream ``BranchRecord`` values from a CBP-style text trace.

    A view over :func:`read_columns`: an ``("entry", address)``
    sentinel is yielded first when the file carries an ``# entry``
    directive, then one :class:`~repro.workloads.formats.BranchRecord`
    per data line.  Malformed lines raise ``TraceFormatError`` naming
    the 1-based line number.
    """
    from repro.workloads.formats import iter_records

    return iter_records(read_columns(path_or_stream, source))


def write(trace: Trace, path: str) -> None:
    """Serialise *trace* to a CBP-style text file at *path*.

    Emits a version comment, an ``# entry`` directive pinning the
    first block's start (so ingestion reconstructs the exact block
    structure), and one record per block-terminating branch.  The
    synthetic interpreter never emits ``NOT_A_BRANCH`` events, so
    every block maps to exactly one line.
    """
    from repro.workloads.trace import INSTRUCTION_BYTES

    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# repro-cbp v1\n")
        if len(trace):
            handle.write(f"{ENTRY_DIRECTIVE} {int(trace.starts[0]):#x}\n")
        for start, count, kind, taken, target in zip(
            *(column.tolist() for column in trace.packed().values())
        ):
            pc = start + (count - 1) * INSTRUCTION_BYTES
            mnemonic = _KIND_MNEMONICS[BranchKind(kind)]
            flag = "T" if taken else "N"
            handle.write(f"{pc:#x} {mnemonic} {target:#x} {flag}\n")
