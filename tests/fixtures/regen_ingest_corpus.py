#!/usr/bin/env python
"""Regenerate ``ingest_corpus.json``, the ingest layer's error-identity corpus.

The corpus pins what ``ingest_file`` makes of about 200 damaged trace
files.  The files are never committed: :func:`derive` rebuilds them
from a fixed seed, so only each input's *outcome* is stored — the
``external:<sha256>`` name it ingests to, or the exact error message
it is rejected with.  ``tests/test_ingest_corpus.py`` re-derives the
inputs and asserts the readers still reproduce every outcome.

The inputs start from four sources — the hand-written ``demo.cbp``
fixture, its ``demo.bt`` sibling, and a 20k-instruction ``li`` trace
written in both formats — and apply exactly one mutation each:

* text: a flipped byte or field, an inserted comment, blank line,
  multi-byte UTF-8 comment or invalid UTF-8 byte, ``\\r`` / ``\\r\\n``
  line endings, a moved, duplicated or misaligned ``# entry``
  directive, swapped lines, or truncation;
* binary: a flipped byte or record field, a bad header version, a
  dropped or truncated header, swapped records, or truncation;
* compressed: a gzip or xz stream cut short or with a corrupt trailer.

Every input is then stored plain, gzip- or xz-compressed (picked by
the seeded generator).  Error messages name the case id as their
source, so outcomes do not depend on where the files are written.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/regen_ingest_corpus.py
"""

from __future__ import annotations

import gzip
import json
import lzma
import os
import random
import struct
import sys
import tempfile
from typing import Dict, List, Tuple

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "src"
    ),
)

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "ingest_corpus.json")

#: seed of every random choice below; changing it changes every input
SEED = 1995
#: length of the synthetic li trace the large sources are written from
LI_INSTRUCTIONS = 20_000
#: mutated inputs drawn per (source, mutation) pair
DRAWS = {"demo": 4, "li": 5}

_RECORD = struct.Struct("<QBBQ")
_HEADER_BYTES = 16


def sources() -> Dict[str, Tuple[bytes, str]]:
    """The four unmutated sources: name -> (bytes, format)."""
    from repro.workloads import corpus
    from repro.workloads.formats import cbp, champsim

    with open(os.path.join(HERE, "demo.cbp"), "rb") as handle:
        demo_cbp = handle.read()
    with open(os.path.join(HERE, "demo.bt"), "rb") as handle:
        demo_bt = handle.read()
    trace = corpus.generate_trace("li", instructions=LI_INSTRUCTIONS)
    with tempfile.TemporaryDirectory() as scratch:
        blobs = {}
        for writer, suffix in ((cbp, "cbp"), (champsim, "bt")):
            path = os.path.join(scratch, f"li.{suffix}")
            writer.write(trace, path)
            with open(path, "rb") as handle:
                blobs[suffix] = handle.read()
    return {
        "demo.cbp": (demo_cbp, "cbp"),
        "demo.bt": (demo_bt, "champsim"),
        "li.cbp": (blobs["cbp"], "cbp"),
        "li.bt": (blobs["bt"], "champsim"),
    }


# ---------------------------------------------------------------------------
# text mutations (each takes the rng and the source bytes)
# ---------------------------------------------------------------------------


def _lines(data: bytes) -> List[bytes]:
    return data.split(b"\n")[:-1]


def _join(lines: List[bytes]) -> bytes:
    return b"\n".join(lines) + b"\n"


def _data_rows(lines: List[bytes]) -> List[int]:
    return [i for i, line in enumerate(lines) if line and not line.startswith(b"#")]


def _directive_row(lines: List[bytes]) -> int:
    return next(i for i, line in enumerate(lines) if line.startswith(b"# entry"))


def flip_byte(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    index = rng.randrange(len(out))
    out[index] = (out[index] + rng.randrange(1, 256)) % 256
    return bytes(out)


def text_flip_field(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    row = rng.choice(_data_rows(lines))
    fields = lines[row].decode().split()
    column = rng.randrange(4)
    if column in (0, 2):
        value = int(fields[column], 0)
        fields[column] = rng.choice(
            [
                hex(value + 1),
                hex(value + 2),
                hex(value - 64),
                "0x0",
                "0x8000000000000000",
                "0x10000000000000000",
                "-0x4",
                "zork",
                str(value),
                "0o17",
            ]
        )
    elif column == 1:
        fields[column] = rng.choice(["WAT", "jmp", "Ret", "NOP", "CND?"])
    else:
        fields[column] = rng.choice(["MAYBE", "t", "n", "2", "0", "1"])
    if rng.random() < 0.15:
        fields = fields[:-1] if rng.random() < 0.5 else fields + ["extra"]
    lines[row] = " ".join(fields).encode()
    return _join(lines)


def insert_comment(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    comment = rng.choice([b"# note", b"   # indented note", b"#", b"#entry 0x1000"])
    lines.insert(rng.randrange(len(lines) + 1), comment)
    return _join(lines)


def insert_blank(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    blank = rng.choice([b"", b"   ", b"\t \t", b"\x0b", b"\x0c"])
    lines.insert(rng.randrange(len(lines) + 1), blank)
    return _join(lines)


def insert_multibyte(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    comment = rng.choice(
        ["# café über", "# €€€", "# \U0001f600 trace"]
    ).encode("utf-8")
    lines.insert(rng.randrange(len(lines) + 1), comment)
    return _join(lines)


def insert_invalid_utf8(rng: random.Random, data: bytes) -> bytes:
    index = rng.randrange(len(data) + 1)
    bad = rng.choice([b"\xff", b"\xc3", b"\xe2\x82", b"\x80", b"\xed\xa0\x80"])
    return data[:index] + bad + data[index:]


def carriage_returns(rng: random.Random, data: bytes) -> bytes:
    mode = rng.choice(["one-cr", "one-crlf", "all-cr", "all-crlf", "trailing-cr"])
    if mode == "all-cr":
        return data.replace(b"\n", b"\r")
    if mode == "all-crlf":
        return data.replace(b"\n", b"\r\n")
    if mode == "trailing-cr":
        return data[:-1] + b"\r"
    positions = [i for i, byte in enumerate(data) if byte == 0x0A]
    index = rng.choice(positions)
    ending = b"\r" if mode == "one-cr" else b"\r\n"
    return data[:index] + ending + data[index + 1 :]


def move_directive(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    directive = lines.pop(_directive_row(lines))
    lines.insert(rng.randrange(len(lines) + 1), directive)
    return _join(lines)


def duplicate_directive(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    directive = lines[_directive_row(lines)]
    if rng.random() < 0.5:
        directive = rng.choice([b"# entry 0x2000", b"# ENTRY 0x1000", b"# entry"])
    lines.insert(rng.randrange(len(lines) + 1), directive)
    return _join(lines)


def misalign_directive(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    row = _directive_row(lines)
    address = int(lines[row].split()[2], 0)
    lines[row] = rng.choice(
        [
            f"# entry {hex(address + 2)}",
            f"# entry {hex(address)} extra",
            "# entry zork",
            "# entry -0x4",
            f"# entry {address}",
        ]
    ).encode()
    return _join(lines)


def swap_lines(rng: random.Random, data: bytes) -> bytes:
    lines = _lines(data)
    rows = _data_rows(lines)
    position = rng.randrange(len(rows) - 1)
    a, b = rows[position], rows[position + 1]
    lines[a], lines[b] = lines[b], lines[a]
    return _join(lines)


def truncate(rng: random.Random, data: bytes) -> bytes:
    return data[: rng.randrange(len(data))]


TEXT_MUTATIONS = (
    flip_byte,
    text_flip_field,
    insert_comment,
    insert_blank,
    insert_multibyte,
    insert_invalid_utf8,
    carriage_returns,
    move_directive,
    duplicate_directive,
    misalign_directive,
    swap_lines,
    truncate,
)


# ---------------------------------------------------------------------------
# binary mutations
# ---------------------------------------------------------------------------


def _record_count(data: bytes) -> int:
    return (len(data) - _HEADER_BYTES) // _RECORD.size


def _record_offset(index: int) -> int:
    return _HEADER_BYTES + index * _RECORD.size


def binary_flip_field(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    index = rng.randrange(_record_count(data))
    offset = _record_offset(index)
    pc, code, taken, target = _RECORD.unpack_from(out, offset)
    column = rng.randrange(4)
    if column == 0:
        pc = rng.choice([pc + 1, pc + 2, pc - 64, pc | 1 << 63, (1 << 64) - 4])
    elif column == 1:
        code = rng.choice([0, 5, 7, 99, 255])
    elif column == 2:
        taken = rng.choice([0, 1, 2, 255])
    else:
        target = rng.choice([0, target + 2, target | 1 << 63, target + 4])
    _RECORD.pack_into(out, offset, pc % (1 << 64), code, taken, target)
    return bytes(out)


def header_damage(rng: random.Random, data: bytes) -> bytes:
    mode = rng.choice(["version", "drop", "cut", "entry"])
    if mode == "version":
        version = rng.choice([0, 2, 42])
        return data[:4] + struct.pack("<I", version) + data[8:]
    if mode == "drop":
        return data[_HEADER_BYTES:]
    if mode == "cut":
        return data[: rng.randrange(4, _HEADER_BYTES)]
    entry = struct.unpack_from("<Q", data, 8)[0]
    shift = rng.choice([2, -4, 1 << 63])
    return data[:8] + struct.pack("<Q", (entry + shift) % (1 << 64)) + data[16:]


def swap_records(rng: random.Random, data: bytes) -> bytes:
    index = rng.randrange(_record_count(data) - 1)
    a = _record_offset(index)
    b = a + _RECORD.size
    c = b + _RECORD.size
    return data[:a] + data[b:c] + data[a:b] + data[c:]


BINARY_MUTATIONS = (
    flip_byte,
    binary_flip_field,
    header_damage,
    swap_records,
    truncate,
)


# ---------------------------------------------------------------------------
# compression and compressed-stream mutations
# ---------------------------------------------------------------------------


def compress(data: bytes, codec: str) -> bytes:
    if codec == "gz":
        return gzip.compress(data, compresslevel=6, mtime=0)
    if codec == "xz":
        return lzma.compress(data, preset=1)
    return data


def compressed_damage(rng: random.Random, blob: bytes, codec: str) -> Tuple[str, bytes]:
    """Cut *blob* short, or corrupt its gzip CRC / xz stream footer."""
    if rng.random() < 0.5:
        return "cut-stream", blob[: len(blob) - rng.randrange(1, min(len(blob), 200))]
    tail = 8 if codec == "gz" else 12
    out = bytearray(blob)
    index = len(out) - rng.randrange(1, tail + 1)
    out[index] ^= 0xFF
    return "corrupt-trailer", bytes(out)


def derive(directory: str) -> List[Tuple[str, str]]:
    """Write every corpus input into *directory*; return ``(case, path)``
    pairs in a fixed order."""
    rng = random.Random(SEED)
    cases: List[Tuple[str, bytes]] = []
    for name, (data, fmt) in sources().items():
        draws = DRAWS[name.split(".")[0]]
        for codec in ("", "gz", "xz"):
            suffix = f".{codec}" if codec else ""
            cases.append((f"{name}{suffix}~intact", compress(data, codec)))
        mutations = TEXT_MUTATIONS if fmt == "cbp" else BINARY_MUTATIONS
        for mutation in mutations:
            for draw in range(draws):
                codec = rng.choice(["", "", "gz", "xz"])
                mutated = mutation(rng, data)
                suffix = f".{codec}" if codec else ""
                case = f"{name}{suffix}~{mutation.__name__}-{draw}"
                cases.append((case, compress(mutated, codec)))
        for codec in ("gz", "xz"):
            for draw in range(draws):
                label, blob = compressed_damage(rng, compress(data, codec), codec)
                cases.append((f"{name}.{codec}~{label}-{draw}", blob))
    paths = []
    for case, blob in cases:
        path = os.path.join(directory, case)
        with open(path, "wb") as handle:
            handle.write(blob)
        paths.append((case, path))
    return paths


def outcome(path: str, case: str) -> str:
    """What ingesting *path* gives: its ``external:`` name, the
    ``TraceFormatError`` message, or ``<ExceptionType>: <message>``."""
    from repro.workloads.formats import TraceFormatError
    from repro.workloads.ingest import ingest_file

    try:
        return ingest_file(path, source=case).name
    except TraceFormatError as exc:
        return str(exc)
    except Exception as exc:  # recorded, never raised: the corpus pins it
        return f"{type(exc).__name__}: {exc}"


def main() -> int:
    with tempfile.TemporaryDirectory() as directory:
        outcomes = {case: outcome(path, case) for case, path in derive(directory)}
    payload = {
        "schema": "repro-ingest-corpus/v1",
        "seed": SEED,
        "outcomes": outcomes,
    }
    with open(CORPUS_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(outcomes)} corpus outcomes written to {CORPUS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
