"""The ingest layer's error-identity corpus (``tests/fixtures/ingest_corpus.json``).

``tests/fixtures/regen_ingest_corpus.py`` derives about 200 damaged
trace files from a fixed seed — the demo fixtures and a 20k-instruction
``li`` trace, in both formats, plain and gzip/xz-compressed, one
mutation each — and the JSON pins what ingesting each one gave when
the corpus was recorded: its ``external:`` name or its exact error.
These tests re-derive the files and require the same outcome, at the
readers' default chunk size and at one a few records long, where chunk
boundaries fall mid-line and mid-record.

Two outcomes changed on purpose since the corpus was recorded, and are
checked in their new form:

* a truncated or corrupt gzip/xz stream used to escape as a raw
  ``EOFError`` / ``BadGzipFile`` / ``LZMAError``; it is now
  ``<source>: byte offset N: compressed stream is truncated or corrupt``;
* a CBP file that is not UTF-8 used to report ``line byte offset K``
  with K relative to an internal 8 KB decode window; it now reports
  ``byte offset N``, the absolute offset of the first bad byte.
"""

from __future__ import annotations

import gzip
import importlib.util
import json
import lzma
import os
import re

import pytest

from repro.workloads import formats, ingest

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

_spec = importlib.util.spec_from_file_location(
    "regen_ingest_corpus", os.path.join(FIXTURES, "regen_ingest_corpus.py")
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

#: exception types a damaged compressed stream raised when recorded
_RAW_COMPRESSION_ERRORS = ("EOFError", "BadGzipFile", "LZMAError", "error")


def recorded():
    with open(regen.CORPUS_PATH, encoding="utf-8") as handle:
        return json.load(handle)["outcomes"]


def decompressed(path: str) -> bytes:
    with open(path, "rb") as handle:
        raw = handle.read()
    if raw.startswith(b"\x1f\x8b"):
        return gzip.decompress(raw)
    if raw.startswith(b"\xfd7zXZ\x00"):
        return lzma.decompress(raw)
    return raw


def expected(case: str, path: str, old: str) -> str:
    """The outcome *case* must have now: *old*, or its intended new form."""
    if old.split(":")[0] in _RAW_COMPRESSION_ERRORS:
        return f"{case}: byte offset <N>: compressed stream is truncated or corrupt"
    if old.startswith(f"{case}: line byte offset "):
        try:
            decompressed(path).decode("utf-8")
        except UnicodeDecodeError as exc:
            return f"{case}: byte offset {exc.start}: file is not valid UTF-8 text"
        raise AssertionError(f"{case}: recorded a UTF-8 error, but the file decodes")
    return old


def matches(outcome: str, want: str) -> bool:
    if "<N>" not in want:
        return outcome == want
    pattern = re.escape(want).replace(re.escape("<N>"), r"\d+")
    return re.fullmatch(pattern, outcome) is not None


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("ingest-corpus"))
    return regen.derive(directory)


def test_corpus_is_complete(corpus):
    outcomes = recorded()
    assert len(corpus) == len(outcomes)
    assert {case for case, _ in corpus} == set(outcomes)
    assert len(outcomes) >= 200
    rejected = [o for o in outcomes.values() if not o.startswith("external:")]
    assert len(rejected) > 100


def test_default_chunks_reproduce_every_outcome(corpus):
    outcomes = recorded()
    mismatched = {}
    for case, path in corpus:
        want = expected(case, path, outcomes[case])
        got = regen.outcome(path, case)
        if not matches(got, want):
            mismatched[case] = (want, got)
    assert not mismatched


def test_tiny_chunks_reproduce_every_outcome(corpus, monkeypatch):
    """Chunks of 41 decompressed bytes: about two records or lines, so
    boundaries split lines, records, headers and UTF-8 characters."""
    monkeypatch.setattr(formats, "CHUNK_BYTES", 41)
    original = ingest._close_blocks
    calls = []

    def spy(chunk, start, source):
        calls.append(None)
        try:
            return original(chunk, start, source)
        except formats.TraceFormatError as exc:
            calls[-1] = exc if exc.position == chunk.position(0) else None
            raise

    monkeypatch.setattr(ingest, "_close_blocks", spy)
    outcomes = recorded()
    mismatched = {}
    # errors on the first record of a chunk after the case's first one
    later_firsts = []
    for case, path in corpus:
        calls.clear()
        want = expected(case, path, outcomes[case])
        got = regen.outcome(path, case)
        if not matches(got, want):
            mismatched[case] = (want, got)
        if len(calls) > 1 and calls[-1] is not None:
            later_firsts.append(calls[-1])
    assert not mismatched
    # the boundary cases the chunked normaliser must get right: an error
    # on the first record of a later chunk, and a discontinuity against
    # the block start carried over from the chunk before
    assert later_firsts
    assert any("control-flow discontinuity" in exc.reason for exc in later_firsts)
