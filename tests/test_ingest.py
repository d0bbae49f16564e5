"""External trace ingestion: formats, normalisation, store, wiring.

Covers the docs/TRACES.md contract end to end:

* round-trips — writing a trace back out in either on-disk format and
  re-ingesting it reproduces the exact packed columns, the same
  content digest, and a byte-identical :class:`SimulationReport`;
* malformed inputs — every rejection carries a one-line positional
  error (``<source>: line N`` / ``record N (byte offset B)``);
* compression — gzip/xz variants stream through the same readers and
  land on the same ``external:<sha256>`` name;
* integration — the external-trace store, ``corpus.trace_key`` /
  ``generate_trace`` resolution, the harness CLI (``ingest`` and
  ``--trace``) and the service job-spec validator.

The committed fixtures under ``tests/fixtures/`` are the same files
the CI ``ingest-smoke`` job replays (regenerate them with
``tests/fixtures/regen.py``).
"""

from __future__ import annotations

import gzip
import io
import lzma
import os

import numpy as np
import pytest

from repro.harness.checkpoint import report_to_dict
from repro.harness.cli import main as harness_main
from repro.harness.config import ArchitectureConfig
from repro.harness.runner import simulate
from repro.isa.branches import BranchKind
from repro.service.protocol import JobSpecError, parse_job_spec
from repro.workloads import corpus
from repro.workloads.formats import (
    TraceFormatError,
    detect_format,
    read_records,
)
from repro.workloads.formats import cbp as cbp_format
from repro.workloads.formats import champsim as champsim_format
from repro.workloads.ingest import (
    EXTERNAL_DIR_ENV_VAR,
    external_name,
    external_trace_path,
    ingest_and_store,
    ingest_file,
    ingest_records,
    is_external,
    load_external,
    store_external,
    trace_digest,
)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fixtures")

#: every committed fixture encodes this exact control flow
FIXTURE_VARIANTS = ("demo.cbp", "demo.cbp.gz", "demo.bt", "demo.bt.xz")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


@pytest.fixture
def external_dir(tmp_path, monkeypatch):
    """Point the external-trace store at a per-test directory."""
    directory = tmp_path / "external-traces"
    monkeypatch.setenv(EXTERNAL_DIR_ENV_VAR, str(directory))
    corpus.clear_cache()
    yield str(directory)
    corpus.clear_cache()


def columns(trace):
    return {key: np.asarray(value) for key, value in trace.packed().items()}


class TestFixtures:
    def test_all_variants_same_digest(self):
        names = {ingest_file(fixture(name)).name for name in FIXTURE_VARIANTS}
        assert len(names) == 1
        (name,) = names
        assert is_external(name)

    def test_fixture_trace_is_valid_and_branchy(self):
        trace = ingest_file(fixture("demo.cbp"))
        trace.validate()
        kinds = set(np.asarray(trace.packed()["kinds"]).tolist())
        assert {
            BranchKind.CONDITIONAL,
            BranchKind.UNCONDITIONAL,
            BranchKind.CALL,
            BranchKind.RETURN,
            BranchKind.INDIRECT,
        } == {BranchKind(kind) for kind in kinds}

    def test_format_detection(self):
        assert detect_format(fixture("demo.cbp")) == "cbp"
        assert detect_format(fixture("demo.cbp.gz")) == "cbp"
        assert detect_format(fixture("demo.bt")) == "champsim"
        assert detect_format(fixture("demo.bt.xz")) == "champsim"


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["cbp", "champsim"])
    def test_write_then_ingest_is_exact(self, tmp_path, fmt):
        original = ingest_file(fixture("demo.cbp"))
        writer = cbp_format if fmt == "cbp" else champsim_format
        path = str(tmp_path / f"copy.{fmt}")
        writer.write(original, path)
        again = ingest_file(path, fmt=fmt)
        assert again.name == original.name
        for key, column in columns(original).items():
            assert np.array_equal(column, columns(again)[key]), key

    @pytest.mark.parametrize("fmt", ["cbp", "champsim"])
    def test_round_trip_report_is_byte_identical(self, tmp_path, fmt):
        """The replayed report must match the direct one exactly."""
        original = ingest_file(fixture("demo.cbp"))
        writer = cbp_format if fmt == "cbp" else champsim_format
        path = str(tmp_path / f"copy.{fmt}")
        writer.write(original, path)
        again = ingest_file(path)
        config = ArchitectureConfig(
            frontend="btb", entries=64, cache_kb=4, attribution=True
        )
        direct = report_to_dict(simulate(config, original))
        replayed = report_to_dict(simulate(config, again))
        assert direct == replayed

    def test_reference_and_fast_agree_on_ingested_trace(self):
        trace = ingest_file(fixture("demo.bt"))
        config = ArchitectureConfig(frontend="btb", entries=64, cache_kb=4)
        import dataclasses

        reference = simulate(config, trace)
        fast = simulate(
            dataclasses.replace(config, engine="fast"), trace
        )
        assert reference.summary() == fast.summary()

    def test_synthetic_trace_survives_both_formats(self, tmp_path):
        trace = corpus.generate_trace("li", instructions=20_000)
        for writer, suffix in ((cbp_format, "cbp"), (champsim_format, "bt")):
            path = str(tmp_path / f"li.{suffix}")
            writer.write(trace, path)
            again = ingest_file(path)
            for key, column in columns(trace).items():
                assert np.array_equal(column, columns(again)[key]), key


class TestCompression:
    def test_gzip_stream(self, tmp_path):
        raw = open(fixture("demo.cbp"), "rb").read()
        path = tmp_path / "demo.txt.gz"
        path.write_bytes(gzip.compress(raw))
        assert ingest_file(str(path)).name == ingest_file(
            fixture("demo.cbp")
        ).name

    def test_xz_stream_without_extension(self, tmp_path):
        raw = open(fixture("demo.bt"), "rb").read()
        path = tmp_path / "mystery-file"
        path.write_bytes(lzma.compress(raw))
        assert ingest_file(str(path)).name == ingest_file(
            fixture("demo.bt")
        ).name

    def test_truncated_gzip_is_positional(self, tmp_path):
        raw = gzip.compress(open(fixture("demo.cbp"), "rb").read())
        path = tmp_path / "trunc.cbp.gz"
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises((TraceFormatError, EOFError, OSError)):
            ingest_file(str(path))


def cbp_lines(*lines: str) -> io.BytesIO:
    return io.BytesIO(("\n".join(lines) + "\n").encode())


class TestMalformedCBP:
    """Every rejection names the source and the offending line."""

    def expect(self, stream, message):
        with pytest.raises(TraceFormatError) as excinfo:
            list(cbp_format.read(stream, source="bad.cbp"))
        assert "bad.cbp" in str(excinfo.value)
        assert message in str(excinfo.value)
        return str(excinfo.value)

    def test_wrong_field_count(self):
        err = self.expect(
            cbp_lines("# entry 0x1000", "0x100c CND 0x2000"),
            "expected 4 fields",
        )
        assert "line 2" in err

    def test_unknown_mnemonic(self):
        self.expect(
            cbp_lines("0x100c WAT 0x2000 T"), "unknown branch kind"
        )

    def test_bad_taken_flag(self):
        self.expect(cbp_lines("0x100c CND 0x2000 MAYBE"), "taken flag")

    def test_non_integer_pc(self):
        self.expect(cbp_lines("zork CND 0x2000 T"), "not an integer")

    def test_duplicate_entry_directive(self):
        err = self.expect(
            cbp_lines("# entry 0x1000", "# entry 0x2000"),
            "duplicate entry directive",
        )
        assert "line 2" in err

    def test_late_entry_directive(self):
        self.expect(
            cbp_lines("0x100c CND 0x2000 T", "# entry 0x1000"),
            "entry directive must precede",
        )

    def test_binary_garbage_is_not_utf8(self):
        self.expect(io.BytesIO(b"\xff\xfe\x00\x41"), "not valid UTF-8")


class TestMalformedSemantics:
    """Normalisation-level rejections carry the record's position."""

    def ingest(self, *lines: str):
        return cbp_format.read(cbp_lines(*lines), source="bad.cbp")

    def expect(self, message, *lines):
        from repro.workloads.ingest import ingest_records

        with pytest.raises(TraceFormatError) as excinfo:
            ingest_records(self.ingest(*lines), source="bad.cbp")
        assert message in str(excinfo.value)
        return str(excinfo.value)

    def test_misaligned_pc(self):
        self.expect("is not 4-byte aligned", "0x1001 CND 0x2000 T")

    def test_misaligned_target(self):
        self.expect("is not 4-byte aligned", "0x100c CND 0x2001 T")

    def test_pc_before_block_start(self):
        err = self.expect(
            "precedes the current block",
            "# entry 0x1000",
            "0x100c CND 0x2000 T",
            "0x1004 CND 0x2000 T",
        )
        assert "line 3" in err

    def test_not_taken_unconditional(self):
        self.expect("always redirect", "0x100c JMP 0x2000 N")

    def test_taken_with_zero_target(self):
        self.expect("target 0", "0x100c CND 0x0 T")

    def test_address_overflow(self):
        self.expect("exceeds the 63-bit", "0x8000000000000000 CND 0x2000 T")

    def test_empty_input(self):
        self.expect("contains no branch records", "# just a comment")


class TestMalformedChampSim:
    def test_truncated_record_names_offset(self, tmp_path):
        path = tmp_path / "trunc.bt"
        good = open(fixture("demo.bt"), "rb").read()
        path.write_bytes(good[:-5])
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_file(str(path), fmt="champsim")
        assert "byte offset" in str(excinfo.value)

    def test_unknown_type_code(self, tmp_path):
        path = tmp_path / "badtype.bt"
        good = bytearray(open(fixture("demo.bt"), "rb").read())
        good[16 + 8] = 99  # type byte of the first record
        path.write_bytes(bytes(good))
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_file(str(path), fmt="champsim")
        assert "branch-type code 99" in str(excinfo.value)
        assert "record 0" in str(excinfo.value)

    def test_unsupported_header_version(self, tmp_path):
        path = tmp_path / "badver.bt"
        good = bytearray(open(fixture("demo.bt"), "rb").read())
        good[4] = 42  # version field of the CSBT header
        path.write_bytes(bytes(good))
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_file(str(path), fmt="champsim")
        assert "version" in str(excinfo.value)


class TestStore:
    def test_store_then_load_is_identical(self, external_dir):
        trace, name = ingest_and_store(fixture("demo.cbp"))
        loaded = load_external(name)
        for key, column in columns(trace).items():
            assert np.array_equal(column, columns(loaded)[key]), key

    def test_store_is_idempotent(self, external_dir):
        _, first = ingest_and_store(fixture("demo.cbp"))
        _, second = ingest_and_store(fixture("demo.bt.xz"))
        assert first == second
        stored = [
            name
            for name in os.listdir(external_dir)
            if name.endswith(".npz")
        ]
        assert len(stored) == 1

    def test_load_missing_names_ingest_command(self, external_dir):
        missing = "external:" + "0" * 64
        with pytest.raises(FileNotFoundError) as excinfo:
            load_external(missing)
        assert "ingest" in str(excinfo.value)
        assert EXTERNAL_DIR_ENV_VAR in str(excinfo.value)

    def test_load_detects_tampering(self, external_dir):
        trace, name = ingest_and_store(fixture("demo.cbp"))
        other = corpus.generate_trace("li", instructions=20_000)
        other.save(external_trace_path(name))
        with pytest.raises(ValueError) as excinfo:
            load_external(name)
        assert "re-ingest" in str(excinfo.value)

    def test_load_names_an_unreadable_entry(self, external_dir):
        _, name = ingest_and_store(fixture("demo.cbp"))
        path = external_trace_path(name)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 3)
        with pytest.raises(ValueError) as excinfo:
            load_external(name)
        assert "cannot be read" in str(excinfo.value)
        assert "re-ingest" in str(excinfo.value)

    def test_invalid_external_name_rejected(self):
        with pytest.raises(ValueError):
            external_trace_path("external:not-a-digest")

    def test_digest_ignores_trace_name(self):
        a = ingest_file(fixture("demo.cbp"))
        b = ingest_file(fixture("demo.cbp"))
        b.name = "renamed"
        assert trace_digest(a) == trace_digest(b)
        assert external_name(a) == external_name(b)


class TestCorpusIntegration:
    def test_trace_key_ignores_generation_knobs(self, external_dir):
        _, name = ingest_and_store(fixture("demo.cbp"))
        key_a = corpus.trace_key(name, instructions=123, seed=9)
        key_b = corpus.trace_key(name)
        assert key_a == key_b == (name, 0, 0, "natural")

    def test_generate_trace_resolves_external(self, external_dir):
        trace, name = ingest_and_store(fixture("demo.cbp"))
        resolved = corpus.generate_trace(name)
        assert resolved.name == name
        assert resolved.n_events == trace.n_events
        # memoised: the second call returns the same object
        assert corpus.generate_trace(name) is resolved

    def test_simulate_by_external_name(self, external_dir):
        _, name = ingest_and_store(fixture("demo.cbp"))
        config = ArchitectureConfig(frontend="btb", entries=64, cache_kb=4)
        report = simulate(config, name)
        assert report.program == name
        assert report.n_instructions > 0


class TestServiceIntegration:
    def test_job_spec_accepts_external_program(self, external_dir):
        _, name = ingest_and_store(fixture("demo.cbp"))
        spec = parse_job_spec(
            {
                "experiment": "replay",
                "programs": [name],
                "instructions": 10_000,
            }
        )
        assert {cell.program for cell in spec.cells} == {name}

    def test_job_spec_rejects_lookalike(self):
        with pytest.raises(JobSpecError) as excinfo:
            parse_job_spec(
                {"experiment": "replay", "programs": ["external-notakey"]}
            )
        assert "unknown program" in str(excinfo.value)


class TestCLI:
    def test_ingest_subcommand(self, external_dir, capsys):
        assert (
            harness_main(["ingest", "--trace", fixture("demo.cbp")]) == 0
        )
        out = capsys.readouterr().out
        assert "external:" in out
        assert "replay" in out

    def test_ingest_requires_trace(self, capsys):
        with pytest.raises(SystemExit):
            harness_main(["ingest"])

    def test_trace_flag_joins_sweep(self, external_dir, capsys):
        assert (
            harness_main(
                [
                    "replay",
                    "--trace",
                    fixture("demo.bt"),
                    "--engine",
                    "fast",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "fall-through" in out
        assert "external:" in out

    def test_malformed_trace_is_one_line_error(
        self, external_dir, tmp_path, capsys
    ):
        bad = tmp_path / "bad.cbp"
        bad.write_text("0x100c CND 0x2000\n")
        with pytest.raises(SystemExit) as excinfo:
            harness_main(["ingest", "--trace", str(bad)])
        assert excinfo.value.code == 2
        out = capsys.readouterr().out
        assert "ingest:" in out
        assert "line 1" in out

    def test_missing_trace_file_is_actionable(
        self, external_dir, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            harness_main(
                ["ingest", "--trace", str(tmp_path / "nope.cbp")]
            )
        assert excinfo.value.code == 2
        assert "check the path" in capsys.readouterr().out

    def test_malformed_external_key_is_one_line_error(
        self, external_dir, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            harness_main(["replay", "--programs", "external:deadbeef"])
        assert excinfo.value.code == 2
        assert "malformed external trace name" in capsys.readouterr().out

    def test_missing_external_key_is_one_line_error(
        self, external_dir, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            harness_main(["replay", "--programs", "external:" + "0" * 64])
        assert excinfo.value.code == 2
        out = capsys.readouterr().out
        assert "no stored trace" in out
        assert EXTERNAL_DIR_ENV_VAR in out

    def test_trace_dir_flag(self, tmp_path, monkeypatch, capsys):
        # the CLI exports --trace-dir; setenv restores the environment
        # afterwards, so later tests do not persist into this store
        monkeypatch.setenv(EXTERNAL_DIR_ENV_VAR, str(tmp_path / "other"))
        store = tmp_path / "store"
        assert (
            harness_main(
                [
                    "ingest",
                    "--trace",
                    fixture("demo.cbp"),
                    "--trace-dir",
                    str(store),
                ]
            )
            == 0
        )
        assert any(
            name.endswith(".npz") for name in os.listdir(str(store))
        )


class TestServerProfiles:
    """The modern-server profiles hit the footprint/attribution goals
    (full-budget calibration tables live in docs/WORKLOADS.md)."""

    @pytest.mark.parametrize("program", ["server-frontend", "server-leaf"])
    def test_profile_generates_and_validates(self, program):
        trace = corpus.generate_trace(program, instructions=60_000)
        trace.validate()
        assert trace.n_instructions >= 60_000

    def test_frontend_capacity_dominates_attribution(self):
        trace = corpus.generate_trace("server-frontend", instructions=150_000)
        config = ArchitectureConfig(
            frontend="btb",
            entries=256,
            btb_assoc=4,
            cache_kb=16,
            attribution=True,
        )
        report = simulate(config, trace)
        causes = report.attribution["causes"]
        total = sum(causes.values())
        capacity = causes.get("btb-miss", 0.0) + causes.get(
            "nls-displaced", 0.0
        )
        assert capacity > 0.35 * total


class TestDamagedStreams:
    """Compressed-stream damage and undecodable bytes are positional
    ``TraceFormatError``s, never raw decoder exceptions."""

    @pytest.mark.parametrize(
        "fixture_name,compress",
        [("demo.cbp", gzip.compress), ("demo.bt", lzma.compress)],
    )
    def test_truncated_compressed_stream(self, tmp_path, fixture_name, compress):
        raw = compress(open(fixture(fixture_name), "rb").read())
        path = tmp_path / "trunc"
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_file(str(path), source="trunc")
        message = str(excinfo.value)
        assert message.startswith("trunc: byte offset ")
        assert message.endswith(": compressed stream is truncated or corrupt")
        assert excinfo.value.reason == "compressed stream is truncated or corrupt"

    @pytest.mark.parametrize(
        "suffix,compress", [("gz", gzip.compress), ("xz", lzma.compress)]
    )
    def test_truncated_stream_is_one_line_cli_error(
        self, external_dir, tmp_path, capsys, suffix, compress
    ):
        raw = compress(open(fixture("demo.cbp"), "rb").read())
        path = tmp_path / f"trunc.cbp.{suffix}"
        path.write_bytes(raw[: len(raw) - 7])
        with pytest.raises(SystemExit) as excinfo:
            harness_main(["ingest", "--trace", str(path)])
        assert excinfo.value.code == 2
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1
        assert out[0].startswith(f"ingest: {path}: byte offset ")
        assert out[0].endswith("compressed stream is truncated or corrupt")

    def test_corrupt_gzip_trailer(self, tmp_path):
        raw = bytearray(gzip.compress(open(fixture("demo.cbp"), "rb").read()))
        raw[-5] ^= 0xFF  # the CRC-32 of the decompressed data
        path = tmp_path / "crc.cbp.gz"
        path.write_bytes(bytes(raw))
        size = len(open(fixture("demo.cbp"), "rb").read())
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_file(str(path), source="crc")
        # every byte decompressed before the check failed was read
        assert str(excinfo.value) == (
            f"crc: byte offset {size}: compressed stream is truncated or corrupt"
        )

    def test_utf8_error_names_absolute_offset(self):
        # 3,000 valid 20-byte lines, then a byte that is not UTF-8
        body = b"0x1000 JMP 0x1000 T\n" * 3000 + b"\xff\n"
        with pytest.raises(TraceFormatError) as excinfo:
            list(cbp_format.read(io.BytesIO(body), source="big.cbp"))
        assert str(excinfo.value) == (
            "big.cbp: byte offset 60000: file is not valid UTF-8 text"
        )

    def test_utf8_error_offset_counts_split_characters(self, monkeypatch):
        from repro.workloads import formats

        # 'é' is two bytes; tiny chunks split it, and the stray
        # continuation byte after it is still located exactly
        body = "# café\n".encode() + b"0x1000 JMP 0x1000 T\n" + b"\x80"
        monkeypatch.setattr(formats, "CHUNK_BYTES", 5)
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_records(cbp_format.read(io.BytesIO(body), source="s"), source="s")
        assert str(excinfo.value) == (
            f"s: byte offset {len(body) - 1}: file is not valid UTF-8 text"
        )

    def test_earlier_record_error_wins_over_later_bad_bytes(self):
        body = b"0x1000 JMP 0x1000 N\n" + b"0x1000 JMP 0x1000 T\n" * 10 + b"\xff"
        with pytest.raises(TraceFormatError) as excinfo:
            ingest_records(cbp_format.read(io.BytesIO(body), source="s"), source="s")
        assert str(excinfo.value) == (
            "s: line 1: UNCONDITIONAL branches always redirect; "
            "a not-taken record is malformed"
        )


class TestChunkBoundaries:
    """Results do not depend on where the decode chunks end."""

    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_line_numbers_survive_split_newlines(self, monkeypatch, newline):
        from repro.workloads import formats

        lines = [
            b"# entry 0x1000",
            b"0x100c CND 0x2000 T",
            b"",
            b"0x2008 CALL 0x3000 T",
            b"0x3004 RET 0x200c N",
            b"",
        ]
        body = newline.join(lines)
        for size in range(1, len(body) + 1):
            monkeypatch.setattr(formats, "CHUNK_BYTES", size)
            with pytest.raises(TraceFormatError) as excinfo:
                records = cbp_format.read(io.BytesIO(body), source="s")
                ingest_records(records, source="s")
            assert str(excinfo.value) == (
                "s: line 5: RETURN branches always redirect; "
                "a not-taken record is malformed"
            ), size
