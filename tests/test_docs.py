"""Documentation-consistency guards.

These tests keep the prose honest: every experiment the README and
DESIGN.md advertise must exist in the registry, the README quickstart
code actually runs, DESIGN.md sections cited from CHANGES.md exist,
every public module must carry a docstring (with the harness and
fetch layers held to the stricter ruff D-subset contract), and the
repository layout must match what the README's architecture overview
describes, the docs/TRACES.md error table must quote every ingest
error reason exactly as the code emits it, and the ``REPRO_*``
environment variables the docs name must be exactly those the code
reads.
"""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest

import repro
from repro.harness.experiments import SPECS

REPO = pathlib.Path(__file__).resolve().parent.parent


class TestReadme:
    def readme(self) -> str:
        return (REPO / "README.md").read_text()

    def test_advertised_experiments_exist(self):
        text = self.readme()
        for name in re.findall(r"python -m repro\.harness (\S+)", text):
            name = name.strip("`")
            if name in (
                "all",
                "analyze",
                "list",
                "attribute",
                "serve",
                "store",
                "jobs",
                "ingest",
            ):
                continue
            assert name in SPECS, name

    def test_advertised_examples_exist(self):
        text = self.readme()
        for example in re.findall(r"`(\w+\.py)`", text):
            assert (REPO / "examples" / example).exists(), example

    def test_linked_documents_exist(self):
        text = self.readme()
        for doc in (
            "EXPERIMENTS.md",
            "DESIGN.md",
            "docs/ARCHITECTURE.md",
            "docs/TELEMETRY.md",
            "docs/PERFORMANCE.md",
            "docs/SERVICE.md",
            "docs/TRACES.md",
            "docs/WORKLOADS.md",
        ):
            assert doc in text
            assert (REPO / doc).exists()

    def test_quickstart_snippet_is_valid(self):
        # the imports the snippet uses must resolve
        from repro import ArchitectureConfig, simulate  # noqa: F401

    def test_engine_flag_documented(self):
        assert "--engine fast" in self.readme()


class TestQuickstartRuns:
    """Extract-and-run gate on the README quickstart fenced blocks."""

    def quickstart_section(self) -> str:
        text = (REPO / "README.md").read_text()
        return text.split("## Quickstart")[1].split("\n## ")[0]

    def fenced_blocks(self, language: str):
        return re.findall(
            rf"```{language}\n(.*?)```", self.quickstart_section(), re.DOTALL
        )

    def test_python_blocks_execute(self, tmp_path):
        blocks = self.fenced_blocks("python")
        assert blocks, "README quickstart lost its python example"
        env = dict(os.environ)
        env["REPRO_TRACE_SCALE"] = "0.02"  # documented full budgets, scaled
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        for index, block in enumerate(blocks):
            script = tmp_path / f"quickstart_{index}.py"
            script.write_text(block)
            result = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip(), "quickstart example printed nothing"

    def test_shell_blocks_reference_real_entry_points(self):
        # every `python -m repro.X` the quickstart-adjacent shell
        # blocks mention must be an importable module
        text = (REPO / "README.md").read_text()
        for module in set(re.findall(r"python -m (repro[.\w]*)", text)):
            assert importlib.util.find_spec(module) is not None, module


class TestExternalTracesSectionRuns:
    """Extract-and-run gate on the README external-traces section.

    Mirrors :class:`TestQuickstartRuns` for the "External traces &
    modern workloads" section: its fenced python blocks must execute
    (against the committed fixtures, with the external-trace store
    redirected to a temp dir) and its shell blocks must reference
    real experiments and entry points (covered by
    ``TestReadme.test_advertised_experiments_exist`` and
    ``TestQuickstartRuns.test_shell_blocks_reference_real_entry_points``,
    which scan the whole README).
    """

    HEADING = "## External traces & modern workloads"

    def section(self) -> str:
        text = (REPO / "README.md").read_text()
        assert self.HEADING in text, "README lost its external-traces section"
        return text.split(self.HEADING)[1].split("\n## ")[0]

    def test_python_blocks_execute(self, tmp_path):
        blocks = re.findall(
            r"```python\n(.*?)```", self.section(), re.DOTALL
        )
        assert blocks, "external-traces section lost its python example"
        env = dict(os.environ)
        env["REPRO_TRACE_SCALE"] = "0.02"
        env["REPRO_EXTERNAL_TRACE_DIR"] = str(tmp_path / "store")
        env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        for index, block in enumerate(blocks):
            script = tmp_path / f"traces_{index}.py"
            script.write_text(block)
            result = subprocess.run(
                [sys.executable, str(script)],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(REPO),
                timeout=300,
            )
            assert result.returncode == 0, result.stderr
            assert result.stdout.strip(), "traces example printed nothing"

    def test_mentions_the_fixture_it_runs(self):
        section = self.section()
        assert "tests/fixtures/demo.cbp" in section
        assert (REPO / "tests" / "fixtures" / "demo.cbp").exists()


class TestChangesSectionReferences:
    def test_design_sections_cited_from_changes_exist(self):
        changes = (REPO / "CHANGES.md").read_text()
        design = (REPO / "DESIGN.md").read_text()
        cited = set(re.findall(r"DESIGN\.md §(\d+)", changes))
        assert cited, "CHANGES.md cites no DESIGN.md sections"
        headings = set(re.findall(r"^## (\d+)\.", design, re.MULTILINE))
        missing = cited - headings
        assert not missing, f"CHANGES.md cites missing DESIGN.md sections: {missing}"


class TestEnvironmentKnobs:
    def test_documented_knobs_are_the_source_knobs(self):
        # every REPRO_* variable the docs name exists in src/, and
        # every one src/ reads is documented
        docs = [REPO / "README.md", REPO / "DESIGN.md"]
        docs += sorted((REPO / "docs").glob("*.md"))
        documented = {
            name
            for path in docs
            for name in re.findall(r"REPRO_[A-Z0-9_]+", path.read_text())
        }
        in_source = {
            name
            for path in (REPO / "src").rglob("*.py")
            for name in re.findall(r'"(REPRO_[A-Z0-9_]+)"', path.read_text())
        }
        assert documented == in_source


class TestDesignDoc:
    def test_per_experiment_index_names_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for name in re.findall(r"`repro\.harness (\S+?)`", text):
            if name in ("all", "list"):
                continue
            assert name in SPECS, name

    def test_referenced_docs_exist(self):
        text = (REPO / "DESIGN.md").read_text()
        for path in re.findall(r"\(docs/(\w+\.md)\)", text):
            assert (REPO / "docs" / path).exists(), path


class TestDocstrings:
    def all_modules(self):
        for module_info in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            if "__main__" in module_info.name:
                continue
            yield importlib.import_module(module_info.name)

    def test_every_module_has_a_docstring(self):
        for module in self.all_modules():
            assert module.__doc__, module.__name__

    def test_every_public_class_has_a_docstring(self):
        for module in self.all_modules():
            for name in dir(module):
                if name.startswith("_"):
                    continue
                obj = getattr(module, name)
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    assert obj.__doc__, f"{module.__name__}.{name}"

    def test_every_public_function_has_a_docstring(self):
        import types

        for module in self.all_modules():
            for name in dir(module):
                if name.startswith("_"):
                    continue
                obj = getattr(module, name)
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    assert obj.__doc__, f"{module.__name__}.{name}"


class TestDocstringLint:
    """Pure-AST mirror of the ruff D-subset contract in pyproject.toml.

    CI's docstring-lint job runs ruff (D100–D104, dunders exempt) over
    ``src/repro/harness`` and ``src/repro/fetch``; this test enforces
    the same rule without requiring ruff to be installed.
    """

    SCOPED = ("src/repro/harness", "src/repro/fetch")

    def violations(self):
        for base in self.SCOPED:
            for path in sorted((REPO / base).rglob("*.py")):
                tree = ast.parse(path.read_text())
                if not ast.get_docstring(tree):
                    yield f"{path}: missing module docstring"
                for node in ast.walk(tree):
                    if not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    ):
                        continue
                    if node.name.startswith("_"):
                        continue  # private, and dunders (ruff D105/D107 exempt)
                    if not ast.get_docstring(node):
                        kind = (
                            "class"
                            if isinstance(node, ast.ClassDef)
                            else "function"
                        )
                        yield f"{path}:{node.lineno}: undocumented {kind} {node.name}"

    def test_harness_and_fetch_are_fully_documented(self):
        violations = list(self.violations())
        assert not violations, "\n".join(violations)

    def test_ruff_config_covers_the_same_scope(self):
        config = (REPO / "pyproject.toml").read_text()
        assert "[tool.ruff]" in config
        for rule in ("D100", "D101", "D102", "D103", "D104"):
            assert rule in config
        for base in self.SCOPED:
            assert base in config


class TestLayout:
    def test_architecture_overview_packages_exist(self):
        for package in (
            "isa",
            "cache",
            "predictors",
            "core",
            "fetch",
            "metrics",
            "cost",
            "analysis",
            "workloads",
            "harness",
            "telemetry",
            "service",
        ):
            assert (REPO / "src" / "repro" / package / "__init__.py").exists()

    def test_py_typed_marker(self):
        assert (REPO / "src" / "repro" / "py.typed").exists()

    def test_benchmarks_cover_every_paper_figure(self):
        names = {p.name for p in (REPO / "benchmarks").glob("bench_*.py")}
        for required in (
            "bench_table1.py",
            "bench_fig3_rbe.py",
            "bench_fig4_nls.py",
            "bench_fig5_btb.py",
            "bench_fig6_access_time.py",
            "bench_fig7_per_program.py",
            "bench_fig8_cpi.py",
        ):
            assert required in names


def _trace_error_rows():
    """``(class, quoted reason)`` of every docs/TRACES.md error-table row."""
    text = (REPO / "docs" / "TRACES.md").read_text()
    section = text[text.index("## Error taxonomy") : text.index("## Trace keys")]
    return re.findall(r"^\| ([a-z -]+) \| `([^`]+)` \|$", section, flags=re.M)


def _champsim(*records, header=True, version=1):
    import struct

    head = struct.pack("<4sIQ", b"CSBT", version, 0x1000) if header else b""
    return head + b"".join(struct.pack("<QBBQ", *record) for record in records)


#: one input per docs/TRACES.md error-table row: file bytes, or (for
#: the row no reader can produce) a list of records built in code
_TRACE_ERROR_EXAMPLES = {
    "field count": b"0x100c CND 0x2000\n",
    "bad integer": b"zork CND 0x2000 T\n",
    "negative integer": b"0x100c CND -0x4 T\n",
    "unknown kind": b"0x100c WAT 0x2000 T\n",
    "bad taken flag": b"0x100c CND 0x2000 MAYBE\n",
    "late directive": b"0x100c CND 0x2000 T\n# entry 0x1000\n",
    "duplicate directive": b"# entry 0x1000\n# entry 0x1000\n",
    "malformed directive": b"# entry\n",
    "not text": b"0x100c CND 0x2000 T\n\xff\n",
    "damaged compression": "truncated-gzip",
    "truncated record": _champsim((0x100C, 3, 1, 0x2000)) + b"\x00" * 13,
    "non-branch code": _champsim((0x100C, 0, 1, 0x2000)),
    "unknown type code": _champsim((0x100C, 99, 1, 0x2000)),
    "bad taken byte": _champsim((0x100C, 3, 2, 0x2000)),
    "truncated header": b"CSBT\x01\x00",
    "bad header": _champsim((0x100C, 3, 1, 0x2000), version=42),
    "misaligned entry": b"# entry 0x1002\n0x100c CND 0x2000 T\n",
    "misalignment": b"0x1001 CND 0x2000 T\n",
    "overflow": b"0x100c CND 0x8000000000000000 T\n",
    "non-branch record": "records",
    "discontinuity": b"# entry 0x1000\n0x100c CND 0x2000 T\n0x1004 CND 0x2000 T\n",
    "contradiction": b"0x100c JMP 0x2000 N\n",
    "null target": b"0x100c CND 0x0 T\n",
    "empty": b"# just a comment\n",
}


class TestTraceErrorTable:
    """docs/TRACES.md quotes every ingest error reason verbatim."""

    def test_every_row_has_an_example(self):
        assert {name for name, _ in _trace_error_rows()} == set(_TRACE_ERROR_EXAMPLES)

    @pytest.mark.parametrize("name,reason", _trace_error_rows())
    def test_reason_is_emitted_verbatim(self, name, reason, tmp_path):
        import gzip

        from repro.isa.branches import BranchKind
        from repro.workloads.formats import BranchRecord, TraceFormatError
        from repro.workloads.ingest import ingest_file, ingest_records

        example = _TRACE_ERROR_EXAMPLES[name]
        with pytest.raises(TraceFormatError) as excinfo:
            if example == "records":
                record = BranchRecord(
                    0x100C, BranchKind.NOT_A_BRANCH, 0, False, "record 0"
                )
                ingest_records([record], source="example")
            else:
                if example == "truncated-gzip":
                    example = gzip.compress(b"0x100c CND 0x2000 T\n")[:-7]
                path = tmp_path / "example"
                path.write_bytes(example)
                ingest_file(str(path), source="example")
        assert excinfo.value.reason == reason
