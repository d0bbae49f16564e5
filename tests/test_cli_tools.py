"""Tests for the auxiliary CLIs and the public package surface."""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro.workloads.__main__ import main as workloads_main


class TestWorkloadsCLI:
    def test_prints_table_row(self, capsys):
        assert workloads_main(["li", "--instructions", "20000"]) == 0
        out = capsys.readouterr().out
        assert "li" in out and "events" in out

    def test_validate_flag(self, capsys):
        assert workloads_main(["li", "--instructions", "20000", "--validate"]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_export(self, tmp_path, capsys):
        path = tmp_path / "li.npz"
        assert (
            workloads_main(
                ["li", "--instructions", "20000", "--out", str(path)]
            )
            == 0
        )
        from repro.workloads.trace import Trace

        trace = Trace.load(str(path))
        assert trace.n_instructions >= 20000

    def test_random_layout(self, capsys):
        assert (
            workloads_main(["li", "--instructions", "20000", "--layout", "random"])
            == 0
        )

    def test_rejects_unknown_program(self):
        with pytest.raises(SystemExit):
            workloads_main(["perl"])


class TestPublicAPI:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["ArchitectureConfig"] is repro.ArchitectureConfig

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_export"):
            repro.no_such_export

    def test_experiments_import_stays_lean(self):
        # the package root re-exports lazily: importing the experiment
        # registry must not drag in analysis, the fast engine or the
        # service (set-up time of every CLI run and benchmark)
        heavy = ["repro.analysis", "repro.fetch.fast_engine", "repro.service"]
        code = (
            "import json, sys; import repro.harness.experiments; "
            f"print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert json.loads(result.stdout) == []

    def test_convenience_simulate(self):
        report = repro.simulate(
            repro.ArchitectureConfig(frontend="btb", entries=128),
            "li",
            instructions=20_000,
        )
        assert report.cpi >= 1.0

    def test_core_classes_importable_from_root(self):
        assert repro.NLSTable is not None
        assert repro.NLSCache is not None
        assert repro.JohnsonSuccessorIndex is not None
        assert repro.BranchTargetBuffer is not None


class TestAnalysisCLI:
    def test_breakdown(self, capsys):
        from repro.analysis.__main__ import main as analysis_main

        assert (
            analysis_main(
                ["breakdown", "--program", "li", "--instructions", "20000"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "CONDITIONAL" in out

    def test_capacity(self, capsys):
        from repro.analysis.__main__ import main as analysis_main

        assert (
            analysis_main(
                [
                    "capacity",
                    "--program",
                    "li",
                    "--structure",
                    "btb",
                    "--instructions",
                    "20000",
                ]
            )
            == 0
        )
        assert "BTB" in capsys.readouterr().out

    def test_sensitivity(self, capsys):
        from repro.analysis.__main__ import main as analysis_main

        assert (
            analysis_main(
                ["sensitivity", "--program", "li", "--instructions", "20000"]
            )
            == 0
        )
        assert "winner" in capsys.readouterr().out


class TestAddressSpaceExperiment:
    def test_btb_grows_nls_constant(self):
        from repro.harness.experiments import SPECS

        result = SPECS["address-space"].plan().run()
        assert result.data["btb-128"][64] > result.data["btb-128"][32]
        assert result.data["nls-1024"][64] == result.data["nls-1024"][32]
