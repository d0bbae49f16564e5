"""Tests for experiment-result export (JSON/CSV/txt)."""

import csv
import json

import pytest

from repro.harness.experiments import SPECS
from repro.harness.export import to_csv_rows, to_json, write_result


@pytest.fixture(scope="module")
def cost_result():
    return SPECS["fig3"].plan().run()


class TestJSON:
    def test_round_trips(self, cost_result):
        payload = json.loads(to_json(cost_result))
        assert payload["name"] == "fig3"
        assert payload["data"]["btb-128-1w"] > 0

    def test_simulation_reports_exported_as_metrics(self):
        result = SPECS["fig7"].plan(programs=("li",), instructions=20_000).run()
        payload = json.loads(to_json(result))
        report = payload["data"]["li"]["128 Direct BTB"]
        assert set(report) >= {"bep", "cpi", "pct_misfetched"}

    def test_handles_nested_and_scalar(self):
        payload = json.loads(to_json(SPECS["fig6"].plan().run()))
        assert isinstance(payload["data"]["128-1w"], float)


class TestCSV:
    def test_rows_are_flat(self, cost_result):
        rows = to_csv_rows(cost_result)
        assert all(row[0] == "fig3" for row in rows)
        assert any("btb-128-1w" in row for row in rows)

    def test_values_in_last_column(self, cost_result):
        for row in to_csv_rows(cost_result):
            assert isinstance(row[-1], (int, float, str, bool, type(None)))


class TestWrite:
    def test_writes_all_formats(self, tmp_path, cost_result):
        paths = write_result(cost_result, str(tmp_path))
        assert len(paths) == 3
        names = {p.rsplit(".", 1)[1] for p in paths}
        assert names == {"txt", "json", "csv"}
        with open(paths[2]) as handle:
            assert len(list(csv.reader(handle))) > 5

    def test_format_selection(self, tmp_path, cost_result):
        paths = write_result(cost_result, str(tmp_path), formats=("json",))
        assert len(paths) == 1 and paths[0].endswith(".json")

    def test_simulation_result_writes(self, tmp_path):
        result = SPECS["johnson"].plan(programs=("li",), instructions=20_000).run()
        paths = write_result(result, str(tmp_path))
        assert all(len(open(p).read()) > 0 for p in paths)
