"""The content-addressed result store (docs/SERVICE.md).

Covers the SQLite persistence layer on its own: put/get round trips
that preserve checkpoint-serialised bytes, first-write-wins dedup,
checksummed payloads with lazy corrupt eviction, ``stats`` / ``gc`` /
``verify`` administration, store-aware :class:`~repro.harness.runner.RunPlan`
execution (hit/miss counters, observer events), and the ``store``
CLI subcommand.
"""

from __future__ import annotations

import json
import sqlite3
import threading

import pytest

from repro.harness.checkpoint import cell_key, report_to_dict
from repro.harness.cli import main as cli_main
from repro.harness.config import ArchitectureConfig
from repro.harness.runner import OBSERVER_EVENTS, RunPlan, RunRequest, run_request
from repro.service.store import DEFAULT_STORE_NAME, STORE_SCHEMA, ResultStore
from repro.telemetry.core import Registry, use

#: trace length for store tests — tiny, the store does not simulate
TINY = 2_000


def _request(program: str = "li", entries: int = 32) -> RunRequest:
    return RunRequest(
        config=ArchitectureConfig(frontend="btb", entries=entries, cache_kb=8),
        program=program,
        instructions=TINY,
    )


@pytest.fixture
def store(tmp_path):
    store = ResultStore(str(tmp_path / "store.sqlite"))
    yield store
    store.close()


class TestRoundTrip:
    def test_miss_then_put_then_hit(self, store):
        request = _request()
        assert store.get(request) is None
        report = run_request(request)
        assert store.put(request, report) is True
        fetched = store.get(request)
        assert fetched is not None
        assert report_to_dict(fetched) == report_to_dict(report)

    def test_hit_is_byte_identical(self, store):
        """The stored payload is returned verbatim — the foundation of
        the service's byte-identical overlapping-jobs guarantee."""
        request = _request()
        report = run_request(request)
        store.put(request, report)
        first = json.dumps(report_to_dict(store.get(request)), sort_keys=True)
        second = json.dumps(report_to_dict(store.get(request)), sort_keys=True)
        assert first == second == json.dumps(report_to_dict(report), sort_keys=True)

    def test_duplicate_put_is_a_dedup_skip(self, store):
        request = _request()
        report = run_request(request)
        assert store.put(request, report) is True
        assert store.put(request, report) is False
        assert store.stats()["entries"] == 1

    def test_distinct_cells_are_distinct_entries(self, store):
        requests = [_request(entries=entries) for entries in (16, 32, 64)]
        for request in requests:
            store.put(request, run_request(request))
        assert store.stats()["entries"] == 3
        for request in requests:
            assert store.get(request).label == request.config.label()

    def test_fetch_and_put_many(self, store):
        requests = [_request(entries=entries) for entries in (16, 32)]
        reports = {request: run_request(request) for request in requests}
        assert store.fetch(requests) == {}
        assert store.put_many(reports) == 2
        fetched = store.fetch(requests + [_request(entries=128)])
        assert set(fetched) == set(requests)

    def test_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "store.sqlite")
        request = _request()
        report = run_request(request)
        first = ResultStore(path)
        first.put(request, report)
        first.close()
        second = ResultStore(path)
        try:
            fetched = second.get(request)
            assert report_to_dict(fetched) == report_to_dict(report)
        finally:
            second.close()


class TestIntegrity:
    def _corrupt_all(self, store):
        with store._lock:
            store._conn.execute("UPDATE results SET payload = '{}'")
            store._conn.commit()

    def test_corrupt_entry_is_evicted_on_read(self, store):
        request = _request()
        store.put(request, run_request(request))
        self._corrupt_all(store)
        registry = Registry(enabled=True)
        with use(registry):
            assert store.get(request) is None
        counters = registry.snapshot()["counters"]
        assert counters["store.corrupt_evictions"] == 1
        assert store.stats()["entries"] == 0

    def test_verify_reports_and_fixes(self, store):
        good, bad = _request(entries=16), _request(entries=32)
        store.put(good, run_request(good))
        store.put(bad, run_request(bad))
        with store._lock:
            store._conn.execute(
                "UPDATE results SET payload = '{}' WHERE cell_key = ?",
                (cell_key(bad),),
            )
            store._conn.commit()
        audit = store.verify()
        assert audit["checked"] == 2 and not audit["ok"]
        assert [entry["cell_key"] for entry in audit["corrupt"]] == [cell_key(bad)]
        fixed = store.verify(fix=True)
        assert fixed["removed"] == 1
        assert store.verify()["ok"]
        assert store.get(good) is not None

    def test_verify_names_each_corruption_reason(self, store):
        """The audit distinguishes checksum mismatches from empty and
        unparseable payloads — the latter two with a checksum that was
        re-stamped to match, so only ``verify`` can catch them."""
        from repro.harness.checkpoint import payload_digest

        mismatch, missing, garbled = (
            _request(entries=16),
            _request(entries=32),
            _request(entries=64),
        )
        for request in (mismatch, missing, garbled):
            store.put(request, run_request(request))
        with store._lock:
            store._conn.execute(
                "UPDATE results SET payload = '{}' WHERE cell_key = ?",
                (cell_key(mismatch),),
            )
            for request, payload in ((missing, ""), (garbled, "not json")):
                store._conn.execute(
                    "UPDATE results SET payload = ?, payload_sha = ? "
                    "WHERE cell_key = ?",
                    (payload, payload_digest(payload), cell_key(request)),
                )
            store._conn.commit()
        audit = store.verify()
        assert audit["checked"] == 3 and not audit["ok"]
        reasons = {
            entry["cell_key"]: entry["reason"] for entry in audit["corrupt"]
        }
        assert reasons == {
            cell_key(mismatch): "checksum-mismatch",
            cell_key(missing): "missing-payload",
            cell_key(garbled): "unparseable",
        }
        assert store.verify(fix=True)["removed"] == 3
        assert store.verify()["ok"]

    def test_gc_by_age_and_count(self, store):
        requests = [_request(entries=entries) for entries in (16, 32, 64, 128)]
        for request in requests:
            store.put(request, run_request(request))
        assert store.gc()["removed"] == 0  # no bounds: vacuum only
        assert store.gc(keep=2) == {"removed": 2, "kept": 2}
        assert store.gc(max_age_s=0.0)["kept"] == 0

    def test_stats_shape(self, store):
        stats = store.stats()
        assert stats["schema"] == STORE_SCHEMA
        for key in ("entries", "total_hits", "payload_bytes", "db_bytes"):
            assert isinstance(stats[key], int)


class TestTelemetryAndConcurrency:
    def test_hit_miss_counters(self, store):
        request = _request()
        registry = Registry(enabled=True)
        with use(registry):
            store.get(request)
            store.put(request, run_request(request))
            store.get(request)
            store.put(request, run_request(request))
        counters = registry.snapshot()["counters"]
        assert counters["store.misses"] == 1
        assert counters["store.hits"] == 1
        assert counters["store.puts"] == 1
        assert counters["store.dedup_skips"] == 1

    def test_concurrent_writers_dedup_cleanly(self, store):
        """First write wins; racing writers of the same cell never
        error or double-insert (INSERT OR IGNORE under WAL)."""
        request = _request()
        report = run_request(request)
        outcomes = []

        def put():
            outcomes.append(store.put(request, report))

        threads = [threading.Thread(target=put) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert outcomes.count(True) == 1
        assert store.stats()["entries"] == 1


class TestStoreAwareExecution:
    def test_plan_execute_hits_and_misses(self, store):
        requests = [_request(entries=entries) for entries in (16, 32)]
        plan = RunPlan(requests)
        plan.execute(store=store)
        assert (plan.store_hits, plan.store_misses) == (0, 2)
        replay = RunPlan(requests + [_request(entries=64)])
        events = []
        replay.execute(
            store=store,
            observer=lambda event, request, payload: events.append(
                (event, request)
            ),
        )
        assert (replay.store_hits, replay.store_misses) == (2, 1)
        kinds = [event for event, _ in events]
        assert kinds.count("store-hit") == 2
        assert kinds.count("completed") == 1
        assert set(kinds) <= set(OBSERVER_EVENTS)

    def test_served_reports_equal_computed(self, store):
        request = _request()
        computed = RunPlan([request]).execute(store=store)[request]
        served = RunPlan([request]).execute(store=store)[request]
        assert report_to_dict(served) == report_to_dict(computed)


class TestStoreCLI:
    def test_stats_gc_verify(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        for entries in (16, 32, 64):
            request = _request(entries=entries)
            store.put(request, run_request(request))
        store.close()
        assert cli_main(["store", "stats", "--store", path]) == 0
        assert "entries" in capsys.readouterr().out
        assert cli_main(["store", "gc", "--store", path, "--gc-keep", "1"]) == 0
        assert "removed 2" in capsys.readouterr().out
        assert cli_main(["store", "verify", "--store", path]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_verify_exits_nonzero_on_corruption(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        request = _request()
        store.put(request, run_request(request))
        store.close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE results SET payload = '{}'")
        conn.commit()
        conn.close()
        assert cli_main(["store", "verify", "--store", path]) == 1
        printed = capsys.readouterr().out
        assert "store verify FAILED" in printed
        assert "1 corrupt" in printed
        assert "reason=checksum-mismatch" in printed
        assert cli_main(["store", "verify", "--store", path, "--fix"]) == 0
        assert cli_main(["store", "verify", "--store", path]) == 0
        assert "store verify OK" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--gc-keep", "-1"), ("--gc-max-age", "-5")]
    )
    def test_negative_gc_bound_is_rejected_and_keeps_the_store(
        self, tmp_path, capsys, flag, value
    ):
        path = str(tmp_path / "store.sqlite")
        store = ResultStore(path)
        request = _request()
        store.put(request, run_request(request))
        store.close()
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["store", "gc", "--store", path, flag, value])
        assert excinfo.value.code == 2
        assert f"{flag} must be >= 0, got {value}" in capsys.readouterr().err
        store = ResultStore(path)
        try:
            assert store.stats()["entries"] == 1
        finally:
            store.close()

    def test_missing_store_is_a_clean_error(self, tmp_path, capsys):
        path = str(tmp_path / "absent.sqlite")
        assert cli_main(["store", "gc", "--store", path]) == 1
        assert "does not exist" in capsys.readouterr().out

    def test_stats_on_a_missing_store_creates_nothing(self, tmp_path, capsys):
        path = tmp_path / "typo" / "store.sqlite"
        assert cli_main(["store", "stats", "--store", str(path)]) == 1
        assert f"store {path} does not exist" in capsys.readouterr().out
        assert not (tmp_path / "typo").exists()

    def test_default_action_is_stats(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        ResultStore(path).close()
        assert cli_main(["store", "--store", path]) == 0
        assert "entries" in capsys.readouterr().out

    def test_run_with_store_flag_reuses_results(self, tmp_path, capsys):
        path = str(tmp_path / "store.sqlite")
        argv = [
            "fig5",
            "--programs",
            "li",
            "--instructions",
            str(TINY),
            "--store",
            path,
        ]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cell(s) served" in first
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert "10 cell(s) served" in second and "0 simulated" in second
