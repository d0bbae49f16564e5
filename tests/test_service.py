"""Simulation-as-a-service: protocol, scheduler, HTTP API (docs/SERVICE.md).

Covers the wire-format validation in :mod:`repro.service.protocol`,
the sharded job scheduler's lifecycle (events, manifests, failure
containment), and the asyncio HTTP server end to end over real
sockets: submitting the full fig5 paper sweep (60 cells — the BTB
size ladder x six programs), streaming per-cell NDJSON progress, and
the acceptance invariant — resubmitting the same sweep completes with
100% store hits and **zero cells re-simulated**, proven by the dedup
counters in the job manifest.  Also the concurrent-submitter
guarantee: overlapping jobs yield byte-identical reports and pay for
each unique cell once.
"""

from __future__ import annotations

import asyncio
import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.harness.config import ArchitectureConfig
from repro.harness.runner import RunPlan, RunRequest
from repro.service.jobs import Job, JobEventLog, JobState
from repro.service.protocol import (
    SERVICE_SCHEMA,
    JobSpecError,
    parse_job_spec,
    request_from_dict,
    request_to_dict,
)
from repro.service.scheduler import JobScheduler
from repro.service.store import ResultStore

#: trace length for service tests — tiny cells, the point is plumbing
TINY = 2_000

#: instruction budget for the end-to-end paper-sweep test
SWEEP_INSTRUCTIONS = 20_000


def _request(program: str = "li", entries: int = 32) -> RunRequest:
    return RunRequest(
        config=ArchitectureConfig(frontend="btb", entries=entries, cache_kb=8),
        program=program,
        instructions=TINY,
    )


def _cells_payload(requests, **extra):
    payload = {"cells": [request_to_dict(request) for request in requests]}
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_request_round_trip(self):
        request = _request(entries=64)
        assert request_from_dict(request_to_dict(request)) == request

    def test_round_trip_preserves_cell_key(self):
        from repro.harness.checkpoint import cell_key

        request = _request()
        rebuilt = request_from_dict(json.loads(json.dumps(request_to_dict(request))))
        assert cell_key(rebuilt) == cell_key(request)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ("nope", "must be a JSON object"),
            ({}, "exactly one of"),
            ({"experiment": "fig5", "cells": []}, "exactly one of"),
            ({"experiment": "nope"}, "unknown experiment"),
            ({"experiment": "fig5", "engine": "warp"}, "unknown engine"),
            ({"experiment": "fig5", "backend": "k8s"}, "unknown backend"),
            ({"experiment": "fig5", "jobs": -2}, "worker count"),
            ({"experiment": "fig5", "programs": []}, "non-empty list"),
            ({"experiment": "fig5", "programs": ["tex"]}, "unknown program"),
            ({"experiment": "fig5", "instructions": 0}, "positive integer"),
            ({"cells": []}, "non-empty list"),
            ({"cells": [{"program": "li"}]}, "'config' and 'program'"),
        ],
    )
    def test_bad_specs_are_rejected(self, payload, message):
        with pytest.raises(JobSpecError, match=message):
            parse_job_spec(payload)

    def test_unknown_cell_and_config_fields_are_rejected(self):
        cell = request_to_dict(_request())
        cell["surprise"] = 1
        with pytest.raises(JobSpecError, match="unknown cell field"):
            request_from_dict(cell)
        cell = request_to_dict(_request())
        cell["config"]["surprise"] = 1
        with pytest.raises(JobSpecError, match="unknown config field"):
            request_from_dict(cell)

    def test_experiment_spec_builds_plan_cells(self):
        spec = parse_job_spec(
            {
                "experiment": "fig5",
                "programs": ["li"],
                "instructions": TINY,
                "engine": "fast",
            }
        )
        assert spec.kind == "experiment" and spec.name == "fig5"
        assert len(spec.cells) == 10 and spec.finish is not None
        assert all(cell.config.engine == "fast" for cell in spec.cells)

    def test_cells_spec_applies_engine(self):
        spec = parse_job_spec(_cells_payload([_request()], engine="fast"))
        assert spec.kind == "cells" and spec.finish is None
        assert spec.cells[0].config.engine == "fast"

    def test_jobs_resolver_matches_cli(self):
        """The service validates worker counts through the same shared
        resolver as the CLI's ``--jobs`` flag."""
        spec = parse_job_spec(_cells_payload([_request()], jobs=1))
        assert spec.jobs == 1
        with pytest.raises(JobSpecError, match="integer worker count"):
            parse_job_spec(_cells_payload([_request()], jobs="many"))


# ---------------------------------------------------------------------------
# jobs + scheduler (no HTTP)
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_append_stamps_and_wakes_waiters(self):
        log = JobEventLog()
        assert not log.wait_beyond(0, timeout=0.01)
        record = log.append("cell", cell="abc")
        assert record["schema"] == SERVICE_SCHEMA and record["seq"] == 0
        assert log.wait_beyond(0, timeout=0.01)
        assert [event["event"] for event in log.events_since(0)] == ["cell"]
        assert log.events_since(1) == []


class _BufferWriter:
    """The slice of ``asyncio.StreamWriter`` the event stream uses."""

    def __init__(self) -> None:
        self.data = bytearray()

    def write(self, data: bytes) -> None:
        self.data += data

    async def drain(self) -> None:
        pass


class TestEventStream:
    def test_job_finishing_between_read_and_done_check_still_streams_it(
        self, scheduler
    ):
        from repro.service.api import ServiceServer

        class _RacingLog(JobEventLog):
            """Lands the final event and the terminal state right after
            the stream's first empty read, before its ``done`` check."""

            job = None

            def events_since(self, offset):
                events = super().events_since(offset)
                if not events and not self.job.done:
                    self.append("job-completed")
                    self.job.complete({}, {})
                return events

        log = _RacingLog()
        job = Job(parse_job_spec(_cells_payload([_request()])), log=log)
        log.job = job
        log.append("job-queued")
        writer = _BufferWriter()
        server = ServiceServer(scheduler)
        asyncio.run(server._stream_events(writer, job, ""))
        body = bytes(writer.data).split(b"\r\n\r\n", 1)[1]
        events = [
            json.loads(line)["event"]
            for line in body.splitlines()
            if line.startswith(b"{")
        ]
        assert events == ["job-queued", "job-completed"]
        assert body.endswith(b"0\r\n\r\n")


def _wait(job: Job, timeout: float = 30.0) -> None:
    offset = 0
    while not job.done:
        job.log.wait_beyond(offset, timeout=0.1)
        offset = len(job.log)
        timeout -= 0.1
        assert timeout > 0, f"job {job.id} did not finish"


@pytest.fixture
def scheduler(tmp_path):
    store = ResultStore(str(tmp_path / "store.sqlite"))
    scheduler = JobScheduler(store, concurrency=2)
    scheduler.start()
    yield scheduler
    scheduler.stop()
    store.close()


class TestScheduler:
    def test_job_runs_to_completion(self, scheduler):
        requests = [_request(entries=entries) for entries in (16, 32)]
        job = scheduler.submit(_cells_payload(requests, name="pair"))
        _wait(job)
        assert job.state is JobState.COMPLETED
        assert job.result is not None and job.manifest is not None
        counters = job.manifest["counters"]
        assert counters["cells_unique"] == 2
        assert counters["store_hits"] == 0
        assert counters["cells_computed"] == 2
        assert counters["shard_count"] >= 1
        sources = [cell["source"] for cell in job.result["cells"]]
        assert sources == ["computed", "computed"]

    def test_second_job_served_from_store(self, scheduler):
        requests = [_request(entries=entries) for entries in (16, 32)]
        first = scheduler.submit(_cells_payload(requests))
        _wait(first)
        second = scheduler.submit(_cells_payload(requests))
        _wait(second)
        counters = second.manifest["counters"]
        assert counters["store_hits"] == 2
        assert counters["store_misses"] == 0
        assert counters["cells_computed"] == 0
        assert all(
            cell["source"] == "store" for cell in second.result["cells"]
        )
        first_reports = {
            cell["cell"]: cell["report"] for cell in first.result["cells"]
        }
        for cell in second.result["cells"]:
            assert cell["report"] == first_reports[cell["cell"]]

    def test_event_stream_order_and_terminality(self, scheduler):
        job = scheduler.submit(_cells_payload([_request()]))
        _wait(job)
        events = [event["event"] for event in job.log.events_since(0)]
        assert events[0] == "job-queued"
        assert events[1] == "job-started"
        assert events[-1] == "job-completed"
        assert events.count("cell") == 1

    def test_invalid_submission_never_creates_a_job(self, scheduler):
        with pytest.raises(JobSpecError):
            scheduler.submit({"experiment": "nope"})
        assert scheduler.list_jobs() == []

    def test_execution_crash_fails_only_that_job(self, scheduler, monkeypatch):
        def boom(self, **kwargs):
            raise RuntimeError("engine on fire")

        monkeypatch.setattr(RunPlan, "execute", boom)
        job = scheduler.submit(_cells_payload([_request()]))
        _wait(job)
        assert job.state is JobState.FAILED
        assert "engine on fire" in job.error
        monkeypatch.undo()
        recovered = scheduler.submit(_cells_payload([_request()]))
        _wait(recovered)
        assert recovered.state is JobState.COMPLETED


# ---------------------------------------------------------------------------
# the HTTP API, end to end over real sockets
# ---------------------------------------------------------------------------


def _get(url: str):
    with urllib.request.urlopen(url) as response:
        return response.status, json.loads(response.read())


def _post(url: str, payload) -> tuple:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return response.status, json.loads(response.read())


def _stream(url: str):
    with urllib.request.urlopen(url) as response:
        return [json.loads(line) for line in response if line.strip()]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    from repro.service.api import ServiceServer

    tmp = tmp_path_factory.mktemp("service")
    store = ResultStore(str(tmp / "store.sqlite"))
    scheduler = JobScheduler(store, concurrency=2)
    server = ServiceServer(scheduler)
    url = server.start_background()
    yield url
    server.stop_background()
    store.close()


class TestHTTPAPI:
    def test_healthz_and_discovery(self, service):
        status, body = _get(f"{service}/healthz")
        assert status == 200 and body["ok"] is True
        status, body = _get(f"{service}/api/v1/experiments")
        assert "fig5" in body["experiments"]
        status, body = _get(f"{service}/api/v1/store/stats")
        assert "entries" in body["store"]

    def test_paper_sweep_resubmission_is_all_store_hits(self, service):
        """The acceptance path: submit the fig5 paper sweep over HTTP,
        stream it to completion, resubmit, and prove via the manifest
        dedup counters that zero cells were re-simulated."""
        sweep = {
            "experiment": "fig5",
            "instructions": SWEEP_INSTRUCTIONS,
            "engine": "fast",
        }
        status, submitted = _post(f"{service}/api/v1/jobs", sweep)
        assert status == 202 and submitted["state"] in ("queued", "running")
        job_id = submitted["job_id"]
        events = _stream(f"{service}/api/v1/jobs/{job_id}/events")
        kinds = [event["event"] for event in events]
        assert kinds[-1] == "job-completed"
        assert kinds.count("cell") == 60  # 10 predictors x 6 programs
        status, manifest = _get(f"{service}/api/v1/jobs/{job_id}/manifest")
        first_counters = manifest["counters"]
        assert first_counters["cells_unique"] == 60
        assert first_counters["store_misses"] == 60
        status, result = _get(f"{service}/api/v1/jobs/{job_id}/result")
        assert len(result["cells"]) == 60
        assert result["result"]["title"].startswith("Figure 5")

        status, resubmitted = _post(f"{service}/api/v1/jobs", sweep)
        second_id = resubmitted["job_id"]
        second_events = _stream(f"{service}/api/v1/jobs/{second_id}/events")
        assert all(
            event["source"] == "store"
            for event in second_events
            if event["event"] == "cell"
        )
        status, second_manifest = _get(
            f"{service}/api/v1/jobs/{second_id}/manifest"
        )
        counters = second_manifest["counters"]
        assert counters["store_hits"] == 60
        assert counters["store_misses"] == 0
        assert counters["cells_computed"] == 0  # zero cells re-simulated
        status, second_result = _get(f"{service}/api/v1/jobs/{second_id}/result")
        first_bytes = {
            cell["cell"]: json.dumps(cell["report"], sort_keys=True)
            for cell in result["cells"]
        }
        for cell in second_result["cells"]:
            assert json.dumps(cell["report"], sort_keys=True) == first_bytes[
                cell["cell"]
            ]

    def test_event_stream_resumes_from_offset(self, service):
        status, submitted = _post(
            f"{service}/api/v1/jobs", _cells_payload([_request()])
        )
        job_id = submitted["job_id"]
        _stream(f"{service}/api/v1/jobs/{job_id}/events")  # run to done
        tail = _stream(f"{service}/api/v1/jobs/{job_id}/events?from=2")
        assert tail and tail[0]["seq"] == 2

    def test_disconnect_and_resume_delivers_exactly_once(self, service):
        """A consumer that drops mid-stream and reconnects with
        ``?from=<last seen + 1>`` receives every remaining event exactly
        once, terminal event included — the chunked-NDJSON resume
        contract clients rely on (docs/SERVICE.md)."""
        requests = [
            _request(entries=entries) for entries in (16, 32, 64, 128)
        ]
        status, submitted = _post(
            f"{service}/api/v1/jobs", _cells_payload(requests)
        )
        job_id = submitted["job_id"]
        url = f"{service}/api/v1/jobs/{job_id}/events"
        before_drop = []
        response = urllib.request.urlopen(url)
        try:
            for line in response:
                if not line.strip():
                    continue
                before_drop.append(json.loads(line))
                if len(before_drop) == 2:
                    break  # simulate the client dying mid-stream
        finally:
            response.close()
        assert [event["seq"] for event in before_drop] == [0, 1]
        resumed = _stream(f"{url}?from={before_drop[-1]['seq'] + 1}")
        combined = before_drop + resumed
        # exactly once: the seq numbers are gapless, duplicate-free,
        # and end with the terminal event
        assert [event["seq"] for event in combined] == list(
            range(len(combined))
        )
        assert combined[-1]["event"] == "job-completed"
        assert [
            event["event"] for event in combined
        ].count("cell") == len(requests)
        # the stitched stream is identical to one uninterrupted replay
        assert _stream(url) == combined

    def test_job_listing_and_status(self, service):
        status, body = _get(f"{service}/api/v1/jobs")
        assert body["jobs"], "previous tests should have left jobs behind"
        job_id = body["jobs"][0]["job_id"]
        status, one = _get(f"{service}/api/v1/jobs/{job_id}")
        assert one["job_id"] == job_id

    @pytest.mark.parametrize(
        "path, method, payload, expected",
        [
            ("/api/v1/jobs", "POST", {"experiment": "nope"}, 400),
            ("/api/v1/jobs", "POST", None, 400),
            ("/api/v1/jobs/job-absent", "GET", None, 404),
            ("/api/v1/nowhere", "GET", None, 404),
        ],
    )
    def test_error_statuses(self, service, path, method, payload, expected):
        try:
            if method == "POST":
                _post(f"{service}{path}", payload)
            else:
                _get(f"{service}{path}")
        except urllib.error.HTTPError as error:
            assert error.code == expected
            body = json.loads(error.read())
            assert body["status"] == expected and body["error"]
        else:
            pytest.fail("expected an HTTP error")

    def test_result_conflicts_until_done(self, service, monkeypatch):
        """409 while the job is still queued/running."""
        import repro.service.scheduler as scheduler_module

        original = scheduler_module.JobScheduler._run_job
        gate = threading.Event()

        def slow(self, job):
            gate.wait(10.0)
            original(self, job)

        monkeypatch.setattr(scheduler_module.JobScheduler, "_run_job", slow)
        try:
            status, submitted = _post(
                f"{service}/api/v1/jobs", _cells_payload([_request(entries=128)])
            )
            with pytest.raises(urllib.error.HTTPError) as failure:
                _get(f"{service}/api/v1/jobs/{submitted['job_id']}/result")
            assert failure.value.code == 409
        finally:
            gate.set()
        _stream(f"{service}/api/v1/jobs/{submitted['job_id']}/events")


class TestMetricsEndpoint:
    def test_prometheus_exposition_over_http(self, tmp_path):
        """``GET /metrics`` serves the live registry in Prometheus text
        exposition: after running the same job twice, the store
        hit/miss and scheduler job counters must be present, non-zero
        where expected, and every sample line format-valid."""
        import re

        from repro.service.api import ServiceServer
        from repro.telemetry.core import Registry, get_registry, set_registry

        previous = get_registry()
        set_registry(Registry(enabled=True))
        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        server = ServiceServer(scheduler)
        url = server.start_background()
        try:
            payload = _cells_payload([_request(entries=16)])
            for _ in range(2):  # second run is served from the store
                _, submitted = _post(f"{url}/api/v1/jobs", payload)
                _stream(f"{url}/api/v1/jobs/{submitted['job_id']}/events")
            with urllib.request.urlopen(f"{url}/metrics") as response:
                assert response.status == 200
                content_type = response.headers["Content-Type"]
                text = response.read().decode("utf-8")
        finally:
            server.stop_background()
            store.close()
            set_registry(previous)
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert text.endswith("\n")
        sample = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$"
        )
        values = {}
        for line in text.strip().splitlines():
            if line.startswith("#"):
                assert line.startswith(("# HELP ", "# TYPE "))
                continue
            assert sample.match(line), line
            name, _, value = line.partition(" ")
            values[name] = float(value)
        assert values["repro_store_hits_total"] >= 1
        assert values["repro_store_misses_total"] >= 1
        assert values["repro_service_jobs_submitted_total"] == 2
        assert values["repro_service_jobs_completed_total"] == 2
        assert values['repro_service_jobs{state="completed"}'] == 2
        assert values["repro_store_entries"] == 1


class TestConcurrentSubmitters:
    def test_overlapping_jobs_share_cells_byte_identically(self, tmp_path):
        """Two submitters with overlapping cells: every report is
        byte-identical across jobs and the overlap is paid for once —
        one job's dedup counters show the other's cells arriving from
        the store."""
        from repro.service.api import ServiceServer

        store = ResultStore(str(tmp_path / "store.sqlite"))
        scheduler = JobScheduler(store, concurrency=1)
        server = ServiceServer(scheduler)
        url = server.start_background()
        try:
            shared = [_request(entries=entries) for entries in (16, 32, 64)]
            only_a = [_request(program="espresso", entries=16)]
            only_b = [_request(program="espresso", entries=32)]
            payload_a = _cells_payload(shared + only_a, name="submitter-a")
            payload_b = _cells_payload(shared + only_b, name="submitter-b")
            ids = {}

            def submit(label, payload):
                _, body = _post(f"{url}/api/v1/jobs", payload)
                ids[label] = body["job_id"]

            threads = [
                threading.Thread(target=submit, args=("a", payload_a)),
                threading.Thread(target=submit, args=("b", payload_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results, manifests = {}, {}
            for label, job_id in ids.items():
                _stream(f"{url}/api/v1/jobs/{job_id}/events")
                _, results[label] = _get(f"{url}/api/v1/jobs/{job_id}/result")
                _, manifests[label] = _get(
                    f"{url}/api/v1/jobs/{job_id}/manifest"
                )
            hits = {
                label: manifests[label]["counters"]["store_hits"]
                for label in manifests
            }
            computed = {
                label: manifests[label]["counters"]["cells_computed"]
                for label in manifests
            }
            # jobs ran one at a time (concurrency=1): whichever went
            # second found the 3 shared cells already in the store
            assert sorted(hits.values()) == [0, 3]
            assert sum(computed.values()) == 5  # 3 shared + 2 private
            reports_a = {
                cell["cell"]: json.dumps(cell["report"], sort_keys=True)
                for cell in results["a"]["cells"]
            }
            overlap = 0
            for cell in results["b"]["cells"]:
                if cell["cell"] in reports_a:
                    overlap += 1
                    assert (
                        json.dumps(cell["report"], sort_keys=True)
                        == reports_a[cell["cell"]]
                    )
            assert overlap == 3
        finally:
            server.stop_background()
            store.close()
