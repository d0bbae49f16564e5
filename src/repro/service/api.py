"""Async HTTP face of the simulation service (stdlib asyncio only).

A deliberately small HTTP/1.1 server built on
:func:`asyncio.start_server` — no web framework, matching the repo's
no-new-dependencies rule.  Blocking simulation work never runs on the
event loop: the loop only parses requests, serialises JSON and streams
event-log tails; the :class:`~repro.service.scheduler.JobScheduler`
threads do the simulating.

Routes (all JSON; ``Connection: close`` per request):

=======  ==============================  =====================================
GET      /healthz                        liveness + job-state totals
GET      /readyz                         readiness: store reachable and the
                                         submit queue below the shed
                                         threshold (503 + Retry-After if not)
GET      /metrics                        Prometheus text exposition of the
                                         active telemetry registry plus
                                         scheduler/store counters
GET      /api/v1/experiments             registered experiment names
GET      /api/v1/store/stats             result-store statistics
POST     /api/v1/jobs                    submit a job spec → 202 + status
GET      /api/v1/jobs                    list all jobs (oldest first)
GET      /api/v1/jobs/<id>               one job's status
POST     /api/v1/jobs/<id>/cancel        cooperative cancel → 202 (409 if
                                         the job is already terminal)
GET      /api/v1/jobs/<id>/events        NDJSON event stream (chunked);
                                         ``?from=N`` resumes at seq N
GET      /api/v1/jobs/<id>/result        result document (409 until done)
GET      /api/v1/jobs/<id>/manifest      job manifest (409 until done)
=======  ==============================  =====================================

The event stream is plain newline-delimited JSON over chunked
transfer encoding: one object per event, ending when the job reaches
a terminal state (every event is flushed before the terminal state is
set, so the stream never truncates).  ``?from=N`` offsets below the
in-memory window are served from the durable registry, so a client
reconnecting after a replica restart replays exactly the events it
missed — no gaps, no duplicates.

When the scheduler carries an
:class:`~repro.service.admission.AdmissionController` (``serve
--keys`` / quota flags), every ``/api/v1`` request is authenticated
(``Authorization: Bearer <key>`` → 401 on failure) and submissions
pass rate limits and in-flight quotas; refused work is shed with
``429`` and an honest ``Retry-After``, never queued unbounded.  All
error responses — including 413 oversized bodies and malformed
request lines — are well-formed JSON with ``Content-Length`` set.
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.service.admission import AdmissionError
from repro.service.jobs import Job
from repro.service.protocol import SERVICE_SCHEMA, JobSpecError, parse_job_spec
from repro.service.scheduler import JobScheduler

#: maximum accepted request-body size (a full 48-cell sweep spec is ~20 kB)
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServiceServer:
    """One service instance: a scheduler plus its asyncio HTTP server.

    Construct, then either ``await serve_forever()`` on a running loop
    (the CLI path) or call :meth:`start_background` to run loop and
    server on a daemon thread (the test / embedding path).

    *read_timeout* bounds how long one connection may take to deliver
    its request (slowloris protection): expiry answers ``408`` and
    closes."""

    def __init__(
        self,
        scheduler: JobScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        read_timeout: Optional[float] = None,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.read_timeout = read_timeout
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    # -- request plumbing ----------------------------------------------

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        """Parse one HTTP/1.1 request; ``None`` on malformed input."""
        try:
            request_line = await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return None
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3:
            return None
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > MAX_BODY_BYTES:
            return method, target, headers, b"\x00"  # sentinel: too large
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    @staticmethod
    def _json_bytes(payload: Any) -> bytes:
        return json.dumps(payload, sort_keys=True).encode("utf-8")

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = self._json_bytes(payload) + b"\n"
        lines = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        lines.append("Connection: close")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _send_text(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: str,
        content_type: str = "text/plain; charset=utf-8",
    ) -> None:
        encoded = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(encoded)}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head + encoded)
        await writer.drain()

    async def _send_error(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        message: str,
        retry_after: Optional[float] = None,
    ) -> None:
        """One JSON error body, always with ``Content-Length`` (and
        ``Retry-After`` on shed/unavailable responses)."""
        extra: Optional[Dict[str, str]] = None
        if retry_after is not None:
            extra = {"Retry-After": str(int(max(1, round(retry_after))))}
        await self._send_json(
            writer,
            status,
            {"schema": SERVICE_SCHEMA, "error": message, "status": status},
            extra_headers=extra,
        )

    # -- routing -------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection (one request; ``Connection: close``)."""
        try:
            try:
                if self.read_timeout is not None:
                    parsed = await asyncio.wait_for(
                        self._read_request(reader), self.read_timeout
                    )
                else:
                    parsed = await self._read_request(reader)
            except asyncio.TimeoutError:
                await self._send_error(
                    writer,
                    408,
                    f"request not received within {self.read_timeout}s",
                )
                return
            if parsed is None:
                await self._send_error(writer, 400, "malformed HTTP request")
                return
            method, target, headers, body = parsed
            if body == b"\x00":
                await self._send_error(writer, 413, "request body too large")
                return
            path, _, query = target.partition("?")
            await self._route(writer, method, path, query, headers, body)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except Exception as exc:  # the server must outlive a bad handler
            try:
                await self._send_error(
                    writer, 500, f"{type(exc).__name__}: {exc}"
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    def _authenticate(self, headers: Dict[str, str]) -> str:
        """Resolve the request's client identity (may raise
        :class:`AdmissionError` → 401)."""
        admission = self.scheduler.admission
        if admission is None:
            return "anonymous"
        return admission.authenticate(headers.get("authorization"))

    async def _route(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(
                writer,
                200,
                {
                    "schema": SERVICE_SCHEMA,
                    "ok": True,
                    "jobs": self.scheduler.counts(),
                },
            )
            return
        if path == "/readyz" and method == "GET":
            await self._send_readyz(writer)
            return
        if path == "/metrics" and method == "GET":
            from repro.telemetry.core import get_registry
            from repro.telemetry.exposition import render_prometheus

            text = render_prometheus(
                get_registry(),
                job_counts=self.scheduler.counts(),
                store_stats=self.scheduler.store.stats(),
                extra_gauges={
                    "service_queue_depth": self.scheduler.queue_depth(),
                },
            )
            await self._send_text(
                writer,
                200,
                text,
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        # everything under /api/v1 is authenticated (when keys are on)
        try:
            client = self._authenticate(headers)
        except AdmissionError as exc:
            await self._send_error(
                writer, exc.status, exc.message, retry_after=exc.retry_after
            )
            return
        if path == "/api/v1/experiments" and method == "GET":
            from repro.harness.experiments import SPECS

            await self._send_json(
                writer,
                200,
                {
                    "schema": SERVICE_SCHEMA,
                    "experiments": {
                        name: SPECS[name].summary for name in sorted(SPECS)
                    },
                },
            )
            return
        if path == "/api/v1/store/stats" and method == "GET":
            await self._send_json(
                writer,
                200,
                {"schema": SERVICE_SCHEMA, "store": self.scheduler.store.stats()},
            )
            return
        if path == "/api/v1/jobs" and method == "POST":
            await self._submit_job(writer, client, body)
            return
        if path == "/api/v1/jobs" and method == "GET":
            await self._send_json(
                writer,
                200,
                {"schema": SERVICE_SCHEMA, "jobs": self.scheduler.list_jobs()},
            )
            return
        if path.startswith("/api/v1/jobs/"):
            await self._route_job(writer, method, path, query)
            return
        await self._send_error(writer, 404, f"no route for {method} {path}")

    async def _send_readyz(self, writer: asyncio.StreamWriter) -> None:
        """Readiness: the store answers a query and the submit queue is
        below the shed threshold; 503 + Retry-After otherwise."""
        admission = self.scheduler.admission
        depth = self.scheduler.queue_depth()
        store_ok = await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.store.ping
        )
        queue_ok = (
            admission is None
            or admission.max_queue is None
            or depth < admission.max_queue
        )
        payload = {
            "schema": SERVICE_SCHEMA,
            "ready": store_ok and queue_ok,
            "store_ok": store_ok,
            "queue_ok": queue_ok,
            "queue_depth": depth,
        }
        if store_ok and queue_ok:
            await self._send_json(writer, 200, payload)
        else:
            await self._send_json(
                writer, 503, payload, extra_headers={"Retry-After": "5"}
            )

    async def _submit_job(
        self, writer: asyncio.StreamWriter, client: str, body: bytes
    ) -> None:
        """Admission-checked submission: rate → parse → quota → enqueue."""
        admission = self.scheduler.admission
        try:
            payload = json.loads(body.decode("utf-8")) if body else None
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            await self._send_error(writer, 400, f"invalid JSON body: {exc}")
            return

        def _submit() -> Job:
            if admission is not None:
                admission.check_rate(client)
            spec = parse_job_spec(payload)
            if admission is not None:
                admission.admit(
                    client, len(spec.cells), self.scheduler.queue_depth()
                )
            try:
                return self.scheduler.submit(payload, client=client)
            except BaseException:
                if admission is not None:
                    admission.job_finished(client, len(spec.cells))
                raise

        try:
            job = await asyncio.get_running_loop().run_in_executor(
                None, _submit
            )
        except JobSpecError as exc:
            await self._send_error(writer, 400, str(exc))
            return
        except AdmissionError as exc:
            await self._send_error(
                writer, exc.status, exc.message, retry_after=exc.retry_after
            )
            return
        await self._send_json(writer, 202, job.status_dict())

    async def _route_job(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        query: str,
    ) -> None:
        parts = path[len("/api/v1/jobs/") :].split("/")
        job_id = parts[0]
        action = parts[1] if len(parts) > 1 else ""
        job = self.scheduler.get(job_id)
        if method == "POST" and action == "cancel":
            await self._cancel_job(writer, job_id, job)
            return
        if method != "GET":
            await self._send_error(writer, 405, f"{method} not allowed here")
            return
        if job is None:
            # not resident on this replica: answer status queries from
            # the shared registry (peer-owned or not-yet-recovered jobs)
            row = self.scheduler.registry.get(job_id)
            if row is not None and action == "events":
                await self._replay_registry_events(writer, job_id, query)
                return
            if row is not None and action == "":
                await self._send_json(
                    writer,
                    200,
                    {
                        "schema": SERVICE_SCHEMA,
                        "job_id": row["job_id"],
                        "kind": row["kind"],
                        "name": row["name"],
                        "state": row["state"],
                        "cells": row["cells"],
                        "events": row["events"],
                        "submitted_s": row["submitted_s"],
                        "started_s": row["started_s"],
                        "finished_s": row["finished_s"],
                        "error": row["error"],
                        "cancel_requested": row["cancel_requested"],
                        "resident": False,
                    },
                )
                return
            await self._send_error(writer, 404, f"unknown job {job_id!r}")
            return
        if action == "":
            await self._send_json(writer, 200, job.status_dict())
        elif action == "events":
            await self._stream_events(writer, job, query)
        elif action == "result":
            if not job.done:
                await self._send_error(
                    writer, 409, f"job {job.id} is {job.state.value}"
                )
            elif job.result is None:
                await self._send_error(writer, 409, job.error or "job failed")
            else:
                await self._send_json(writer, 200, job.result)
        elif action == "manifest":
            if job.manifest is None:
                await self._send_error(
                    writer, 409, f"job {job.id} has no manifest yet"
                )
            else:
                await self._send_json(writer, 200, job.manifest)
        else:
            await self._send_error(writer, 404, f"no job action {action!r}")

    async def _cancel_job(
        self, writer: asyncio.StreamWriter, job_id: str, job: Optional[Job]
    ) -> None:
        """Cooperative cancel: flips the in-memory and registry flags;
        the owning scheduler stops the plan at its next cell boundary."""
        if job is None and self.scheduler.registry.get(job_id) is None:
            await self._send_error(writer, 404, f"unknown job {job_id!r}")
            return
        accepted = await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.request_cancel, job_id
        )
        if not accepted:
            state = job.state.value if job is not None else "terminal"
            await self._send_error(
                writer, 409, f"job {job_id} is already {state}"
            )
            return
        await self._send_json(
            writer,
            202,
            {
                "schema": SERVICE_SCHEMA,
                "job_id": job_id,
                "cancel_requested": True,
            },
        )

    @staticmethod
    def _events_offset(query: str) -> int:
        offset = 0
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "from" and value.isdigit():
                offset = int(value)
        return offset

    async def _replay_registry_events(
        self, writer: asyncio.StreamWriter, job_id: str, query: str
    ) -> None:
        """NDJSON replay of a non-resident job's persisted log.

        The job lives on another replica (or finished before a
        restart), so there is no in-memory log to tail — the registry
        history *is* the stream, replayed from ``?from=N`` exactly as
        the live tail would have delivered it, then closed."""
        offset = self._events_offset(query)
        events = await asyncio.get_running_loop().run_in_executor(
            None, self.scheduler.registry.events, job_id, offset
        )
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await self._write_events(writer, events)
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _stream_events(
        self, writer: asyncio.StreamWriter, job: Job, query: str
    ) -> None:
        """Chunked NDJSON tail of the job's event log until terminal.

        ``?from=N`` resumes at seq N — served transparently across the
        memory/registry boundary, so resumed streams are exactly-once
        even after spills or restarts.  A drain (``job.suspended``)
        ends the stream like a terminal state: its final event is
        ``job-suspended`` and the client re-attaches to whichever
        replica recovers the job."""
        offset = self._events_offset(query)
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: application/x-ndjson\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        writer.write(head)
        await writer.drain()
        while True:
            events = job.log.events_since(offset)
            if events:
                offset += await self._write_events(writer, events)
                continue
            if job.done or job.suspended:
                # the final event lands before the terminal state is
                # set, possibly after the read above: one more read
                # flushes it, so the stream always ends with it
                await self._write_events(writer, job.log.events_since(offset))
                break
            await asyncio.get_running_loop().run_in_executor(
                None, job.log.wait_beyond, offset, 0.25
            )
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    async def _write_events(
        self, writer: asyncio.StreamWriter, events: List[Dict[str, Any]]
    ) -> int:
        """Write *events* as one NDJSON chunk; returns how many."""
        if events:
            chunk = b"".join(
                self._json_bytes(event) + b"\n" for event in events
            )
            writer.write(f"{len(chunk):x}\r\n".encode("latin-1"))
            writer.write(chunk + b"\r\n")
            await writer.drain()
        return len(events)

    # -- server lifecycle ----------------------------------------------

    async def start(self) -> None:
        """Bind the listening socket (resolves an ephemeral port)."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._ready.set()

    async def serve_forever(self) -> None:
        """Bind (if needed) and serve until cancelled."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        """Base URL of the bound server (valid after :meth:`start`)."""
        return f"http://{self.host}:{self.port}"

    def start_background(self, timeout: float = 10.0) -> str:
        """Run the event loop + server on a daemon thread; returns the
        base URL once the socket is bound."""

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            try:
                loop.run_until_complete(self.start())
                loop.run_forever()
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-service-http", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service HTTP server failed to start")
        return self.url

    def stop_background(self, timeout: float = 10.0) -> None:
        """Stop a background server started by :meth:`start_background`."""
        loop, server = self._loop, self._server

        def _shutdown() -> None:
            if server is not None:
                server.close()
            assert loop is not None
            loop.stop()

        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout)
        self.scheduler.stop()


def serve(
    scheduler: JobScheduler,
    host: str = "127.0.0.1",
    port: int = 8787,
    read_timeout: Optional[float] = None,
) -> None:
    """Blocking entry point for ``python -m repro.harness serve``.

    Prints the bound URL (flushed, so wrappers can scrape the
    ephemeral port when *port* is 0) and serves until interrupted.
    ``SIGTERM`` triggers a graceful drain: running jobs stop at their
    next cell boundary and return to the registry for any replica to
    finish; ``SIGINT``/Ctrl-C stops without draining (state is still
    recoverable — everything important is already durable)."""

    async def _main() -> None:
        server = ServiceServer(
            scheduler, host=host, port=port, read_timeout=read_timeout
        )
        await server.start()
        print(f"serving on {server.url}", flush=True)
        assert server._server is not None
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # platforms without signal handler support
        async with server._server:
            serve_task = asyncio.ensure_future(server._server.serve_forever())
            stop_task = asyncio.ensure_future(stop.wait())
            await asyncio.wait(
                {serve_task, stop_task}, return_when=asyncio.FIRST_COMPLETED
            )
            if stop.is_set():
                print("SIGTERM: draining and persisting state", flush=True)
                await loop.run_in_executor(None, scheduler.shutdown)
                print("drained; shutting down", flush=True)
            serve_task.cancel()
            stop_task.cancel()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("service interrupted; shutting down", flush=True)
    finally:
        scheduler.stop()
