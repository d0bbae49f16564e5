"""Persistent, content-addressed result store (SQLite-backed).

The one durable home of completed simulation cells: every cell is
stored the moment it completes under its **content address** — the
:func:`~repro.harness.checkpoint.cell_key` content hash of (config +
program + instructions + seed + layout + warmup) paired with the
fully resolved corpus trace key — so any later plan containing the
same cell is served the stored report verbatim instead of
re-simulating.  That makes the store both the cache shared by
concurrent jobs with overlapping design-space points (the normal case
when sweeping BTB/NLS capacity regimes), which pay for each unique
cell once, service-wide, and the resume mechanism of the CLI: a
killed sweep re-run with the same ``--store`` simulates only the
cells that had not finished (DESIGN.md §12).

Properties:

* **content addressing** — the key is derived from *what* is being
  simulated, never from who asked; the trace key participates so a
  changed ``REPRO_TRACE_SCALE`` (which silently rescales every trace)
  misses instead of resurrecting stale results;
* **verbatim payloads** — reports round-trip through the checkpoint
  serialisers (:func:`~repro.harness.checkpoint.report_to_dict`),
  keeping their original ``meta``/``manifest`` provenance, so a cell
  served from the store is byte-identical to the run that produced it;
* **integrity** — payloads are SHA-256 checksummed on write
  (:func:`~repro.harness.checkpoint.payload_digest`) and re-verified
  on every read; a corrupt row is evicted and counted, surfacing as a
  cache miss rather than a wrong number;
* **concurrency** — WAL journal mode, a busy timeout and one
  interlocked connection per store instance make the store safe for
  the service's scheduler threads and for multiple processes sharing
  one database file;
* **telemetry** — ``store.hits`` / ``store.misses`` / ``store.puts``
  / ``store.dedup_skips`` / ``store.corrupt_evictions`` counters on
  the active registry, the numbers job manifests stamp.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Mapping, Optional

from repro.harness.checkpoint import (
    cell_key,
    payload_digest,
    report_from_dict,
    report_to_dict,
)
from repro.metrics.report import SimulationReport
from repro.telemetry.core import get_registry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.harness.runner import RunRequest

#: store schema stamp (bump on any table change)
STORE_SCHEMA = "repro-store/v1"

#: default store filename used by the CLI when none is given
DEFAULT_STORE_NAME = "repro-store.sqlite"

_TABLE_DDL = """
CREATE TABLE IF NOT EXISTS results (
    cell_key    TEXT    NOT NULL,
    trace_key   TEXT    NOT NULL,
    config_label TEXT   NOT NULL,
    program     TEXT    NOT NULL,
    schema      TEXT    NOT NULL,
    payload     TEXT    NOT NULL,
    payload_sha TEXT    NOT NULL,
    created_s   REAL    NOT NULL,
    last_hit_s  REAL    NOT NULL,
    hits        INTEGER NOT NULL DEFAULT 0,
    PRIMARY KEY (cell_key, trace_key)
)
"""


def _trace_key_text(request: "RunRequest") -> str:
    """Canonical JSON form of the request's fully resolved trace key."""
    return json.dumps(list(request.resolved_trace_key()))


class ResultStore:
    """Content-addressed cache of completed simulation cells.

    One instance wraps one SQLite database file (created on demand)
    and is safe to share across threads; separate processes open their
    own instances on the same path.  ``fetch``/``put`` are the
    plan-level contract :meth:`repro.harness.runner.RunPlan.execute`
    drives when given a store: one ``fetch`` before the plan runs,
    one ``put`` per cell as it completes.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=10000")
            self._conn.execute(_TABLE_DDL)
            self._conn.commit()

    # -- core get/put --------------------------------------------------

    def get(self, request: "RunRequest") -> Optional[SimulationReport]:
        """The stored report for *request*, or ``None`` on a miss.

        Hits re-verify the payload checksum (corrupt rows are evicted
        and counted as misses) and bump the row's hit statistics."""
        registry = get_registry()
        key = cell_key(request)
        trace = _trace_key_text(request)
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, payload_sha FROM results "
                "WHERE cell_key = ? AND trace_key = ?",
                (key, trace),
            ).fetchone()
            if row is None:
                registry.counter("store.misses").add()
                return None
            payload_text, recorded_sha = row
            if payload_digest(payload_text) != recorded_sha:
                self._conn.execute(
                    "DELETE FROM results WHERE cell_key = ? AND trace_key = ?",
                    (key, trace),
                )
                self._conn.commit()
                registry.counter("store.corrupt_evictions").add()
                registry.counter("store.misses").add()
                return None
            self._conn.execute(
                "UPDATE results SET hits = hits + 1, last_hit_s = ? "
                "WHERE cell_key = ? AND trace_key = ?",
                (time.time(), key, trace),
            )
            self._conn.commit()
        registry.counter("store.hits").add()
        return report_from_dict(json.loads(payload_text))

    def put(self, request: "RunRequest", report: SimulationReport) -> bool:
        """Store one completed cell; returns ``True`` when inserted.

        An already-present key is left untouched (first write wins, so
        concurrent jobs racing on the same cell keep one canonical
        payload) and counted as a ``store.dedup_skips``."""
        registry = get_registry()
        payload_text = json.dumps(report_to_dict(report), sort_keys=True)
        now = time.time()
        with self._lock:
            cursor = self._conn.execute(
                "INSERT OR IGNORE INTO results "
                "(cell_key, trace_key, config_label, program, schema, "
                " payload, payload_sha, created_s, last_hit_s, hits) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, 0)",
                (
                    cell_key(request),
                    _trace_key_text(request),
                    request.config.label(),
                    request.program,
                    STORE_SCHEMA,
                    payload_text,
                    payload_digest(payload_text),
                    now,
                    now,
                ),
            )
            self._conn.commit()
            inserted = cursor.rowcount == 1
        if inserted:
            registry.counter("store.puts").add()
        else:
            registry.counter("store.dedup_skips").add()
        return inserted

    # -- plan-level contract -------------------------------------------

    def fetch(
        self, requests: Iterable["RunRequest"]
    ) -> Dict["RunRequest", SimulationReport]:
        """Stored reports for every request the store already has."""
        found: Dict["RunRequest", SimulationReport] = {}
        for request in requests:
            report = self.get(request)
            if report is not None:
                found[request] = report
        return found

    def put_many(
        self, results: Mapping["RunRequest", SimulationReport]
    ) -> int:
        """Store every completed cell; returns the inserted count."""
        return sum(
            1 for request, report in results.items() if self.put(request, report)
        )

    # -- maintenance ---------------------------------------------------

    def ping(self) -> bool:
        """Whether the store can execute a query right now (the
        ``/readyz`` reachability probe)."""
        try:
            with self._lock:
                self._conn.execute("SELECT 1").fetchone()
            return True
        except sqlite3.Error:
            return False

    def stats(self) -> Dict[str, Any]:
        """Store statistics: entry/hit totals, sizes, age span."""
        with self._lock:
            entries, total_hits, payload_bytes = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(hits), 0), "
                "COALESCE(SUM(LENGTH(payload)), 0) FROM results"
            ).fetchone()
            programs = self._conn.execute(
                "SELECT COUNT(DISTINCT program) FROM results"
            ).fetchone()[0]
            configs = self._conn.execute(
                "SELECT COUNT(DISTINCT config_label) FROM results"
            ).fetchone()[0]
            oldest, newest = self._conn.execute(
                "SELECT MIN(created_s), MAX(created_s) FROM results"
            ).fetchone()
        return {
            "schema": STORE_SCHEMA,
            "path": self.path,
            "entries": entries,
            "total_hits": total_hits,
            "payload_bytes": payload_bytes,
            "db_bytes": os.path.getsize(self.path)
            if os.path.exists(self.path)
            else 0,
            "programs": programs,
            "configs": configs,
            "oldest_s": oldest,
            "newest_s": newest,
        }

    def gc(
        self,
        max_age_s: Optional[float] = None,
        keep: Optional[int] = None,
    ) -> Dict[str, int]:
        """Prune the store; returns ``{"removed": n, "kept": m}``.

        *max_age_s* drops entries not written or hit within that many
        seconds; *keep* then trims to the newest (by last hit) *keep*
        entries.  With neither bound this only vacuums."""
        removed = 0
        now = time.time()
        with self._lock:
            if max_age_s is not None:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE MAX(created_s, last_hit_s) < ?",
                    (now - max_age_s,),
                )
                removed += cursor.rowcount
            if keep is not None:
                cursor = self._conn.execute(
                    "DELETE FROM results WHERE (cell_key, trace_key) NOT IN ("
                    " SELECT cell_key, trace_key FROM results "
                    " ORDER BY last_hit_s DESC, created_s DESC LIMIT ?)",
                    (max(keep, 0),),
                )
                removed += cursor.rowcount
            self._conn.commit()
            self._conn.execute("VACUUM")
            kept = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()[0]
        get_registry().counter("store.gc_removed").add(removed)
        return {"removed": removed, "kept": kept}

    def verify(self, fix: bool = False) -> Dict[str, Any]:
        """Audit every payload; returns the outcome.

        Three failure modes are detected, each named in the result's
        ``corrupt`` list with a ``reason``: a **checksum-mismatch**
        (the payload no longer hashes to its recorded SHA-256), a
        **missing-payload** (the payload text is empty — the row holds
        nothing to deserialise, even if someone re-stamped the
        checksum to match), and an **unparseable** payload (checksum
        intact but the text is not the JSON object a report round-trip
        needs).  With *fix* the flagged rows are deleted (checksum
        mismatches would be evicted lazily on first read anyway —
        ``verify --fix`` just does it eagerly and reclaims the space;
        the other two modes are only caught here)."""
        corrupt: List[Dict[str, str]] = []
        with self._lock:
            rows = self._conn.execute(
                "SELECT cell_key, trace_key, payload, payload_sha FROM results"
            ).fetchall()
            for key, trace, payload_text, recorded_sha in rows:
                reason = None
                if payload_digest(payload_text) != recorded_sha:
                    reason = "checksum-mismatch"
                elif not payload_text or not payload_text.strip():
                    reason = "missing-payload"
                else:
                    try:
                        parsed = json.loads(payload_text)
                    except json.JSONDecodeError:
                        parsed = None
                    if not isinstance(parsed, dict) or "label" not in parsed:
                        reason = "unparseable"
                if reason is not None:
                    corrupt.append(
                        {"cell_key": key, "trace_key": trace, "reason": reason}
                    )
            if fix and corrupt:
                self._conn.executemany(
                    "DELETE FROM results WHERE cell_key = ? AND trace_key = ?",
                    [(entry["cell_key"], entry["trace_key"]) for entry in corrupt],
                )
                self._conn.commit()
        return {
            "checked": len(rows),
            "corrupt": corrupt,
            "removed": len(corrupt) if fix else 0,
            "ok": not corrupt,
        }

    def close(self) -> None:
        """Close the connection (safe to call repeatedly)."""
        with self._lock:
            try:
                self._conn.close()
            except sqlite3.ProgrammingError:  # pragma: no cover - already closed
                pass
