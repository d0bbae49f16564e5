"""Correctness gate of the benchmark.

Every failure found here counts against the run (``failed`` in the
result line) and makes ``bench/run.py`` exit non-zero:

* **digest** — each workload's digest over ``(cell key, report minus
  meta/manifest)`` must equal the one in ``bench/expected.json``.  The
  cells a workload simulates do not depend on the seed, so the digest
  is checked at every seed;
* **reference cross-check** — at any seed, two seeded-sampled cells
  per workload are re-run on the reference engine (the semantics
  oracle) and must be byte-identical;
* **cross-run agreement** — runs that replay the same trace under the
  same configuration must report identical counters, whichever
  workload or repeat they come from.  This makes ``paper-sweep`` and
  ``paper-sweep-pool`` agree cell for cell, and ``ingest-replay``
  agree with ``server-replay`` and the synthetic gcc cells of
  ``paper-sweep``, when they run in one invocation;
* **trace identity** — ``ingest-replay`` must ingest its files to
  exactly the keys of the synthetic traces they were written from;
* **service jobs** — every job ends in ``job-completed``; a cold job
  computes its one cell, a warm job is served from the store
  (``store_hits == cells``) with a report byte-identical to its cold
  twin's.

``python bench/check.py --write-expected RESULTS.json`` rewrites the
digests in ``expected.json`` from a ``results.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import asdict, replace
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

#: cells per workload re-run on the reference engine
CROSSCHECK_CELLS = 2


def canonical(payload: Any) -> str:
    """Canonical JSON text of *payload* (sorted keys, no spaces)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def strip_provenance(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """A serialised report without its run-specific ``meta`` and
    ``manifest`` (wall times, pids, hosts)."""
    return {key: value for key, value in payload.items() if key not in ("meta", "manifest")}


def report_dict(report) -> Dict[str, Any]:
    """The provenance-free serialised form of a report."""
    from repro.harness.checkpoint import report_to_dict

    return strip_provenance(report_to_dict(report))


def cell_key(request) -> str:
    """Content key of one cell (the result store's)."""
    from repro.harness.checkpoint import cell_key as key

    return key(request)


def describe_cell(request) -> str:
    """Human-readable cell identity for failure messages."""
    return f"{request.config.label()} x {request.program} (key {cell_key(request)})"


def digest(pairs: Iterable[Tuple[str, Mapping[str, Any]]]) -> str:
    """SHA-256 over the sorted ``(cell key, report dict)`` pairs."""
    rows = sorted([key, payload] for key, payload in pairs)
    return hashlib.sha256(canonical(rows).encode("utf-8")).hexdigest()


def comparable(
    reports: Mapping[Any, Any], sources: Mapping[str, List[Any]]
) -> Dict[str, str]:
    """Counter fingerprints keyed by what determines them: the full
    configuration and the resolved key of the trace replayed.
    Ingested ``external:`` programs map to the synthetic trace they
    were written from (*sources*), so they line up with synthetic
    cells of other workloads."""
    result = {}
    for request, report in reports.items():
        trace = sources.get(request.program) or list(request.resolved_trace_key())
        key = canonical([asdict(request.config), trace, request.warmup])
        counters = {k: v for k, v in report_dict(report).items() if k != "program"}
        result[hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]] = hashlib.sha256(
            canonical(counters).encode("utf-8")
        ).hexdigest()[:24]
    return result


def sample(items: List[Any], seed: int, workload: str, key) -> List[Any]:
    """The seeded cross-check sample of *items* (sorted by *key*)."""
    ordered = sorted(items, key=key)
    rng = random.Random(f"crosscheck:{workload}:{seed}")
    return rng.sample(ordered, min(CROSSCHECK_CELLS, len(ordered)))


def reference_crosscheck(
    workload: str, seed: int, reports: Mapping[Any, Any], sources: Mapping[str, Any]
) -> List[str]:
    """Re-run the sampled cells on the reference engine; each must
    reproduce the benchmark's report byte for byte."""
    from repro.harness.runner import run_request

    failures = []
    for cell in sample(list(reports), seed, workload, cell_key):
        oracle = run_request(replace(cell, config=replace(cell.config, engine="reference")))
        if canonical(report_dict(oracle)) != canonical(report_dict(reports[cell])):
            failures.append(
                f"{workload}: cell {describe_cell(cell)} differs from the reference engine"
            )
    return failures


def service_failures(records: List[Dict[str, Any]]) -> List[str]:
    """Jobs that did not complete, or whose completion contradicts the
    planned cold/warm split."""
    failures = []
    for index, record in enumerate(records):
        name = f"service-mix: {record['kind']} job #{index}"
        if not record["ok"]:
            failures.append(
                f"{name} ended in {record.get('final_event') or record.get('error')}"
            )
            continue
        done = record["completed"]
        if record["kind"] == "cold":
            expected = {"cells_unique": 1, "store_hits": 0, "cells_computed": 1}
        else:
            expected = {"cells_unique": 1, "store_hits": 1, "cells_computed": 0}
        if any(done.get(key) != value for key, value in expected.items()):
            failures.append(f"{name} completed with {done}, expected {expected}")
        if record["kind"] == "warm" and canonical(record["report"]) != canonical(
            record.get("twin_report")
        ):
            failures.append(f"{name} report differs from its cold twin's")
    return failures


def service_crosscheck(seed: int, cold: List[Dict[str, Any]]) -> List[str]:
    """Reference-engine re-run of two sampled cold jobs' cells."""
    from repro.harness.runner import run_request
    from repro.service.protocol import request_from_dict

    failures = []
    for record in sample(cold, seed, "service-mix", lambda r: r["cell"]):
        request = request_from_dict(record["payload"]["cells"][0])
        oracle = run_request(replace(request, config=replace(request.config, engine="reference")))
        if canonical(report_dict(oracle)) != canonical(strip_provenance(record["report"])):
            failures.append(
                f"service-mix: cell {describe_cell(request)} differs from the reference engine"
            )
    return failures


def load_expected() -> Dict[str, Any]:
    """The committed digests."""
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def gate(records: List[Dict[str, Any]], expected: Mapping[str, Any]) -> List[str]:
    """Failures across run records: digests against *expected*, and
    counter agreement between every pair of runs that replayed the
    same (configuration, trace)."""
    failures = []
    for record in records:
        pinned = expected["digests"]["smoke" if record["smoke"] else "full"]
        want = pinned.get(record["workload"])
        if want is not None and record["digest"] != want:
            failures.append(
                f"{record['workload']}: digest {record['digest'][:16]} does not "
                f"match expected.json ({want[:16]})"
            )
    seen: Dict[Tuple[bool, str], Tuple[str, str]] = {}
    for record in records:
        for key, counters in record.get("comparable", {}).items():
            slot = (record["smoke"], key)
            if slot not in seen:
                seen[slot] = (record["workload"], counters)
            elif seen[slot][1] != counters:
                failures.append(
                    f"{record['workload']}: cell {key} disagrees with the same "
                    f"cell in {seen[slot][0]}"
                )
    return failures


def write_expected(results_path: str) -> Dict[str, Any]:
    """Pin the digests of a ``results.json``."""
    with open(results_path, encoding="utf-8") as handle:
        results = json.load(handle)
    expected = load_expected()
    table = expected["digests"]["smoke" if results["smoke"] else "full"]
    for workload, entry in results["workloads"].items():
        digests = {run["digest"] for run in entry["runs"]}
        if len(digests) != 1:
            raise ValueError(f"{workload}: runs disagree on the digest: {sorted(digests)}")
        table[workload] = digests.pop()
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return expected


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Pin the benchmark's digests.")
    parser.add_argument("--write-expected", metavar="RESULTS.json", required=True)
    args = parser.parse_args(argv)
    write_expected(args.write_expected)
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
