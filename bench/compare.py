"""Compare two benchmark results files metric by metric.

Usage, from the repository root::

    python3 bench/compare.py PARENT CANDIDATE [--claim WORKLOAD:METRIC]

Each side is a ``results.json`` written by ``bench/run.py``, or a
directory of them (one per invocation).  For each workload and end-to-end metric present in both files it prints
both sides' median and quartiles and a verdict against the metric's
bound in ``BENCHMARK.json``:

* ``unresolved`` — the run-to-run spread (quartile distance over the
  median) of either side exceeds the bound, and not every candidate
  run reads better than every parent run (then ``improved``);
* ``worse`` / ``improved`` — the medians differ by more than the bound;
* ``no change`` — otherwise.

``--claim`` applies the win rule of a claimed gain: the runs of the two
files are paired in run order (make them alternating, parent first on
even pairs), at least 10 pairs are needed, the candidate must win at
least nine tenths of the pairs (ties count for neither side), and the
medians must differ by more than the parent's quartile distance.  The
paired-bootstrap p-value of ``repro.analysis.stat_tests`` is printed
beside it.  The exit code is 1 when any metric is ``worse`` or the
claim is not met.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: pairs a claimed gain needs, and the share of them it must win
MIN_PAIRS = 10
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]):
    """(q1, median, q3) of *values*."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether *b* reads better than *a*."""
    return b < a if direction == "lower" else b > a


def verdict(parent: Sequence[float], candidate: Sequence[float],
            direction: str, bound: float) -> str:
    """The verdict of one workload x metric pairing (module doc)."""
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(candidate)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    gain = (cm - pm) / pm if pm else 0.0
    if direction == "lower":
        gain = -gain
    if spread > bound:
        if all(better(p, c, direction) for p in parent for c in candidate):
            return "improved"
        return "unresolved"
    if gain < -bound:
        return "worse"
    if gain > bound:
        return "improved"
    return "no change"


def claim(parent: Sequence[float], candidate: Sequence[float],
          direction: str) -> Dict[str, Any]:
    """The win-rate rule for a claimed gain (module doc)."""
    pairs = list(zip(parent, candidate))
    wins = sum(1 for p, c in pairs if better(p, c, direction))
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(candidate)
    met = (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and better(pm, cm, direction)
        and abs(cm - pm) > (p3 - p1)
    )
    result: Dict[str, Any] = {
        "pairs": len(pairs),
        "wins": wins,
        "median_delta": cm - pm,
        "parent_iqr": p3 - p1,
        "met": met,
    }
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from repro.analysis.stat_tests import paired_bootstrap_pvalue
    except ImportError:  # the sources are optional for the rule itself
        return result
    result["bootstrap_p"] = paired_bootstrap_pvalue([c - p for p, c in pairs])
    return result


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def load_side(path: str) -> Dict[str, Any]:
    """One side of the comparison: a ``results.json``, or a directory
    of them whose samples are concatenated in file-name order (one
    file per invocation, so alternating invocations pair up)."""
    if not os.path.isdir(path):
        return _load(path)
    merged: Dict[str, Any] = {"workloads": {}}
    for name in sorted(os.listdir(path)):
        if not name.endswith(".json"):
            continue
        for workload, entry in _load(os.path.join(path, name))["workloads"].items():
            slot = merged["workloads"].setdefault(workload, {"metrics": {}})
            for metric, summary in entry["metrics"].items():
                slot["metrics"].setdefault(metric, {"samples": []})["samples"] += (
                    summary["samples"]
                )
    return merged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two bench results files.")
    parser.add_argument("parent")
    parser.add_argument("candidate")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="check a claimed gain by the win-rate rule")
    args = parser.parse_args(argv)
    spec = _load(os.path.join(ROOT, "BENCHMARK.json"))
    parent, candidate = load_side(args.parent), load_side(args.candidate)
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    failed = False
    print(f"{'workload':18} {'metric':16} {'parent median [q1, q3]':>34} "
          f"{'candidate median [q1, q3]':>34}  verdict")
    for workload, entry in parent["workloads"].items():
        other = candidate["workloads"].get(workload)
        if other is None:
            continue
        for name, metric in metrics.items():
            if name not in entry["metrics"] or name not in other["metrics"]:
                continue
            a = entry["metrics"][name]["samples"]
            b = other["metrics"][name]["samples"]
            result = verdict(a, b, metric["better"], metric["bound"])
            failed |= result == "worse"
            columns = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                columns.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}] n={len(values)}")
            print(f"{workload:18} {name:16} {columns[0]:>34} {columns[1]:>34}  {result}")
    if args.claim:
        workload, _, name = args.claim.partition(":")
        a = parent["workloads"][workload]["metrics"][name]["samples"]
        b = candidate["workloads"][workload]["metrics"][name]["samples"]
        outcome = claim(a, b, metrics[name]["better"])
        print(f"claim {args.claim}: {'met' if outcome['met'] else 'not met'} "
              + json.dumps(outcome, sort_keys=True))
        failed |= not outcome["met"]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
