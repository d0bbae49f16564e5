"""Trace utility CLI: generate, inspect and export synthetic traces.

Examples::

    python -m repro.workloads gcc                      # Table-1 row
    python -m repro.workloads gcc --instructions 2000000 --out gcc.npz
    python -m repro.workloads li --layout random --validate
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.workloads.corpus import generate_trace
from repro.workloads.generator import build_program
from repro.workloads.ingest import trace_digest, write_entry
from repro.workloads.profiles import PROFILES, get_profile
from repro.workloads.stats import TraceAttributes, measure


def main(argv: Optional[List[str]] = None) -> int:
    """Run the trace CLI on *argv*; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="Generate and inspect the calibrated synthetic traces.",
    )
    parser.add_argument("program", choices=sorted(PROFILES))
    parser.add_argument(
        "--instructions",
        type=int,
        default=None,
        help="trace length (default: the profile's calibrated length)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--layout",
        choices=("natural", "random"),
        default="natural",
        help="procedure placement strategy",
    )
    parser.add_argument(
        "--out", default=None, help="write the trace to this .npz file"
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check the control-flow consistency invariants",
    )
    args = parser.parse_args(argv)

    profile = get_profile(args.program)
    trace = generate_trace(
        args.program,
        instructions=args.instructions,
        seed=args.seed,
        layout=args.layout,
    )
    if args.validate:
        trace.validate()
        print("trace is consistent")

    program = build_program(
        profile, layout=args.layout, seed=args.seed if args.seed is not None else None
    )
    print(
        f"{args.program}: {trace.n_events:,} events, "
        f"{trace.n_instructions:,} instructions, "
        f"{program.code_bytes / 1024:.0f} KB static code"
    )
    print()
    print(TraceAttributes.header())
    print(measure(trace, program).row())

    if args.out:
        write_entry(args.out, trace, digest=trace_digest(trace))
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
