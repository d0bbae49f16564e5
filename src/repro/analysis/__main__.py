"""Analysis CLI: breakdowns, capacity curves and sensitivity sweeps.

Examples::

    python -m repro.analysis breakdown --program gcc
    python -m repro.analysis capacity --program gcc --structure nls
    python -m repro.analysis sensitivity --program cfront
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.breakdown import format_breakdown, penalty_breakdown
from repro.analysis.capacity import (
    btb_capacity_curve,
    format_capacity_curve,
    nls_capacity_curve,
)
from repro.analysis.sensitivity import format_sensitivity, penalty_sensitivity
from repro.harness.config import ArchitectureConfig
from repro.harness.runner import simulate
from repro.workloads.profiles import paper_programs


def main(argv: Optional[List[str]] = None) -> int:
    """Run one analysis tool from the command line; returns the exit status."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Analysis tools over the NLS/BTB simulator.",
    )
    parser.add_argument("tool", choices=("breakdown", "capacity", "sensitivity"))
    parser.add_argument(
        "--program", choices=list(paper_programs()), default="gcc"
    )
    parser.add_argument("--instructions", type=int, default=None)
    parser.add_argument(
        "--frontend",
        default="nls-table",
        help="front-end for the breakdown tool (default nls-table)",
    )
    parser.add_argument(
        "--structure",
        choices=("nls", "btb"),
        default="nls",
        help="which capacity curve to trace",
    )
    args = parser.parse_args(argv)

    if args.tool == "breakdown":
        config = ArchitectureConfig(frontend=args.frontend, cache_kb=16)
        report = simulate(config, args.program, instructions=args.instructions)
        print(f"{config.label()} on {args.program}")
        print()
        print(format_breakdown(penalty_breakdown(report)))
    elif args.tool == "capacity":
        if args.structure == "nls":
            points = nls_capacity_curve(
                args.program, instructions=args.instructions
            )
            title = f"NLS-table capacity curve on {args.program}"
        else:
            points = btb_capacity_curve(
                args.program, instructions=args.instructions
            )
            title = f"BTB capacity curve on {args.program}"
        print(format_capacity_curve(points, title=title))
    else:
        points = penalty_sensitivity(
            args.program, instructions=args.instructions
        )
        print(
            format_sensitivity(
                points,
                title=(
                    f"1024 NLS-table vs 128 BTB on {args.program} across "
                    "penalty models"
                ),
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
