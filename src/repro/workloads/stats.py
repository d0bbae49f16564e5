"""Trace attribute measurement — reproduces the columns of Table 1.

Given a trace (and optionally its program, for static site counts)
this module computes exactly what Table 1 of the paper reports:
instruction count, break density, the Q-50/90/99/100 dynamic
concentration quantiles of conditional branches, static conditional
site counts, the conditional taken rate, and the break-type mix.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional

from repro.isa.branches import BranchKind
from repro.workloads.program import SyntheticProgram
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class TraceAttributes:
    """One row of Table 1."""

    name: str
    instructions: int
    pct_breaks: float
    q50: int
    q90: int
    q99: int
    q100: int
    static_conditionals: Optional[int]
    pct_taken: float
    pct_cbr: float
    pct_ij: float
    pct_br: float
    pct_call: float
    pct_ret: float

    def row(self) -> str:
        """Format as a Table 1 row."""
        static = "-" if self.static_conditionals is None else str(self.static_conditionals)
        return (
            f"{self.name:<10} {self.instructions:>13,} {self.pct_breaks:>7.2f} "
            f"{self.q50:>6} {self.q90:>6} {self.q99:>6} {self.q100:>7} "
            f"{static:>7} {self.pct_taken:>7.2f} "
            f"{self.pct_cbr:>6.2f} {self.pct_ij:>5.2f} {self.pct_br:>5.2f} "
            f"{self.pct_call:>6.2f} {self.pct_ret:>6.2f}"
        )

    @staticmethod
    def header() -> str:
        """Column header matching :meth:`row`."""
        return (
            f"{'program':<10} {'#insns':>13} {'%brks':>7} "
            f"{'Q-50':>6} {'Q-90':>6} {'Q-99':>6} {'Q-100':>7} "
            f"{'static':>7} {'%taken':>7} "
            f"{'%CBr':>6} {'%IJ':>5} {'%Br':>5} {'%Call':>6} {'%Ret':>6}"
        )


def _quantile_sites(counts: Counter, fraction: float) -> int:
    """Number of most-frequent sites covering *fraction* of executions."""
    total = sum(counts.values())
    if total == 0:
        return 0
    threshold = total * fraction
    covered = 0
    for n_sites, (_, count) in enumerate(counts.most_common(), start=1):
        covered += count
        if covered >= threshold:
            return n_sites
    return len(counts)


@dataclass(frozen=True)
class TraceFootprint:
    """Static/dynamic footprint of a trace against a line size."""

    distinct_lines: int
    distinct_branch_sites: int
    code_bytes_touched: int

    def lines_for_cache_kb(self, line_bytes: int = 32) -> float:
        """Cache size (KB) needed to hold every touched line."""
        return self.distinct_lines * line_bytes / 1024.0


def footprint(trace: Trace, line_bytes: int = 32) -> TraceFootprint:
    """Measure the instruction footprint of *trace*.

    ``distinct_lines`` drives the I-cache miss behaviour (and hence
    the NLS displacement misfetches): a footprint much larger than the
    cache produces the gcc/cfront behaviour of §7, a small one the
    doduc/espresso behaviour.
    """
    mask = ~(line_bytes - 1)
    lines = set()
    sites = set()
    starts = trace.starts.tolist()
    counts = trace.counts.tolist()
    kinds = trace.kinds.tolist()
    not_a_branch = int(BranchKind.NOT_A_BRANCH)
    for index in range(len(starts)):
        start = starts[index]
        end = start + (counts[index] - 1) * 4
        line = start & mask
        last = end & mask
        while True:
            lines.add(line)
            if line == last:
                break
            line += line_bytes
        if kinds[index] != not_a_branch:
            sites.add(end)
    return TraceFootprint(
        distinct_lines=len(lines),
        distinct_branch_sites=len(sites),
        code_bytes_touched=len(lines) * line_bytes,
    )


def measure(
    trace: Trace, program: Optional[SyntheticProgram] = None
) -> TraceAttributes:
    """Measure Table 1 attributes of *trace*.

    When *program* is given its static conditional-site count is
    reported too (the trace alone can only see executed sites).
    """
    kind_counts: Dict[int, int] = {int(kind): 0 for kind in BranchKind}
    conditional_executions: Counter = Counter()
    taken_conditionals = 0
    total_conditionals = 0

    kinds = trace.kinds.tolist()
    takens = trace.takens.tolist()
    starts = trace.starts.tolist()
    counts = trace.counts.tolist()
    conditional = int(BranchKind.CONDITIONAL)
    for index in range(len(kinds)):
        kind = kinds[index]
        kind_counts[kind] += 1
        if kind == conditional:
            pc = starts[index] + (counts[index] - 1) * 4
            conditional_executions[pc] += 1
            total_conditionals += 1
            if takens[index]:
                taken_conditionals += 1

    n_instructions = trace.n_instructions
    n_breaks = sum(
        count
        for kind, count in kind_counts.items()
        if kind != int(BranchKind.NOT_A_BRANCH)
    )

    def pct_of_breaks(kind: BranchKind) -> float:
        """Share of executed breaks that are *kind*, in percent."""
        if n_breaks == 0:
            return 0.0
        return 100.0 * kind_counts[int(kind)] / n_breaks

    static_conditionals: Optional[int] = None
    if program is not None:
        static_conditionals = program.static_site_counts().get(
            BranchKind.CONDITIONAL, 0
        )

    return TraceAttributes(
        name=trace.name,
        instructions=n_instructions,
        pct_breaks=100.0 * n_breaks / n_instructions if n_instructions else 0.0,
        q50=_quantile_sites(conditional_executions, 0.50),
        q90=_quantile_sites(conditional_executions, 0.90),
        q99=_quantile_sites(conditional_executions, 0.99),
        q100=len(conditional_executions),
        static_conditionals=static_conditionals,
        pct_taken=(
            100.0 * taken_conditionals / total_conditionals
            if total_conditionals
            else 0.0
        ),
        pct_cbr=pct_of_breaks(BranchKind.CONDITIONAL),
        pct_ij=pct_of_breaks(BranchKind.INDIRECT),
        pct_br=pct_of_breaks(BranchKind.UNCONDITIONAL),
        pct_call=pct_of_breaks(BranchKind.CALL),
        pct_ret=pct_of_breaks(BranchKind.RETURN),
    )
