"""Multi-issue fetch-bandwidth model (§8 extension).

The paper evaluates a single-issue machine and closes with "nothing in
the design of the NLS architecture appears to be a problem for
wide-issue architectures".  This module supplies the missing piece of
that argument: a fetch-bandwidth model that converts a trace plus a
simulation report into cycles for a W-wide front end, so the BEP's
*relative* cost can be studied as issue width grows.

Model: the fetch unit delivers up to ``width`` sequential instructions
per cycle, never crossing an instruction-cache line boundary (a single
line read per cycle), and a basic block always starts a new fetch
group (the preceding break redirected fetch).  Penalty cycles (misfetch
bubbles, mispredict bubbles, I-cache miss stalls) are added on top,
exactly as in the single-issue CPI, but the useful work per cycle is
now ``width`` instructions — which is what makes breaks "more likely
to occur as more instructions are fetched per cycle" (§1) hurt more.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.geometry import INSTRUCTION_BYTES
from repro.metrics.report import SimulationReport
from repro.workloads.trace import Trace


@dataclass(frozen=True)
class MultiIssueReport:
    """Cycle accounting of one simulation at a given fetch width."""

    width: int
    n_instructions: int
    fetch_cycles: int
    penalty_cycles: float

    @property
    def total_cycles(self) -> float:
        """Fetch cycles plus penalty bubbles."""
        return self.fetch_cycles + self.penalty_cycles

    @property
    def ipc(self) -> float:
        """Instructions retired per cycle."""
        if self.total_cycles == 0:
            return 0.0
        return self.n_instructions / self.total_cycles

    @property
    def fetch_efficiency(self) -> float:
        """Fraction of the ideal ``width``-per-cycle bandwidth achieved
        by fetch alone (ignoring penalties): exposes the fragmentation
        from short blocks and line boundaries."""
        if self.fetch_cycles == 0:
            return 0.0
        return self.n_instructions / (self.fetch_cycles * self.width)


class FetchBandwidthModel:
    """Counts fetch cycles for a block-compressed trace at width W."""

    def __init__(self, width: int, line_bytes: int = 32) -> None:
        if width < 1:
            raise ValueError("fetch width must be at least 1")
        if line_bytes < INSTRUCTION_BYTES or line_bytes & (line_bytes - 1):
            raise ValueError("line_bytes must be a power of two >= 4")
        self.width = width
        self.line_bytes = line_bytes
        self._line_instructions = line_bytes // INSTRUCTION_BYTES

    def block_fetch_cycles(self, start: int, count: int) -> int:
        """Fetch cycles for one basic block starting at *start*.

        Each cycle fetches ``min(width, instructions left in the
        line)`` instructions; the block's first fetch group starts at
        its entry point (the previous break redirected fetch there).
        """
        width = self.width
        line_instructions = self._line_instructions
        offset = (start // INSTRUCTION_BYTES) % line_instructions
        remaining = count
        cycles = 0
        while remaining > 0:
            in_line = line_instructions - offset
            grabbed = min(width, in_line, remaining)
            remaining -= grabbed
            cycles += 1
            offset = (offset + grabbed) % line_instructions
        return cycles

    def fetch_cycles(self, trace: Trace) -> int:
        """Total fetch cycles over the whole trace."""
        starts = trace.starts.tolist()
        counts = trace.counts.tolist()
        total = 0
        block_cycles = self.block_fetch_cycles
        for index in range(len(starts)):
            total += block_cycles(starts[index], counts[index])
        return total

    def evaluate(self, trace: Trace, report: SimulationReport) -> MultiIssueReport:
        """Combine this model's fetch cycles with *report*'s penalty
        events into a :class:`MultiIssueReport`.

        *report* must come from a full-trace run (``warmup_fraction``
        0) of the same trace so the instruction populations match.
        """
        if report.n_instructions != trace.n_instructions:
            raise ValueError(
                "report and trace cover different instruction counts "
                f"({report.n_instructions} vs {trace.n_instructions}); "
                "run the engine with warmup_fraction=0"
            )
        penalties = (
            report.misfetches * report.penalties.misfetch
            + report.mispredicts * report.penalties.mispredict
            + report.icache_misses * report.penalties.icache_miss
        )
        return MultiIssueReport(
            width=self.width,
            n_instructions=trace.n_instructions,
            fetch_cycles=self.fetch_cycles(trace),
            penalty_cycles=penalties,
        )
