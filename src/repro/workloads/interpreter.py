"""CFG interpreter: executes a synthetic program into a trace.

The interpreter walks the program's basic blocks with a seeded RNG,
maintaining a call stack, and emits one block-compressed trace event
per executed block.  All control transfers are *consistent* — the next
event always starts where the previous one's break actually went —
which :meth:`repro.workloads.trace.Trace.validate` can verify.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.isa.branches import BranchKind
from repro.workloads.program import (
    CallSite,
    ConditionalSite,
    IndirectSite,
    LoopSite,
    ReturnSite,
    SyntheticProgram,
    UnconditionalSite,
)
from repro.workloads.trace import Trace


class _IndirectChooser:
    """Per-site cumulative weights for indirect-target selection."""

    __slots__ = ("cumulative", "targets")

    def __init__(self, site: IndirectSite) -> None:
        total = 0.0
        self.cumulative: List[float] = []
        for weight in site.weights:
            total += weight
            self.cumulative.append(total)
        self.targets = list(site.target_blocks)

    def choose(self, rng: random.Random) -> int:
        """Draw one target block index by the site's weights."""
        u = rng.random() * self.cumulative[-1]
        for position, threshold in enumerate(self.cumulative):
            if u <= threshold:
                return self.targets[position]
        return self.targets[-1]


def execute(
    program: SyntheticProgram,
    instructions: int,
    seed: int = 0,
    name: Optional[str] = None,
    profile_indirect_repeat: Optional[float] = None,
) -> Trace:
    """Execute *program* for about *instructions* dynamic instructions.

    The budget is checked at block granularity, so the trace may
    overshoot by at most one block.  Execution is deterministic given
    (*program*, *seed*).  *profile_indirect_repeat* sets the sticky
    indirect-target probability (defaults to 0.60).
    """
    if instructions < 1:
        raise ValueError("instruction budget must be positive")
    rng = random.Random(seed)
    starts: List[int] = []
    counts: List[int] = []
    kinds: List[int] = []
    takens: List[bool] = []
    targets: List[int] = []
    procedures = program.procedures
    # resume points: (procedure index, block index)
    stack: List[Tuple[int, int]] = []
    choosers: dict = {}

    proc_index = program.main
    block_index = 0
    emitted = 0
    loop_counters: dict = {}
    last_indirect: dict = {}
    last_outcome: dict = {}
    ghist = 0  # global history of conditional outcomes (1 = taken)
    indirect_repeat = (
        profile_indirect_repeat if profile_indirect_repeat is not None else 0.60
    )

    while emitted < instructions:
        procedure = procedures[proc_index]
        block = procedure.blocks[block_index]
        site = block.site
        blocks = procedure.blocks

        if isinstance(site, ConditionalSite):
            kind = BranchKind.CONDITIONAL
            target = blocks[site.target_block].address
            if site.correlation_bits:
                # outcome is a salted hash of the recent global
                # conditional history: deterministic per history value,
                # Bernoulli(taken_prob) across history values
                window = ghist & ((1 << site.correlation_bits) - 1)
                h = ((window ^ site.salt) * 0x9E3779B1) & 0xFFFFFFFF
                taken = ((h >> 16) & 0xFFFF) < site.taken_prob * 65536.0
            elif site.sticky:
                site_key = id(site)
                last = last_outcome.get(site_key)
                if last is not None and rng.random() < site.sticky:
                    taken = last
                else:
                    taken = rng.random() < site.taken_prob
                last_outcome[site_key] = taken
            else:
                taken = rng.random() < site.taken_prob
            next_state = (
                (proc_index, site.target_block)
                if taken
                else (proc_index, block_index + 1)
            )
        elif isinstance(site, LoopSite):
            kind = BranchKind.CONDITIONAL
            target = blocks[site.head_block].address
            if site.fixed_trips is not None:
                # counted loop: the branch executes fixed_trips times
                # per loop entry (taken on all but the last)
                site_key = id(site)
                remaining = loop_counters.get(site_key)
                if remaining is None:
                    remaining = site.fixed_trips
                remaining -= 1
                taken = remaining > 0
                if taken:
                    loop_counters[site_key] = remaining
                else:
                    loop_counters.pop(site_key, None)
            else:
                taken = rng.random() < site.continue_prob
            next_state = (
                (proc_index, site.head_block)
                if taken
                else (proc_index, block_index + 1)
            )
        elif isinstance(site, CallSite):
            kind = BranchKind.CALL
            target = procedures[site.callee].entry
            taken = True
            stack.append((proc_index, block_index + 1))
            next_state = (site.callee, 0)
        elif isinstance(site, ReturnSite):
            kind = BranchKind.RETURN
            taken = True
            if stack:
                resume_proc, resume_block = stack.pop()
                target = procedures[resume_proc].blocks[resume_block].address
                next_state = (resume_proc, resume_block)
            else:
                # main returned: emit the final event and stop
                target, next_state = 0, None
        elif isinstance(site, UnconditionalSite):
            kind = BranchKind.UNCONDITIONAL
            target = blocks[site.target_block].address
            taken = True
            next_state = (proc_index, site.target_block)
        elif isinstance(site, IndirectSite):
            kind = BranchKind.INDIRECT
            chooser_key = id(site)
            # sticky targets: real indirect jumps (virtual calls,
            # interpreter dispatch) repeat their previous destination
            # far more often than an i.i.d. draw would
            last = last_indirect.get(chooser_key)
            if last is not None and rng.random() < indirect_repeat:
                chosen = last
            else:
                chooser = choosers.get(chooser_key)
                if chooser is None:
                    chooser = _IndirectChooser(site)
                    choosers[chooser_key] = chooser
                chosen = chooser.choose(rng)
                last_indirect[chooser_key] = chosen
            target = blocks[chosen].address
            taken = True
            next_state = (proc_index, chosen)
        else:  # pragma: no cover - the site union is closed
            raise TypeError(f"unknown site type {type(site).__name__}")

        if kind == BranchKind.CONDITIONAL:
            ghist = ((ghist << 1) | int(taken)) & 0xFFFF

        starts.append(block.address)
        counts.append(block.n_instructions)
        kinds.append(int(kind))
        takens.append(taken)
        targets.append(target)
        if next_state is None:
            break
        emitted += block.n_instructions
        proc_index, block_index = next_state

    return Trace(
        name if name is not None else program.name,
        starts=starts,
        counts=counts,
        kinds=kinds,
        takens=takens,
        targets=targets,
    )
