"""Synthetic program synthesis.

Builds a :class:`~repro.workloads.program.SyntheticProgram` from a
:class:`~repro.workloads.profiles.WorkloadProfile`.  The construction
is fully deterministic given (profile, seed).

Shape of the generated code:

* procedure 0 is ``main``: a long loop over call sites whose callees
  are drawn from a Zipf popularity distribution over the other
  procedures — hot procedures appear at many call sites;
* every other procedure is a forward-flowing CFG of basic blocks;
  each block ends in one site (conditional, loop-back conditional,
  unconditional jump, call, indirect jump) and the last block returns;
* loops branch backward over a short run of call-free blocks, so loop
  iteration inflates only conditional-branch counts;
* all forward targets point strictly forward and loop-back branches
  terminate probabilistically, so execution always reaches the return.

Layout strategies (the §7 program-restructuring knob):

* ``natural`` — procedures laid out in popularity order (hot first),
  approximating what profile-guided procedure placement achieves;
* ``random`` — procedures shuffled, approximating link-order layout
  with poor locality.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import List, Optional, Sequence

from repro.workloads.profiles import TakenBiasClass, WorkloadProfile
from repro.workloads.program import (
    Block,
    CallSite,
    ConditionalSite,
    IndirectSite,
    LoopSite,
    Procedure,
    ReturnSite,
    Site,
    SyntheticProgram,
    UnconditionalSite,
)

_LAYOUTS = ("natural", "random")

#: maximum blocks a loop may span (keeps loop bodies call-free and short)
_MAX_LOOP_SPAN = 3

#: cap on a loop's continue probability (mean <= ~1000 iterations)
_MAX_CONTINUE_PROB = 0.999


def zipf_weights(n: int, alpha: float) -> List[float]:
    """Zipf popularity weights ``1/(k+1)**alpha`` for ``k in range(n)``,
    normalised to sum to 1."""
    if n < 1:
        raise ValueError("need at least one item")
    raw = [1.0 / (k + 1) ** alpha for k in range(n)]
    total = sum(raw)
    return [w / total for w in raw]


class _ZipfSampler:
    """Samples indices by Zipf weight, optionally restricted to a
    suffix of the index range (used for forward-only call graphs)."""

    def __init__(self, n: int, alpha: float, rng: random.Random, base: int = 0) -> None:
        self._weights = zipf_weights(n, alpha)
        self._cumulative = list(itertools.accumulate(self._weights))
        self._rng = rng
        self._n = n
        self._base = base

    def sample(self) -> int:
        """Sample from the full range (returns ``base + offset``)."""
        u = self._rng.random() * self._cumulative[-1]
        return self._base + bisect.bisect_left(self._cumulative, u)

    def sample_from(self, low: int) -> int:
        """Sample an index ``>= low`` with renormalised weights
        (*low* is an absolute index; returns an absolute index)."""
        offset = low - self._base
        if offset >= self._n:
            raise ValueError("empty suffix")
        floor = self._cumulative[offset - 1] if offset > 0 else 0.0
        u = floor + self._rng.random() * (self._cumulative[-1] - floor)
        index = bisect.bisect_left(self._cumulative, u)
        return self._base + min(index, self._n - 1)


class CallGraph:
    """Callee selection implementing the profile's call-graph shape.

    Procedures split into three bands: ``main`` (index 0), *drivers*
    (1 .. leaf_start-1, full-size bodies) and *leaves* (leaf_start ..
    n-1, small utility bodies).  Calls always target a strictly higher
    index (the graph is a DAG, so execution cannot recurse):

    * ``main`` calls drivers with Zipf popularity;
    * a driver calls a Zipf-hot leaf with probability
      ``leaf_call_bias``, otherwise a uniformly-chosen deeper driver;
    * a leaf only ever calls deeper leaves.

    Leaves being small keeps the dynamic call tree subcritical — a
    single top-level call terminates instead of swallowing the whole
    trace budget — while hot leaves concentrate dynamic branch
    executions the way real utility routines do.
    """

    def __init__(self, profile: WorkloadProfile, rng: random.Random) -> None:
        n = profile.n_procedures
        self.n = n
        self.leaf_start = max(2, min(n - 1, int(round(n * (1.0 - profile.leaf_fraction)))))
        self.leaf_call_bias = profile.leaf_call_bias
        self._rng = rng
        self._driver_sampler = _ZipfSampler(
            max(1, self.leaf_start - 1), profile.zipf_alpha, rng, base=1
        )
        self._leaf_sampler = _ZipfSampler(
            max(1, n - self.leaf_start), profile.zipf_alpha, rng, base=self.leaf_start
        )

    def is_leaf(self, proc_index: int) -> bool:
        """Whether *proc_index* falls in the leaf band."""
        return proc_index >= self.leaf_start

    def main_callee(self) -> int:
        """Callee for one of ``main``'s top-level call sites."""
        return self._driver_sampler.sample()

    def interior_callee(self, proc_index: int) -> Optional[int]:
        """Callee for a call site inside *proc_index*, or ``None`` when
        no deeper procedure exists (the site degrades to a jump)."""
        if proc_index >= self.n - 1:
            return None
        if self.is_leaf(proc_index):
            return self._leaf_sampler.sample_from(proc_index + 1)
        if (
            self._rng.random() < self.leaf_call_bias
            or proc_index + 1 >= self.leaf_start
        ):
            return self._leaf_sampler.sample()
        return self._rng.randint(proc_index + 1, self.leaf_start - 1)


def _draw_block_length(rng: random.Random, mean: float) -> int:
    """Block length: 1 + (approximately) exponential filler."""
    if mean <= 1.0:
        return 1
    return 1 + int(rng.expovariate(1.0 / (mean - 1.0)) + 0.5)


def _draw_bias_class(
    rng: random.Random, classes: Sequence[TakenBiasClass]
) -> TakenBiasClass:
    """Pick one mixture component by weight."""
    total = sum(c.weight for c in classes)
    u = rng.random() * total
    acc = 0.0
    for cls in classes:
        acc += cls.weight
        if u <= acc:
            return cls
    return classes[-1]


def _make_conditional(
    target_block: int, rng: random.Random, profile: WorkloadProfile
) -> ConditionalSite:
    """Build a conditional site from the profile's bias mixture."""
    cls = _draw_bias_class(rng, profile.taken_bias_classes)
    taken_prob = rng.uniform(cls.low, cls.high)
    if cls.correlated:
        return ConditionalSite(
            target_block=target_block,
            taken_prob=taken_prob,
            correlation_bits=rng.randint(2, 4),
            salt=rng.getrandbits(32),
        )
    return ConditionalSite(
        target_block=target_block, taken_prob=taken_prob, sticky=cls.sticky
    )


def _draw_trip_mean(rng: random.Random, profile: WorkloadProfile) -> float:
    """Mean trip count of a loop, lognormal, clamped to [1, 64]."""
    mean_iterations = rng.lognormvariate(
        profile.loop_iterations_log_mean, profile.loop_iterations_log_sigma
    )
    return min(max(1.0, mean_iterations), 64.0)


def _make_loop_site(
    head: int, rng: random.Random, profile: WorkloadProfile
) -> LoopSite:
    """Build a loop-back branch: counted (fixed trips) with probability
    ``loop_fixed_fraction``, otherwise geometric (data-dependent)."""
    mean = _draw_trip_mean(rng, profile)
    if rng.random() < profile.loop_fixed_fraction:
        return LoopSite(
            head_block=head,
            continue_prob=0.0,
            fixed_trips=max(1, int(round(mean))),
        )
    return LoopSite(
        head_block=head,
        continue_prob=min(mean / (mean + 1.0), _MAX_CONTINUE_PROB),
    )


def _emit_loop(
    blocks: List[Block],
    n_blocks: int,
    rng: random.Random,
    profile: WorkloadProfile,
) -> None:
    """Append a complete loop: 1..``_MAX_LOOP_SPAN``-1 conditional body
    blocks followed by the backward loop branch.

    Loop bodies are built from plain conditional blocks only: spanning
    calls would turn iteration into a call storm, and nesting loops
    would create multiplicative nests that swallow the whole trace
    budget.  The body conditionals are loop-carried ifs — re-executed
    every iteration — which is what keeps the taken rate of loop-heavy
    programs near the paper's 47–62 % instead of the ~95 % a bare
    loop-back branch would produce.
    """
    body = rng.randint(1, _MAX_LOOP_SPAN - 1)
    head = len(blocks)
    for _ in range(body):
        if len(blocks) >= n_blocks - 2:
            break
        index = len(blocks)
        blocks.append(
            Block(
                n_instructions=_draw_block_length(
                    rng, profile.mean_block_instructions
                ),
                site=_make_conditional(
                    _forward_target(rng, index, n_blocks), rng, profile
                ),
            )
        )
    blocks.append(
        Block(
            n_instructions=_draw_block_length(rng, profile.mean_block_instructions),
            site=_make_loop_site(head, rng, profile),
        )
    )


def _forward_target(
    rng: random.Random, current: int, n_blocks: int, reach: int = 5
) -> int:
    """A strictly-forward target block index."""
    return min(current + rng.randint(2, max(2, reach)), n_blocks - 1)


def _build_site(
    kind: str,
    blocks: List[Block],
    index: int,
    n_blocks: int,
    proc_index: int,
    rng: random.Random,
    profile: WorkloadProfile,
    call_graph: CallGraph,
) -> Site:
    """Construct one site of the requested kind; degrades gracefully
    (e.g. a call in the last procedure becomes an unconditional)."""
    if kind == "conditional":
        return _make_conditional(_forward_target(rng, index, n_blocks), rng, profile)
    if kind == "unconditional":
        return UnconditionalSite(target_block=_forward_target(rng, index, n_blocks))
    if kind == "call":
        callee = call_graph.interior_callee(proc_index)
        if callee is None:
            return UnconditionalSite(
                target_block=_forward_target(rng, index, n_blocks)
            )
        return CallSite(callee=callee)
    if kind == "indirect":
        low, high = profile.indirect_fanout
        fanout = rng.randint(low, high)
        candidates = list(range(index + 1, n_blocks))
        if not candidates:
            candidates = [n_blocks - 1]
        rng.shuffle(candidates)
        targets = sorted(candidates[: max(1, min(fanout, len(candidates)))])
        weights = zipf_weights(len(targets), profile.indirect_skew)
        rng.shuffle(weights)
        return IndirectSite(target_blocks=tuple(targets), weights=tuple(weights))
    raise ValueError(f"unknown site kind {kind!r}")


def _build_procedure(
    proc_index: int,
    name: str,
    rng: random.Random,
    profile: WorkloadProfile,
    call_graph: CallGraph,
) -> Procedure:
    """Build one non-main procedure (driver or leaf)."""
    if call_graph.is_leaf(proc_index):
        low, high = profile.leaf_blocks
    else:
        low, high = profile.blocks_per_procedure
    n_blocks = rng.randint(low, high)
    mix = profile.site_mix
    kinds = list(mix.keys())
    weights = list(mix.values())
    blocks: List[Block] = []
    while len(blocks) < n_blocks - 1:
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == "loop":
            _emit_loop(blocks, n_blocks, rng, profile)
            continue
        index = len(blocks)
        site = _build_site(
            kind,
            blocks,
            index,
            n_blocks,
            proc_index,
            rng,
            profile,
            call_graph,
        )
        blocks.append(
            Block(
                n_instructions=_draw_block_length(
                    rng, profile.mean_block_instructions
                ),
                site=site,
            )
        )
    blocks.append(
        Block(
            n_instructions=_draw_block_length(rng, profile.mean_block_instructions),
            site=ReturnSite(),
        )
    )
    return Procedure(name=name, blocks=blocks)


def _build_main(
    rng: random.Random, profile: WorkloadProfile, call_graph: CallGraph
) -> Procedure:
    """Build ``main``: a perpetual loop over Zipf-popular call sites."""
    blocks: List[Block] = []
    run_low, run_high = profile.phase_run
    callee = call_graph.main_callee()
    remaining = rng.randint(run_low, run_high)
    for _ in range(profile.main_call_sites):
        if remaining == 0:
            callee = call_graph.main_callee()
            remaining = rng.randint(run_low, run_high)
        remaining -= 1
        blocks.append(
            Block(
                n_instructions=_draw_block_length(
                    rng, profile.mean_block_instructions
                ),
                site=CallSite(callee=callee),
            )
        )
    # the driver loop back to the first call site; probability 1.0 —
    # execution length is bounded by the interpreter's budget instead
    blocks.append(Block(n_instructions=1, site=LoopSite(head_block=0, continue_prob=1.0)))
    blocks.append(Block(n_instructions=1, site=ReturnSite()))
    return Procedure(name="main", blocks=blocks)


def _assign_layout(
    program: SyntheticProgram, layout: str, rng: random.Random
) -> None:
    """Assign block addresses, placing procedures in layout order.

    Only *addresses* change: procedure indices (used by call sites)
    stay stable.  ``natural`` places procedures in popularity order
    (main, then hottest first); ``random`` shuffles the placement.
    """
    order = list(range(len(program.procedures)))
    if layout == "random":
        tail = order[1:]
        rng.shuffle(tail)
        order[1:] = tail
    address = program.base_address
    for index in order:
        for block in program.procedures[index].blocks:
            block.address = address
            address += block.size_bytes


def build_program(
    profile: WorkloadProfile,
    layout: str = "natural",
    seed: Optional[int] = None,
) -> SyntheticProgram:
    """Build the synthetic program for *profile*.

    *layout* selects the procedure-placement strategy (``natural`` or
    ``random``); *seed* overrides the profile's default seed.
    """
    if layout not in _LAYOUTS:
        raise ValueError(f"unknown layout {layout!r}; expected one of {_LAYOUTS}")
    rng = random.Random(profile.seed if seed is None else seed)
    call_graph = CallGraph(profile, rng)
    procedures = [_build_main(rng, profile, call_graph)]
    for proc_index in range(1, profile.n_procedures):
        procedures.append(
            _build_procedure(
                proc_index, f"proc_{proc_index:04d}", rng, profile, call_graph
            )
        )
    program = SyntheticProgram(name=profile.name, procedures=procedures, main=0)
    _assign_layout(program, layout, rng)
    program.check()
    return program
