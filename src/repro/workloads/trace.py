"""Block-compressed instruction traces.

A trace is a sequence of *events*; each event is one dynamic basic
block — a run of sequential instructions ending in (at most) one
break.  Block compression keeps pure-Python simulation tractable: the
fetch engine touches each event once instead of once per instruction.

Consistency invariants (checked by :meth:`Trace.validate` and relied
on by every simulator):

* ``branch_pc(i) == starts[i] + (counts[i] - 1) * 4`` — the break is
  the last instruction of its block;
* if event *i* is a taken branch, ``starts[i+1] == targets[i]``;
* if event *i* is a not-taken conditional, ``starts[i+1] ==
  branch_pc(i) + 4`` (the fall-through);
* returns transfer to the address following their matching call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from repro.isa.branches import BranchKind
from repro.isa.geometry import INSTRUCTION_BYTES


@dataclass(frozen=True)
class TraceEvent:
    """One dynamic basic block (a materialised view of a trace row)."""

    start: int
    count: int
    kind: BranchKind
    taken: bool
    target: int

    @property
    def branch_pc(self) -> int:
        """Address of the block's final (break) instruction."""
        return self.start + (self.count - 1) * INSTRUCTION_BYTES

    @property
    def fall_through(self) -> int:
        """Address of the instruction after the break."""
        return self.branch_pc + INSTRUCTION_BYTES


#: dtypes of the packed (structured-array) trace representation; the
#: on-disk ``.npz`` cache stores exactly these columns, so a loaded
#: trace hands the fast engine its arrays without any repacking
PACKED_DTYPES = {
    "starts": np.int64,
    "counts": np.int64,
    "kinds": np.int8,
    "takens": np.bool_,
    "targets": np.int64,
}


class Trace:
    """A block-compressed trace.

    Columns are plain Python lists (fast scalar access in the
    reference simulation loop); :meth:`packed` exposes the same
    columns as a memoised dict of NumPy arrays — the representation
    the vectorised fast engine replays — and :meth:`to_arrays`
    exports fresh copies for ad-hoc analysis.
    """

    __slots__ = ("starts", "counts", "kinds", "takens", "targets", "name", "_packed")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.starts: List[int] = []
        self.counts: List[int] = []
        self.kinds: List[int] = []
        self.takens: List[bool] = []
        #: taken-target address of the block's break (0 for non-breaks);
        #: recorded even when a conditional executes not-taken, so
        #: target-sensitive predictors (e.g. BTFNT) can be simulated.
        self.targets: List[int] = []
        #: memoised packed (NumPy) view; invalidated by :meth:`append`
        self._packed: Optional[dict] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def append(
        self,
        start: int,
        count: int,
        kind: BranchKind = BranchKind.NOT_A_BRANCH,
        taken: bool = False,
        target: int = 0,
    ) -> None:
        """Append one block event."""
        if count < 1:
            raise ValueError(f"a block must contain at least one instruction: {count}")
        if start % INSTRUCTION_BYTES:
            raise ValueError(f"block start {start:#x} is not instruction-aligned")
        self.starts.append(start)
        self.counts.append(count)
        self.kinds.append(int(kind))
        self.takens.append(bool(taken))
        self.targets.append(target)
        self._packed = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_events(self) -> int:
        """Number of block events."""
        return len(self.starts)

    @property
    def n_instructions(self) -> int:
        """Total dynamic instruction count."""
        return sum(self.counts)

    @property
    def n_breaks(self) -> int:
        """Number of executed break instructions."""
        return sum(1 for k in self.kinds if k != BranchKind.NOT_A_BRANCH)

    def event(self, index: int) -> TraceEvent:
        """Materialise event *index* as a :class:`TraceEvent`."""
        return TraceEvent(
            start=self.starts[index],
            count=self.counts[index],
            kind=BranchKind(self.kinds[index]),
            taken=self.takens[index],
            target=self.targets[index],
        )

    def events(self) -> Iterator[TraceEvent]:
        """Iterate over all events as :class:`TraceEvent` objects."""
        for index in range(len(self.starts)):
            yield self.event(index)

    def branch_pc(self, index: int) -> int:
        """Address of the break instruction of event *index*."""
        return self.starts[index] + (self.counts[index] - 1) * INSTRUCTION_BYTES

    def packed(self) -> dict:
        """Return the trace columns as a memoised dict of NumPy arrays.

        This is the representation the vectorised fast engine replays
        (dtypes per :data:`PACKED_DTYPES`).  The arrays are built once
        and cached on the trace; :meth:`append` invalidates the cache.
        Callers must treat the arrays as read-only.
        """
        if self._packed is None:
            self._packed = {
                name: np.asarray(getattr(self, name), dtype=dtype)
                for name, dtype in PACKED_DTYPES.items()
            }
        return self._packed

    def to_arrays(self) -> dict:
        """Export the trace columns as fresh NumPy array copies."""
        return {name: array.copy() for name, array in self.packed().items()}

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Save the trace (its packed form) to an ``.npz`` file."""
        np.savez_compressed(path, name=np.asarray(self.name), **self.packed())

    @classmethod
    def from_packed(cls, packed, name: str = "") -> "Trace":
        """Build a trace from packed columns (a mapping holding every
        :data:`PACKED_DTYPES` column).

        The arrays seed both the list columns (via ``ndarray.tolist()``,
        much faster than per-element conversion) and the memoised
        :meth:`packed` view, so the trace is immediately ready for the
        fast engine.
        """
        trace = cls(name=name)
        trace._packed = {
            column: np.asarray(packed[column], dtype=dtype)
            for column, dtype in PACKED_DTYPES.items()
        }
        for column, array in trace._packed.items():
            setattr(trace, column, array.tolist())
        return trace

    @classmethod
    def load(cls, path: str) -> "Trace":
        """Load a trace previously written by :meth:`save`."""
        data = np.load(path, allow_pickle=False)
        return cls.from_packed(data, name=str(data["name"]))

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the control-flow consistency invariants; raises
        ``ValueError`` on the first violation."""
        not_a_branch = int(BranchKind.NOT_A_BRANCH)
        for i in range(len(self.starts) - 1):
            kind = self.kinds[i]
            branch_pc = self.branch_pc(i)
            next_start = self.starts[i + 1]
            if kind == not_a_branch or not self.takens[i]:
                expected = branch_pc + INSTRUCTION_BYTES
                if next_start != expected:
                    raise ValueError(
                        f"event {i}: fall-through to {next_start:#x}, "
                        f"expected {expected:#x}"
                    )
            else:
                if next_start != self.targets[i]:
                    raise ValueError(
                        f"event {i}: taken branch to {next_start:#x}, "
                        f"recorded target {self.targets[i]:#x}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, events={self.n_events}, "
            f"instructions={self.n_instructions})"
        )
