"""Block-compressed instruction traces.

A trace is a sequence of *events*; each event is one dynamic basic
block — a run of sequential instructions ending in (at most) one
break.  Block compression keeps pure-Python simulation tractable: the
fetch engine touches each event once instead of once per instruction.

A :class:`Trace` is its five packed columns (:data:`PACKED_DTYPES`):
read-only NumPy arrays, built once by the constructor and shared by
every reader — the vectorised fast engine, the trace store and its
content digest.  There is no second copy: a reader that wants Python
lists (the reference engine's scalar loop, the format writers) builds
them from the columns itself.

Consistency invariants (checked by :meth:`Trace.validate` and relied
on by every simulator):

* ``branch_pc(i) == starts[i] + (counts[i] - 1) * 4`` is the address
  of event *i*'s break — the last instruction of its block;
* if event *i* is a taken branch, ``starts[i+1] == targets[i]``;
* if event *i* is a not-taken conditional, ``starts[i+1] ==
  branch_pc(i) + 4`` (the fall-through);
* returns transfer to the address following their matching call.
"""

from __future__ import annotations

import numpy as np

from repro.isa.branches import BranchKind
from repro.isa.geometry import INSTRUCTION_BYTES


#: dtypes of the trace columns; the on-disk ``.npz`` store holds
#: exactly these columns, so a loaded trace hands the fast engine its
#: arrays without any repacking
PACKED_DTYPES = {
    "starts": np.int64,
    "counts": np.int64,
    "kinds": np.int8,
    "takens": np.bool_,
    "targets": np.int64,
}


class Trace:
    """A block-compressed trace: a name and five read-only columns.

    ``targets`` holds the taken-target address of each block's break
    (0 for non-breaks); it is recorded even when a conditional
    executes not-taken, so target-sensitive predictors (e.g. BTFNT)
    can be simulated.
    """

    __slots__ = ("name",) + tuple(PACKED_DTYPES)

    def __init__(
        self,
        name: str = "",
        *,
        starts=(),
        counts=(),
        kinds=(),
        takens=(),
        targets=(),
    ) -> None:
        """Cast each column to its :data:`PACKED_DTYPES` dtype (no copy
        when it already has it) and mark it read-only.

        Raises ``ValueError`` when the columns differ in length, or on
        the first block that is empty or not instruction-aligned.
        """
        self.name = name
        given = dict(
            starts=starts, counts=counts, kinds=kinds, takens=takens, targets=targets
        )
        for column, dtype in PACKED_DTYPES.items():
            array = np.asarray(given[column], dtype=dtype)
            array.flags.writeable = False
            setattr(self, column, array)
        if len({len(getattr(self, column)) for column in PACKED_DTYPES}) > 1:
            raise ValueError("trace columns differ in length")
        empty = self.counts < 1
        bad = empty | (self.starts % INSTRUCTION_BYTES != 0)
        if bad.any():
            i = int(np.argmax(bad))
            if empty[i]:
                raise ValueError(
                    "a block must contain at least one instruction: "
                    f"{int(self.counts[i])}"
                )
            raise ValueError(
                f"block start {int(self.starts[i]):#x} is not instruction-aligned"
            )

    @classmethod
    def from_packed(cls, packed, name: str = "") -> "Trace":
        """Build a trace from a mapping holding every
        :data:`PACKED_DTYPES` column (e.g. a loaded ``.npz``)."""
        return cls(name, **{column: packed[column] for column in PACKED_DTYPES})

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
        return int(self.counts.sum())

    @property
    def n_breaks(self) -> int:
        """Number of executed break instructions."""
        return int(np.count_nonzero(self.kinds != int(BranchKind.NOT_A_BRANCH)))

    def packed(self) -> dict:
        """The columns by name (dtypes per :data:`PACKED_DTYPES`): the
        trace's own read-only arrays, the same on every call."""
        return {column: getattr(self, column) for column in PACKED_DTYPES}

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check the control-flow consistency invariants; raises
        ``ValueError`` on the first violation."""
        taken = (self.kinds != int(BranchKind.NOT_A_BRANCH)) & self.takens
        fall_through = self.starts + self.counts * INSTRUCTION_BYTES
        expected = np.where(taken, self.targets, fall_through)[:-1]
        following = self.starts[1:]
        bad = following != expected
        if not bad.any():
            return
        i = int(np.argmax(bad))
        if taken[i]:
            raise ValueError(
                f"event {i}: taken branch to {int(following[i]):#x}, "
                f"recorded target {int(self.targets[i]):#x}"
            )
        raise ValueError(
            f"event {i}: fall-through to {int(following[i]):#x}, "
            f"expected {int(expected[i]):#x}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace({self.name!r}, events={self.n_events}, "
            f"instructions={self.n_instructions})"
        )
