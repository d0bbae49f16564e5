"""Tests for the block-compressed trace container."""

import numpy as np
import pytest

from repro.isa.branches import BranchKind
from repro.workloads.corpus import generate_trace
from repro.workloads.ingest import read_entry, trace_digest, write_entry
from repro.workloads.trace import PACKED_DTYPES, Trace
from tests.conftest import make_trace

#: ``trace_digest`` of generated traces at 20k instructions; a change of
#: column dtype, column order or content changes them
PINNED_DIGESTS = {
    "li": "78e28bdd1af824bd247b5b0fe662a928cd99e2578fd5effcdb64784a66bde1a5",
    "gcc": "2fe75864a3290a9720b91eedce95439a2b01c6f97c135a5a8c4606c98abc5c56",
    "doduc": "8a09a29b430675aa9ea25fe9c5dba7a3116cdd7b6065ff0fad00678e8cf886c5",
    "server-leaf": "b76f637497503e3c45affe7853600cda47a70947d78a0996b2c1faad2dfe7943",
}


class TestAppendAndAccess:
    def test_counts(self):
        trace = make_trace(
            [
                (0x1000, 4, BranchKind.CALL, True, 0x2000),
                (0x2000, 3, BranchKind.RETURN, True, 0x1010),
            ],
            "t",
        )
        assert trace.n_events == 2
        assert len(trace) == 2
        assert trace.n_instructions == 7
        assert trace.n_breaks == 2

    def test_non_branch_events_counted(self):
        trace = make_trace([(0x1000, 10)], "t")
        assert trace.n_breaks == 0

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            make_trace([(0x1000, 0)], "t")

    def test_rejects_unaligned_start(self):
        with pytest.raises(ValueError):
            make_trace([(0x1001, 1)], "t")


class TestConstructor:
    def test_zero_count_names_the_first_offending_block(self):
        with pytest.raises(
            ValueError, match="^a block must contain at least one instruction: 0$"
        ):
            make_trace([(0x1000, 4), (0x1010, 0), (0x1011, 1)], "t")

    def test_misaligned_start_names_the_first_offending_block(self):
        with pytest.raises(
            ValueError, match="^block start 0x1002 is not instruction-aligned$"
        ):
            make_trace([(0x1000, 4), (0x1002, 1), (0x1000, 0)], "t")

    def test_columns_must_match_in_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            Trace("t", starts=[0x1000], counts=[1, 2], kinds=[0], takens=[0])

    def test_packed_columns_are_read_only(self):
        trace = make_trace([(0x1000, 4, BranchKind.CALL, True, 0x2000)], "t")
        for column, array in trace.packed().items():
            assert array.dtype == PACKED_DTYPES[column]
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    def test_empty_trace_builds(self):
        trace = Trace("empty")
        assert len(trace) == 0
        assert trace.n_instructions == 0
        assert trace.n_breaks == 0
        trace.validate()
        assert all(len(array) == 0 for array in trace.packed().values())

    def test_from_packed_shares_the_columns(self):
        trace = make_trace([(0x1000, 4, BranchKind.CALL, True, 0x2000)], "t")
        again = Trace.from_packed(trace.packed(), name="again")
        assert again.name == "again"
        for column, array in again.packed().items():
            assert array is trace.packed()[column]

    @pytest.mark.parametrize("program", sorted(PINNED_DIGESTS))
    def test_trace_digest_is_pinned(self, program):
        trace = generate_trace(program, instructions=20_000)
        assert trace_digest(trace) == PINNED_DIGESTS[program]


class TestValidation:
    def test_valid_taken_chain(self):
        trace = make_trace(
            [
                (0x1000, 4, BranchKind.UNCONDITIONAL, True, 0x2000),
                (0x2000, 4, BranchKind.UNCONDITIONAL, True, 0x1000),
            ],
            "t",
        )
        trace.validate()

    def test_valid_fall_through(self):
        trace = make_trace(
            [(0x1000, 4, BranchKind.CONDITIONAL, False, 0x9000), (0x1010, 4)], "t"
        )
        trace.validate()

    def test_detects_broken_taken_edge(self):
        trace = make_trace(
            [(0x1000, 4, BranchKind.UNCONDITIONAL, True, 0x2000), (0x3000, 4)], "t"
        )
        with pytest.raises(ValueError):
            trace.validate()

    def test_detects_broken_fall_through(self):
        trace = make_trace(
            [(0x1000, 4, BranchKind.CONDITIONAL, False, 0x9000), (0x2000, 4)], "t"
        )
        with pytest.raises(ValueError):
            trace.validate()

    def test_non_branch_must_fall_through(self):
        trace = make_trace([(0x1000, 4), (0x2000, 4)], "t")
        with pytest.raises(ValueError):
            trace.validate()

    def test_final_event_unconstrained(self):
        trace = make_trace([(0x1000, 4, BranchKind.RETURN, True, 0)], "t")
        trace.validate()  # no successor to check

    def test_messages_name_the_first_violation(self):
        trace = make_trace(
            [
                (0x1000, 4, BranchKind.UNCONDITIONAL, True, 0x2000),
                (0x2000, 4, BranchKind.CONDITIONAL, False, 0x9000),
                (0x2010, 4, BranchKind.UNCONDITIONAL, True, 0x3000),
                (0x4000, 4),
                (0x5000, 4),
            ],
            "t",
        )
        message = "^event 2: taken branch to 0x4000, recorded target 0x3000$"
        with pytest.raises(ValueError, match=message):
            trace.validate()
        trace = make_trace([(0x1000, 4), (0x1010, 2), (0x2000, 1)], "t")
        with pytest.raises(
            ValueError, match="^event 1: fall-through to 0x2000, expected 0x1018$"
        ):
            trace.validate()


def _scalar_validate(trace):
    """The per-event loop ``Trace.validate`` replaced: its message for
    the first violation, or ``None``."""
    starts, counts, kinds, takens, targets = (
        column.tolist() for column in trace.packed().values()
    )
    for i in range(len(starts) - 1):
        following = starts[i + 1]
        if kinds[i] == int(BranchKind.NOT_A_BRANCH) or not takens[i]:
            expected = starts[i] + counts[i] * 4
            if following != expected:
                return (
                    f"event {i}: fall-through to {following:#x}, "
                    f"expected {expected:#x}"
                )
        elif following != targets[i]:
            return (
                f"event {i}: taken branch to {following:#x}, "
                f"recorded target {targets[i]:#x}"
            )
    return None


@pytest.mark.parametrize("moved", [None, 1, 2, 3, 500, 1999])
def test_validate_matches_the_scalar_loop(moved):
    trace = generate_trace("li", instructions=20_000)
    starts = trace.starts.copy()
    if moved is not None:
        starts[moved:] += 0x40  # breaks the edge into event `moved`
    columns = dict(trace.packed(), starts=starts)
    broken = Trace("broken", **columns)
    expected = _scalar_validate(broken)
    if expected is None:
        broken.validate()
    else:
        with pytest.raises(ValueError) as excinfo:
            broken.validate()
        assert str(excinfo.value) == expected
    assert (expected is None) == (moved is None)


class TestArraysAndPersistence:
    def test_packed_shapes(self):
        trace = make_trace([(0x1000, 4, BranchKind.CALL, True, 0x2000)], "t")
        arrays = trace.packed()
        assert arrays["starts"].shape == (1,)
        assert arrays["kinds"][0] == int(BranchKind.CALL)
        assert bool(arrays["takens"][0]) is True

    def test_save_load_roundtrip(self, tmp_path):
        trace = make_trace(
            [
                (0x1000, 4, BranchKind.UNCONDITIONAL, True, 0x2000),
                (0x2000, 8, BranchKind.RETURN, True, 0x1010),
            ],
            "roundtrip",
        )
        path = str(tmp_path / "trace.npz")
        write_entry(path, trace, digest=trace_digest(trace))
        loaded = read_entry(path, "roundtrip")
        assert loaded.name == "roundtrip"
        for column, array in trace.packed().items():
            assert np.array_equal(loaded.packed()[column], array)
            assert loaded.packed()[column].dtype == array.dtype
            assert not loaded.packed()[column].flags.writeable
