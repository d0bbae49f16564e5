"""Shared fixtures for the test suite.

Simulation-based tests run on short traces (tens of thousands of
instructions); module-scoped fixtures memoise them so the suite stays
fast.
"""

from __future__ import annotations

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.isa.branches import BranchKind
from repro.workloads.corpus import clear_cache, generate_trace
from repro.workloads.trace import Trace

#: trace length used by simulation-level tests
TEST_INSTRUCTIONS = 60_000


@pytest.fixture
def geometry_8k_dm() -> CacheGeometry:
    """8 KB direct-mapped cache geometry (256 lines of 32 bytes)."""
    return CacheGeometry(size_bytes=8 * 1024, line_bytes=32, associativity=1)


@pytest.fixture
def geometry_8k_2w() -> CacheGeometry:
    """8 KB 2-way cache geometry."""
    return CacheGeometry(size_bytes=8 * 1024, line_bytes=32, associativity=2)


@pytest.fixture
def icache_8k_dm(geometry_8k_dm) -> InstructionCache:
    return InstructionCache(geometry_8k_dm)


@pytest.fixture
def icache_8k_2w(geometry_8k_2w) -> InstructionCache:
    return InstructionCache(geometry_8k_2w)


@pytest.fixture(scope="session")
def small_traces():
    """Short traces of every paper program, generated once."""
    traces = {
        name: generate_trace(name, instructions=TEST_INSTRUCTIONS)
        for name in ("doduc", "espresso", "gcc", "li", "cfront", "groff")
    }
    yield traces
    clear_cache()


@pytest.fixture(scope="session")
def gcc_trace(small_traces) -> Trace:
    return small_traces["gcc"]


def make_trace(events) -> Trace:
    """Build a hand-written trace from (start, count, kind, taken,
    target) tuples; non-branch events may omit the trailing fields."""
    trace = Trace("hand")
    for event in events:
        if len(event) == 2:
            start, count = event
            trace.append(start, count)
        else:
            start, count, kind, taken, target = event
            trace.append(start, count, kind, taken, target)
    return trace


def straight_line(start: int, n_instructions: int) -> Trace:
    """A trace that just falls through *n_instructions* instructions."""
    trace = Trace("straight")
    trace.append(start, n_instructions, BranchKind.NOT_A_BRANCH, False, 0)
    return trace
