"""Shared configuration for the paper-claim checks.

Each ``bench_*`` file regenerates one table/figure of the paper at a
reduced trace length (``BENCH_INSTRUCTIONS``) and asserts the paper's
claims on it (run ``pytest benchmarks/ -s`` to see the rendered rows).
Timing lives in ``bench/`` (``BENCHMARK.json``); full-scale
regeneration goes through ``python -m repro.harness``.
"""

from __future__ import annotations

import os

import pytest

#: per-program trace length used by the claim checks
BENCH_INSTRUCTIONS = int(os.environ.get("REPRO_BENCH_INSTRUCTIONS", "250000"))


@pytest.fixture
def bench_instructions() -> int:
    return BENCH_INSTRUCTIONS
