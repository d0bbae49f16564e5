"""Property-based tests (hypothesis) on core data structures and the
fetch engine's classification invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.icache import InstructionCache
from repro.core.nls_table import NLSTable
from repro.fetch.engine import FetchEngine
from repro.fetch.frontends import BTBFrontEnd, NLSTableFrontEnd
from repro.isa.branches import BranchKind
from repro.predictors.btb import BranchTargetBuffer
from repro.predictors.counters import CounterArray, SaturatingCounter
from repro.predictors.pht import GSharePredictor
from repro.predictors.ras import ReturnAddressStack
from tests.conftest import make_trace

aligned_addresses = st.integers(min_value=0, max_value=(1 << 30) - 1).map(
    lambda word: word * 4
)


class TestCounterProperties:
    @given(st.lists(st.booleans(), max_size=200), st.integers(1, 4))
    def test_counter_stays_in_range(self, outcomes, bits):
        counter = SaturatingCounter(bits=bits)
        maximum = (1 << bits) - 1
        for outcome in outcomes:
            counter.update(outcome)
            assert 0 <= counter.value <= maximum

    @given(st.lists(st.booleans(), min_size=4, max_size=200))
    def test_counter_converges_to_constant_stream(self, outcomes):
        counter = SaturatingCounter(bits=2)
        for outcome in outcomes:
            counter.update(outcome)
        tail = outcomes[-4:]
        if all(tail):
            assert counter.taken
        if not any(tail):
            assert not counter.taken

    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.booleans()), min_size=1, max_size=300
        )
    )
    def test_counter_array_entries_independent(self, updates):
        array = CounterArray(64)
        mirror = [SaturatingCounter(bits=2) for _ in range(64)]
        for index, taken in updates:
            array.update(index, taken)
            mirror[index].update(taken)
        for index in range(64):
            assert array.predict(index) == mirror[index].taken


class TestRASProperties:
    @given(st.lists(aligned_addresses, max_size=64))
    def test_within_capacity_lifo(self, addresses):
        ras = ReturnAddressStack(64)
        for address in addresses:
            ras.push(address)
        for address in reversed(addresses):
            assert ras.pop() == address

    @given(st.lists(aligned_addresses, min_size=1, max_size=200), st.integers(1, 16))
    def test_depth_never_exceeds_capacity(self, addresses, capacity):
        ras = ReturnAddressStack(capacity)
        for address in addresses:
            ras.push(address)
            assert ras.depth <= capacity

    @given(st.lists(aligned_addresses, min_size=1, max_size=32))
    def test_newest_frames_survive_overflow(self, addresses):
        ras = ReturnAddressStack(8)
        for address in addresses:
            ras.push(address)
        keep = addresses[-8:]
        for address in reversed(keep):
            assert ras.pop() == address


class TestCacheProperties:
    @given(
        st.lists(
            st.integers(0, 4095).map(lambda word: word * 32), min_size=1, max_size=400
        ),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40)
    def test_access_then_probe_hits(self, lines, assoc):
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, assoc))
        for line in lines:
            result = cache.access(line)
            assert cache.probe(line) == result.way

    @given(
        st.lists(
            st.integers(0, 4095).map(lambda word: word * 32), min_size=1, max_size=400
        ),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40)
    def test_resident_lines_bounded(self, lines, assoc):
        geometry = CacheGeometry(8 * 1024, 32, assoc)
        cache = InstructionCache(geometry)
        for line in lines:
            cache.access(line)
        assert cache.resident_lines() <= geometry.n_lines
        assert cache.misses <= cache.accesses

    @given(
        st.lists(
            st.integers(0, 4095).map(lambda word: word * 32), min_size=1, max_size=400
        )
    )
    @settings(max_examples=40)
    def test_distinct_lines_lower_bound_misses(self, lines):
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
        for line in lines:
            cache.access(line)
        assert cache.misses >= min(
            len(set(lines)), 1
        )  # at least the first distinct fill misses


class TestGShareProperties:
    @given(st.lists(st.tuples(aligned_addresses, st.booleans()), max_size=300))
    def test_history_window_bounded(self, stream):
        predictor = GSharePredictor(entries=256)
        for pc, taken in stream:
            predictor.predict(pc)
            predictor.update(pc, taken)
            assert 0 <= predictor.history.value < 256


class TestNLSTableProperties:
    @given(
        st.lists(
            st.tuples(
                aligned_addresses,
                st.sampled_from(
                    [
                        BranchKind.CONDITIONAL,
                        BranchKind.UNCONDITIONAL,
                        BranchKind.CALL,
                        BranchKind.RETURN,
                        BranchKind.INDIRECT,
                    ]
                ),
                st.booleans(),
                aligned_addresses,
            ),
            max_size=300,
        )
    )
    @settings(max_examples=40)
    def test_line_fields_always_in_range(self, updates):
        geometry = CacheGeometry(8 * 1024, 32, 2)
        table = NLSTable(512, geometry)
        for pc, kind, taken, target in updates:
            table.update(pc, kind, taken, target, target_way=0)
            prediction = table.lookup(pc)
            assert 0 <= prediction.line_field < (1 << geometry.line_field_bits)
            assert 0 <= prediction.way < geometry.associativity

    @given(st.lists(st.tuples(aligned_addresses, aligned_addresses), max_size=200))
    @settings(max_examples=40)
    def test_valid_entries_bounded(self, updates):
        geometry = CacheGeometry(8 * 1024, 32, 1)
        table = NLSTable(256, geometry)
        for pc, target in updates:
            table.update(pc, BranchKind.CALL, True, target, 0)
        assert table.valid_entries() <= 256


def random_consistent_trace(draw_blocks):
    """Build a consistent trace from drawn (count, kind, taken) tuples.

    Targets are synthesised to random forward/backward blocks while
    keeping the control-flow invariants intact; returns are aimed at
    synthetic return addresses (stack correctness is not required by
    the invariants being tested here).
    """
    rows = []
    pc = 0x10000
    for count, kind, taken in draw_blocks:
        if kind == BranchKind.NOT_A_BRANCH:
            rows.append((pc, count))
            pc = pc + count * 4
            continue
        branch_pc = pc + (count - 1) * 4
        target = ((branch_pc * 2654435761) & 0xFFFFC) + 0x40000
        rows.append((pc, count, kind, taken, target))
        pc = target if taken else branch_pc + 4
    trace = make_trace(rows, "random")
    return trace


branch_blocks = st.lists(
    st.tuples(
        st.integers(1, 12),
        st.sampled_from(
            [
                BranchKind.NOT_A_BRANCH,
                BranchKind.CONDITIONAL,
                BranchKind.UNCONDITIONAL,
                BranchKind.CALL,
                BranchKind.RETURN,
                BranchKind.INDIRECT,
            ]
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=200,
).map(
    lambda blocks: [
        (count, kind, True)
        if kind
        in (
            BranchKind.UNCONDITIONAL,
            BranchKind.CALL,
            BranchKind.RETURN,
            BranchKind.INDIRECT,
        )
        else (count, kind, taken)
        for count, kind, taken in blocks
    ]
)


class TestEngineInvariants:
    @given(branch_blocks)
    @settings(max_examples=30, deadline=None)
    def test_classification_is_exclusive_and_total(self, blocks):
        trace = random_consistent_trace(blocks)
        trace.validate()
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
        engine = FetchEngine(cache, BTBFrontEnd(BranchTargetBuffer(128, 1)))
        report = engine.run(trace)
        assert report.misfetches + report.mispredicts <= report.n_breaks
        assert report.n_breaks == sum(
            executed for executed, _, _ in report.by_kind.values()
        )
        for executed, misfetched, mispredicted in report.by_kind.values():
            assert misfetched + mispredicted <= executed

    @given(branch_blocks)
    @settings(max_examples=30, deadline=None)
    def test_cache_misses_frontend_independent(self, blocks):
        trace = random_consistent_trace(blocks)
        reports = []
        for make_frontend in (
            lambda cache: BTBFrontEnd(BranchTargetBuffer(128, 1)),
            lambda cache: NLSTableFrontEnd(NLSTable(512, cache.geometry), cache),
        ):
            cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
            engine = FetchEngine(cache, make_frontend(cache))
            reports.append(engine.run(trace))
        assert reports[0].icache_misses == reports[1].icache_misses
        assert reports[0].n_instructions == reports[1].n_instructions

    @given(branch_blocks)
    @settings(max_examples=20, deadline=None)
    def test_cpi_at_least_one(self, blocks):
        trace = random_consistent_trace(blocks)
        cache = InstructionCache(CacheGeometry(8 * 1024, 32, 1))
        engine = FetchEngine(cache, BTBFrontEnd(BranchTargetBuffer(128, 1)))
        report = engine.run(trace)
        assert report.cpi >= 1.0


class TestFrontEndDominance:
    """Ordering invariants that must hold on any generated workload."""

    @given(st.sampled_from(["doduc", "espresso", "gcc", "li", "cfront", "groff"]))
    @settings(max_examples=6, deadline=None)
    def test_oracle_and_fallthrough_bound_real_frontends(self, program):
        from repro.harness.config import ArchitectureConfig
        from repro.harness.runner import simulate

        instructions = 30_000
        reports = {
            name: simulate(
                ArchitectureConfig(frontend=name, entries=1024),
                program,
                instructions=instructions,
            )
            for name in ("oracle", "nls-table", "fall-through")
        }
        assert (
            reports["oracle"].misfetches
            <= reports["nls-table"].misfetches
            <= reports["fall-through"].misfetches
        )

    @given(st.sampled_from(["li", "gcc"]), st.sampled_from([512, 1024, 2048]))
    @settings(max_examples=6, deadline=None)
    def test_bigger_nls_table_never_misfetches_more_than_quarter_extra(
        self, program, entries
    ):
        # growing the table can only reduce tag-less collisions; allow
        # a tiny tolerance for incidental cache-state interactions
        from repro.harness.config import ArchitectureConfig
        from repro.harness.runner import simulate

        small = simulate(
            ArchitectureConfig(frontend="nls-table", entries=entries),
            program,
            instructions=30_000,
        )
        big = simulate(
            ArchitectureConfig(frontend="nls-table", entries=entries * 2),
            program,
            instructions=30_000,
        )
        assert big.misfetches <= small.misfetches * 1.05 + 5
