"""Tests for the synthetic-workload substrate: program model,
generator, interpreter, profiles, corpus and Table-1 measurement."""

import pytest

from repro.isa.branches import BranchKind
from repro.workloads.corpus import (
    SCALE_ENV_VAR,
    clear_cache,
    generate_trace,
    trace_scale,
)
from repro.workloads.generator import CallGraph, build_program, zipf_weights
from repro.workloads.interpreter import execute
from repro.workloads.profiles import (
    PROFILES,
    WorkloadProfile,
    get_profile,
    paper_programs,
)
from repro.workloads.program import (
    Block,
    CallSite,
    ConditionalSite,
    IndirectSite,
    LoopSite,
    Procedure,
    ReturnSite,
    SyntheticProgram,
    UnconditionalSite,
)
from repro.workloads.stats import measure


class TestProgramModel:
    def make_procedure(self):
        return Procedure(
            name="p",
            blocks=[
                Block(4, ConditionalSite(target_block=2, taken_prob=0.5), address=0x1000),
                Block(2, UnconditionalSite(target_block=2), address=0x1010),
                Block(1, ReturnSite(), address=0x1018),
            ],
        )

    def test_procedure_accessors(self):
        procedure = self.make_procedure()
        assert procedure.entry == 0x1000
        assert procedure.n_instructions == 7
        assert procedure.size_bytes == 28

    def test_block_break_address(self):
        block = Block(4, ReturnSite(), address=0x1000)
        assert block.break_address == 0x100C

    def test_check_accepts_valid(self):
        self.make_procedure().check(n_procedures=1)

    def test_check_rejects_missing_return(self):
        procedure = Procedure(
            name="p",
            blocks=[Block(1, UnconditionalSite(target_block=0), address=0x1000)],
        )
        with pytest.raises(ValueError):
            procedure.check(1)

    def test_check_rejects_out_of_range_target(self):
        procedure = Procedure(
            name="p",
            blocks=[
                Block(1, ConditionalSite(target_block=9, taken_prob=0.5), address=0x1000),
                Block(1, ReturnSite(), address=0x1004),
            ],
        )
        with pytest.raises(ValueError):
            procedure.check(1)

    def test_check_rejects_forward_loop_head(self):
        procedure = Procedure(
            name="p",
            blocks=[
                Block(1, LoopSite(head_block=1, continue_prob=0.5), address=0x1000),
                Block(1, ReturnSite(), address=0x1004),
            ],
        )
        with pytest.raises(ValueError):
            procedure.check(1)

    def test_indirect_site_validation(self):
        with pytest.raises(ValueError):
            IndirectSite(target_blocks=(1, 2), weights=(0.5,))
        with pytest.raises(ValueError):
            IndirectSite(target_blocks=(), weights=())

    def test_program_overlap_detection(self):
        a = self.make_procedure()
        b = self.make_procedure()  # same addresses -> overlap
        program = SyntheticProgram(name="x", procedures=[a, b])
        with pytest.raises(ValueError):
            program.check()


class TestGenerator:
    def test_zipf_weights_normalised_and_decreasing(self):
        weights = zipf_weights(10, 1.2)
        assert sum(weights) == pytest.approx(1.0)
        assert all(a > b for a, b in zip(weights, weights[1:]))

    def test_build_program_is_deterministic(self):
        profile = get_profile("li")
        a = build_program(profile, seed=7)
        b = build_program(profile, seed=7)
        assert a.code_bytes == b.code_bytes
        assert [p.entry for p in a.procedures] == [p.entry for p in b.procedures]

    def test_different_seeds_differ(self):
        profile = get_profile("li")
        a = build_program(profile, seed=7)
        b = build_program(profile, seed=8)
        assert a.code_bytes != b.code_bytes

    def test_all_profiles_build_valid_programs(self):
        for name in paper_programs():
            build_program(get_profile(name)).check()

    def test_random_layout_keeps_callee_indices(self):
        profile = get_profile("li")
        natural = build_program(profile, layout="natural")
        shuffled = build_program(profile, layout="random")
        # procedure identities (entry order in the list) are stable
        assert len(natural.procedures) == len(shuffled.procedures)
        shuffled.check()
        # but placement differs
        assert [p.entry for p in natural.procedures] != [
            p.entry for p in shuffled.procedures
        ]

    def test_rejects_unknown_layout(self):
        with pytest.raises(ValueError):
            build_program(get_profile("li"), layout="hot-cold")

    def test_call_graph_is_forward_dag(self):
        program = build_program(get_profile("gcc"))
        for index, procedure in enumerate(program.procedures):
            for block in procedure.blocks:
                if isinstance(block.site, CallSite):
                    assert block.site.callee > index or index == 0

    def test_leaf_band_is_small(self):
        profile = get_profile("gcc")
        program = build_program(profile)
        graph_leaf_start = int(round(profile.n_procedures * (1 - profile.leaf_fraction)))
        leaf_sizes = [
            len(p.blocks) for p in program.procedures[graph_leaf_start:]
        ]
        assert max(leaf_sizes) <= profile.leaf_blocks[1] + 2

    def test_callgraph_interior_callee_bounds(self):
        import random

        profile = get_profile("li")
        graph = CallGraph(profile, random.Random(3))
        for proc_index in (1, 5, profile.n_procedures - 2):
            for _ in range(50):
                callee = graph.interior_callee(proc_index)
                assert callee is None or proc_index < callee < profile.n_procedures
        assert graph.interior_callee(profile.n_procedures - 1) is None


class TestInterpreter:
    def test_trace_is_consistent(self):
        profile = get_profile("espresso")
        program = build_program(profile)
        trace = execute(program, 30_000, seed=1)
        trace.validate()

    def test_budget_respected_within_one_block(self):
        profile = get_profile("espresso")
        program = build_program(profile)
        trace = execute(program, 10_000, seed=1)
        assert 10_000 <= trace.n_instructions < 10_000 + 200

    def test_deterministic_given_seed(self):
        program = build_program(get_profile("li"))
        a = execute(program, 20_000, seed=5)
        b = execute(program, 20_000, seed=5)
        assert a.starts == b.starts and a.takens == b.takens

    def test_calls_and_returns_balance(self):
        program = build_program(get_profile("li"))
        trace = execute(program, 50_000, seed=2)
        calls = sum(1 for k in trace.kinds if k == int(BranchKind.CALL))
        returns = sum(1 for k in trace.kinds if k == int(BranchKind.RETURN))
        assert abs(calls - returns) <= 64  # open frames at trace end

    def test_counted_loops_have_exact_trip_counts(self):
        # build a tiny program by hand with one counted loop
        body = Procedure(
            name="f",
            blocks=[
                Block(2, LoopSite(head_block=0, continue_prob=0.0, fixed_trips=4)),
                Block(1, ReturnSite()),
            ],
        )
        main = Procedure(
            name="main",
            blocks=[
                Block(1, CallSite(callee=1)),
                Block(1, ReturnSite()),
            ],
        )
        address = 0x1000
        for procedure in (main, body):
            for block in procedure.blocks:
                block.address = address
                address += block.size_bytes
        program = SyntheticProgram(name="loop", procedures=[main, body])
        program.check()
        trace = execute(program, 1_000, seed=0)
        loop_pc = body.blocks[0].break_address
        outcomes = [
            trace.takens[i]
            for i in range(len(trace.starts))
            if trace.starts[i] + (trace.counts[i] - 1) * 4 == loop_pc
        ]
        # fixed_trips=4: taken,taken,taken,not-taken per entry
        assert outcomes[:4] == [True, True, True, False]

    def test_rejects_zero_budget(self):
        program = build_program(get_profile("li"))
        with pytest.raises(ValueError):
            execute(program, 0)


class TestProfiles:
    def test_registry_has_paper_and_server_programs(self):
        from repro.workloads.profiles import server_programs

        assert set(paper_programs()) <= set(PROFILES)
        assert set(server_programs()) <= set(PROFILES)
        assert len(paper_programs()) == 6
        assert len(PROFILES) == 8

    def test_get_profile_unknown(self):
        with pytest.raises(ValueError):
            get_profile("perl")

    def test_site_mix_normalised(self):
        for profile in PROFILES.values():
            assert sum(profile.site_mix.values()) == pytest.approx(1.0)

    def test_paper_attributes_present(self):
        # only the six Table-1 programs carry a paper reference row;
        # the modern-server profiles are deliberately paper-free
        for name in paper_programs():
            profile = PROFILES[name]
            assert profile.paper is not None
            assert profile.paper.pct_breaks > 0
        from repro.workloads.profiles import server_programs

        for name in server_programs():
            assert PROFILES[name].paper is None

    def test_validation_rejects_bad_profiles(self):
        base = get_profile("li")
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="x",
                description="",
                n_procedures=1,
                blocks_per_procedure=(5, 10),
                mean_block_instructions=5,
                main_call_sites=10,
                zipf_alpha=1.0,
                frac_conditional=1,
                frac_loop=0,
                frac_unconditional=0,
                frac_call=0,
                frac_indirect=0,
                taken_bias_classes=base.taken_bias_classes,
                loop_iterations_log_mean=1.0,
                loop_iterations_log_sigma=0.5,
            )


class TestStats:
    def test_measure_simple_trace(self):
        from repro.workloads.trace import Trace

        trace = Trace("simple")
        for _ in range(3):
            trace.append(0x1000, 8, BranchKind.CONDITIONAL, True, 0x1000)
        trace.append(0x1000, 8, BranchKind.CONDITIONAL, False, 0x1000)
        trace.append(0x1020, 2)
        attributes = measure(trace)
        assert attributes.instructions == 34
        assert attributes.q50 == 1
        assert attributes.q100 == 1
        assert attributes.pct_taken == pytest.approx(75.0)
        assert attributes.pct_cbr == pytest.approx(100.0)

    def test_quantiles_ordered(self, small_traces):
        for trace in small_traces.values():
            attributes = measure(trace)
            assert (
                attributes.q50
                <= attributes.q90
                <= attributes.q99
                <= attributes.q100
            )

    def test_mix_sums_to_100(self, small_traces):
        attributes = measure(small_traces["groff"])
        total = (
            attributes.pct_cbr
            + attributes.pct_ij
            + attributes.pct_br
            + attributes.pct_call
            + attributes.pct_ret
        )
        assert total == pytest.approx(100.0)

    def test_static_count_requires_program(self, small_traces):
        attributes = measure(small_traces["li"])
        assert attributes.static_conditionals is None
        program = build_program(get_profile("li"))
        attributes = measure(small_traces["li"], program)
        assert attributes.static_conditionals > 0

    def test_row_and_header_align(self, small_traces):
        from repro.workloads.stats import TraceAttributes

        attributes = measure(small_traces["li"])
        assert len(attributes.row()) > 0
        assert TraceAttributes.header().split()[0] == "program"


class TestCorpus:
    def test_memoisation(self):
        clear_cache()
        a = generate_trace("li", instructions=5_000)
        b = generate_trace("li", instructions=5_000)
        assert a is b
        clear_cache()
        c = generate_trace("li", instructions=5_000)
        assert c is not a

    def test_different_budgets_are_distinct(self):
        a = generate_trace("li", instructions=5_000)
        b = generate_trace("li", instructions=6_000)
        assert a is not b

    def test_scale_env_var(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "0.5")
        assert trace_scale() == 0.5
        trace = generate_trace("li", instructions=10_000)
        assert trace.n_instructions < 6_000

    def test_scale_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(SCALE_ENV_VAR, "fast")
        with pytest.raises(ValueError):
            trace_scale()
        monkeypatch.setenv(SCALE_ENV_VAR, "-1")
        with pytest.raises(ValueError):
            trace_scale()

    def test_unknown_program(self):
        with pytest.raises(ValueError):
            generate_trace("perl")


class TestCalibration:
    """Loose checks that the measured workloads keep the paper's
    per-program character (exact values recorded in EXPERIMENTS.md)."""

    def test_branch_density_ordering(self, small_traces):
        attrs = {name: measure(trace) for name, trace in small_traces.items()}
        # doduc is by far the least branchy program (Table 1)
        assert attrs["doduc"].pct_breaks < min(
            a.pct_breaks for n, a in attrs.items() if n != "doduc"
        )

    def test_espresso_is_conditional_dominated(self, small_traces):
        attributes = measure(small_traces["espresso"])
        assert attributes.pct_cbr > 85.0

    def test_li_is_call_heavy(self, small_traces):
        attrs = {name: measure(trace) for name, trace in small_traces.items()}
        assert attrs["li"].pct_call > 1.5 * attrs["gcc"].pct_call

    def test_gcc_has_most_active_sites(self, small_traces):
        attrs = {name: measure(trace) for name, trace in small_traces.items()}
        assert attrs["gcc"].q100 == max(a.q100 for a in attrs.values())

    def test_taken_rates_in_paper_band(self, small_traces):
        for name, trace in small_traces.items():
            attributes = measure(trace)
            assert 30.0 < attributes.pct_taken < 70.0, name


class TestFootprint:
    def test_simple_block(self):
        from repro.workloads.stats import footprint
        from repro.workloads.trace import Trace

        trace = Trace("t")
        trace.append(0x1000, 16, BranchKind.UNCONDITIONAL, True, 0x1000)
        result = footprint(trace)
        assert result.distinct_lines == 2
        assert result.distinct_branch_sites == 1
        assert result.code_bytes_touched == 64

    def test_repeats_do_not_grow_footprint(self):
        from repro.workloads.stats import footprint
        from repro.workloads.trace import Trace

        trace = Trace("t")
        for _ in range(10):
            trace.append(0x1000, 8, BranchKind.UNCONDITIONAL, True, 0x1000)
        assert footprint(trace).distinct_lines == 1

    def test_program_footprints_ordered(self, small_traces):
        from repro.workloads.stats import footprint

        prints = {name: footprint(trace) for name, trace in small_traces.items()}
        # gcc touches more code than doduc at the same (short) trace
        # length; the gap widens further at full scale
        assert prints["gcc"].distinct_lines > 1.2 * prints["doduc"].distinct_lines
        assert (
            prints["gcc"].distinct_branch_sites
            > 1.5 * prints["doduc"].distinct_branch_sites
        )

    def test_cache_kb_helper(self):
        from repro.workloads.stats import TraceFootprint

        fp = TraceFootprint(
            distinct_lines=512, distinct_branch_sites=10, code_bytes_touched=512 * 32
        )
        assert fp.lines_for_cache_kb() == 16.0


class TestValidation:
    def test_field_comparison_errors(self):
        from repro.workloads.validation import FieldComparison

        comparison = FieldComparison("x", measured=11.0, paper=10.0)
        assert comparison.absolute_error == pytest.approx(1.0)
        assert comparison.relative_error == pytest.approx(0.1)

    def test_relative_error_near_zero_paper(self):
        from repro.workloads.validation import FieldComparison

        comparison = FieldComparison("x", measured=0.5, paper=0.0)
        assert comparison.relative_error == pytest.approx(0.5)

    def test_rank_correlation_perfect_and_inverted(self):
        from repro.workloads.validation import rank_correlation

        assert rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
        assert rank_correlation([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_rank_correlation_rejects_bad_input(self):
        from repro.workloads.validation import rank_correlation

        with pytest.raises(ValueError):
            rank_correlation([1], [2])
        with pytest.raises(ValueError):
            rank_correlation([1, 2], [1, 2, 3])

    def test_summary_on_real_traces(self, small_traces):
        from repro.workloads.validation import summarise

        measured = {
            name: measure(trace, build_program(get_profile(name)))
            for name, trace in small_traces.items()
        }
        papers = {name: get_profile(name).paper for name in small_traces}
        summary = summarise(measured, papers)
        assert summary.mean_absolute_scalar_error < 20.0
        # the break-density ordering must agree strongly with the paper
        assert summary.rank_correlations["%breaks"] > 0.5
        program, field, error = summary.worst_field
        assert program in small_traces

    def test_calibration_experiment(self):
        from repro.harness.experiments import SPECS

        result = SPECS["calibration"].plan(
            programs=("li", "doduc"), instructions=30_000
        ).run()
        assert "mean_abs_error" in result.data
        assert "li" in result.text
