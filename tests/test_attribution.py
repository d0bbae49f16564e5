"""Tests for the fetch-attribution layer (DESIGN.md §11): histogram /
event-trace instruments, the cause taxonomy's exact conservation,
per-site profiles, Chrome-trace export and the ``attribute`` CLI."""

import json

import pytest

from repro.analysis.attribution import (
    conservation_errors,
    fold_attribution,
    render_markdown,
    to_payload,
)
from repro.fetch.attribution import (
    ATTRIBUTION_SCHEMA,
    CAUSE_FRONTEND_MISS,
    CAUSE_RAS_MISPOP,
    CAUSES,
    AttributionCollector,
)
from repro.harness.config import FRONTENDS, ArchitectureConfig
from repro.harness.runner import RunPlan, RunRequest, run_config, simulate
from repro.isa.branches import BranchKind
from repro.telemetry.core import EventTrace, Histogram, Registry, use
from repro.telemetry.sinks import chrome_trace_events, write_chrome_trace
from repro.workloads.trace import Trace

#: enough events to exercise every structure, small enough to be fast
TINY = 4_000


# ---------------------------------------------------------------------------
# Histogram
# ---------------------------------------------------------------------------


class TestHistogram:
    def test_log2_bucket_mapping(self):
        histogram = Histogram("t")
        for value in (0, 1, 2, 3, 4, 7, 8, 1024):
            histogram.observe(value)
        # bucket b covers [2**(b-1), 2**b); bucket 0 is exact zeros
        assert histogram.buckets == {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 11: 1}
        assert histogram.count == 8
        assert histogram.total == 0 + 1 + 2 + 3 + 4 + 7 + 8 + 1024

    def test_bucket_bounds(self):
        assert Histogram.bucket_bounds(0) == (0, 1)
        assert Histogram.bucket_bounds(1) == (1, 2)
        assert Histogram.bucket_bounds(4) == (8, 16)

    def test_every_value_lands_in_its_bounds(self):
        histogram = Histogram("t")
        for value in range(0, 300, 7):
            histogram.observe(value)
            (bucket,) = [
                b for b in histogram.buckets
                if Histogram.bucket_bounds(b)[0] <= value < Histogram.bucket_bounds(b)[1]
            ]
            assert bucket == max(histogram.buckets) or value == 0

    def test_mean_and_weight(self):
        histogram = Histogram("t")
        histogram.observe(10, weight=3)
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(10.0)

    def test_absorb_matches_single_stream(self):
        left, right, combined = Histogram("l"), Histogram("r"), Histogram("c")
        for value in (1, 5, 9):
            left.observe(value)
            combined.observe(value)
        for value in (2, 5, 300):
            right.observe(value)
            combined.observe(value)
        left.absorb(right)
        assert left.to_dict() == combined.to_dict()

    def test_absorb_accepts_snapshot_dict(self):
        source = Histogram("s")
        source.observe(42)
        target = Histogram("t")
        target.absorb(source.to_dict())
        assert target.buckets == source.buckets
        assert target.total == 42


# ---------------------------------------------------------------------------
# EventTrace
# ---------------------------------------------------------------------------


class TestEventTrace:
    def test_keeps_every_nth_starting_with_first(self):
        trace = EventTrace("t", capacity=100, sample=3)
        kept = [trace.record({"i": i}) for i in range(10)]
        assert kept == [True, False, False] * 3 + [True]
        assert trace.seen == 10
        assert trace.sampled == 4
        assert [r["i"] for r in trace.records] == [0, 3, 6, 9]

    def test_ring_overwrites_oldest(self):
        trace = EventTrace("t", capacity=3, sample=1)
        for i in range(5):
            trace.record({"i": i})
        assert [r["i"] for r in trace.records] == [2, 3, 4]
        assert trace.dropped == 2

    def test_absorb_concatenates_and_bounds(self):
        left = EventTrace("l", capacity=4, sample=1)
        right = EventTrace("r", capacity=4, sample=1)
        for i in range(3):
            left.record({"i": i})
        for i in range(3, 6):
            right.record({"i": i})
        left.absorb(right)
        # newest `capacity` records survive the merge
        assert [r["i"] for r in left.records] == [2, 3, 4, 5]
        assert left.seen == 6

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            EventTrace("t", capacity=0)
        with pytest.raises(ValueError):
            EventTrace("t", sample=0)


# ---------------------------------------------------------------------------
# collector basics
# ---------------------------------------------------------------------------


class TestAttributionCollector:
    def test_snapshot_schema_and_prefilled_causes(self):
        collector = AttributionCollector()
        snapshot = collector.snapshot()
        assert snapshot["schema"] == ATTRIBUTION_SCHEMA
        assert set(snapshot["causes"]) == set(CAUSES)
        assert snapshot["breaks"] == 0

    def test_correct_breaks_tally_sites_but_no_causes(self):
        collector = AttributionCollector()
        collector.observe(0x100, int(BranchKind.CONDITIONAL), True, 0, None)
        assert collector.penalty_events == 0
        assert collector.snapshot()["sites"][0x100]["executed"] == 1

    def test_two_bit_simulation_converges_on_biased_site(self):
        collector = AttributionCollector()
        for _ in range(100):
            collector.observe(0x100, int(BranchKind.CONDITIONAL), True, 0, None)
        site = collector.snapshot()["sites"][0x100]
        # init weakly-not-taken: only the first prediction misses
        assert site["two_bit_hits"] == 99
        assert site["taken"] == 100

    def test_reset_discards_everything(self):
        collector = AttributionCollector()
        collector.observe(0x100, int(BranchKind.CALL), True, 1, CAUSE_FRONTEND_MISS)
        collector.reset()
        assert collector.penalty_events == 0
        assert collector.snapshot()["sites"] == {}

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            AttributionCollector(sample=0)
        with pytest.raises(ValueError):
            AttributionCollector(capacity=0)


# ---------------------------------------------------------------------------
# conservation: causes partition the aggregates exactly
# ---------------------------------------------------------------------------


def _attributed_config(frontend, **overrides):
    return ArchitectureConfig(
        frontend=frontend, attribution=True, attribution_sample=1, **overrides
    )


class TestConservation:
    @pytest.mark.parametrize("frontend", FRONTENDS)
    @pytest.mark.parametrize("program", ["li", "espresso"])
    def test_causes_partition_aggregates(self, frontend, program):
        report = simulate(
            _attributed_config(frontend), program, instructions=TINY
        )
        assert conservation_errors(report) == []
        snapshot = report.attribution
        assert sum(snapshot["causes"].values()) == (
            report.misfetches + report.mispredicts
        )

    def test_conservation_holds_with_warmup_reset(self):
        # the collector must reset at the warmup boundary exactly where
        # the engine recreates its counters, or totals drift apart
        report = simulate(
            _attributed_config("nls-table"),
            "gcc",
            instructions=TINY,
        )
        assert conservation_errors(report) == []

    def test_serial_and_process_backends_agree(self):
        requests = [
            RunRequest(
                config=_attributed_config(frontend),
                program="li",
                instructions=TINY,
            )
            for frontend in ("nls-table", "btb")
        ]
        serial = RunPlan(requests).execute(backend="serial")
        pooled = RunPlan(requests).execute(backend="process", jobs=2)
        for request in requests:
            assert conservation_errors(pooled[request]) == []
            assert (
                pooled[request].attribution["causes"]
                == serial[request].attribution["causes"]
            )
            assert (
                pooled[request].attribution["sites"]
                == serial[request].attribution["sites"]
            )

    def test_no_collector_means_no_snapshot(self):
        report = simulate(
            ArchitectureConfig(frontend="btb"), "li", instructions=TINY
        )
        assert report.attribution is None
        assert conservation_errors(report) == [
            "report carries no attribution snapshot"
        ]


# ---------------------------------------------------------------------------
# RAS mispop attribution (hand-built traces)
# ---------------------------------------------------------------------------


def _run_trace(trace, **config_overrides):
    config = _attributed_config("btb", **config_overrides)
    return run_config(config, trace, warmup_fraction=0.0)


class TestRasMispopAttribution:
    def test_underflow_pop_is_ras_mispop(self):
        # a return with no matching call: the stack is empty, the pop
        # underflows, and the mispredict is charged to ras-mispop
        trace = Trace("underflow")
        trace.append(0x1000, 2, BranchKind.RETURN, taken=True, target=0x2000)
        trace.append(0x2000, 1)
        report = _run_trace(trace)
        assert report.mispredicts == 1
        assert report.attribution["causes"][CAUSE_RAS_MISPOP] == 1
        assert conservation_errors(report) == []
        # sample=1 keeps the event, with the underflow flag
        records = report.attribution["trace"]["records"]
        mispops = [r for r in records if r["cause"] == CAUSE_RAS_MISPOP]
        assert len(mispops) == 1
        assert mispops[0]["underflow"] is True
        assert mispops[0]["pc"] == 0x1004

    def test_wraparound_clobber_is_ras_mispop(self):
        # three nested calls against a 2-entry stack: the third push
        # wraps and clobbers the first return address, so unwinding
        # mispredicts when it reaches the clobbered frame
        trace = Trace("wraparound")
        trace.append(0x1000, 1, BranchKind.CALL, taken=True, target=0x2000)
        trace.append(0x2000, 1, BranchKind.CALL, taken=True, target=0x3000)
        trace.append(0x3000, 1, BranchKind.CALL, taken=True, target=0x4000)
        trace.append(0x4000, 1, BranchKind.RETURN, taken=True, target=0x3004)
        trace.append(0x3004, 1, BranchKind.RETURN, taken=True, target=0x2004)
        trace.append(0x2004, 1, BranchKind.RETURN, taken=True, target=0x1004)
        trace.append(0x1004, 1)
        trace.validate()
        report = _run_trace(trace, ras_entries=2)
        # the two live frames unwind fine; the clobbered one mispredicts
        assert report.attribution["causes"][CAUSE_RAS_MISPOP] == 1
        assert conservation_errors(report) == []
        mispops = [
            r
            for r in report.attribution["trace"]["records"]
            if r["cause"] == CAUSE_RAS_MISPOP
        ]
        assert mispops[0]["pc"] == 0x2004

    def test_wrong_address_pop_is_non_underflow_mispop(self):
        # the stack holds a live—but wrong—return address (a mismatched
        # call/return pair): the mispop is charged without underflow
        trace = Trace("stale")
        trace.append(0x1000, 1, BranchKind.CALL, taken=True, target=0x2000)
        trace.append(0x2000, 1, BranchKind.RETURN, taken=True, target=0x3000)
        trace.append(0x3000, 1)
        report = _run_trace(trace)
        mispops = [
            r
            for r in report.attribution["trace"]["records"]
            if r["cause"] == CAUSE_RAS_MISPOP
        ]
        assert len(mispops) == 1
        assert mispops[0]["underflow"] is False
        assert conservation_errors(report) == []

    def test_deep_stack_absorbs_matched_pairs(self):
        # same wraparound trace with the default 32-entry stack: every
        # return predicts correctly, so no ras-mispop is charged
        trace = Trace("deep")
        trace.append(0x1000, 1, BranchKind.CALL, taken=True, target=0x2000)
        trace.append(0x2000, 1, BranchKind.CALL, taken=True, target=0x3000)
        trace.append(0x3000, 1, BranchKind.CALL, taken=True, target=0x4000)
        trace.append(0x4000, 1, BranchKind.RETURN, taken=True, target=0x3004)
        trace.append(0x3004, 1, BranchKind.RETURN, taken=True, target=0x2004)
        trace.append(0x2004, 1, BranchKind.RETURN, taken=True, target=0x1004)
        trace.append(0x1004, 1)
        report = _run_trace(trace)
        assert report.attribution["causes"][CAUSE_RAS_MISPOP] == 0
        assert report.mispredicts == 0
        assert conservation_errors(report) == []


# ---------------------------------------------------------------------------
# analysis: profiles, BEP decomposition, rendering
# ---------------------------------------------------------------------------


class TestAttributionProfiles:
    @pytest.fixture(scope="class")
    def report(self):
        return simulate(
            _attributed_config("nls-table"), "li", instructions=TINY
        )

    def test_site_bep_contributions_sum_to_report_bep(self, report):
        profile = fold_attribution(report, top_k=5)
        total = sum(site.bep_contribution for site in profile.sites)
        assert total == pytest.approx(report.bep, rel=1e-9)
        # the rendered decomposition (top-K + other) is also complete
        top = sum(site.bep_contribution for site in profile.top_sites)
        assert top + profile.other_bep == pytest.approx(report.bep, rel=1e-9)

    def test_sites_ranked_hottest_first(self, report):
        profile = fold_attribution(report, top_k=5)
        contributions = [site.bep_contribution for site in profile.sites]
        assert contributions == sorted(contributions, reverse=True)

    def test_markdown_renders_cause_and_site_tables(self, report):
        markdown = render_markdown([fold_attribution(report, top_k=3)])
        assert "# Fetch-penalty attribution" in markdown
        for cause in CAUSES:
            assert f"`{cause}`" in markdown
        assert "| rank | pc | kind |" in markdown
        assert "(other:" in markdown

    def test_payload_is_json_serialisable(self, report):
        payload = to_payload([fold_attribution(report, top_k=3)])
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped["profiles"][0]["causes"] == {
            cause: count
            for cause, count in report.attribution["causes"].items()
        }

    def test_fold_requires_snapshot(self):
        bare = simulate(
            ArchitectureConfig(frontend="btb"), "li", instructions=TINY
        )
        with pytest.raises(ValueError, match="no attribution snapshot"):
            fold_attribution(bare)

    def test_fold_rejects_bad_top_k(self, report):
        with pytest.raises(ValueError):
            fold_attribution(report, top_k=0)


# ---------------------------------------------------------------------------
# registry integration: histograms/traces merge, cause counters publish
# ---------------------------------------------------------------------------


class TestRegistryIntegration:
    def test_engine_publishes_cause_counters(self):
        registry = Registry(enabled=True)
        with use(registry):
            report = simulate(
                _attributed_config("nls-table"), "li", instructions=TINY
            )
        published = {
            name.replace("engine.cause.", ""): value
            for name, value in registry.counters.items()
            if name.startswith("engine.cause.")
        }
        nonzero = {
            cause: count
            for cause, count in report.attribution["causes"].items()
            if count
        }
        assert published == nonzero
        gap = registry.histograms["engine.penalty_gap"]
        assert gap["count"] == report.misfetches + report.mispredicts

    def test_histograms_merge_across_snapshots(self):
        parent = Registry(enabled=True)
        worker = Registry(enabled=True)
        worker.histogram("h").observe(5)
        parent.histogram("h").observe(9)
        parent.merge(worker.snapshot())
        assert parent.histograms["h"]["count"] == 2

    def test_disabled_registry_hands_out_null_instruments(self):
        registry = Registry(enabled=False)
        histogram = registry.histogram("h")
        histogram.observe(5)
        assert registry.histograms == {}
        assert registry.histogram("other") is histogram  # shared null


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------


class TestChromeTrace:
    def _events_with_spans(self):
        registry = Registry(enabled=True)
        with use(registry):
            with registry.span("outer", label="a"):
                with registry.span("inner", label="b"):
                    pass
        return list(registry.events())

    def test_trace_event_schema(self):
        trace_events = chrome_trace_events(self._events_with_spans())
        assert len(trace_events) == 2
        for event in trace_events:
            assert set(event) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args",
            }
            assert event["ph"] == "X"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert isinstance(event["args"], dict)
        # rebased: the earliest span starts at 0
        assert min(event["ts"] for event in trace_events) == 0.0

    def test_non_span_events_are_ignored(self):
        events = self._events_with_spans()
        events.append({"event": "counter", "name": "n", "value": 1})
        trace_events = chrome_trace_events(events)
        assert all(event["cat"] == "repro" for event in trace_events)
        assert len(trace_events) == 2

    def test_write_chrome_trace_file(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(str(path), self._events_with_spans())
        assert count == 2
        payload = json.loads(path.read_text())
        assert payload["displayTimeUnit"] == "ms"
        assert len(payload["traceEvents"]) == 2

    def test_empty_stream_yields_empty_trace(self, tmp_path):
        path = tmp_path / "trace.json"
        assert write_chrome_trace(str(path), []) == 0
        assert json.loads(path.read_text())["traceEvents"] == []


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestAttributeCLI:
    def test_attribute_smoke_writes_artifacts(self, tmp_path, capsys):
        from repro.harness.cli import main

        trace_path = tmp_path / "trace.json"
        status = main(
            [
                "attribute",
                "--smoke",
                "--programs",
                "li",
                "--frontends",
                "nls-table",
                "--instructions",
                str(TINY),
                "--attr-dir",
                str(tmp_path),
                "--chrome-trace",
                str(trace_path),
            ]
        )
        assert status == 0
        markdown = (tmp_path / "ATTRIBUTION.md").read_text()
        assert "| rank | pc | kind |" in markdown
        assert "`direction-wrong`" in markdown
        payload = json.loads((tmp_path / "ATTRIBUTION.json").read_text())
        assert payload["profiles"][0]["program"] == "li"
        chrome = json.loads(trace_path.read_text())
        assert chrome["traceEvents"]
        out = capsys.readouterr().out
        assert "[attribute: 1 profiles" in out
        assert "chrome-trace" in out
