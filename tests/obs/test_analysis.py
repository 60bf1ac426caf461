"""Unit tests for trace analysis: parsing, histograms, timelines, metrics."""

import pytest

from repro.adts.registry import make_adt
from repro.cc.simulator import SimulationConfig, simulate_with_scheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.obs.analysis import (
    firing_histogram,
    history_from_trace,
    parse_literal,
    render_event,
    summarize,
    transaction_timeline,
)
from repro.obs.events import (
    DependencyRecorded,
    OpBlocked,
    OpGranted,
    TxnBegun,
    TxnCommitted,
)
from repro.obs.latency import latency_from_trace
from repro.obs.tracers import RecordingTracer


@pytest.fixture(scope="module")
def traced_run():
    """One contended QStack run recorded through a RecordingTracer."""
    adt = make_adt("QStack")
    table = derive(adt).final_table
    workload = generate(
        adt, "shared",
        WorkloadConfig(transactions=10, operations_per_transaction=3, seed=42),
    )
    tracer = RecordingTracer()
    metrics, scheduler = simulate_with_scheduler(
        SimulationConfig(
            adt=adt, table=table, workload=workload,
            policy="blocking", restart_aborted=True, tracer=tracer,
        )
    )
    return tracer.events, metrics, scheduler


class TestParseLiteral:
    @pytest.mark.parametrize("text, value", [
        ("()", ()),
        ("('a', 'b')", ("a", "b")),
        ("42", 42),
        ("(0, 0)", (0, 0)),
        ("None", None),
        ("frozenset()", frozenset()),
        ("frozenset({'x', 'y'})", frozenset({"x", "y"})),
    ])
    def test_round_trips(self, text, value):
        assert parse_literal(text) == value

    def test_builtins_are_unreachable(self):
        with pytest.raises(Exception):
            parse_literal("__import__('os')")


class TestFiringHistogram:
    def test_counts_by_decision_signature(self):
        dep = dict(time=1.0, txn=2, other_txn=1, object_name="shared",
                   invoked="Pop", executing="Push", dependency="CD",
                   entry="(CD, x_out = nok)", condition="x_out = nok",
                   source="table")
        events = [
            DependencyRecorded(**dep),
            DependencyRecorded(**{**dep, "txn": 3}),
            DependencyRecorded(**{**dep, "dependency": "AD", "source": "locality"}),
        ]
        firings = firing_histogram(events)
        assert [firing.count for firing in firings] == [2, 1]
        assert firings[0].dependency == "CD"
        assert firings[1].source == "locality"

    def test_real_run_matches_scheduler_counters(self, traced_run):
        events, metrics, _ = traced_run
        firings = firing_histogram(events)
        total = sum(firing.count for firing in firings)
        stats = metrics.scheduler
        assert total == stats.ad_edges + stats.cd_edges


class TestTimeline:
    def test_includes_counterparty_events(self):
        events = [
            TxnBegun(time=0.0, txn=1),
            TxnBegun(time=0.0, txn=2),
            OpBlocked(time=1.0, txn=2, object_name="shared", operation="Pop",
                      args="()", blocked_on=(1,)),
            TxnCommitted(time=2.0, txn=1, commit_sequence=1),
        ]
        timeline = transaction_timeline(events, 1)
        # txn 2's block names txn 1, so it belongs to txn 1's timeline too.
        assert [event.type for event in timeline] == [
            "txn_begun", "op_blocked", "txn_committed"
        ]

    def test_unknown_transaction_is_empty(self, traced_run):
        events, _, _ = traced_run
        assert transaction_timeline(events, 10_000) == []

    def test_render_event_is_one_line(self, traced_run):
        events, _, _ = traced_run
        for event in events[:25]:
            line = render_event(event)
            assert "\n" not in line
            assert event.type in line


class TestSummarize:
    def test_real_run_summary(self, traced_run):
        events, metrics, _ = traced_run
        summary = summarize(events)
        assert summary.events == len(events)
        assert summary.committed == metrics.committed
        assert summary.by_type["txn_committed"] == metrics.committed
        # Transactions = programs + restarts (each restart begins afresh).
        assert summary.transactions == 10 + metrics.restarts
        rendered = summary.render()
        assert f"committed={metrics.committed}" in rendered
        assert "dependencies:" in rendered


class TestReconstructRun:
    def test_operations_ordered_by_sequence(self, traced_run):
        events, _, _ = traced_run
        history = history_from_trace(events)
        assert history.adts["shared"].name == "QStack"
        for records in history.records.values():
            stamps = [record.sequence for record in records]
            assert stamps == sorted(stamps)

    def test_commit_order_matches_commit_events(self, traced_run):
        events, _, _ = traced_run
        history = history_from_trace(events)
        committed_events = [
            event.txn for event in events if isinstance(event, TxnCommitted)
        ]
        assert history.commit_order == committed_events

    def test_final_states_recorded(self, traced_run):
        events, _, scheduler = traced_run
        history = history_from_trace(events)
        assert history.final_states["shared"] == (
            scheduler.object("shared").state()
        )


class TestTraceCountsMatchLiveRun:
    def test_event_and_dependency_counters(self, traced_run):
        events, metrics, _ = traced_run
        summary = summarize(events)
        granted = sum(
            1 for event in events if isinstance(event, OpGranted)
        )
        assert summary.by_type["op_granted"] == granted
        stats = metrics.scheduler
        assert sum(summary.dependencies_by_kind.values()) == (
            stats.ad_edges + stats.cd_edges
        )

    def test_blocked_intervals_observed(self, traced_run):
        events, metrics, _ = traced_run
        blocked = latency_from_trace(events).merged("blocked")
        assert any(isinstance(event, OpBlocked) for event in events)
        assert blocked.count == len(metrics.blocked_durations) > 0
        assert blocked.sum == pytest.approx(sum(metrics.blocked_durations))
