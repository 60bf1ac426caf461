"""Trace-based serializability re-verification against the live scheduler.

The acceptance property of the tracing subsystem: a JSONL-round-tripped
trace alone carries enough information (operation logs, return values,
commit order, dependency edges, final states) that
:func:`repro.obs.analysis.history_from_trace` rebuilds the very
:class:`~repro.cc.serializability.RunHistory` the live scheduler yields —
across 20 seeded workloads spanning ADTs and scheduling policies — and
that the scheduler, trace and monitor paths all reject the same
tampered histories.
"""

import dataclasses
import io

import pytest

from repro.adts.registry import make_adt
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import (
    RunHistory,
    find_serialization,
    find_witness,
    is_serializable,
)
from repro.cc.simulator import SimulationConfig, simulate_with_scheduler
from repro.cc.transaction import OperationRecord, TransactionStatus
from repro.cc.workload import WorkloadConfig, generate
from repro.core.dependency import Dependency
from repro.core.methodology import derive
from repro.obs.analysis import history_from_trace, serializable_from_trace
from repro.obs.events import (
    DependencyRecorded,
    ObjectRegistered,
    OpGranted,
    RunCompleted,
    TxnCommitted,
)
from repro.obs.tracers import JsonlTracer, RecordingTracer, read_trace
from repro.robust import MonitoredScheduler
from repro.spec.adt import execute_uncached, render_state
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

_TABLES = {}


def derived_table(adt_name):
    if adt_name not in _TABLES:
        _TABLES[adt_name] = derive(make_adt(adt_name)).final_table
    return _TABLES[adt_name]


def run_traced(adt_name, policy, seed, transactions=8):
    adt = make_adt(adt_name)
    workload = generate(
        adt, "shared",
        WorkloadConfig(
            transactions=transactions, operations_per_transaction=3, seed=seed
        ),
    )
    tracer = RecordingTracer()
    _, scheduler = simulate_with_scheduler(
        SimulationConfig(
            adt=adt, table=derived_table(adt_name), workload=workload,
            policy=policy, restart_aborted=True, tracer=tracer,
        )
    )
    return tracer.events, scheduler


# 2 ADTs x 2 policies x 5 seeds = 20 seeded workloads.
WORKLOADS = [
    (adt_name, policy, seed)
    for adt_name in ("QStack", "Account")
    for policy in ("optimistic", "blocking")
    for seed in (1, 2, 3, 4, 5)
]


class TestTraceVerdictMatchesScheduler:
    @pytest.mark.parametrize(
        "adt_name, policy, seed", WORKLOADS,
        ids=[f"{a}-{p}-s{s}" for a, p, s in WORKLOADS],
    )
    def test_verdicts_agree(self, adt_name, policy, seed):
        events, scheduler = run_traced(adt_name, policy, seed)
        history = RunHistory.of_scheduler(scheduler)
        assert history_from_trace(events) == history
        assert history.commit_stamps
        assert serializable_from_trace(events) == is_serializable(scheduler)

    def test_orders_agree_after_jsonl_round_trip(self):
        events, scheduler = run_traced("QStack", "blocking", seed=9)
        stream = io.StringIO()
        with JsonlTracer(stream) as tracer:
            for event in events:
                tracer.emit(event)
        stream.seek(0)
        reloaded = read_trace(stream)
        assert reloaded == events
        from_trace = find_witness(history_from_trace(reloaded))
        live = find_serialization(scheduler)
        assert (from_trace is None) == (live is None)
        if from_trace is not None:
            assert [int(txn) for txn in from_trace] == [int(txn) for txn in live]

    def test_empty_trace_is_trivially_serializable(self):
        assert serializable_from_trace([]) is True
        assert find_witness(history_from_trace([])) == []


def _tampered_return():
    """A finished run where one committed operation's return was changed."""
    events, scheduler = run_traced("Account", "optimistic", seed=1)
    history = RunHistory.of_scheduler(scheduler)
    txn = history.commit_order[0]
    record = scheduler.transaction(txn).records[0]
    tampered = ReturnValue(outcome="tampered")
    scheduler.transaction(txn).records[0] = dataclasses.replace(
        record, returned=tampered
    )
    events = [
        dataclasses.replace(event, outcome="tampered")
        if isinstance(event, OpGranted) and event.sequence == record.sequence
        else event
        for event in events
    ]
    return events, scheduler


def _tampered_final_state():
    """A finished run whose touched object changed outside any record."""
    events, scheduler = run_traced("Account", "optimistic", seed=1)
    shared = scheduler.object("shared")
    deposit = Invocation("Deposit", (1,))
    shared.execute(RunHistory.of_scheduler(scheduler).commit_order[-1], deposit)
    final = render_state(shared.state())
    events = [
        dataclasses.replace(event, final_states=(("shared", final),))
        if isinstance(event, RunCompleted)
        else event
        for event in events
    ]
    return events, scheduler


def _cyclic_ring(size=7):
    """``size`` committed transactions whose AD edges close one cycle.

    Transaction i deposits into account i and reads account i+1 after
    transaction i+1's deposit, so each depends on the next; whichever
    runs first in a serial order reads a balance of 0 instead.  The
    scheduler refuses to build such a run, so it is written directly.
    """
    adt = make_adt("Account")
    table = derived_table("Account")
    scheduler = TableDrivenScheduler()
    names = [f"acct{i}" for i in range(size)]
    events = []
    for name in names:
        scheduler.register_object(name, adt, table)
        events.append(
            ObjectRegistered(
                time=0.0, object_name=name, adt="Account", initial_state="0"
            )
        )
    txns = [scheduler.begin() for _ in names]
    deposit, balance = Invocation("Deposit", (1,)), Invocation("Balance")
    deposited = execute_uncached(adt, 0, deposit)
    seen = execute_uncached(adt, deposited.post_state, balance).returned
    sequence = 0
    for i, txn in enumerate(txns):
        for name, invocation, returned in (
            (names[i], deposit, deposited.returned),
            (names[(i + 1) % size], balance, seen),
        ):
            scheduler.transaction(txn).records.append(
                OperationRecord(name, invocation, returned, sequence)
            )
            events.append(
                OpGranted(
                    time=0.0, txn=txn, object_name=name,
                    operation=invocation.operation,
                    args=repr(invocation.args), outcome=returned.outcome,
                    result=repr(returned.result), sequence=sequence,
                )
            )
            sequence += 1
        scheduler.object(names[i]).execute(txn, deposit)
    edges = {
        (txn, txns[(i + 1) % size]): Dependency.AD
        for i, txn in enumerate(txns)
    }
    for i, txn in enumerate(txns):
        transaction = scheduler.transaction(txn)
        transaction.status = TransactionStatus.COMMITTED
        transaction.commit_sequence = i
        events.append(TxnCommitted(time=0.0, txn=txn, commit_sequence=i))
    for later, earlier in edges:
        events.append(
            DependencyRecorded(
                time=0.0, txn=later, other_txn=earlier, dependency="AD"
            )
        )
    events.append(
        RunCompleted(
            time=0.0,
            committed=size,
            final_states=tuple((name, "1") for name in names),
        )
    )

    class Recorded:
        def edges(self):
            return dict(edges)

    scheduler.dependency_graph = Recorded
    return events, scheduler


TAMPERED = {
    "committed-return": _tampered_return,
    "final-state": _tampered_final_state,
    "seven-txn-cycle": _cyclic_ring,
}


class TestTamperedHistoriesRejected:
    """One negative table, judged by the scheduler, trace and monitor."""

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_scheduler_path_rejects(self, case):
        _, scheduler = TAMPERED[case]()
        assert find_serialization(scheduler) is None

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_trace_path_rejects(self, case):
        events, _ = TAMPERED[case]()
        assert not serializable_from_trace(events)

    @pytest.mark.parametrize("case", sorted(TAMPERED))
    def test_monitor_path_rejects(self, case):
        # The monitor judges an in-flight run by returns alone, so a
        # tampered state reaches it through the next committed read.
        _, scheduler = TAMPERED[case]()
        monitor = MonitoredScheduler(scheduler)
        reader = monitor.inner.begin()
        name = monitor.object_names()[0]
        assert monitor.inner.request(reader, name, Invocation("Balance")).executed
        assert monitor.inner.try_commit(reader).committed
        assert "serializability" in dict(monitor.check_invariants())

    def test_the_ring_admits_no_order_at_all(self):
        _, scheduler = _cyclic_ring()
        history = RunHistory.of_scheduler(scheduler)
        assert len(history.commit_order) == 7
        assert find_witness(history, brute_force_limit=7) is None


class TestNewSchedulerCounters:
    def test_contended_blocking_run_populates_counters(self):
        _, scheduler = run_traced("QStack", "blocking", seed=3, transactions=12)
        stats = scheduler.stats
        assert stats.condition_evaluations > 0
        if stats.operations_blocked:
            assert 0 < stats.blocked_time_events <= stats.operations_blocked
