"""Unit tests for the serializability checker."""

import pytest

from repro.adts.qstack import QStackSpec
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import (
    RunHistory,
    explains,
    find_serialization,
    is_serializable,
)
from repro.core.dependency import Dependency
from repro.core.entry import Entry
from repro.core.methodology import derive
from repro.core.table import CompatibilityTable
from repro.experiments import golden
from repro.spec.operation import Invocation


@pytest.fixture(scope="module")
def table():
    adt = QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)
    return derive(adt).final_table


def make_scheduler(table, state=("a", "b")):
    scheduler = TableDrivenScheduler()
    scheduler.register_object(
        "qs",
        QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS),
        table,
        initial_state=state,
    )
    return scheduler


class TestReplaySerial:
    def test_commit_order_replays(self, table):
        scheduler = make_scheduler(table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Push", ("a",)))
        scheduler.request(t2, "qs", Invocation("Deq"))
        scheduler.try_commit(t1)
        scheduler.try_commit(t2)
        history = RunHistory.of_scheduler(scheduler)
        assert explains(history, [t1, t2])
        assert explains(history, [t2, t1])  # they commuted

    def test_wrong_order_detected(self, table):
        scheduler = make_scheduler(table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Pop"))  # 'b'
        scheduler.request(t2, "qs", Invocation("Pop"))  # 'a'
        scheduler.try_commit(t1)
        scheduler.try_commit(t2)
        history = RunHistory.of_scheduler(scheduler)
        assert explains(history, [t1, t2])
        assert not explains(history, [t2, t1])

    def test_empty_commit_set(self, table):
        scheduler = make_scheduler(table)
        assert find_serialization(scheduler) == []


class TestFindSerialization:
    def test_dependency_order_preferred(self, table):
        scheduler = make_scheduler(table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Pop"))
        scheduler.request(t2, "qs", Invocation("Pop"))
        scheduler.try_commit(t1)
        scheduler.try_commit(t2)
        assert find_serialization(scheduler) == [t1, t2]
        assert is_serializable(scheduler)

    def test_aborted_transactions_excluded(self, table):
        scheduler = make_scheduler(table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Push", ("a",)))
        scheduler.request(t2, "qs", Invocation("Deq"))
        scheduler.try_commit(t2)
        scheduler.abort(t1)
        order = find_serialization(scheduler)
        assert order == [t2]

    def test_unserializable_record_set_detected(self, table):
        # Fabricate the committed record set of a non-serializable
        # interleaving directly (the scheduler's runtime certification
        # refuses to produce one even under a bogus all-ND table, which
        # the next test verifies): t1 saw size 2 yet popped second.
        from repro.cc.transaction import OperationRecord, TransactionStatus
        from repro.spec.returnvalue import result_only

        scheduler = make_scheduler(table)
        t1, t2 = scheduler.begin(), scheduler.begin()
        records = [
            (t1, Invocation("Size"), result_only(2), 1),
            (t2, Invocation("Pop"), result_only("b"), 2),
            (t1, Invocation("Pop"), result_only("a"), 3),
            (t2, Invocation("Size"), result_only(0), 4),
        ]
        for txn, invocation, returned, sequence in records:
            scheduler.transaction(txn).records.append(
                OperationRecord("qs", invocation, returned, sequence)
            )
        # Drive the live object to the matching final state.
        shared = scheduler.object("qs")
        shared.execute(t2, Invocation("Pop"))
        shared.execute(t1, Invocation("Pop"))
        scheduler.transaction(t1).status = TransactionStatus.COMMITTED
        scheduler.transaction(t2).status = TransactionStatus.COMMITTED
        assert not is_serializable(scheduler)

    def test_certification_defeats_bogus_table(self):
        # Even under an all-ND table, the shadow-return certification
        # escalates the pairs through which information actually flowed,
        # so the non-serializable interleaving cannot commit unnoticed.
        # (Unconditional ND cells skip only the locality escalation; the
        # shadow test always runs.)
        adt = QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)
        bogus = CompatibilityTable(adt.operation_names())
        for invoked in adt.operation_names():
            for executing in adt.operation_names():
                bogus.set_entry(
                    invoked, executing, Entry.unconditional(Dependency.ND)
                )
        scheduler = make_scheduler(bogus, state=("a", "b"))
        t1, t2 = scheduler.begin(), scheduler.begin()
        scheduler.request(t1, "qs", Invocation("Size"))  # 2
        scheduler.request(t2, "qs", Invocation("Pop"))  # 'b'
        # t1's Pop observes t2's Pop (it gets 'a' instead of 'b'):
        # the shadow test records the AD despite the bogus table.
        decision = scheduler.request(t1, "qs", Invocation("Pop"))
        if not decision.aborted:
            assert (t2, Dependency.AD) in decision.dependencies
        # t2's Size would observe t1's Pop symmetrically -> cycle -> the
        # requester aborts rather than completing the bad interleaving.
        if scheduler.transaction(t2).is_active:
            final = scheduler.request(t2, "qs", Invocation("Size"))
            assert final.aborted or final.dependencies
        for txn in (t1, t2):
            if scheduler.transaction(txn).is_active:
                scheduler.try_commit(txn)
        for txn in (t1, t2):
            if scheduler.transaction(txn).is_active:
                scheduler.try_commit(txn)
        assert is_serializable(scheduler)
