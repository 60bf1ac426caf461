"""Unit tests for shared objects and replay recovery."""

import pytest

from repro.adts.qstack import QStackSpec
from repro.cc.harness import poison_execution_cache
from repro.cc.objects import SharedObject
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.core.methodology import derive
from repro.graph.instrument import EdgeAttribution
from repro.spec.operation import Invocation


@pytest.fixture
def shared() -> SharedObject:
    return SharedObject("qs", QStackSpec(), initial_state=("a",))


class TestExecution:
    def test_execute_mutates_live_state(self, shared):
        applied = shared.execute(0, Invocation("Push", ("b",)))
        assert applied.returned.outcome == "ok"
        assert shared.state() == ("a", "b")

    def test_log_in_execution_order(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))
        assert [entry.txn for entry in shared.log()] == [0, 1]

    def test_operations_of(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))
        assert len(shared.operations_of(0)) == 1
        assert len(shared.operations_of(2)) == 0

    def test_active_writers(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))
        assert shared.active_writers(exclude=0) == {1}

    def test_preview_does_not_change_state(self, shared):
        returned = shared.preview(Invocation("Pop"))
        assert returned.result == "a"
        assert shared.state() == ("a",)
        assert shared.log() == []


class TestReplayRecovery:
    def test_removing_sole_writer_restores_initial_state(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        invalidated = shared.remove_transactions({0})
        assert invalidated == set()
        assert shared.state() == ("a",)

    def test_surviving_commuting_operation_keeps_return(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))  # back
        shared.execute(1, Invocation("Deq"))  # front: 'a'
        invalidated = shared.remove_transactions({0})
        assert invalidated == set()
        assert shared.state() == ()  # only the Deq survives: 'a' removed

    def test_invalidated_survivor_reported(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))  # observed 'b' (txn 0's push)
        invalidated = shared.remove_transactions({0})
        assert invalidated == {1}

    def test_removing_multiple_transactions(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Push", ("a",)))
        shared.remove_transactions({0, 1})
        assert shared.state() == ("a",)
        assert shared.log() == []

    def test_initial_state_property(self, shared):
        assert shared.initial_state == ("a",)


def _committed(*txns):
    """A ``resolved`` predicate: the given transactions have committed."""
    return lambda txn: txn in txns


class TestForget:
    """``forget`` folds the resolved log prefix into the recovery baseline
    and never touches the registration state."""

    def test_forget_sole_transaction_rebases(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        assert shared.forget(_committed(0)) == 1
        assert shared.log() == []
        assert shared.baseline == ("a", "b")
        assert shared.initial_state == ("a",)
        assert shared.state() == ("a", "b")

    def test_forget_prefix_only(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Push", ("a",)))
        assert shared.forget(_committed(0)) == 1
        # txn 0's entry preceded every surviving entry: folded into the
        # baseline; txn 1's entry remains.
        assert [entry.txn for entry in shared.log()] == [1]
        assert shared.baseline == ("a", "b")
        assert shared.initial_state == ("a",)

    def test_forget_interleaved_keeps_later_entries(self, shared):
        shared.execute(1, Invocation("Push", ("a",)))
        shared.execute(0, Invocation("Push", ("b",)))
        assert shared.forget(_committed(0)) == 0
        # txn 0 executed after the active txn 1: both entries must stay
        # so that undoing txn 1 still replays correctly.
        assert [entry.txn for entry in shared.log()] == [1, 0]
        assert shared.baseline == ("a",)
        # and a subsequent abort of txn 1 replays txn 0's push alone
        shared.remove_transactions({1})
        assert shared.state() == ("a", "b")

    def test_forget_folds_a_multi_entry_prefix(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(2, Invocation("Deq"))
        shared.execute(0, Invocation("Push", ("c",)))
        shared.execute(1, Invocation("Push", ("d",)))
        assert shared.forget(_committed(0, 2)) == 3
        assert shared.baseline == ("b", "c")
        assert [entry.txn for entry in shared.log()] == [1]

    def test_rollback_replays_from_the_folded_baseline(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Pop"))  # observed txn 0's 'b'
        shared.execute(2, Invocation("Push", ("c",)))
        shared.forget(_committed(0, 1))
        assert shared.baseline == ("a",)
        assert shared.remove_transactions({2}) == set()
        assert shared.state() == ("a",)
        assert shared.log() == []

    def test_forget_with_nothing_resolved_is_a_no_op(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        assert shared.forget(_committed()) == 0
        assert shared.baseline == ("a",)
        assert [entry.txn for entry in shared.log()] == [0]

    def test_forget_keeps_serial_replay_sound(self):
        # Folding once rewrote ``initial_state``, the origin serial replay
        # starts from, so one committed Push followed by a fold made the
        # run look non-serializable.
        adt = QStackSpec()
        scheduler = TableDrivenScheduler()
        scheduler.register_object(
            "qs", adt, derive(adt).final_table, initial_state=("a",)
        )
        txn = scheduler.begin()
        scheduler.request(txn, "qs", Invocation("Push", ("b",)))
        assert scheduler.try_commit(txn).committed
        shared = scheduler.object("qs")
        shared.forget(lambda t: not scheduler.transaction(t).is_active)
        assert shared.log() == []
        assert shared.baseline == ("a", "b")
        assert shared.initial_state == ("a",)
        assert is_serializable(scheduler)

    def test_poisoned_cache_cannot_reach_the_baseline(self):
        # A partial fold replays its prefix; the baseline is authoritative,
        # so the replay must not read a corrupted execution-cache entry.
        adt = QStackSpec()
        scheduler = TableDrivenScheduler()
        scheduler.register_object(
            "qs", adt, derive(adt).final_table, initial_state=("a",)
        )
        first, second = scheduler.begin(), scheduler.begin()
        push_b = Invocation("Push", ("b",))
        scheduler.request(first, "qs", push_b)
        scheduler.request(second, "qs", Invocation("Push", ("c",)))
        scheduler.execution_cache.get_or_execute(
            adt, ("a",), push_b, EdgeAttribution.BOTH
        )
        poison_execution_cache(scheduler, "corrupt")
        assert scheduler.try_commit(first).committed
        shared = scheduler.object("qs")
        assert shared.baseline == ("a", "b")
        scheduler.abort(second)
        assert shared.state() == ("a", "b")
