"""Unit tests for the recovery disciplines."""

import pytest

from repro.adts.qstack import QStackSpec
from repro.cc.objects import SharedObject
from repro.cc.recovery import IntentionsList, UndoLog
from repro.spec.operation import Invocation


@pytest.fixture
def shared() -> SharedObject:
    return SharedObject("qs", QStackSpec(), initial_state=("a",))


class TestIntentionsList:
    def test_intentions_invisible_until_commit(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Push", ("b",)))
        assert shared.state() == ("a",)  # nothing applied yet

    def test_own_intentions_visible_to_self(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Push", ("b",)))
        returned = intentions.execute(0, Invocation("Top"))
        assert returned.result == "b"

    def test_other_transactions_do_not_see_intentions(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Push", ("b",)))
        returned = intentions.execute(1, Invocation("Top"))
        assert returned.result == "a"

    def test_commit_applies_buffered_operations(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Push", ("b",)))
        assert intentions.commit(0)
        assert shared.state() == ("a", "b")
        assert intentions.pending(0) == []

    def test_commit_validation_fails_on_conflict(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Pop"))  # predicted 'a'
        # Another transaction commits a Push under it first.
        intentions.execute(1, Invocation("Push", ("b",)))
        assert intentions.commit(1)
        # txn 0's predicted Pop return ('a') is now stale ('b' is on top).
        assert not intentions.commit(0)
        assert shared.state() == ("a", "b")  # nothing of txn 0 applied

    def test_abort_discards(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Push", ("b",)))
        intentions.abort(0)
        assert intentions.pending(0) == []
        assert intentions.commit(0)  # trivially valid: nothing buffered
        assert shared.state() == ("a",)

    def test_validate_without_commit(self, shared):
        intentions = IntentionsList(shared)
        intentions.execute(0, Invocation("Top"))
        assert intentions.validate(0)


class TestUndoLog:
    def test_execute_in_place(self, shared):
        undo = UndoLog(shared)
        returned = undo.execute(0, Invocation("Push", ("b",)))
        assert returned.outcome == "ok"
        assert shared.state() == ("a", "b")

    def test_undo_restores(self, shared):
        undo = UndoLog(shared)
        undo.execute(0, Invocation("Push", ("b",)))
        invalidated = undo.undo(0)
        assert invalidated == set()
        assert shared.state() == ("a",)

    def test_undo_reports_invalidated_readers(self, shared):
        undo = UndoLog(shared)
        undo.execute(0, Invocation("Push", ("b",)))
        undo.execute(1, Invocation("Pop"))  # observes txn 0's element
        assert undo.undo(0) == {1}
