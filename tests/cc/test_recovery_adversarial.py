"""Adversarial recovery-discipline tests: cascades and cache pressure.

The intentions-list and undo-log disciplines are exercised under the
conditions that break naive implementations — validation races, chained
undo invalidation peeled one link per round, and a deliberately tiny
execution cache that evicts on nearly every memoization attempt
mid-validation.
"""

import pytest

from repro.adts.account import AccountSpec
from repro.cc.objects import SharedObject
from repro.cc.recovery import IntentionsList, UndoLog
from repro.graph.instrument import EdgeAttribution
from repro.perf.cache import execution_cache
from repro.spec.adt import execute_invocation, execute_uncached
from repro.spec.operation import Invocation
from repro.spec.returnvalue import nok, ok

DEPOSIT = Invocation("Deposit", (1,))
WITHDRAW = Invocation("Withdraw", (1,))


def account_object(max_balance=100):
    return SharedObject("obj", AccountSpec(max_balance=max_balance))


def chain(undo, depth):
    """txn 0 deposits one unit; each later txn withdraws and redeposits it."""
    undo.execute(0, DEPOSIT)
    for txn in range(1, depth + 1):
        assert undo.execute(txn, WITHDRAW) == ok()
        undo.execute(txn, DEPOSIT)
    return list(range(1, depth + 1))


class TestIntentionsAdversarial:
    def test_validation_catches_a_racing_commit(self):
        shared = account_object()
        intentions = IntentionsList(shared)
        # txn 1 provisionally withdraws the unit txn 0 committed.
        assert intentions.execute(0, DEPOSIT) == ok()
        assert intentions.commit(0)
        assert intentions.execute(1, WITHDRAW) == ok()
        # A third party drains the account in place before txn 1 commits.
        shared.execute(9, WITHDRAW)
        assert not intentions.validate(1)
        assert not intentions.commit(1)
        # Failed commits discard nothing: the caller chooses retry/abort.
        assert intentions.pending(1) == [WITHDRAW]
        intentions.abort(1)
        assert intentions.pending(1) == []

    def test_own_intentions_stay_invisible_to_others(self):
        intentions = IntentionsList(account_object())
        assert intentions.execute(0, DEPOSIT) == ok()
        # txn 1 must not see txn 0's uncommitted deposit.
        assert intentions.execute(1, WITHDRAW) == nok()
        assert intentions.execute(0, WITHDRAW) == ok()

    def test_aborted_intentions_never_reach_the_object(self):
        shared = account_object()
        intentions = IntentionsList(shared)
        for _ in range(5):
            intentions.execute(0, DEPOSIT)
        intentions.abort(0)
        assert shared.state() == 0
        assert intentions.commit(0)  # nothing left to validate or apply


class TestUndoCascades:
    def test_undo_invalidates_one_link_per_round(self):
        shared = account_object()
        undo = UndoLog(shared)
        chain(undo, depth=6)
        # The invalidated survivor's operations stay in the log until it
        # is itself undone, so the chain peels strictly one link at a
        # time — the shape that made the scheduler's old recursive
        # cascade O(depth) frames deep.
        assert undo.undo(0) == {1}

    def test_iterated_undo_converges_and_restores_state(self):
        shared = account_object()
        undo = UndoLog(shared)
        depth = 10
        chain(undo, depth=depth)
        invalidated = undo.undo(0)
        rounds = 0
        while invalidated:
            (survivor,) = invalidated
            invalidated = undo.undo(survivor)
            rounds += 1
        assert rounds == depth
        assert shared.state() == 0
        assert shared.log() == []

    def test_undo_of_independent_txns_invalidates_nothing(self):
        shared = account_object()
        undo = UndoLog(shared)
        undo.execute(0, DEPOSIT)
        undo.execute(1, DEPOSIT)
        undo.execute(2, DEPOSIT)
        assert undo.undo(1) == set()
        assert shared.state() == 2


class TestCacheEvictionPressure:
    def test_intentions_validate_correctly_under_a_tiny_cache(self):
        def run(maxsize):
            with execution_cache(maxsize=maxsize) as cache:
                shared = account_object()
                intentions = IntentionsList(shared)
                for txn in range(6):
                    intentions.execute(txn, DEPOSIT)
                    intentions.execute(txn, WITHDRAW)
                    intentions.execute(txn, DEPOSIT)
                committed = [intentions.commit(txn) for txn in range(6)]
                return committed, shared.state(), cache.evictions

        tiny_committed, tiny_state, tiny_evictions = run(2)
        roomy_committed, roomy_state, _ = run(4096)
        # The growing committed state makes every validation replay hit
        # fresh (state, invocation) keys: a 2-entry cache must thrash.
        assert tiny_evictions > 0
        assert tiny_committed == roomy_committed == [True] * 6
        assert tiny_state == roomy_state == 6

    def test_chaos_eviction_mid_validation_never_changes_results(self):
        with execution_cache(maxsize=64) as cache:
            shared = account_object()
            intentions = IntentionsList(shared)
            outcomes = []
            for txn in range(8):
                intentions.execute(txn, DEPOSIT)
                intentions.execute(txn, WITHDRAW)
                evicted = cache.chaos_evict(count=3)
                assert evicted >= 0
                outcomes.append(intentions.commit(txn))
            assert outcomes == [True] * 8
            assert shared.state() == 0

    def test_chaos_corruption_is_cache_confined_and_detectable(self):
        adt = AccountSpec(max_balance=100)
        with execution_cache(maxsize=64) as cache:
            honest = execute_invocation(adt, 0, DEPOSIT)
            assert honest.post_state == 1
            assert cache.chaos_corrupt()
            # The poisoned entry now serves a stale post-state...
            poisoned = execute_invocation(adt, 0, DEPOSIT)
            assert poisoned.post_state == 0
            # ...but the uncached path — the one every recovery replay
            # and invariant audit uses — is untouched by construction.
            fresh = execute_uncached(adt, 0, DEPOSIT, EdgeAttribution.BOTH)
            assert fresh.post_state == 1
        # Outside the context the poisoned cache is uninstalled: the
        # default path tells the truth again.
        assert execute_invocation(adt, 0, DEPOSIT).post_state == 1
