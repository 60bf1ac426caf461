"""Shadow-state index: incremental maintenance and abort invalidation.

The index's one obligation is freshness: a ``shadow_state``/
``shadow_return`` query must always equal a full replay of the object's
current log minus the excluded transaction — including immediately after
aborts rewrote the log.  The scheduler-level tests here run abort-heavy
workloads (voluntary aborts, cascades, deadlock victims) with an
*audited* index that recomputes the full replay on every single query
and fails the moment a maintained state goes stale.
"""

from __future__ import annotations

import pytest

from repro.adts.registry import make_adt
from repro.cc.harness import drive
from repro.cc.objects import SharedObject
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.perf.shadow import ShadowStateIndex, ShadowStats
from repro.spec.operation import Invocation


@pytest.fixture(scope="module")
def account():
    return make_adt("Account")


@pytest.fixture(scope="module")
def qstack():
    return make_adt("QStack")


@pytest.fixture(scope="module")
def qstack_table(qstack):
    return derive(qstack).final_table


def deposit(amount: int) -> Invocation:
    return Invocation("Deposit", (amount,))


def replay_without(shared: SharedObject, exclude_txn: int, skip=None):
    """The ground truth the index must always agree with."""
    from repro.spec.adt import execute_invocation

    state = shared.baseline
    for entry in shared.log():
        if entry is skip or entry.txn == exclude_txn:
            continue
        state = execute_invocation(shared.adt, state, entry.invocation).post_state
    return state


def assert_fresh(index: ShadowStateIndex, shared: SharedObject, txns) -> None:
    for txn in txns:
        assert index.shadow_state(shared.name, shared, txn) == replay_without(
            shared, txn
        ), f"stale shadow state for txn {txn}"


# ----------------------------------------------------------------------
# Direct unit behaviour
# ----------------------------------------------------------------------


class TestIncrementalMaintenance:
    def _object(self, account):
        shared = SharedObject("acct", account)
        index = ShadowStateIndex()
        index.register("acct")
        return shared, index

    def test_maintained_states_track_the_log(self, account):
        shared, index = self._object(account)
        for step, txn in enumerate((0, 1, 2, 0, 1, 2)):
            applied = shared.execute(txn, deposit(step % 3 + 1))
            # Certify-then-note, as the scheduler does: while the new
            # entry is logged but un-noted, queries skip it explicitly.
            for other in (t for t in (0, 1, 2) if t != txn):
                assert index.shadow_state(
                    "acct", shared, other, skip=applied
                ) == replay_without(shared, other, skip=applied)
            index.note_execute("acct", shared, applied)
        assert_fresh(index, shared, (0, 1, 2))

    def test_queries_hit_after_first_build(self, account):
        shared, index = self._object(account)
        for txn in (0, 1):
            index.note_execute("acct", shared, shared.execute(txn, deposit(1)))
        index.shadow_state("acct", shared, 0)
        builds = index.stats.shadow_full_replays
        index.shadow_state("acct", shared, 0)
        assert index.stats.shadow_full_replays == builds
        assert index.stats.shadow_replays_avoided >= 1

    def test_skip_excludes_the_uncertified_entry(self, account):
        shared, index = self._object(account)
        index.note_execute("acct", shared, shared.execute(0, deposit(5)))
        # Txn 1's operation is logged but not yet noted — the scheduler
        # certifies in exactly this window.
        applied = shared.execute(1, deposit(7))
        state = index.shadow_state("acct", shared, 0, skip=applied)
        assert state == replay_without(shared, 0, skip=applied)
        # The memoized state must also be consistent once applied is noted.
        index.note_execute("acct", shared, applied)
        assert_fresh(index, shared, (0, 1))

    def test_forget_drops_only_that_transaction(self, account):
        shared, index = self._object(account)
        for txn in (0, 1):
            index.note_execute("acct", shared, shared.execute(txn, deposit(1)))
        index.shadow_state("acct", shared, 0)
        index.shadow_state("acct", shared, 1)
        index.forget("acct", 0)
        builds = index.stats.shadow_full_replays
        index.shadow_state("acct", shared, 1)  # still maintained
        assert index.stats.shadow_full_replays == builds
        index.shadow_state("acct", shared, 0)  # rebuilt
        assert index.stats.shadow_full_replays == builds + 1

    def test_standalone_stats_sink(self):
        stats = ShadowStats()
        assert stats.shadow_replays_avoided == 0
        assert stats.shadow_full_replays == 0


class TestAbortInvalidation:
    def test_abort_mid_history_invalidates(self, account):
        shared = SharedObject("acct", account)
        index = ShadowStateIndex()
        index.register("acct")
        for step, txn in enumerate((0, 1, 2, 1, 0)):
            index.note_execute(
                "acct", shared, shared.execute(txn, deposit(step + 1))
            )
        assert_fresh(index, shared, (0, 1, 2))
        epoch = index.epoch("acct")
        # Abort txn 1 mid-history: the log is rewritten without it.
        shared.remove_transactions({1})
        index.invalidate("acct")
        assert index.epoch("acct") == epoch + 1
        # Without invalidation the old states (which embedded txn 1's
        # deposits) would be wrong; after it, queries rebuild correctly.
        assert_fresh(index, shared, (0, 2))

    def test_every_abort_bumps_the_epoch(self, account):
        index = ShadowStateIndex()
        index.register("acct")
        for expected in (1, 2, 3):
            index.invalidate("acct")
            assert index.epoch("acct") == expected

    def test_invalidate_all_objects(self, account):
        index = ShadowStateIndex()
        index.register("a")
        index.register("b")
        index.invalidate()
        assert index.epoch("a") == 1
        assert index.epoch("b") == 1


# ----------------------------------------------------------------------
# In situ: the scheduler must never read a stale verdict
# ----------------------------------------------------------------------


class _AuditedIndex(ShadowStateIndex):
    """Checks every query against a fresh full replay."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.audited = 0

    def shadow_state(self, name, shared, exclude_txn, skip=None):
        state = super().shadow_state(name, shared, exclude_txn, skip)
        assert state == self._replay_without(shared, exclude_txn, skip), (
            f"stale shadow state: object={name} exclude={exclude_txn}"
        )
        self.audited += 1
        return state


def _audited_scheduler(policy: str) -> TableDrivenScheduler:
    scheduler = TableDrivenScheduler(policy=policy)
    scheduler._shadow = _AuditedIndex(
        cache=scheduler.execution_cache, stats=scheduler.stats
    )
    return scheduler


class TestSchedulerNeverStale:
    def test_under_cascading_aborts(self, qstack, qstack_table):
        workload = generate(
            qstack,
            "obj",
            WorkloadConfig(
                transactions=8,
                operations_per_transaction=5,
                abort_probability=0.25,
                seed=0,
            ),
        )
        scheduler = _audited_scheduler("optimistic")
        drive(scheduler, qstack, qstack_table, workload)
        assert scheduler.stats.cascaded_aborts > 0, "scenario must cascade"
        assert scheduler._shadow.audited > 0

    def test_under_deadlock_victim_rollback(self, qstack, qstack_table):
        workload = generate(
            qstack,
            "obj",
            WorkloadConfig(
                transactions=8,
                operations_per_transaction=5,
                abort_probability=0.25,
                seed=0,
            ),
        )
        scheduler = _audited_scheduler("blocking")
        drive(scheduler, qstack, qstack_table, workload)
        assert scheduler.stats.deadlock_victims > 0, "scenario must deadlock"
        assert scheduler._shadow.audited > 0

    def test_across_many_abort_heavy_seeds(self, qstack, qstack_table):
        for seed in range(8):
            for policy in ("optimistic", "blocking"):
                workload = generate(
                    qstack,
                    "obj",
                    WorkloadConfig(
                        transactions=6,
                        operations_per_transaction=4,
                        abort_probability=0.35,
                        seed=seed,
                    ),
                )
                scheduler = _audited_scheduler(policy)
                drive(scheduler, qstack, qstack_table, workload)
