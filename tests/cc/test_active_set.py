"""The scheduler's maintained active set equals a scan of every transaction.

``TableDrivenScheduler.active_transactions`` returns a set kept up to date
where transactions begin, commit and abort, instead of scanning every
transaction ever begun.  These tests compare it with that scan wherever
transactions change state: at every decision point of a driven workload,
after crash recovery by replay, after a backup applies each shipped
record, and after a participant node aborts the orphans of a crash.
"""

import itertools

import pytest

from repro.adts.account import AccountSpec
from repro.adts.registry import builtin_names, make_adt
from repro.cc.harness import drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.dist import ParticipantNode, SimBus
from repro.errors import SchedulerError
from repro.robust import LoggingScheduler
from repro.robust.decision_log import apply_record


def scanned_active(scheduler) -> set:
    """The active transactions, by scanning every id ever begun."""
    active = set()
    for txn in itertools.count():
        try:
            transaction = scheduler.transaction(txn)
        except SchedulerError:
            return active
        if transaction.is_active:
            active.add(txn)


def assert_active_set(scheduler) -> None:
    assert scheduler.active_transactions() == scanned_active(scheduler)


def workload_for(adt, seed=7):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=16,
            operations_per_transaction=3,
            abort_probability=0.3,
            seed=seed,
        ),
    )


@pytest.mark.parametrize("adt_name", builtin_names())
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_active_set_at_every_decision_point(adt_name, policy):
    adt = make_adt(adt_name)
    workload = workload_for(adt)
    checks = []

    def checkpoint(index, scheduler):
        assert_active_set(scheduler)
        checks.append(index)
        return None

    scheduler = TableDrivenScheduler(policy=policy)
    drive(
        scheduler,
        adt,
        derive(adt).final_table,
        workload,
        concurrency=4,
        checkpoint=checkpoint,
    )
    assert_active_set(scheduler)
    assert scheduler.active_transactions() == set()
    assert len(checks) > len(workload.programs)


@pytest.fixture(scope="module")
def account():
    adt = AccountSpec()
    return adt, derive(adt).final_table


def test_active_set_after_reincarnation(account):
    adt, table = account
    checked = []

    def checkpoint(index, scheduler):
        # Crash and recover at every fourth decision point, mid-run.
        if index % 4:
            return None
        reborn = scheduler.reincarnate()
        assert_active_set(reborn)
        assert reborn.active_transactions() == scheduler.active_transactions()
        checked.append(index)
        return reborn

    drive(
        LoggingScheduler(TableDrivenScheduler(policy="blocking")),
        adt,
        table,
        workload_for(adt, seed=3),
        concurrency=4,
        checkpoint=checkpoint,
    )
    assert len(checked) > 1


def test_active_set_after_each_applied_record(account):
    adt, table = account
    primary = LoggingScheduler(TableDrivenScheduler(policy="blocking"))
    drive(primary, adt, table, workload_for(adt, seed=5), concurrency=4)
    backup = TableDrivenScheduler(policy="blocking")
    for index, record in enumerate(primary.log.records):
        apply_record(backup, primary.log, record, index)
        assert_active_set(backup)
    assert backup.active_transactions() == primary.active_transactions()


def test_active_set_after_orphans_are_aborted(account):
    adt, table = account
    bus = SimBus()
    node = ParticipantNode("node0")
    node.bus = bus
    node.register_object("obj", adt, table)
    bus.register_endpoint("node0", node.handle)
    deposit = adt.invocations_of("Deposit")[0]
    for gtxn in (0, 1):
        reply = bus.rpc(
            "tester", "node0", "op", gtxn,
            {"op_seq": 0, "object_name": "obj", "invocation": deposit},
        )
        assert reply.payload["outcome"] == "executed"
    # A local transaction whose begin is durable but whose gtxn mapping
    # is not: the crash recovery below must abort it as an orphan.
    orphan = node.sched.begin()

    node.recover()

    assert node.stats.orphans_aborted == 1
    assert not node.sched.transaction(orphan).is_active
    assert_active_set(node.sched)
    assert node.sched.active_transactions() == {0, 1}
