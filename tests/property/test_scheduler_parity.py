"""Parity: the optimized scheduler is bit-identical to the seed reference.

The hot-path optimizations (incremental shadow states and their
transition memo, per-request context reuse, preview-verdict memoization,
integer conflict matrices, the incremental peer index and codegen
executors — see ``docs/PERFORMANCE.md``) must not change a single
observable decision.  These tests drive identical seeded workloads
through the optimized :class:`~repro.cc.scheduler.TableDrivenScheduler`
and the frozen :class:`~repro.cc.reference.ReferenceScheduler` and
require equal transcripts: every ``OpDecision`` and ``CommitDecision`` in
issue order, the recorded dependency edges, final per-transaction
statuses, the final object state, and the seed-comparable
``SchedulerStats`` counters (including ``condition_evaluations`` — the
bitmask fast path must account exactly the work it displaces).

Coverage: every builtin ADT x both policies x 20 seeded workloads each
(with voluntary aborts and varying concurrency, so cascades, blocking,
peer-index invalidation, deadlock victims and replay invalidation all
appear in the stream), plus a mid-run quarantine rebuild.  Long
abort-heavy histories make rollbacks replay from a recovery baseline the
optimized scheduler has already folded forward, and multi-object runs
abort transactions that touch only some objects, which the optimized
scheduler leaves alone while the reference replays them all.
"""

from __future__ import annotations

import random

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.cc.harness import drive
from repro.cc.reference import ReferenceScheduler
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.spec.adt import render_state
from repro.spec.operation import Invocation

SEEDS = range(20)

_TABLES = {}


def _table(adt):
    if adt.name not in _TABLES:
        _TABLES[adt.name] = derive(adt).final_table
    return _TABLES[adt.name]


def _workload(adt, seed: int):
    # Vary the shape with the seed so the 20 runs are not one scenario
    # repeated: small/large transaction counts, clean and abort-heavy
    # mixes, full and limited concurrency.
    config = WorkloadConfig(
        transactions=4 + (seed % 3) * 2,
        operations_per_transaction=3 + seed % 3,
        abort_probability=(0.0, 0.2, 0.35)[seed % 3],
        seed=seed,
    )
    return generate(adt, "obj", config), (None, 3)[seed % 2]


@pytest.mark.parametrize("adt_name", builtin_names())
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_transcripts_identical(adt_name, policy):
    adt = make_adt(adt_name)
    table = _table(adt)
    for seed in SEEDS:
        workload, concurrency = _workload(adt, seed)
        reference = drive(
            ReferenceScheduler(policy=policy),
            adt,
            table,
            workload,
            concurrency=concurrency,
        )
        optimized = drive(
            TableDrivenScheduler(policy=policy),
            adt,
            table,
            workload,
            concurrency=concurrency,
        )
        assert optimized == reference, (
            f"{adt_name}/{policy}/seed={seed}: transcripts diverge"
        )


def test_optimizations_actually_engage():
    """The parity above must not be vacuous: on a contended commutative
    workload the optimized scheduler serves shadow queries from the
    index, reuses the per-request graph, and hits the ND fast path."""
    adt = make_adt("Account")
    table = _table(adt)
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=8,
            operations_per_transaction=6,
            operation_mix={"Deposit": 1.0},
            seed=5,
        ),
    )
    scheduler = TableDrivenScheduler(policy="optimistic")
    drive(scheduler, adt, table, workload)
    assert scheduler.stats.shadow_replays_avoided > 0
    assert scheduler.stats.nd_fast_path_hits > 0
    assert scheduler.stats.shadow_full_replays < (
        scheduler.stats.shadow_full_replays
        + scheduler.stats.shadow_replays_avoided
    )
    # The shadow transition memo fronts the execution cache, so repeated
    # transitions show up there; its misses must still reach the cache.
    assert scheduler.stats.compiled_memo_hits > 0
    cache = scheduler.execution_cache.stats()
    assert cache.misses > 0, "memo misses must flow through the cache"


def test_rebuild_fast_paths_preserves_parity():
    """The quarantine rung recompiles matrices and resets the shadow and
    peer indexes; decisions after a mid-run rebuild must match an
    untouched reference run."""
    adt = make_adt("QStack")
    table = _table(adt)
    workload, concurrency = _workload(adt, 4)

    def checkpoint(index, scheduler):
        if index == 7:
            scheduler.rebuild_fast_paths()
        return None

    rebuilt = drive(
        TableDrivenScheduler(policy="optimistic"),
        adt,
        table,
        workload,
        concurrency=concurrency,
        checkpoint=checkpoint,
    )
    reference = drive(
        ReferenceScheduler(policy="optimistic"),
        adt,
        table,
        workload,
        concurrency=concurrency,
    )
    assert rebuilt == reference


def test_preview_reuse_engages_under_blocking():
    adt = make_adt("Account")
    table = _table(adt)
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=6,
            operations_per_transaction=5,
            operation_mix={"Deposit": 1.0},
            seed=9,
        ),
    )
    scheduler = TableDrivenScheduler(policy="blocking")
    drive(scheduler, adt, table, workload)
    assert scheduler.stats.preview_reuses > 0


# ----------------------------------------------------------------------
# Long and multi-object histories: recovery from a folded baseline
# ----------------------------------------------------------------------


@pytest.mark.parametrize("adt_name", ["QStack", "Account", "Set"])
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_long_abort_heavy_history(adt_name, policy):
    """64 transactions, a third aborting: rollbacks replay from a baseline
    that earlier commits have already advanced past the registration
    state, and must still match the reference, which never folds."""
    adt = make_adt(adt_name)
    table = _table(adt)
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=64,
            operations_per_transaction=3,
            abort_probability=0.35,
            seed=11,
        ),
    )
    folded_rollbacks = []

    def watch_rollbacks(index, scheduler):
        if index == 0:
            shared = scheduler.object("obj")
            remove = shared.remove_transactions

            def noted(txns):
                folded_rollbacks.append(shared.baseline != shared.initial_state)
                return remove(txns)

            shared.remove_transactions = noted
        return None

    optimized_scheduler = TableDrivenScheduler(policy=policy)
    optimized = drive(
        optimized_scheduler,
        adt,
        table,
        workload,
        concurrency=4,
        checkpoint=watch_rollbacks,
    )
    reference = drive(
        ReferenceScheduler(policy=policy), adt, table, workload, concurrency=4
    )
    assert optimized == reference
    assert any(folded_rollbacks), "no rollback started from a folded baseline"
    assert len(optimized_scheduler.object("obj").log()) < 12


_MULTI_OBJECTS = (
    ("q0", "QStack"),
    ("q1", "QStack"),
    ("a0", "Account"),
    ("a1", "Account"),
    ("s0", "Set"),
)


def _multi_programs(seed: int, transactions: int = 48):
    """``(steps, voluntary_abort)`` per transaction, each touching one or
    two of the objects, so every abort leaves some objects untouched."""
    rng = random.Random(seed)
    adts = {name: make_adt(adt_name) for name, adt_name in _MULTI_OBJECTS}
    programs = []
    for _ in range(transactions):
        names = rng.sample(sorted(adts), rng.choice((1, 2)))
        steps = []
        for _ in range(3):
            name = rng.choice(names)
            steps.append((name, rng.choice(adts[name].invocations())))
        programs.append((tuple(steps), rng.random() < 0.3))
    return programs


def _drive_multi(scheduler, programs, concurrency: int = 4):
    """Round-robin closed loop over several objects, in the manner of
    :func:`repro.cc.harness.drive`; returns everything observable."""
    for name, adt_name in _MULTI_OBJECTS:
        adt = make_adt(adt_name)
        scheduler.register_object(name, adt, _table(adt))
    decisions = []
    live: list[list] = []
    pending = list(programs)
    while live or pending:
        while pending and len(live) < concurrency:
            steps, aborts = pending.pop(0)
            live.append([scheduler.begin(), steps, aborts, 0])
        for runner in list(live):
            txn, steps, aborts, step = runner
            if not scheduler.transaction(txn).is_active:
                decisions.append((txn, "observed-abort"))
                live.remove(runner)
            elif step < len(steps):
                decision = scheduler.request(txn, *steps[step])
                decisions.append((txn, step, decision))
                if decision.executed:
                    runner[3] += 1
                elif decision.aborted:
                    live.remove(runner)
            elif aborts:
                extra = scheduler.abort(txn, reason="voluntary")
                decisions.append((txn, "abort", tuple(sorted(extra))))
                live.remove(runner)
            else:
                decision = scheduler.try_commit(txn)
                decisions.append((txn, "commit", decision))
                if decision.committed or decision.must_abort:
                    live.remove(runner)
    admitted = len(programs)
    return (
        tuple(decisions),
        tuple(sorted(scheduler.dependency_graph().edges().items())),
        tuple(
            scheduler.transaction(txn).status.name for txn in range(admitted)
        ),
        tuple(
            render_state(scheduler.object(name).state())
            for name, _ in _MULTI_OBJECTS
        ),
        scheduler.stats.seed_counters(),
    )


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_multi_object_aborts_touch_a_subset(policy, seed):
    programs = _multi_programs(seed)
    optimized_scheduler = TableDrivenScheduler(policy=policy)
    optimized = _drive_multi(optimized_scheduler, programs)
    reference = _drive_multi(ReferenceScheduler(policy=policy), programs)
    assert optimized == reference
    aborted_objects = [
        {record.object_name for record in transaction.records}
        for transaction in map(
            optimized_scheduler.transaction, range(len(programs))
        )
        if transaction.is_aborted and transaction.records
    ]
    assert aborted_objects, "the run must abort some transactions"
    assert all(len(names) < len(_MULTI_OBJECTS) for names in aborted_objects)


@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_cycle_victim_rolls_back_its_unrecorded_operation(policy):
    """The victim's operation that closes a dependency cycle is logged
    but never recorded; the rollback must still reach its object, even
    when the victim touched that object nowhere else."""
    adt = make_adt("Account")
    withdraw, deposit = Invocation("Withdraw", (1,)), Invocation("Deposit", (1,))
    outcomes = []
    for scheduler in (
        TableDrivenScheduler(policy=policy),
        ReferenceScheduler(policy=policy),
    ):
        for name in ("x", "y"):
            scheduler.register_object(name, adt, _table(adt))
        victim, other = scheduler.begin(), scheduler.begin()
        decisions = [
            scheduler.request(txn, name, invocation)
            for txn, name, invocation in (
                (victim, "x", withdraw),
                (other, "x", deposit),
                (other, "y", deposit),
            )
        ]
        decisions.append(scheduler.request(victim, "y", withdraw))
        decisions.append(scheduler.try_commit(other))
        outcomes.append(
            (
                decisions,
                scheduler.transaction(victim).status.name,
                [render_state(scheduler.object(n).state()) for n in "xy"],
            )
        )
    assert outcomes[0] == outcomes[1]
    if policy == "optimistic":
        assert outcomes[0][1] == "ABORTED"
