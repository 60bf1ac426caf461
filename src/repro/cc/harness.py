"""Deterministic closed-loop driver shared by parity tests and benchmarks.

The discrete-event simulator (:mod:`repro.cc.simulator`) owns the
clock-driven experiments; this harness is its deterministic, zero-clock
sibling.  It drives a scripted :class:`~repro.cc.workload.Workload`
through any scheduler exposing the ``begin`` / ``request`` / ``try_commit``
/ ``abort`` / ``transaction`` surface — the optimized
:class:`~repro.cc.scheduler.TableDrivenScheduler` and the frozen
:class:`~repro.cc.reference.ReferenceScheduler` alike — and records the
complete observable outcome as a :class:`Transcript`:

* every operation decision, in issue order;
* every commit decision and voluntary abort;
* externally observed aborts (cascades, deadlock victims);
* the final dependency edges, final object state, per-transaction
  statuses, and the seed-comparable scheduler counters.

Transcripts are plain frozen dataclasses, so *parity* between two
scheduler implementations is a single ``==``: identical workloads must
yield identical transcripts.  The throughput benchmark times the same
:func:`drive` call, so the parity gate and the speedup measurement
exercise exactly the same code path.

Scheduling discipline: up to ``concurrency`` transactions are live at
once (admitted in program order, so transaction ids match across
implementations); live transactions are polled round-robin, one action
per turn — the next unexecuted step, or the commit/abort once steps are
exhausted.  Blocked operations and commit-waits retry on their next
turn.  Wait-cycle resolution is the scheduler's job; the harness only
caps total turns to turn a would-be livelock into a loud failure.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.scheduler import OpDecision
from repro.cc.transaction import TransactionStatus, TxnId
from repro.cc.workload import Workload
from repro.core.table import CompatibilityTable
from repro.errors import SchedulerError
from repro.obs.events import (
    CrashInduced,
    FaultInjected,
    RecoveryCompleted,
    RecoveryStarted,
)
from repro.spec.adt import ADTSpec, AbstractState, render_state

__all__ = [
    "Transcript",
    "drive",
    "inject_scheduler_faults",
    "poison_execution_cache",
]


def poison_execution_cache(scheduler, mode: str) -> None:
    """Apply one ``cache_poison`` fault (``"evict"`` or ``"corrupt"``).

    The shadow index's transition memo fronts the cache with the same
    class of derived record, so it is dropped too; otherwise memo hits
    would shield every future read from the poison.  Schedulers without
    a cache or a shadow index (the degraded
    :class:`~repro.cc.reference.ReferenceScheduler`) skip the parts they
    lack.
    """
    cache = getattr(scheduler, "execution_cache", None)
    if cache is not None:
        if mode == "evict":
            cache.chaos_evict()
        else:
            cache.chaos_corrupt()
    shadow = getattr(scheduler, "shadow_index", None)
    if shadow is not None:
        shadow().chaos_drop_memo()


def inject_scheduler_faults(scheduler, plan, now: float):
    """Run ``plan``'s scheduler-wide fault points; return the live scheduler.

    The shared fault body of both drivers: :func:`drive` runs it before
    every turn, the simulator before every event.  A ``cache_poison``
    fault goes through :func:`poison_execution_cache`.  A ``crash``
    fault kills the scheduler and reincarnates it from its decision
    log, counted in ``plan.stats.recoveries``; a scheduler without
    ``reincarnate`` cannot crash.  The returned scheduler replaces the
    caller's — after a crash it is the recovered one.
    """
    tracer = scheduler.tracer
    mode = plan.cache_poison()
    if mode:
        poison_execution_cache(scheduler, mode)
        if tracer:
            tracer.emit(
                FaultInjected(time=now, kind="cache_poison", detail=mode)
            )
    if plan.crash() and hasattr(scheduler, "reincarnate"):
        records = len(scheduler.log)
        if tracer:
            tracer.emit(FaultInjected(time=now, kind="crash"))
            tracer.emit(CrashInduced(time=now, log_records=records))
            tracer.emit(RecoveryStarted(time=now, log_records=records))
        scheduler = scheduler.reincarnate()
        if tracer:
            tracer.emit(RecoveryCompleted(time=now, replayed=records))
        plan.stats.recoveries += 1
    return scheduler


@dataclass(frozen=True)
class Transcript:
    """The complete observable outcome of one driven workload.

    Every field is hashable/comparable, so two scheduler implementations
    agree on a run exactly when their transcripts compare equal.
    """

    #: (txn, step index, decision) per operation attempt, in issue order.
    op_decisions: tuple[tuple[TxnId, int, OpDecision], ...]
    #: (txn, kind, detail) per resolution attempt, in issue order.  Kinds:
    #: ``committed``, ``commit-waiting`` (detail: sorted waiters),
    #: ``must-abort``, ``voluntary-abort`` (detail: sorted extra aborts),
    #: ``observed-abort`` (cascade/deadlock victim seen at turn start).
    resolutions: tuple[tuple[TxnId, str, tuple[TxnId, ...]], ...]
    #: Final dependency edges, sorted: ((later, earlier), dependency name).
    edges: tuple[tuple[tuple[TxnId, TxnId], str], ...]
    #: Final per-transaction statuses, by transaction id.
    statuses: tuple[tuple[TxnId, str], ...]
    #: The final object state, rendered by :func:`~repro.spec.adt.render_state`
    #: (abstract states are not hashable).
    final_state: str
    #: The seed-comparable scheduler counters, sorted by name.
    seed_stats: tuple[tuple[str, int], ...]

    def committed(self) -> tuple[TxnId, ...]:
        """Ids of the transactions that committed."""
        return tuple(
            txn
            for txn, status in self.statuses
            if status == TransactionStatus.COMMITTED.name
        )


class _Runner:
    """Progress of one transaction program through the scheduler."""

    __slots__ = ("txn", "program", "step", "done")

    def __init__(self, txn: TxnId, program) -> None:
        self.txn = txn
        self.program = program
        self.step = 0
        self.done = False


def drive(
    scheduler,
    adt: ADTSpec,
    table: CompatibilityTable,
    workload: Workload,
    object_name: str = "obj",
    initial_state: AbstractState | None = None,
    concurrency: int | None = None,
    max_turns: int | None = None,
    checkpoint=None,
    fault_plan=None,
) -> Transcript:
    """Run ``workload`` to completion and return the full transcript.

    ``concurrency`` bounds the number of simultaneously live transactions
    (default: all of them — maximum contention).  ``max_turns`` guards
    against livelock; the default allows every operation a generous number
    of blocked retries before failing loudly.

    ``checkpoint(index, scheduler)`` is invoked before every *decision
    point* (each ``request`` / ``try_commit`` / voluntary ``abort`` call,
    numbered from 0); returning a scheduler replaces the one in use — the
    hook the crash-point sweep uses to kill the scheduler mid-run and
    swap in a recovered one.  ``fault_plan`` is a
    :class:`~repro.robust.faults.FaultPlan` consulted at the named fault
    points; both default to ``None``, leaving the driver bit-identical to
    the fault-free harness.
    """
    scheduler.register_object(object_name, adt, table, initial_state)
    programs = list(workload.programs)
    concurrency = len(programs) if concurrency is None else max(1, concurrency)
    if max_turns is None:
        max_turns = 1000 * max(1, workload.total_operations())

    ops: list[tuple[TxnId, int, OpDecision]] = []
    resolutions: list[tuple[TxnId, str, tuple[TxnId, ...]]] = []
    live: list[_Runner] = []
    admitted = 0
    decision_index = 0

    def admit() -> None:
        nonlocal admitted
        while admitted < len(programs) and len(live) < concurrency:
            live.append(_Runner(scheduler.begin(), programs[admitted]))
            admitted += 1

    def at_decision_point() -> None:
        """Run the checkpoint hook (possibly swapping the scheduler)."""
        nonlocal scheduler, decision_index
        if checkpoint is not None:
            replacement = checkpoint(decision_index, scheduler)
            if replacement is not None:
                scheduler = replacement
        decision_index += 1

    def emit_fault(kind: str, txn: TxnId = -1, detail: str = "") -> None:
        if scheduler.tracer:
            scheduler.tracer.emit(
                FaultInjected(
                    time=scheduler.now, kind=kind, txn=txn, detail=detail
                )
            )

    admit()
    turns = 0
    while live:
        # Snapshot: runners admitted mid-round first act next round, and
        # removal below cannot skip a peer's turn.
        for runner in list(live):
            turns += 1
            if turns > max_turns:
                raise SchedulerError(
                    f"harness exceeded {max_turns} turns; workload livelocked"
                )
            if fault_plan:
                scheduler = inject_scheduler_faults(
                    scheduler, fault_plan, scheduler.now
                )
            txn = runner.txn
            status = scheduler.transaction(txn).status
            if status is not TransactionStatus.ACTIVE:
                # Aborted from outside its own turn: a cascade, a deadlock
                # victim, or a replay invalidation.
                resolutions.append((txn, "observed-abort", ()))
                runner.done = True
                live.remove(runner)
                continue
            if runner.step < len(runner.program.steps):
                if fault_plan and fault_plan.spurious_abort(txn):
                    emit_fault("spurious_abort", txn=txn)
                    extra = scheduler.abort(txn, reason="fault-injected")
                    resolutions.append(
                        (txn, "fault-abort", tuple(sorted(extra)))
                    )
                    runner.done = True
                    live.remove(runner)
                    continue
                if fault_plan and fault_plan.op_failure(txn):
                    # Transient execution failure: the step is retried on
                    # the runner's next turn.
                    emit_fault("op_failure", txn=txn)
                    continue
                step = runner.program.steps[runner.step]
                at_decision_point()
                decision = scheduler.request(txn, object_name, step.invocation)
                ops.append((txn, runner.step, decision))
                if decision.executed:
                    runner.step += 1
                elif decision.aborted:
                    runner.done = True
                    live.remove(runner)
                # else: blocked — retry on the next turn.
                continue
            if runner.program.voluntary_abort:
                at_decision_point()
                extra = scheduler.abort(txn, reason="voluntary")
                resolutions.append((txn, "voluntary-abort", tuple(sorted(extra))))
                runner.done = True
                live.remove(runner)
                continue
            if fault_plan and fault_plan.commit_delay(txn) is not None:
                # The attempt is postponed to the runner's next turn.
                emit_fault("commit_delay", txn=txn)
                continue
            at_decision_point()
            decision = scheduler.try_commit(txn)
            if decision.committed:
                resolutions.append((txn, "committed", ()))
                runner.done = True
                live.remove(runner)
            elif decision.must_abort:
                resolutions.append((txn, "must-abort", ()))
                runner.done = True
                live.remove(runner)
            else:
                resolutions.append(
                    (txn, "commit-waiting", tuple(sorted(decision.waiting_on)))
                )
                # Retry on the next turn.
        admit()

    edges = tuple(
        sorted(
            (pair, dependency.name)
            for pair, dependency in scheduler.dependency_graph().edges().items()
        )
    )
    statuses = tuple(
        (txn, scheduler.transaction(txn).status.name) for txn in range(admitted)
    )
    # Re-fetched from the (possibly checkpoint-swapped) scheduler rather
    # than the registration-time object: after a crash swap the live
    # object belongs to the recovered scheduler.
    final_state = render_state(scheduler.object(object_name).state())
    return Transcript(
        op_decisions=tuple(ops),
        resolutions=tuple(resolutions),
        edges=edges,
        statuses=statuses,
        final_state=final_state,
        seed_stats=tuple(sorted(scheduler.stats.seed_counters().items())),
    )
