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

Scheduling discipline lives in :func:`play`, the one round-robin turn
loop: :func:`drive` plays it over a
:class:`~repro.serve.backend.SchedulerBackend`, and
:meth:`repro.dist.cluster.Cluster.run` plays it over a
:class:`~repro.dist.cluster.ClusterFrontend`.  Up to ``concurrency``
transactions are live at once (admitted in program order, so
transaction ids match across implementations); live transactions are
polled round-robin, one action per turn — the next unexecuted step, or
the commit/abort once steps are exhausted.  Blocked operations and
commit-waits retry on their next turn.  Wait-cycle resolution is the
scheduler's job; the loop only caps total turns to turn a would-be
livelock into a loud failure.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cc.scheduler import CommitDecision, OpDecision
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
    "TRANSIENT_COMMIT",
    "TRANSIENT_OP",
    "Transcript",
    "drive",
    "inject_scheduler_faults",
    "play",
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


#: The no-decision outcomes of an unreachable or crashed attempt: the
#: caller retries, and :func:`play` records nothing.  Told apart by
#: identity, since a real blocked decision may also carry an empty
#: ``blocked_on``.
TRANSIENT_OP = OpDecision(executed=False, blocked_on=frozenset())
TRANSIENT_COMMIT = CommitDecision(committed=False, waiting_on=frozenset())


class _Runner:
    """Progress of one transaction program through the backend."""

    __slots__ = ("txn", "program", "objects", "step")

    def __init__(self, txn: TxnId, program, objects) -> None:
        self.txn = txn
        self.program = program
        self.objects = objects
        self.step = 0


def _nothing(*_args) -> None:
    """The default hook: does nothing."""


def play(
    backend,
    programs,
    objects,
    concurrency: int | None = None,
    max_turns: int | None = None,
    plan=None,
    on_round=_nothing,
    on_turn=_nothing,
    on_decision=_nothing,
    on_fault=_nothing,
):
    """The round-robin turn loop; returns ``(ops, resolutions, admitted)``.

    Plays ``programs`` (program ``i``'s step ``k`` on object
    ``objects[i][k]``) through ``backend``'s ``begin`` / ``status`` /
    ``request`` / ``try_commit`` / ``abort`` and nothing else.  A
    no-decision outcome (:data:`TRANSIENT_OP` / :data:`TRANSIENT_COMMIT`)
    is retried like a blocked one and recorded nowhere.  ``on_round()``
    opens every round, ``on_turn()`` every turn, ``on_decision()``
    precedes every decision point, and ``on_fault(kind, txn)`` reports
    each of ``plan``'s per-turn fault points that fires.
    ``concurrency`` and ``max_turns`` default as :func:`drive` says.
    """
    concurrency = len(programs) if concurrency is None else max(1, concurrency)
    if max_turns is None:
        max_turns = 1000 * max(1, sum(len(p.steps) for p in programs))
    ops: list[tuple[TxnId, int, OpDecision]] = []
    resolutions: list[tuple[TxnId, str, tuple[TxnId, ...]]] = []
    live: list[_Runner] = []
    admitted = 0

    def admit() -> None:
        nonlocal admitted
        while admitted < len(programs) and len(live) < concurrency:
            live.append(
                _Runner(backend.begin(), programs[admitted], objects[admitted])
            )
            admitted += 1

    admit()
    turns = 0
    while live:
        on_round()
        # Snapshot: runners admitted mid-round first act next round, and
        # removal below cannot skip a peer's turn.
        for runner in list(live):
            turns += 1
            if turns > max_turns:
                raise SchedulerError(
                    f"harness exceeded {max_turns} turns; workload livelocked"
                )
            on_turn()
            txn = runner.txn
            if backend.status(txn) != "ACTIVE":
                # Aborted from outside its own turn: a cascade, a deadlock
                # victim, a replay invalidation or a 2PC abort.
                resolutions.append((txn, "observed-abort", ()))
                live.remove(runner)
                continue
            steps = runner.program.steps
            if runner.step < len(steps):
                if plan and plan.spurious_abort(txn):
                    on_fault("spurious_abort", txn)
                    extra = backend.abort(txn, "fault-injected")
                    resolutions.append(
                        (txn, "fault-abort", tuple(sorted(extra)))
                    )
                    live.remove(runner)
                    continue
                if plan and plan.op_failure(txn):
                    # Transient execution failure: retried next turn.
                    on_fault("op_failure", txn)
                    continue
                on_decision()
                decision = backend.request(
                    txn,
                    runner.objects[runner.step],
                    steps[runner.step].invocation,
                )
                if decision is TRANSIENT_OP:
                    continue
                ops.append((txn, runner.step, decision))
                if decision.executed:
                    runner.step += 1
                elif decision.aborted:
                    live.remove(runner)
                # else: blocked — retry on the next turn.
                continue
            if runner.program.voluntary_abort:
                on_decision()
                extra = backend.abort(txn, "voluntary")
                resolutions.append((txn, "voluntary-abort", tuple(sorted(extra))))
                live.remove(runner)
                continue
            if plan and plan.commit_delay(txn) is not None:
                # The attempt is postponed to the runner's next turn.
                on_fault("commit_delay", txn)
                continue
            on_decision()
            decision = backend.try_commit(txn)
            if decision is TRANSIENT_COMMIT:
                continue
            if decision.committed:
                resolutions.append((txn, "committed", ()))
                live.remove(runner)
            elif decision.must_abort:
                resolutions.append((txn, "must-abort", ()))
                live.remove(runner)
            else:
                resolutions.append(
                    (txn, "commit-waiting", tuple(sorted(decision.waiting_on)))
                )
        admit()
    return ops, resolutions, admitted


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

    :func:`play` over a :class:`~repro.serve.backend.SchedulerBackend`,
    every step on ``object_name``.  ``concurrency`` bounds the number of
    simultaneously live transactions (default: all of them — maximum
    contention).  ``max_turns`` guards against livelock; the default
    allows every operation a generous number of blocked retries before
    failing loudly.

    ``checkpoint(index, scheduler)`` is invoked before every *decision
    point* (each ``request`` / ``try_commit`` / voluntary ``abort`` call,
    numbered from 0); returning a scheduler replaces the one in use — the
    hook the crash-point sweep uses to kill the scheduler mid-run and
    swap in a recovered one.  ``fault_plan`` is a
    :class:`~repro.robust.faults.FaultPlan` consulted at the named fault
    points; both default to ``None``, leaving the driver bit-identical to
    the fault-free harness.
    """
    # Imported here: ``repro.serve`` imports this module.
    from repro.serve.backend import SchedulerBackend

    scheduler.register_object(object_name, adt, table, initial_state)
    # The checkpoint hook and a crash fault swap a recovered scheduler
    # into the backend; every later call goes to it.
    backend = SchedulerBackend(scheduler)
    decisions = itertools.count()

    def at_decision_point() -> None:
        replacement = checkpoint(next(decisions), backend.scheduler)
        if replacement is not None:
            backend.scheduler = replacement

    def inject_faults() -> None:
        backend.scheduler = inject_scheduler_faults(
            backend.scheduler, fault_plan, backend.scheduler.now
        )

    def emit_fault(kind: str, txn: TxnId) -> None:
        now = backend.scheduler.now
        backend.emit(FaultInjected(time=now, kind=kind, txn=txn))

    programs = workload.programs
    ops, resolutions, admitted = play(
        backend, programs,
        [(object_name,) * len(program.steps) for program in programs],
        concurrency, max_turns, fault_plan,
        on_turn=inject_faults if fault_plan else _nothing,
        on_decision=at_decision_point if checkpoint is not None else _nothing,
        on_fault=emit_fault,
    )
    scheduler = backend.scheduler
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
