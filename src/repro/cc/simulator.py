"""Discrete-event simulation of transactions over table-driven scheduling.

The paper argues (Section 4.4) that every refinement stage "produces a
compatibility table that offers more potential for concurrency among
operations".  The simulator makes that claim measurable: it replays a
fixed synthetic workload against a :class:`TableDrivenScheduler`
configured with a given compatibility table and reports
:class:`~repro.cc.metrics.RunMetrics`.

Determinism: the event loop is an ordinary heap-based discrete-event
simulation with seeded workload randomness and no wall-clock or OS-thread
dependence — deliberately so, because a Python thread demo would measure
the GIL rather than the table (see DESIGN.md §2 on this substitution).

Model:

* Each transaction is a scripted program (arrival time, operation steps
  with service times, commit or voluntary abort at the end).
* Infinitely many servers: the only source of waiting is conflict —
  blocked operations (blocking policy) and commit-order waits.
* Whenever any transaction resolves (commits or aborts), every stalled
  transaction retries its pending action.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.cc.harness import poison_execution_cache
from repro.cc.metrics import RunMetrics
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.transaction import TxnId
from repro.cc.workload import TransactionProgram, Workload
from repro.core.table import CompatibilityTable
from repro.errors import SchedulerError
from repro.obs.events import (
    CrashInduced,
    FaultInjected,
    RecoveryCompleted,
    RecoveryStarted,
    RestartsExhausted,
    RunCompleted,
    RunStarted,
)
from repro.obs.tracers import NULL_TRACER, Tracer
from repro.spec.adt import ADTSpec, AbstractState, render_state

__all__ = ["ObjectConfig", "SimulationConfig", "simulate", "simulate_with_scheduler"]


@dataclass(frozen=True)
class ObjectConfig:
    """One shared object of a simulated run."""

    adt: ADTSpec
    table: CompatibilityTable
    initial_state: AbstractState | None = None


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one simulated run.

    Single-object runs use ``adt``/``table``/``object_name``/
    ``initial_state`` directly; multi-object runs pass ``objects``, a
    mapping from object name to :class:`ObjectConfig`, and workload steps
    address objects by name.
    """

    adt: ADTSpec | None = None
    table: CompatibilityTable | None = None
    workload: Workload = None  # type: ignore[assignment]
    object_name: str = "shared"
    initial_state: AbstractState | None = None
    #: Multi-object mode: name -> ObjectConfig.  Mutually exclusive with
    #: the single-object fields above.
    objects: tuple[tuple[str, ObjectConfig], ...] = ()
    policy: str = "optimistic"
    #: Restart transactions aborted involuntarily (deadlock victims,
    #: cascades) as fresh transactions after a backoff, like a production
    #: scheduler would.  Voluntary aborts never restart.
    restart_aborted: bool = False
    #: Ceiling on restarts per program (prevents pathological livelock).
    max_restarts: int = 10
    #: Backoff before a restarted program re-arrives.
    restart_backoff: float = 0.5
    #: How the backoff grows with the restart count: ``"linear"``
    #: (``backoff * restarts``, the seed behaviour — default, preserving
    #: bit-parity with existing transcripts) or ``"exponential"``
    #: (``backoff * 2**(restarts-1)``, capped by ``max_restart_backoff``).
    restart_policy: str = "linear"
    #: Ceiling on one exponential backoff interval.
    max_restart_backoff: float = 30.0
    #: Safety valve: abort the run if the event loop exceeds this many
    #: events (a livelock would otherwise spin forever).
    max_events: int = 1_000_000
    #: Trace-event sink threaded through the scheduler; event timestamps
    #: are sim-clock times.  ``None`` means the zero-overhead NullTracer.
    tracer: Tracer | None = None
    #: Optional :class:`~repro.robust.faults.FaultPlan` (duck-typed, so
    #: ``repro.cc`` stays import-independent of ``repro.robust``)
    #: consulted at the named fault points.  ``None`` — and likewise an
    #: all-zero plan — leaves the run bit-identical to a fault-free one.
    fault_plan: object | None = None
    #: Optional wrapper applied to the freshly built scheduler before the
    #: run (e.g. ``LoggingScheduler``/``MonitoredScheduler``); crash
    #: faults require the wrapped scheduler to expose ``reincarnate()``.
    scheduler_wrapper: object | None = None


@dataclass(order=True)
class _Event:
    time: float
    tiebreak: int
    kind: str = field(compare=False)
    program_index: int = field(compare=False)
    #: Restart epoch the event belongs to; events from a previous life of
    #: a restarted program are ignored.
    epoch: int = field(compare=False, default=0)


@dataclass
class _ProgramState:
    program: TransactionProgram
    txn: TxnId | None = None
    next_step: int = 0
    blocked_since: float | None = None
    commit_wait_since: float | None = None
    stalled: bool = False  # waiting for some resolution to retry
    done: bool = False
    restarts: int = 0
    epoch: int = 0


def simulate(config: SimulationConfig) -> RunMetrics:
    """Run one workload under one table and return the metrics."""
    metrics, _ = simulate_with_scheduler(config)
    return metrics


def simulate_with_scheduler(
    config: SimulationConfig,
) -> tuple[RunMetrics, TableDrivenScheduler]:
    """Like :func:`simulate`, but also return the scheduler for inspection
    (serializability verification, dependency-graph examination)."""
    if config.restart_policy not in ("linear", "exponential"):
        raise SchedulerError(
            f"unknown restart policy {config.restart_policy!r}"
        )
    tracer = config.tracer if config.tracer is not None else NULL_TRACER
    scheduler = TableDrivenScheduler(policy=config.policy, tracer=tracer)
    if config.scheduler_wrapper is not None:
        scheduler = config.scheduler_wrapper(scheduler)
    plan = config.fault_plan
    if tracer:
        tracer.emit(RunStarted(time=0.0, policy=config.policy))
    if config.objects:
        if config.adt is not None or config.table is not None:
            raise SchedulerError(
                "pass either single-object fields or objects=, not both"
            )
        for name, object_config in config.objects:
            scheduler.register_object(
                name,
                object_config.adt,
                object_config.table,
                object_config.initial_state,
            )
    else:
        if config.adt is None or config.table is None:
            raise SchedulerError(
                "single-object runs need adt= and table= (or pass objects=)"
            )
        scheduler.register_object(
            config.object_name, config.adt, config.table, config.initial_state
        )
    metrics = RunMetrics()
    states = [_ProgramState(program=program) for program in config.workload.programs]
    counter = itertools.count()
    queue: list[_Event] = []
    clock = 0.0

    def push(time: float, kind: str, index: int) -> None:
        heapq.heappush(
            queue,
            _Event(time, next(counter), kind, index, states[index].epoch),
        )

    def restart_delay(restarts: int) -> float:
        if config.restart_policy == "exponential":
            return min(
                config.restart_backoff * (2 ** (restarts - 1)),
                config.max_restart_backoff,
            )
        return config.restart_backoff * restarts

    def emit_fault(now: float, kind: str, txn: TxnId = -1, detail: str = "") -> None:
        if tracer:
            tracer.emit(
                FaultInjected(time=now, kind=kind, txn=txn, detail=detail)
            )

    def inject_event_faults(now: float) -> None:
        """Between-event faults: cache poisoning and scheduler crashes."""
        nonlocal scheduler
        mode = plan.cache_poison()
        if mode:
            poison_execution_cache(scheduler, mode)
            emit_fault(now, "cache_poison", detail=mode)
        if plan.crash() and hasattr(scheduler, "reincarnate"):
            emit_fault(now, "crash")
            records = len(scheduler.log)
            if tracer:
                tracer.emit(CrashInduced(time=now, log_records=records))
                tracer.emit(RecoveryStarted(time=now, log_records=records))
            scheduler = scheduler.reincarnate()
            if tracer:
                tracer.emit(RecoveryCompleted(time=now, replayed=records))
            stats = getattr(plan, "stats", None)
            if stats is not None:
                stats.recoveries += 1

    def wake_stalled(now: float) -> None:
        """Retry every stalled program after a resolution."""
        for index, state in enumerate(states):
            if state.stalled and not state.done:
                state.stalled = False
                push(now, "retry", index)

    def credit_blocked(state: _ProgramState, now: float) -> None:
        """Close an open blocked interval and account its duration."""
        if state.blocked_since is not None:
            duration = now - state.blocked_since
            metrics.total_blocked_time += duration
            metrics.blocked_durations.append(duration)
            state.blocked_since = None

    def credit_commit_wait(state: _ProgramState, now: float) -> None:
        """Close an open commit-wait interval and account its duration."""
        if state.commit_wait_since is not None:
            duration = now - state.commit_wait_since
            metrics.total_commit_wait_time += duration
            metrics.commit_wait_durations.append(duration)
            state.commit_wait_since = None

    def finish(state: _ProgramState, now: float, committed: bool) -> None:
        if state.done:
            return
        state.done = True
        credit_blocked(state, now)
        credit_commit_wait(state, now)
        if committed:
            metrics.committed += 1
            metrics.total_response_time += now - state.program.arrival
            metrics.txn_latencies.append(now - state.program.arrival)
        else:
            metrics.aborted += 1
        wake_stalled(now)

    def resolve_abort(state: _ProgramState, now: float) -> None:
        """Handle an involuntary abort: restart when configured, else finish."""
        if state.done or state.txn is None:
            # txn is None when settle_collaterals already restarted this
            # program inside the current attempt; a second resolve here
            # would double-count the restart and re-bump the epoch.
            return
        if config.restart_aborted and not state.program.voluntary_abort:
            if state.restarts < config.max_restarts:
                state.restarts += 1
                state.epoch += 1
                metrics.restarts += 1
                credit_blocked(state, now)
                credit_commit_wait(state, now)
                state.txn = None
                state.next_step = 0
                state.stalled = False
                index = states.index(state)
                push(now + restart_delay(state.restarts), "arrive", index)
                wake_stalled(now)
                return
            # The restart ceiling: the program stops being retried.  Count
            # and trace it — a silently dropped program is a livelock
            # symptom no one can observe.
            metrics.restarts_exhausted += 1
            if tracer:
                tracer.emit(
                    RestartsExhausted(
                        time=now, txn=state.txn, restarts=state.restarts
                    )
                )
        finish(state, now, committed=False)

    def settle_collaterals(now: float) -> None:
        """Handle programs whose transactions were aborted by cascades."""
        for state in states:
            if state.done or state.txn is None:
                continue
            if scheduler.transaction(state.txn).is_aborted:
                resolve_abort(state, now)

    def attempt_step(index: int, now: float) -> None:
        state = states[index]
        if state.done:
            return
        assert state.txn is not None
        scheduler.now = now
        if scheduler.transaction(state.txn).is_aborted:
            resolve_abort(state, now)
            return
        if state.next_step >= len(state.program.steps):
            attempt_commit(index, now)
            return
        if plan and plan.spurious_abort(state.txn):
            emit_fault(now, "spurious_abort", txn=state.txn)
            scheduler.abort(state.txn, reason="fault-injected")
            credit_blocked(state, now)
            resolve_abort(state, now)
            settle_collaterals(now)
            return
        if plan and plan.op_failure(state.txn):
            # Transient execution failure: retry the same step after the
            # plan's retry delay.
            emit_fault(now, "op_failure", txn=state.txn)
            push(now + plan.spec.op_failure_retry_delay, "retry", index)
            return
        step = state.program.steps[state.next_step]
        decision = scheduler.request(state.txn, step.object_name, step.invocation)
        # A deadlock victim may have been aborted inside request(); settle
        # such programs now so they are woken and accounted for.
        settle_collaterals(now)
        if decision.aborted:
            credit_blocked(state, now)
            resolve_abort(state, now)
            settle_collaterals(now)
            return
        if not decision.executed:
            if state.blocked_since is None:
                state.blocked_since = now
            state.stalled = True
            return
        credit_blocked(state, now)
        state.next_step += 1
        metrics.total_service_time += step.service_time
        push(now + step.service_time, "step", index)

    def attempt_commit(index: int, now: float) -> None:
        state = states[index]
        assert state.txn is not None
        scheduler.now = now
        if state.program.voluntary_abort:
            scheduler.abort(state.txn, reason="requested")
            finish(state, now, committed=False)
            settle_collaterals(now)
            return
        if plan:
            delay = plan.commit_delay(state.txn)
            if delay is not None:
                emit_fault(now, "commit_delay", txn=state.txn)
                if state.commit_wait_since is None:
                    state.commit_wait_since = now
                push(now + delay, "retry", index)
                return
        decision = scheduler.try_commit(state.txn)
        # A commit-wait deadlock victim may have been aborted inside
        # try_commit regardless of the outcome; settle such programs so
        # they are woken and accounted for.
        settle_collaterals(now)
        if decision.committed:
            finish(state, now, committed=True)
        elif decision.must_abort:
            resolve_abort(state, now)
        else:
            if state.commit_wait_since is None:
                state.commit_wait_since = now
            state.stalled = True

    for index, state in enumerate(states):
        push(state.program.arrival, "arrive", index)

    events_processed = 0
    while queue:
        events_processed += 1
        if events_processed > config.max_events:
            raise SchedulerError(
                f"simulation exceeded {config.max_events} events (livelock?)"
            )
        event = heapq.heappop(queue)
        clock = max(clock, event.time)
        state = states[event.program_index]
        if state.done or event.epoch != state.epoch:
            continue
        if plan:
            inject_event_faults(event.time)
        if event.kind == "arrive":
            scheduler.now = event.time
            state.txn = scheduler.begin()
            attempt_step(event.program_index, event.time)
        elif event.kind in ("step", "retry"):
            attempt_step(event.program_index, event.time)

    # Any program still stalled at queue exhaustion is deadlocked-by-model;
    # a correct scheduler never leaves one (progress argument: dependency
    # edges point backwards in execution time).
    leftovers = [state for state in states if not state.done]
    if leftovers:
        raise SchedulerError(
            f"{len(leftovers)} transactions neither committed nor aborted"
        )

    metrics.makespan = clock
    metrics.scheduler = scheduler.stats
    # getattr: after a degraded crash recovery the live scheduler may be
    # the reference implementation, which has no execution cache.
    metrics.execution_cache = getattr(scheduler, "execution_cache", None)
    # getattr for the same reason: the reference scheduler used after a
    # degraded recovery tracks no conflict profiles.
    profiles = getattr(scheduler, "conflict_profiles", None)
    if callable(profiles):
        metrics.conflict_profiles = profiles()
    if plan is not None:
        metrics.robust = getattr(plan, "stats", None)
    else:
        metrics.robust = getattr(scheduler, "robust_stats", None)
    if tracer:
        tracer.emit(
            RunCompleted(
                time=clock,
                committed=metrics.committed,
                aborted=metrics.aborted,
                final_states=tuple(
                    (name, render_state(scheduler.object(name).state()))
                    for name in scheduler.object_names()
                ),
            )
        )
    return metrics, scheduler
