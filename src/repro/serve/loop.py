"""The batched, event-driven serving engine.

An event-driven loop multiplexes up to ``max_inflight`` transactions,
dispatching **one action per runnable transaction per tick** — so
admitted concurrency is actually exercised — and parks blocked or
commit-waiting transactions until a **ready callback** (the scheduler's
resolution listener) wakes them.  No busy-retry: a blocked operation is
re-issued exactly once, after every transaction it waited on has
resolved.  (The busy-retry round-robin discipline is the turn loop
:func:`repro.cc.harness.play` behind ``drive`` and ``Cluster.run``.)

The loop runs on its own deterministic sim clock (``tick`` units per
round), records per-request latency phases (end-to-end, queue-wait,
service, commit-wait) into a
:class:`~repro.obs.latency.LatencyRecorder`, and emits
:class:`~repro.obs.events.RequestArrived` /
:class:`~repro.obs.events.RequestAdmitted` trace events the dashboard's
serving section consumes.

Adaptive switching: an attached
:class:`~repro.serve.adaptive.AdaptiveController` proposes per-object
policy changes; the loop *parks* not-yet-admitted requests touching a
proposed object (in-flight holders run to completion), applies the
switch at the first safe epoch boundary — no active transaction on the
object — and then releases the parked requests under the new policy.
Throughput is reported in **sim-time** (committed operations per tick
unit): deterministic, machine-independent, and exactly what batching
improves — one tick serves up to ``max_inflight`` operations instead of
one.

Overload and fault hardening (all opt-in):

* ``deadline`` (:class:`~repro.serve.deadline.DeadlinePolicy`) gives
  every request an absolute sim-time budget, enforced at admission, on
  every in-flight transaction once per tick, on every retry, and —
  propagated through the backend into the bus envelopes and 2PC legs —
  at every message delivery.  Expiry is its own terminal outcome
  (``deadline_exceeded``), shed and never silently retried.
* ``breakers`` (:class:`~repro.serve.breaker.BreakerBoard`) sheds
  requests touching an object whose windowed abort rate tripped its
  circuit breaker, with a deterministic open → half-open → closed probe
  cycle.
* ``shedding`` (:class:`~repro.serve.shed.ShedConfig`) bounds the
  arrival queue (oldest-first drop) and runs the serving degradation
  ladder: full → shed over-deadline work → force ``queued`` on hot
  objects → reject at admission.
* ``fault_plan`` injects scheduler-level faults (spurious aborts,
  transient op failures, commit delays) into the serving path; cluster
  backends additionally serve over message faults and crash/recovery
  via :meth:`~repro.dist.cluster.ClusterFrontend.tick_boundary`, which
  the loop drives once per tick.

Every admitted request reaches exactly one terminal outcome —
``committed``, ``aborted``, ``shed``, ``deadline_exceeded`` or
``retries_exhausted`` — recorded in ``ServeResult.outcomes``.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

from repro.errors import SchedulerError
from repro.obs.events import (
    BreakerStateChanged,
    DeadlineExceeded,
    DegradationStep,
    FaultInjected,
    PolicySwitched,
    RequestAdmitted,
    RequestArrived,
    RequestShed,
)
from repro.obs.latency import LatencyRecorder
from repro.serve.adaptive import PolicySwitch
from repro.serve.breaker import BreakerBoard, BreakerConfig
from repro.serve.deadline import DeadlinePolicy, RetryPolicy
from repro.serve.shed import DegradationLadder, ShedConfig
from repro.serve.workload import Request, ServeWorkload

__all__ = ["ServeResult", "ServingLoop", "serve"]


@dataclass(frozen=True)
class ServeResult:
    """The observable outcome of one serving run."""

    requests: int
    committed: int
    aborted: int
    #: Operations executed by transactions that went on to commit (the
    #: goodput numerator; an aborted request's work is lost).
    goodput_ops: int
    #: Operation requests issued, including blocked retries.
    ops_issued: int
    #: Sim-time of the last completion (the throughput denominator).
    sim_duration: float
    wall_seconds: float
    ticks: int
    #: Safety-net wakeups of every waiter after a zero-progress tick
    #: (0 in a correct run: cycles resolve inside the scheduler).
    forced_wakes: int
    #: Re-admissions of scheduler-aborted requests (``retry_aborts``).
    retries: int
    policy_switches: tuple[PolicySwitch, ...]
    latency: LatencyRecorder
    #: Requests shed at admission (overload drops, ladder rejections,
    #: open circuit breakers).
    shed: int = 0
    #: Requests whose deadline budget expired (at admission, in flight,
    #: or on a retry that could not start inside the budget).
    deadline_exceeded: int = 0
    #: Requests dropped after ``max_retries`` failed re-admissions.
    retries_exhausted: int = 0
    #: Every circuit-breaker state change, in occurrence order.
    breaker_transitions: tuple = ()
    #: Every degradation-ladder move, in occurrence order.
    degradation_steps: tuple = ()
    #: ``(request_id, terminal outcome)`` sorted by request id.
    outcomes: tuple = ()

    def goodput_per_time(self) -> float:
        """Committed operations per sim-time unit."""
        return self.goodput_ops / self.sim_duration if self.sim_duration else 0.0


class _Runner:
    """One in-flight request: its transaction and progress."""

    __slots__ = (
        "request",
        "txn",
        "step",
        "arrival",
        "admitted_at",
        "first_commit_wait",
        "waiting",
        "queued",
        "done",
    )

    def __init__(self, request: Request, txn: int, arrival: float, now: float):
        self.request = request
        self.txn = txn
        self.step = 0
        self.arrival = arrival
        self.admitted_at = now
        self.first_commit_wait: float | None = None
        self.waiting: set[int] = set()
        self.queued = False
        self.done = False


@dataclass
class _PendingSwitch:
    object_name: str
    new_policy: str
    conflict_rate: float
    abort_rate: float
    reason: str
    parked: list = field(default_factory=list)


class ServingLoop:
    """Batched front-end over a serving backend (scheduler or cluster)."""

    def __init__(
        self,
        backend,
        workload: ServeWorkload,
        *,
        max_inflight: int = 32,
        batch_size: int | None = None,
        tick: float = 1.0,
        retry_aborts: bool = False,
        max_retries: int = 8,
        controller=None,
        recorder: LatencyRecorder | None = None,
        max_ticks: int | None = None,
        deadline: DeadlinePolicy | None = None,
        retry_policy: RetryPolicy | None = None,
        breakers: BreakerBoard | BreakerConfig | None = None,
        shedding: ShedConfig | None = None,
        fault_plan=None,
    ) -> None:
        if max_inflight < 1:
            raise SchedulerError("max_inflight must be at least 1")
        self.backend = backend
        self.workload = workload
        self.max_inflight = max_inflight
        self.batch_size = batch_size if batch_size is not None else max_inflight
        self.tick = tick
        #: At-least-once serving: a request aborted by the scheduler
        #: (certification, cascade, deadlock victim) re-enters the
        #: admission queue as a fresh transaction, staggered by the
        #: retry policy's capped exponential backoff with seeded jitter
        #: (mirroring the restart supervisor's ``max_restart_backoff``
        #: discipline) so lockstep retry collisions spread out instead
        #: of re-colliding.  After ``max_retries`` failed re-admissions
        #: the request reaches the ``retries_exhausted`` terminal
        #: outcome — the bound that keeps an optimistic retry storm
        #: from livelocking the loop.  Voluntary aborts are intentional
        #: and never retried; a retry that could not start before the
        #: request's deadline is ``deadline_exceeded``, never silently
        #: requeued.
        self.retry_aborts = retry_aborts
        self.max_retries = max_retries
        self.controller = controller
        self.recorder = recorder if recorder is not None else LatencyRecorder()
        self.max_ticks = (
            max_ticks
            if max_ticks is not None
            else 1000 * max(1, workload.total_operations())
        )
        self.deadline = deadline
        self.retry_policy = (
            retry_policy if retry_policy is not None else RetryPolicy()
        )
        if isinstance(breakers, BreakerConfig):
            breakers = BreakerBoard(breakers)
        self.breakers = breakers
        self.shedding = shedding
        self.fault_plan = fault_plan
        self.switches: list[PolicySwitch] = []
        self._pending_switch: dict[str, _PendingSwitch] = {}
        #: request_id -> every transaction begun for it;
        #: the chaos campaign certifies shed/expired requests against
        #: committed history through this map.
        self.request_txns: dict[int, list[int]] = {}
        #: request_id -> terminal outcome.
        self.outcomes: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _note_arrival(self, request: Request, available: float) -> None:
        self.backend.emit(
            RequestArrived(
                time=available,
                request_id=request.request_id,
                session=request.session,
                object_name=request.primary_object(),
                operations=len(request.steps),
            )
        )

    def _note_admission(self, request: Request, txn: int, now: float) -> None:
        self.backend.emit(
            RequestAdmitted(time=now, request_id=request.request_id, txn=txn)
        )

    def _finish_latency(self, runner: _Runner, outcome: str, now: float) -> None:
        observe = self.recorder.observe
        observe("serve.e2e", outcome, now - runner.arrival)
        observe("serve.queue_wait", outcome, runner.admitted_at - runner.arrival)
        observe("serve.service", outcome, now - runner.admitted_at)
        if runner.first_commit_wait is not None:
            observe(
                "serve.commit_wait", outcome, now - runner.first_commit_wait
            )

    # ------------------------------------------------------------------
    # The event loop: ready callbacks instead of busy-retry
    # ------------------------------------------------------------------

    def run(self) -> ServeResult:
        started = time.perf_counter()
        backend = self.backend
        closed = self.workload.mode == "closed"
        policy = self.deadline
        board = self.breakers
        ladder = (
            DegradationLadder(self.shedding)
            if self.shedding is not None
            else None
        )
        plan = self.fault_plan
        #: Jitter stream of the retry backoff; drawn from only when a
        #: retry is actually scheduled, so retry-free runs stay
        #: bit-identical whatever the seed.
        retry_rng = self.retry_policy.stream()
        #: request_id -> absolute deadline (anchored at first arrival;
        #: retries never extend the budget).
        deadlines: dict[int, float] = {}
        outcomes = self.outcomes
        outcomes.clear()
        request_txns = self.request_txns
        request_txns.clear()

        def note_deadline(request: Request, available: float) -> None:
            if policy is not None:
                deadlines[request.request_id] = policy.deadline_of(available)

        #: (available_time, request_id, request) — the admission queue.
        pending: list[tuple[float, int, Request]] = []
        #: Closed loop: each session's remaining requests, in order.
        session_next: dict[int, list[Request]] = {}
        if closed:
            for request in self.workload.requests:
                session_next.setdefault(request.session, []).append(request)
            for session, queue in sorted(session_next.items()):
                first = queue.pop(0)
                heapq.heappush(pending, (0.0, first.request_id, first))
                self._note_arrival(first, 0.0)
                note_deadline(first, 0.0)
        else:
            for request in self.workload.requests:
                heapq.heappush(
                    pending, (request.arrival, request.request_id, request)
                )
                self._note_arrival(request, request.arrival)
                note_deadline(request, request.arrival)

        inflight: dict[int, _Runner] = {}
        runnable: list[_Runner] = []
        #: txn -> runners whose retry waits on its resolution.
        waiters: dict[int, list[_Runner]] = {}
        now = 0.0
        ticks = 0
        forced_wakes = 0
        resolved_events = 0
        committed = aborted = goodput = issued = retries = 0
        shed = deadline_exceeded = retries_exhausted = 0
        attempts: dict[int, int] = {}
        last_finish = 0.0

        def wake(runner: _Runner) -> None:
            if not runner.queued and not runner.done:
                runner.queued = True
                runnable.append(runner)

        def on_resolution(txn: int, status: str) -> None:
            nonlocal resolved_events
            resolved_events += 1
            runner = inflight.get(txn)
            if runner is not None and not runner.done and status == "aborted":
                # Externally aborted (cascade / deadlock victim): wake it
                # so its next action observes the abort and settles.
                runner.waiting.clear()
                wake(runner)
            for waiter in waiters.pop(txn, ()):
                waiter.waiting.discard(txn)
                if not waiter.waiting:
                    wake(waiter)

        backend.add_resolution_listener(on_resolution)

        def wait_on(runner: _Runner, blockers) -> None:
            live = set()
            for blocker in sorted(blockers):
                if backend.status(blocker) == "ACTIVE":
                    live.add(blocker)
                    waiters.setdefault(blocker, []).append(runner)
            if live:
                runner.waiting = live
            else:
                # Every blocker resolved before registration (or the set
                # was empty): retry on the next tick.
                wake(runner)

        def settle_terminal(rid: int, request: Request, outcome: str) -> None:
            nonlocal last_finish
            outcomes[rid] = outcome
            last_finish = now
            if closed:
                queue = session_next.get(request.session)
                if queue:
                    nxt = queue.pop(0)
                    available = now + nxt.think_time
                    heapq.heappush(pending, (available, nxt.request_id, nxt))
                    self._note_arrival(nxt, available)
                    note_deadline(nxt, available)

        def shed_request(entry, reason: str) -> None:
            """Shed an unadmitted request terminally (never admitted)."""
            nonlocal shed, deadline_exceeded
            available, rid, request = entry
            if reason == "deadline":
                deadline_exceeded += 1
                backend.emit(
                    DeadlineExceeded(
                        time=now, request_id=rid, txn=-1,
                        deadline=deadlines.get(rid, 0.0),
                    )
                )
                outcome = "deadline_exceeded"
            else:
                shed += 1
                backend.emit(
                    RequestShed(
                        time=now, request_id=rid, reason=reason,
                        object_name=request.primary_object(),
                    )
                )
                outcome = "shed"
            self.recorder.observe("serve.e2e", outcome, now - available)
            settle_terminal(rid, request, outcome)

        def finish(runner: _Runner, outcome: str) -> None:
            nonlocal committed, aborted, goodput, retries
            nonlocal deadline_exceeded, retries_exhausted
            runner.done = True
            runner.waiting.clear()
            inflight.pop(runner.txn, None)
            request = runner.request
            rid = request.request_id
            if board is not None and outcome in ("committed", "aborted"):
                # Breaker signal: commits and *scheduler* aborts only —
                # voluntary aborts and deadline expiry are not conflict
                # evidence.
                if outcome == "committed" or not request.voluntary_abort:
                    board.on_outcome(
                        request.primary_object(), outcome == "committed", now
                    )
            self._finish_latency(runner, outcome, now)
            if outcome == "committed":
                committed += 1
                goodput += len(request.steps)
            elif outcome == "deadline_exceeded":
                deadline_exceeded += 1
                backend.emit(
                    DeadlineExceeded(
                        time=now, request_id=rid, txn=runner.txn,
                        deadline=deadlines.get(rid, 0.0),
                    )
                )
            elif self.retry_aborts and not request.voluntary_abort:
                attempt = attempts.get(rid, 0) + 1
                if attempt > self.max_retries:
                    retries_exhausted += 1
                    backend.emit(
                        RequestShed(
                            time=now, request_id=rid,
                            reason="retries_exhausted",
                            object_name=request.primary_object(),
                        )
                    )
                    settle_terminal(rid, request, "retries_exhausted")
                    return
                # At-least-once: back into the admission queue as a
                # fresh transaction (its think-time was already spent),
                # staggered by capped exponential backoff with seeded
                # jitter.
                retry_at = now + self.retry_policy.backoff(
                    attempt, retry_rng, self.tick
                )
                dl = deadlines.get(rid)
                if dl is not None and retry_at >= dl:
                    # The retry could not start inside the budget: shed
                    # as expired, never silently requeued.
                    deadline_exceeded += 1
                    backend.emit(
                        DeadlineExceeded(
                            time=now, request_id=rid, txn=-1, deadline=dl,
                        )
                    )
                    settle_terminal(rid, request, "deadline_exceeded")
                    return
                attempts[rid] = attempt
                retries += 1
                heapq.heappush(pending, (retry_at, rid, request))
                return
            else:
                aborted += 1
            settle_terminal(rid, request, outcome)

        def budget_of(runner: _Runner) -> float | None:
            if policy is None or not policy.propagate:
                return None
            return deadlines.get(runner.request.request_id)

        def act(runner: _Runner) -> None:
            nonlocal issued
            txn = runner.txn
            if backend.status(txn) != "ACTIVE":
                finish(runner, "aborted")
                return
            request = runner.request
            if runner.step < len(request.steps):
                if plan and plan.spurious_abort(txn):
                    backend.emit(
                        FaultInjected(time=now, kind="spurious_abort", txn=txn)
                    )
                    backend.abort(txn, reason="fault-injected")
                    finish(runner, "aborted")
                    return
                if plan and plan.op_failure(txn):
                    # Transient: the op is lost this tick, retried next.
                    backend.emit(
                        FaultInjected(time=now, kind="op_failure", txn=txn)
                    )
                    wake(runner)
                    return
                step = request.steps[runner.step]
                decision = backend.request(
                    txn, step.object_name, step.invocation,
                    deadline=budget_of(runner),
                )
                issued += 1
                if decision.executed:
                    runner.step += 1
                    wake(runner)
                elif decision.aborted:
                    finish(runner, "aborted")
                else:
                    wait_on(runner, decision.blocked_on)
                return
            if request.voluntary_abort:
                backend.abort(txn, reason="voluntary")
                finish(runner, "aborted")
                return
            if plan and plan.commit_delay(txn) is not None:
                backend.emit(
                    FaultInjected(time=now, kind="commit_delay", txn=txn)
                )
                wake(runner)
                return
            decision = backend.try_commit(txn, deadline=budget_of(runner))
            if decision.committed:
                finish(runner, "committed")
            elif decision.must_abort:
                finish(runner, "aborted")
            else:
                if runner.first_commit_wait is None:
                    runner.first_commit_wait = now
                wait_on(runner, decision.waiting_on)

        def parked_objects(request: Request) -> bool:
            return any(
                step.object_name in self._pending_switch
                for step in request.steps
            )

        def admit_due() -> bool:
            # Pop everything due: the backlog drives the degradation
            # ladder, and sheds must apply even when in-flight capacity
            # is full.  Entries that survive but don't fit this tick go
            # straight back into the queue.
            due: list[tuple[float, int, Request]] = []
            while pending and pending[0][0] <= now:
                due.append(heapq.heappop(pending))
            level = 0
            overflow = 0
            if ladder is not None:
                level = ladder.update(len(due), now)
                overflow = len(due) - self.shedding.queue_limit
            changed = False
            admitted_now = 0
            hold: list[tuple[float, int, Request]] = []
            for entry in due:  # heap pops: oldest (earliest due) first
                available, rid, request = entry
                if overflow > 0:
                    # The bounded arrival queue drops oldest-first: the
                    # head of `due` has waited longest and is the least
                    # likely to meet any deadline.
                    shed_request(entry, "overload")
                    overflow -= 1
                    changed = True
                    continue
                if level >= 3:
                    shed_request(entry, "overload")
                    changed = True
                    continue
                dl = deadlines.get(rid)
                if dl is not None and now >= dl:
                    shed_request(entry, "deadline")
                    changed = True
                    continue
                if (
                    level >= 1
                    and dl is not None
                    and now + len(request.steps) * self.tick > dl
                ):
                    # Level 1: work that cannot finish inside its budget
                    # is shed at admission instead of admitted to die in
                    # flight.
                    shed_request(entry, "deadline")
                    changed = True
                    continue
                if (
                    len(inflight) >= self.max_inflight
                    or admitted_now >= self.batch_size
                ):
                    hold.append(entry)
                    continue
                if self._pending_switch and parked_objects(request):
                    # A policy switch is draining one of this request's
                    # objects: hold it back until the switch applies.
                    for name in {step.object_name for step in request.steps}:
                        if name in self._pending_switch:
                            self._pending_switch[name].parked.append(
                                (available, rid, request)
                            )
                            break
                    continue
                if board is not None and not board.allow(
                    sorted({step.object_name for step in request.steps}), now
                ):
                    shed_request(entry, "breaker")
                    changed = True
                    continue
                txn = backend.begin()
                self._note_admission(request, txn, now)
                request_txns.setdefault(rid, []).append(txn)
                runner = _Runner(request, txn, available, now)
                inflight[txn] = runner
                wake(runner)
                admitted_now += 1
                changed = True
            for entry in hold:
                heapq.heappush(pending, entry)
            return changed

        def force_hot_queued() -> None:
            """Ladder level 2: pin hot objects to ``queued`` discipline.

            Routed through the pending-switch machinery, so the flip
            happens at the same safe epoch boundary an adaptive switch
            would use, with arrivals parked while it drains.
            """
            profiles = backend.conflict_profiles()
            for name in sorted(profiles):
                if name in self._pending_switch:
                    continue
                profile = profiles[name]
                if profile.abort_rate < self.shedding.hot_abort_rate:
                    continue
                if backend.object_policy(name) == "queued":
                    continue
                self._pending_switch[name] = _PendingSwitch(
                    object_name=name,
                    new_policy="queued",
                    conflict_rate=profile.conflict_rate,
                    abort_rate=profile.abort_rate,
                    reason="degradation",
                )

        def apply_ready_switches() -> None:
            for name in list(self._pending_switch):
                if backend.object_active_txns(name):
                    continue
                pending_switch = self._pending_switch.pop(name)
                old = backend.object_policy(name)
                backend.set_object_policy(name, pending_switch.new_policy)
                switch = PolicySwitch(
                    time=now,
                    object_name=name,
                    old=old,
                    new=pending_switch.new_policy,
                    conflict_rate=pending_switch.conflict_rate,
                    abort_rate=pending_switch.abort_rate,
                    reason=pending_switch.reason,
                )
                self.switches.append(switch)
                backend.emit(
                    PolicySwitched(
                        time=now,
                        object_name=name,
                        old=old,
                        new=pending_switch.new_policy,
                        conflict_rate=pending_switch.conflict_rate,
                        abort_rate=pending_switch.abort_rate,
                        reason=pending_switch.reason,
                    )
                )
                if self.controller is not None:
                    self.controller.applied(name)
                for entry in pending_switch.parked:
                    # Back into the admission queue (other pending
                    # switches may park it again on pop).
                    heapq.heappush(pending, entry)

        last_forced_resolutions = -1
        while inflight or pending or self._pending_switch:
            backend.set_now(now)
            backend.tick_boundary()
            progressed = False
            if policy is not None and inflight:
                # Kill over-budget in-flight work before spending a tick
                # on it (deterministic txn order).
                for txn in sorted(inflight):
                    runner = inflight[txn]
                    if runner.done:
                        continue
                    dl = deadlines.get(runner.request.request_id)
                    if dl is not None and now > dl:
                        if backend.status(txn) == "ACTIVE":
                            backend.abort(txn, reason="deadline")
                        finish(runner, "deadline_exceeded")
                        progressed = True
            progressed = admit_due() or progressed
            batch = [runner for runner in runnable if not runner.done]
            runnable.clear()
            for runner in batch:
                runner.queued = False
            for runner in batch:
                if not runner.done:
                    act(runner)
            progressed = progressed or bool(batch)
            if self.controller is not None:
                for proposal in self.controller.step(
                    backend, set(self._pending_switch)
                ):
                    self._pending_switch[proposal.object_name] = _PendingSwitch(
                        object_name=proposal.object_name,
                        new_policy=proposal.new_policy,
                        conflict_rate=proposal.conflict_rate,
                        abort_rate=proposal.abort_rate,
                        reason=proposal.reason,
                    )
            if ladder is not None and ladder.level >= 2:
                force_hot_queued()
            if self._pending_switch:
                apply_ready_switches()
            if board is not None:
                for transition in board.drain_transitions():
                    backend.emit(
                        BreakerStateChanged(
                            time=transition.time,
                            object_name=transition.object_name,
                            old=transition.old,
                            new=transition.new,
                            failure_rate=transition.failure_rate,
                        )
                    )
            if ladder is not None:
                for step in ladder.drain_steps():
                    backend.emit(
                        DegradationStep(
                            time=step.time,
                            level=step.level,
                            previous=step.previous,
                            backlog=step.backlog,
                            reason=step.reason,
                        )
                    )
            ticks += 1
            if ticks > self.max_ticks:
                raise SchedulerError(
                    f"serving loop exceeded {self.max_ticks} ticks; "
                    f"workload livelocked"
                )
            if progressed:
                now += self.tick
                last_forced_resolutions = -1
            elif pending and (len(inflight) < self.max_inflight or not inflight):
                # Idle until the next arrival.
                now = max(now + self.tick, pending[0][0])
            elif inflight:
                # Nothing runnable and nothing due: every in-flight
                # transaction is waiting.  Cycles are broken inside the
                # scheduler, so this should resolve via callbacks; the
                # forced wake is the deterministic safety net (and the
                # livelock tripwire when even that makes no progress).
                if resolved_events == last_forced_resolutions:
                    raise SchedulerError(
                        "serving loop stalled: no runnable work and a "
                        "forced wake made no progress"
                    )
                last_forced_resolutions = resolved_events
                forced_wakes += 1
                for runner in list(inflight.values()):
                    runner.waiting.clear()
                    wake(runner)
                now += self.tick
            else:
                now += self.tick
        # Settle the distributed tail (crash revival, unacked decisions,
        # incomplete aborts); a no-op on fault-free backends.
        backend.finalize()
        wall = time.perf_counter() - started
        return ServeResult(
            requests=(
                committed + aborted + shed + deadline_exceeded
                + retries_exhausted
            ),
            committed=committed,
            aborted=aborted,
            goodput_ops=goodput,
            ops_issued=issued,
            sim_duration=last_finish,
            wall_seconds=wall,
            ticks=ticks,
            forced_wakes=forced_wakes,
            retries=retries,
            policy_switches=tuple(self.switches),
            latency=self.recorder,
            shed=shed,
            deadline_exceeded=deadline_exceeded,
            retries_exhausted=retries_exhausted,
            breaker_transitions=(
                tuple(board.transitions) if board is not None else ()
            ),
            degradation_steps=(
                tuple(ladder.steps) if ladder is not None else ()
            ),
            outcomes=tuple(sorted(outcomes.items())),
        )


def serve(backend, workload: ServeWorkload, **options) -> ServeResult:
    """Build a :class:`ServingLoop` and run it (the one-call front door)."""
    return ServingLoop(backend, workload, **options).run()
