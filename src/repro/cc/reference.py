"""The seed-commit reference scheduler, retained verbatim as an oracle.

This module freezes the :class:`TableDrivenScheduler` exactly as it stood
before the hot-path optimization (incremental shadow states, per-request
context reuse, preview-verdict memoization, compiled conflict matrices — see
:mod:`repro.cc.scheduler` and ``docs/PERFORMANCE.md``).  It replays the
full operation log per certification, rebuilds the pre-state object graph
per pair, and recomputes blocking-policy verdicts after execution — the
O(active × log × replay) behaviour the optimized scheduler must reproduce
decision-for-decision while avoiding the work.

Two consumers:

* the parity property tests drive identical workloads through both
  schedulers and assert bit-identical decision sequences, dependency
  edges, final object states and (shared) counters;
* ``benchmarks/bench_scheduler_throughput.py`` measures the optimized
  scheduler's speedup against this implementation and records it in
  ``BENCH_scheduler.json``.

Do not "fix" or optimize this copy: its value is that it does not change.
The original module docstring follows.

----

The point of the paper's compatibility tables is to drive concurrency
control; this scheduler consumes a derived
:class:`~repro.core.table.CompatibilityTable` per shared object and
implements two classic disciplines over it:

* **optimistic** (recoverability-style, after [Badrinath & Ramamritham]):
  operations execute immediately; the entry resolved for each pair of
  operations by different active transactions is recorded as an AD/CD edge
  in the dependency graph.  Commit waits for predecessors; aborts cascade
  along AD edges.  A dependency that would close a cycle aborts the
  requesting transaction (the dynamic equivalent of a deadlock victim).
* **blocking** (pessimistic, lock-table style): before executing, the
  requesting operation is checked against every operation of every other
  active transaction on the object; an AD verdict blocks the requester
  until the holder resolves.  CD verdicts only record commit-order edges.
  Wait-for cycles are detected and broken by aborting the youngest
  transaction.

Conditional entries are resolved with exactly the dynamic information the
paper appeals to: the live object graph (for reference predicates such as
``f ≠ b``), the earlier operation's recorded return value, and — where the
entry is conditional on the requester's own outcome — a deterministic
preview of that outcome against the current state.

State-dependent conditions are validated at derivation time on *adjacent*
executions, which does not compose across intervening operations (see
DESIGN.md §4b.5), so every non-AD verdict is additionally **certified**
before being trusted: by the live locality intersection of the actual
traces (the paper's Section-4.3 general rule, Table 2 over stable vertex
ids) and by a shadow-replay return test.  Unconditional ND entries —
full-state-space commutativity, which is composable — skip the locality
escalation.  See :meth:`TableDrivenScheduler._pair_dependency`.

A third discipline, commit-time validation over intentions lists, lives
in :mod:`repro.cc.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from repro.cc.dependencies import DependencyGraph
from repro.cc.objects import AppliedOperation, SharedObject
from repro.cc.transaction import (
    OperationRecord,
    Transaction,
    TransactionStatus,
    TxnId,
)
from repro.core.assertions import locality_dependency
from repro.core.conditions import ConditionContext
from repro.core.dependency import Dependency
from repro.core.table import CompatibilityTable
from repro.errors import DependencyCycleError, SchedulerError
from repro.graph.instrument import LocalityTrace
from repro.obs.events import (
    CascadeAborted,
    CommitWaited,
    DeadlockResolved,
    DependencyRecorded,
    ObjectRegistered,
    OpBlocked,
    OpGranted,
    OpRequested,
    TxnAborted,
    TxnBegun,
    TxnCommitted,
)
from repro.obs.tracers import NULL_TRACER, Tracer
from repro.spec.adt import ADTSpec, AbstractState
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["ReferenceScheduler"]

# The decision and stats types are shared with the optimized scheduler so
# the parity tests compare transcripts by value.  The optimized
# scheduler's extra counters simply stay zero here.
from repro.cc.scheduler import (  # noqa: E402  (import after docstring block)
    CommitDecision,
    OpDecision,
    SchedulerStats,
)


class _DepEvidence(NamedTuple):
    """Provenance of one pair-dependency verdict, for the tracer.

    Carries the live ``Entry``/``Condition`` objects and renders only at
    emission time, so the un-traced path never builds strings.
    """

    executing: str
    entry: object | None
    condition: object | None
    source: str

    def render_entry(self) -> str:
        if self.entry is None:
            return ""
        return self.entry.render().replace("\n", "; ")

    def render_condition(self) -> str:
        if self.condition is None:
            return ""
        return self.condition.render()


_NO_EVIDENCE = _DepEvidence(executing="", entry=None, condition=None, source="table")


@dataclass
class _RegisteredObject:
    shared: SharedObject
    table: CompatibilityTable


class ReferenceScheduler:
    """The seed scheduler, byte-for-byte in behaviour (see module docstring)."""

    def __init__(
        self, policy: str = "optimistic", tracer: Tracer | None = None
    ) -> None:
        if policy not in ("optimistic", "blocking"):
            raise SchedulerError(f"unknown policy {policy!r}")
        self.policy = policy
        #: Falsy NullTracer by default: emissions are guarded with
        #: ``if self.tracer:`` so untraced runs never build an event.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Logical timestamp stamped onto emitted events; drivers with a
        #: clock (the discrete-event simulator) keep it current.
        self.now: float = 0.0
        self.stats = SchedulerStats()
        self._objects: dict[str, _RegisteredObject] = {}
        self._txns: dict[TxnId, Transaction] = {}
        self._deps = DependencyGraph()
        self._wait_for: dict[TxnId, set[TxnId]] = {}
        self._next_txn: TxnId = 0
        self._sequence = 0
        self._commit_counter = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def register_object(
        self,
        name: str,
        adt: ADTSpec,
        table: CompatibilityTable,
        initial_state: AbstractState | None = None,
    ) -> SharedObject:
        """Attach a shared object and the table governing it."""
        if name in self._objects:
            raise SchedulerError(f"object {name!r} already registered")
        shared = SharedObject(name, adt, initial_state)
        self._objects[name] = _RegisteredObject(shared=shared, table=table)
        if self.tracer:
            self.tracer.emit(
                ObjectRegistered(
                    time=self.now,
                    object_name=name,
                    adt=adt.name,
                    initial_state=repr(shared.initial_state),
                )
            )
        return shared

    def object_names(self) -> list[str]:
        """Names of all registered shared objects, in registration order."""
        return list(self._objects)

    def object(self, name: str) -> SharedObject:
        """Look up a registered shared object."""
        return self._required(name).shared

    def begin(self) -> TxnId:
        """Start a new transaction."""
        txn_id = self._next_txn
        self._next_txn += 1
        self._txns[txn_id] = Transaction(txn_id=txn_id)
        if self.tracer:
            self.tracer.emit(TxnBegun(time=self.now, txn=txn_id))
        return txn_id

    def transaction(self, txn: TxnId) -> Transaction:
        """Look up a transaction."""
        try:
            return self._txns[txn]
        except KeyError:
            raise SchedulerError(f"unknown transaction {txn}") from None

    def transactions(self) -> list[Transaction]:
        """Every transaction begun, in id order."""
        return list(self._txns.values())

    def active_transactions(self) -> set[TxnId]:
        """Ids of all currently active transactions."""
        return {tid for tid, txn in self._txns.items() if txn.is_active}

    # ------------------------------------------------------------------
    # Operation requests
    # ------------------------------------------------------------------

    def request(
        self, txn: TxnId, object_name: str, invocation: Invocation
    ) -> OpDecision:
        """Ask to execute ``invocation`` on behalf of ``txn``.

        Returns an executed decision (with the return value and the
        dependencies recorded), a blocked decision (blocking policy, AD
        conflict), or an aborted decision (cycle/deadlock victim).
        """
        transaction = self.transaction(txn)
        transaction.require_active()
        registered = self._required(object_name)
        shared, table = registered.shared, registered.table
        if self.tracer:
            self.tracer.emit(
                OpRequested(
                    time=self.now,
                    txn=txn,
                    object_name=object_name,
                    operation=invocation.operation,
                    args=repr(invocation.args),
                )
            )

        if self.policy == "blocking":
            blockers = self._blocking_conflicts(txn, shared, table, invocation)
            if blockers:
                self.stats.operations_blocked += 1
                if txn not in self._wait_for:
                    self.stats.blocked_time_events += 1
                self._wait_for[txn] = set(blockers)
                victim = self._resolve_deadlock(txn)
                if victim is not None:
                    # The victim's abort may have cascaded to the
                    # requester itself (an AD edge from earlier work).
                    if victim == txn or not self.transaction(txn).is_active:
                        return OpDecision(executed=False, aborted=True)
                    # The blocker was the victim; fall through and retry
                    # the request now that it is gone.
                    return self.request(txn, object_name, invocation)
                if self.tracer:
                    self.tracer.emit(
                        OpBlocked(
                            time=self.now,
                            txn=txn,
                            object_name=object_name,
                            operation=invocation.operation,
                            args=repr(invocation.args),
                            blocked_on=tuple(sorted(blockers)),
                        )
                    )
                return OpDecision(executed=False, blocked_on=frozenset(blockers))
            self._wait_for.pop(txn, None)

        pre_state = shared.state()
        applied = shared.execute(txn, invocation)
        recorded = self._record_dependencies(
            txn, shared, table, applied, pre_state
        )
        if recorded is None:
            # A cycle: the requester becomes the victim.  Its executed
            # operation is rolled back with the rest of its effects.
            self.abort(txn, reason="dependency-cycle")
            return OpDecision(executed=False, aborted=True)
        self.stats.operations_executed += 1
        self._sequence += 1
        transaction.record(
            OperationRecord(
                object_name=object_name,
                invocation=invocation,
                returned=applied.returned,
                sequence=self._sequence,
            )
        )
        if self.tracer:
            self.tracer.emit(
                OpGranted(
                    time=self.now,
                    txn=txn,
                    object_name=object_name,
                    operation=invocation.operation,
                    args=repr(invocation.args),
                    outcome=applied.returned.outcome,
                    result=repr(applied.returned.result),
                    sequence=self._sequence,
                )
            )
        return OpDecision(
            executed=True, returned=applied.returned, dependencies=tuple(recorded)
        )

    # ------------------------------------------------------------------
    # Commit / abort
    # ------------------------------------------------------------------

    def try_commit(self, txn: TxnId) -> CommitDecision:
        """Attempt to commit ``txn`` under the dependency rules.

        AD/CD predecessors must be resolved first; an aborted AD
        predecessor forces this transaction to abort too (the caller sees
        ``must_abort`` and the abort has already been carried out).
        """
        transaction = self.transaction(txn)
        transaction.require_active()
        waiting = set()
        for earlier, dependency in self._deps.predecessors(txn).items():
            status = self.transaction(earlier).status
            if status is TransactionStatus.ACTIVE:
                waiting.add(earlier)
            elif status is TransactionStatus.ABORTED and dependency is Dependency.AD:
                self.abort(txn, reason="ad-predecessor-aborted")
                return CommitDecision(committed=False, must_abort=True)
        if waiting:
            self.stats.commit_waits += 1
            # Commit waits participate in deadlock detection: a blocked
            # operation waiting on us while we commit-wait on it is a
            # genuine cycle and must be broken.
            self._wait_for[txn] = set(waiting)
            victim = self._resolve_deadlock(txn)
            if victim is not None:
                if victim == txn or not self.transaction(txn).is_active:
                    return CommitDecision(committed=False, must_abort=True)
                return self.try_commit(txn)
            if self.tracer:
                self.tracer.emit(
                    CommitWaited(
                        time=self.now,
                        txn=txn,
                        waiting_on=tuple(sorted(waiting)),
                    )
                )
            return CommitDecision(committed=False, waiting_on=frozenset(waiting))
        transaction.status = TransactionStatus.COMMITTED
        self._commit_counter += 1
        transaction.commit_sequence = self._commit_counter
        self._wait_for.pop(txn, None)
        if self.tracer:
            self.tracer.emit(
                TxnCommitted(
                    time=self.now, txn=txn, commit_sequence=self._commit_counter
                )
            )
        return CommitDecision(committed=True)

    def abort(self, txn: TxnId, reason: str = "requested") -> set[TxnId]:
        """Abort ``txn``, cascading along AD edges.

        Returns the set of transactions aborted *in addition to* ``txn``.
        Replay recovery re-verifies surviving return values; invalidated
        survivors (impossible under a sound table) are aborted as well and
        included in the returned set.  ``reason`` labels the trigger in
        the emitted trace event.
        """
        transaction = self.transaction(txn)
        if transaction.is_aborted:
            return set()
        transaction.require_active()
        cascade = {
            t
            for t in self._deps.abort_cascade([txn])
            if self.transaction(t).is_active
        }
        all_aborting = {txn} | cascade
        for t in all_aborting:
            self._txns[t].status = TransactionStatus.ABORTED
            self._wait_for.pop(t, None)
        self.stats.aborts += len(all_aborting)
        self.stats.cascaded_aborts += len(cascade)
        if self.tracer:
            self.tracer.emit(TxnAborted(time=self.now, txn=txn, reason=reason))
            for t in sorted(cascade):
                self.tracer.emit(CascadeAborted(time=self.now, txn=t, root=txn))
        collateral: set[TxnId] = set()
        for registered in self._objects.values():
            invalidated = registered.shared.remove_transactions(all_aborting)
            collateral |= {
                t for t in invalidated if self.transaction(t).is_active
            }
        for t in collateral:
            cascade |= {t} | self.abort(t, reason="replay-invalidated")
        return cascade

    # ------------------------------------------------------------------
    # Introspection for drivers
    # ------------------------------------------------------------------

    def waiting_on(self, txn: TxnId) -> set[TxnId]:
        """Transactions ``txn`` is currently blocked on (blocking policy)."""
        return set(self._wait_for.get(txn, set()))

    def dependency_graph(self) -> DependencyGraph:
        """The live inter-transaction dependency graph."""
        return self._deps

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _required(self, name: str) -> _RegisteredObject:
        try:
            return self._objects[name]
        except KeyError:
            raise SchedulerError(f"object {name!r} is not registered") from None

    def _context(
        self,
        shared: SharedObject,
        earlier: AppliedOperation,
        invocation: Invocation,
        pre_state: AbstractState,
        second_return: ReturnValue | None,
    ) -> ConditionContext:
        """Runtime condition context for an (earlier, requested) pair.

        Reference predicates are evaluated on the object state just before
        the requested operation runs — the scheduler's dynamic reading of
        the paper's "before the operations are executed".
        """
        return ConditionContext(
            first_invocation=earlier.invocation,
            second_invocation=invocation,
            pre_graph=shared.adt.build_graph(pre_state),
            first_return=earlier.returned,
            second_return=second_return,
        )

    def _shadow_return(
        self,
        shared: SharedObject,
        invocation: Invocation,
        exclude_txn: TxnId,
        skip: AppliedOperation | None = None,
    ) -> ReturnValue:
        """The return value ``invocation`` would produce had ``exclude_txn``
        never run: replay the log without its entries, then execute.

        The certification step that makes the table-driven decisions sound
        under interleaving: a static ND/CD verdict is only trusted when the
        requested operation's return value is provably independent of the
        other transaction's presence — exactly the information-flow test
        that abort-dependencies exist to protect.
        """
        from repro.spec.adt import execute_invocation

        state = shared.initial_state
        for entry in shared.log():
            if entry is skip or entry.txn == exclude_txn:
                continue
            state = execute_invocation(
                shared.adt, state, entry.invocation
            ).post_state
        return execute_invocation(shared.adt, state, invocation).returned

    def _pair_dependency(
        self,
        shared: SharedObject,
        table: CompatibilityTable,
        invocation: Invocation,
        returned: ReturnValue,
        trace: LocalityTrace,
        pre_state: AbstractState,
        other_txn: TxnId,
        skip: AppliedOperation | None,
    ) -> tuple[Dependency, _DepEvidence]:
        """Dependency of the requested operation on one active transaction.

        Three sources of evidence, strongest verdict wins:

        1. the **static table** resolved with the runtime context — covers
           occupancy-level information flow (outcome conditions) that
           vertex localities cannot express;
        2. the **live locality intersection** — the paper's Section-4.3
           general rule applied at run time: the requested operation's
           trace against each of the other transaction's logged traces,
           mapped through Table 2.  Vertex ids are stable on the live
           graph, so this is provenance-exact (consuming a vertex another
           active transaction created is an AD even when the *value* would
           coincidentally be available elsewhere);
        3. the **shadow-return certification** — the requested operation is
           re-executed on a replay of the log without the other
           transaction; a differing return value escalates to AD.

        Returns the verdict together with its provenance — which earlier
        operation, table entry, condition and evidence source were
        decisive — for the ``DependencyRecorded`` trace event.
        """
        verdict = Dependency.ND
        evidence = _NO_EVIDENCE
        for earlier in shared.log():
            if earlier is skip or earlier.txn != other_txn:
                continue
            entry = table.entry(
                invocation.operation, earlier.invocation.operation
            )
            context = self._context(
                shared, earlier, invocation, pre_state, returned
            )
            is_conditional = entry.is_conditional
            if is_conditional:
                self.stats.condition_evaluations += len(entry.pairs)
            resolved, held = entry.resolve_with_condition(context)
            if resolved is Dependency.ND and not is_conditional:
                # An unconditional ND is full-state-space forward
                # commutativity: the operations can be swapped anywhere in
                # any history, so the (conservative) locality escalation is
                # skipped — otherwise two Deposits would be needlessly
                # commit-ordered for touching the same balance vertex.
                # (The integration suite verifies the commutativity
                # property for every unconditional ND cell of every
                # derived table; the shadow test below still runs.)
                continue
            from_locality = locality_dependency(earlier.trace, trace)
            pair_verdict = max(resolved, from_locality)
            if pair_verdict > verdict:
                verdict = pair_verdict
                evidence = _DepEvidence(
                    executing=earlier.invocation.operation,
                    entry=entry,
                    condition=held,
                    source="locality" if from_locality > resolved else "table",
                )
            if verdict is Dependency.AD:
                return Dependency.AD, evidence
        shadow = self._shadow_return(shared, invocation, other_txn, skip)
        if shadow != returned:
            return Dependency.AD, _DepEvidence(
                executing="*", entry=None, condition=None, source="shadow-return"
            )
        return verdict, evidence

    def _record_dependencies(
        self,
        txn: TxnId,
        shared: SharedObject,
        table: CompatibilityTable,
        applied: AppliedOperation,
        pre_state: AbstractState,
    ) -> list[tuple[TxnId, Dependency]] | None:
        """Resolve and record dependencies against earlier active transactions.

        Returns the recorded (txn, dependency) pairs, or ``None`` when an
        edge would close a cycle (the caller aborts the requester).
        """
        recorded: list[tuple[TxnId, Dependency]] = []
        others = sorted(
            other
            for other in shared.active_writers(exclude=txn)
            if self.transaction(other).is_active
        )
        for other_txn in others:
            dependency, evidence = self._pair_dependency(
                shared,
                table,
                applied.invocation,
                applied.returned,
                applied.trace,
                pre_state,
                other_txn,
                skip=applied,
            )
            if dependency is Dependency.ND:
                self.stats.nd_pairs += 1
                continue
            try:
                self._deps.add(txn, other_txn, dependency)
            except DependencyCycleError:
                return None
            if dependency is Dependency.AD:
                self.stats.ad_edges += 1
            else:
                self.stats.cd_edges += 1
            if self.tracer:
                self.tracer.emit(
                    DependencyRecorded(
                        time=self.now,
                        txn=txn,
                        other_txn=other_txn,
                        object_name=shared.name,
                        invoked=applied.invocation.operation,
                        executing=evidence.executing,
                        dependency=dependency.name,
                        entry=evidence.render_entry(),
                        condition=evidence.render_condition(),
                        source=evidence.source,
                    )
                )
            recorded.append((other_txn, dependency))
        return recorded

    def _blocking_conflicts(
        self,
        txn: TxnId,
        shared: SharedObject,
        table: CompatibilityTable,
        invocation: Invocation,
    ) -> set[TxnId]:
        """Active transactions whose operations would form an AD with ours."""
        preview, preview_trace = shared.preview_with_trace(invocation)
        pre_state = shared.state()
        blockers = set()
        others = sorted(
            other
            for other in shared.active_writers(exclude=txn)
            if self.transaction(other).is_active
        )
        for other_txn in others:
            dependency, _evidence = self._pair_dependency(
                shared,
                table,
                invocation,
                preview,
                preview_trace,
                pre_state,
                other_txn,
                skip=None,
            )
            if dependency is Dependency.AD:
                blockers.add(other_txn)
            elif dependency is Dependency.CD and self._deps.depends_transitively(
                other_txn, txn
            ):
                # The new commit-order edge would close a cycle (the other
                # transaction already depends on us).  Under the blocking
                # discipline we wait for it to resolve rather than abort.
                blockers.add(other_txn)
        return blockers

    def _resolve_deadlock(self, start: TxnId) -> TxnId | None:
        """Break a wait-for cycle through ``start``, if there is one.

        The youngest member of the cycle (largest id) is aborted and
        returned; ``None`` means no cycle.
        """
        cycle = self._wait_cycle(start)
        if cycle is None:
            return None
        victim = max(cycle)  # the youngest transaction has the largest id
        self.stats.deadlock_victims += 1
        if self.tracer:
            self.tracer.emit(
                DeadlockResolved(
                    time=self.now, victim=victim, cycle=tuple(cycle)
                )
            )
        self.abort(victim, reason="deadlock-victim")
        return victim

    def _wait_cycle(self, start: TxnId) -> list[TxnId] | None:
        """Find a wait-for cycle through ``start``, as a list of members."""
        path: list[TxnId] = []

        def visit(node: TxnId) -> list[TxnId] | None:
            if node in path:
                return path[path.index(node):]
            path.append(node)
            for blocker in self._wait_for.get(node, set()):
                cycle = visit(blocker)
                if cycle is not None:
                    return cycle
            path.pop()
            return None

        return visit(start)
