"""Table-driven transaction scheduler.

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
entry is conditional on the requester's own outcome — that outcome, from
one run of the operation on the live graph that is kept if granted and
undone otherwise.

State-dependent conditions are validated at derivation time on *adjacent*
executions, which does not compose across intervening operations (see
DESIGN.md §4b.5), so every non-AD verdict is additionally **certified**
before being trusted: by the live locality intersection of the actual
traces (the paper's Section-4.3 general rule, Table 2 over stable vertex
ids) and by a shadow-replay return test.  Unconditional ND entries —
full-state-space commutativity, which is composable — skip the locality
escalation.  See :meth:`TableDrivenScheduler._pair_dependency`.

**The hot path is amortized O(active transactions) per request**, not
O(active × log × replay) as in the seed (kept verbatim in
:mod:`repro.cc.reference` as the parity oracle):

* recovery logs are bounded: after every commit and rollback the
  object's resolved log prefix is folded into its recovery baseline
  (:meth:`~repro.cc.objects.SharedObject.forget`), and an abort rolls
  back only the objects its transactions touched, so rollbacks and
  index rebuilds replay the active window, never the history;
* shadow-replay certification reads a
  :class:`~repro.perf.shadow.ShadowStateIndex` — per-transaction "log
  without that txn" states advanced incrementally on every grant and
  epoch-invalidated on abort rollback — instead of replaying the log per
  pair check;
* only conditional cells build a condition context, and the pre-state
  is read only when some active peer has an operation in one; the graph
  backing the contexts is built at most once per request and shared;
* each active peer is decided once per request, by one lazy verdict
  stream (:meth:`~TableDrivenScheduler._verdicts`).  Blocking admission
  folds its blockers from the whole stream, and the grant keeps the
  staged admission run (:meth:`~repro.cc.objects.SharedObject.execute`)
  and records the same verdicts, as nothing runs in between.  Other
  grants run in place and record the stream as it is decided, so a
  dependency cycle stops it before any later peer is decided;
* the active transactions are kept as a set, updated where a
  transaction begins, commits or aborts, so
  :meth:`~TableDrivenScheduler.active_transactions` costs O(active), not
  O(every transaction begun);
* each table is compiled once, at registration, to a
  :class:`~repro.perf.codegen.ConflictMatrix` (:mod:`repro.perf.codegen`)
  — flat integer arrays over dense operation ids, so pair verdicts index
  a ``bytes`` matrix instead of hashing operation-name strings, and an
  unconditional-ND bitmask per row settles the common no-conflict pair
  in a bit test;
* the per-request log scan is replaced by an **incremental peer index**
  (per object: active transaction -> its log entries, their op ids, and
  an OR-ed op-id bitmask), appended on every grant, pruned on commit,
  and epoch-invalidated with the shadow index on abort rollback; a peer
  transaction whose bitmask is all-unconditional-ND against the
  requested operation settles in one integer test;
* every scheduler-side ``execute_invocation`` goes through an
  :class:`~repro.perf.cache.ExecutionCache` behind the shadow index's
  transition memo, so the ``execution_cache_*`` metrics reflect runtime
  traffic too; a missed execution runs an ``exec``-generated
  per-operation executor (:func:`~repro.perf.codegen.compiled_execute`
  as the private cache's miss handler) instead of the generic
  ``execute_uncached`` dispatch.

The decision stream, dependency edges, final states and seed counters are
bit-identical to the reference — enforced by
``tests/property/test_scheduler_parity.py`` and the
``benchmarks/bench_scheduler_throughput.py`` parity gate.

A third discipline, commit-time validation over intentions lists, lives
in :mod:`repro.cc.validation`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

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
from repro.obs.conflict import ConflictProfile, ObjectConflictTracker
from repro.obs.tracers import NULL_TRACER, Tracer
from repro.perf.cache import ExecutionCache
from repro.perf.codegen import ConflictMatrix, compiled_execute
from repro.perf.shadow import ShadowStateIndex
from repro.spec.adt import (
    ADTSpec,
    AbstractState,
    active_execution_cache,
    render_state,
)
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["OpDecision", "CommitDecision", "SchedulerStats", "TableDrivenScheduler"]


@dataclass(frozen=True)
class OpDecision:
    """Outcome of one operation request."""

    executed: bool
    returned: ReturnValue | None = None
    blocked_on: frozenset[TxnId] = frozenset()
    aborted: bool = False
    dependencies: tuple[tuple[TxnId, Dependency], ...] = ()


@dataclass(frozen=True)
class CommitDecision:
    """Outcome of a commit attempt."""

    committed: bool
    waiting_on: frozenset[TxnId] = frozenset()
    must_abort: bool = False


@dataclass
class SchedulerStats:
    """Counters the simulator and the benchmarks aggregate."""

    operations_executed: int = 0
    operations_blocked: int = 0
    ad_edges: int = 0
    cd_edges: int = 0
    nd_pairs: int = 0
    aborts: int = 0
    cascaded_aborts: int = 0
    deadlock_victims: int = 0
    commit_waits: int = 0
    #: Distinct block intervals begun (a blocked retry of an already
    #: blocked transaction counts in operations_blocked but not here).
    blocked_time_events: int = 0
    #: Non-trivial table-entry condition evaluations performed while
    #: resolving pair dependencies.
    condition_evaluations: int = 0
    #: Shadow certifications served from the incremental shadow-state
    #: index; each one replaces the full log replay the seed performed.
    shadow_replays_avoided: int = 0
    #: Shadow states (re)built by a full log replay (a transaction's
    #: first certification, or the first after an abort invalidation).
    shadow_full_replays: int = 0
    #: Condition contexts of reference-predicate cells that reused the
    #: per-request pre-state graph instead of rebuilding it (the seed
    #: built one per pair, conditional or not).
    context_reuses: int = 0
    #: Pair checks settled by the conflict matrix's unconditional-ND
    #: bitmask without building a condition context.
    nd_fast_path_hits: int = 0
    #: Shadow state transitions served by the transition memo, skipping
    #: the execution cache's lock and key hashing; see
    #: :mod:`repro.perf.shadow`.
    compiled_memo_hits: int = 0

    #: The counters the seed scheduler also maintains; parity with
    #: :class:`repro.cc.reference.ReferenceScheduler` is asserted on
    #: exactly these (the optimization counters above stay zero there).
    SEED_FIELDS = (
        "operations_executed",
        "operations_blocked",
        "ad_edges",
        "cd_edges",
        "nd_pairs",
        "aborts",
        "cascaded_aborts",
        "deadlock_victims",
        "commit_waits",
        "blocked_time_events",
        "condition_evaluations",
    )

    def seed_counters(self) -> dict[str, int]:
        """The seed-comparable slice of the counters."""
        return {name: getattr(self, name) for name in self.SEED_FIELDS}


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

_SHADOW_EVIDENCE = _DepEvidence(
    executing="*", entry=None, condition=None, source="shadow-return"
)


class _PreGraph:
    """The pre-state object graph of one request, built at most once.

    Every reference predicate a request evaluates reads the same
    pre-state; the seed rebuilt the graph per pair.  The holder
    materialises it on first use and counts each subsequent reuse.

    The requested operation runs in place, so the pre-state is read
    before that run, and only when some peer's operation meets a cell of
    the requested row that holds a reference predicate
    (:attr:`~repro.perf.codegen.ConflictMatrix.pre_state_rows`, see
    :meth:`TableDrivenScheduler._verdicts`); otherwise it is ``None`` and
    :meth:`get` is never called.  Outcome and argument conditions never
    read it, so their cells get a context without a graph.
    """

    __slots__ = ("adt", "pre_state", "stats", "graph")

    def __init__(
        self, adt: ADTSpec, stats, pre_state: AbstractState | None
    ) -> None:
        self.adt = adt
        self.pre_state = pre_state
        self.stats = stats
        self.graph = None

    def get(self):
        if self.graph is None:
            self.graph = self.adt.build_graph(self.pre_state)
        else:
            self.stats.context_reuses += 1
        return self.graph


#: One peer's verdict: ``(other_txn, dependency, evidence, condition
#: evaluations)``.
_Verdict = tuple[TxnId, Dependency, _DepEvidence, int]


@dataclass
class _RegisteredObject:
    shared: SharedObject
    table: CompatibilityTable
    #: Integer-id compilation of ``table``.
    matrix: ConflictMatrix


class _TxnEntries:
    """One active peer transaction's logged operations, in log order.

    ``ids`` carries the matrix op id of each entry and ``mask`` their OR
    — so a whole peer transaction can be tested against the requested
    operation's unconditional-ND row in one integer operation.
    """

    __slots__ = ("entries", "ids", "mask")

    def __init__(self) -> None:
        self.entries: list[AppliedOperation] = []
        self.ids: list[int] = []
        self.mask = 0


class _PeerIndex:
    """Incrementally maintained active-peer entries of one shared object.

    Replaces a per-request log scan: appended on every grant, pruned
    when a transaction commits, and marked stale when an abort rolls the
    object back (the surviving entries are replaced by fresh
    :class:`~repro.cc.objects.AppliedOperation` objects with new traces,
    so the index must rebuild from the authoritative log — the same
    epoch discipline the shadow index uses).
    """

    __slots__ = ("stale", "by_txn")

    def __init__(self) -> None:
        self.stale = True
        self.by_txn: dict[TxnId, _TxnEntries] = {}


class TableDrivenScheduler:
    """Scheduler over shared objects, driven by compatibility tables."""

    #: The disciplines an object can run under: the paper's two plus the
    #: serialize-everything fallback the adaptive serving layer switches
    #: churn-heavy objects into.
    POLICIES = ("optimistic", "blocking", "queued")

    def __init__(
        self,
        policy: str = "optimistic",
        tracer: Tracer | None = None,
        execution_cache: ExecutionCache | None = None,
        conflict_thresholds=None,
    ) -> None:
        if policy not in self.POLICIES:
            raise SchedulerError(f"unknown policy {policy!r}")
        self.policy = policy
        #: Falsy NullTracer by default: emissions are guarded with
        #: ``if self.tracer:`` so untraced runs never build an event.
        self.tracer: Tracer = tracer if tracer is not None else NULL_TRACER
        #: Logical timestamp stamped onto emitted events; drivers with a
        #: clock (the discrete-event simulator) keep it current.
        self.now: float = 0.0
        self.stats = SchedulerStats()
        #: Windowed per-object conflict telemetry (see
        #: :mod:`repro.obs.conflict`); always on — the hooks are integer
        #: increments — and never part of transcript/seed parity.
        self.conflict_window: int = 64
        #: Recommendation cutoffs stamped onto every object's tracker
        #: (``None`` keeps the documented defaults).
        self.conflict_thresholds = conflict_thresholds
        self._conflict: dict[str, ObjectConflictTracker] = {}
        #: Per-object policy overrides (adaptive serving layer); objects
        #: without an entry follow the scheduler-wide ``policy``.
        self._object_policy: dict[str, str] = {}
        #: ``listener(txn, status)`` callbacks fired whenever a
        #: transaction resolves (``"committed"`` / ``"aborted"``) — the
        #: serving loop's ready-callback hook.  Empty list = zero cost.
        self._resolution_listeners: list = []
        #: Memo for every scheduler-side ``execute_invocation`` (shadow
        #: replays and shadow-state maintenance).  Joins an installed
        #: process-wide cache when one is active, else owns a private one
        #: — the ``ensure_execution_cache`` idiom, held for the
        #: scheduler's lifetime.
        #: A privately owned cache runs the compiled executors on miss;
        #: an installed or caller-supplied cache is joined as-is (its
        #: miss handler is shared state this scheduler must not mutate —
        #: the values are bit-identical either way).
        self.execution_cache: ExecutionCache = (
            execution_cache
            if execution_cache is not None
            else (
                active_execution_cache()
                or ExecutionCache(executor=compiled_execute)
            )
        )
        self._objects: dict[str, _RegisteredObject] = {}
        #: (id, revision) of a registered table -> its compiled matrix,
        #: so objects sharing a table share one compile.
        self._matrices: dict[tuple[int, int], ConflictMatrix] = {}
        #: Per-object incremental peer index.
        self._peers: dict[str, _PeerIndex] = {}
        self._txns: dict[TxnId, Transaction] = {}
        #: Ids of the active transactions: added by :meth:`begin`,
        #: removed where a commit or an abort sets the status.
        self._active: set[TxnId] = set()
        self._deps = DependencyGraph()
        self._wait_for: dict[TxnId, set[TxnId]] = {}
        self._shadow = ShadowStateIndex(
            cache=self.execution_cache, stats=self.stats
        )
        #: The object of a cycle victim's logged but unrecorded
        #: operation, for the abort that rolls it back.
        self._unrecorded_on: str | None = None
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
        """Attach a shared object and the table governing it.

        The table is compiled once, here, into the integer-id
        :class:`~repro.perf.codegen.ConflictMatrix` the hot path reads;
        objects registered with the same, unchanged table share it.
        """
        if name in self._objects:
            raise SchedulerError(f"object {name!r} already registered")
        shared = SharedObject(name, adt, initial_state)
        # Every keyed table stays referenced by its object, so its id
        # cannot be reused while the key is live.
        key = (id(table), table.revision)
        matrix = self._matrices.get(key)
        if matrix is None:
            matrix = self._matrices[key] = ConflictMatrix.compile(table)
        self._objects[name] = _RegisteredObject(
            shared=shared, table=table, matrix=matrix
        )
        self._peers[name] = _PeerIndex()
        if self.conflict_thresholds is not None:
            self._conflict[name] = ObjectConflictTracker(
                object_name=name,
                window_size=self.conflict_window,
                thresholds=self.conflict_thresholds,
            )
        else:
            self._conflict[name] = ObjectConflictTracker(
                object_name=name, window_size=self.conflict_window
            )
        self._shadow.register(name)
        if self.tracer:
            self.tracer.emit(
                ObjectRegistered(
                    time=self.now,
                    object_name=name,
                    adt=adt.name,
                    initial_state=render_state(shared.initial_state),
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
        self._active.add(txn_id)
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
        """Ids of all currently active transactions.

        A copy of the maintained active set, so O(active) rather than
        O(every transaction begun); callers sort it or take set
        differences, so its iteration order never reaches an output.
        """
        return set(self._active)

    def shadow_index(self) -> ShadowStateIndex:
        """The live shadow-state index (introspection for tests/tools)."""
        return self._shadow

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

        The blocking-policy admission check retries iteratively after a
        deadlock victim is removed (the seed recursed, which deep victim
        chains could drive into the recursion limit).
        """
        while True:
            transaction = self.transaction(txn)
            transaction.require_active()
            registered = self._required(object_name)
            shared = registered.shared
            conflict = self._conflict[object_name]
            conflict.note_request()
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

            mode = self._object_policy.get(object_name, self.policy)
            if mode == "optimistic":
                break
            if mode == "blocking":
                nd_fast_before = self.stats.nd_fast_path_hits
                _, stream = self._verdicts(txn, registered, invocation, stage=True)
                verdicts = list(stream)
                conflict.add_nd_fast(self.stats.nd_fast_path_hits - nd_fast_before)
                blockers = set()
                for other_txn, dependency, _, evaluations in verdicts:
                    self.stats.condition_evaluations += evaluations
                    if dependency is Dependency.AD or (
                        dependency is Dependency.CD
                        and self._deps.depends_transitively(other_txn, txn)
                    ):
                        # A CD edge that would close a cycle (the other
                        # transaction already depends on us) waits for
                        # the other to resolve rather than abort.
                        blockers.add(other_txn)
            else:  # queued: serialize behind every active holder
                blockers = self._queued_conflicts(txn, shared)
            if not blockers:
                self._wait_for.pop(txn, None)
                break
            shared.unstage()
            self.stats.operations_blocked += 1
            conflict.note_block()
            if txn not in self._wait_for:
                self.stats.blocked_time_events += 1
            self._wait_for[txn] = set(blockers)
            victim = self._resolve_deadlock(txn)
            if victim is not None:
                # The victim's abort may have cascaded to the requester
                # itself (an AD edge from earlier work).
                if victim == txn or not self.transaction(txn).is_active:
                    return OpDecision(executed=False, aborted=True)
                # The blocker was the victim; retry the request now that
                # it is gone.
                continue
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

        if mode == "blocking":
            # The grant keeps the staged admission run and records the
            # verdicts admission decided: nothing has run in between.
            applied = shared.execute(txn, invocation)
        else:
            applied, verdicts = self._verdicts(
                txn, registered, invocation, stage=False
            )
        recorded = self._record_dependencies(txn, object_name, applied, verdicts)
        if recorded is None:
            # A cycle: the requester becomes the victim.  Its executed
            # operation is rolled back with the rest of its effects; it
            # is logged but not recorded, so name its object for the
            # rollback.
            self._unrecorded_on = object_name
            self.abort(txn, reason="dependency-cycle")
            return OpDecision(executed=False, aborted=True)
        # Only now does the shadow index learn about the grant: the
        # certification above must see every maintained state *without*
        # the entry it is certifying.
        self._shadow.note_execute(object_name, shared, applied)
        self._note_peer_entry(object_name, registered, txn, applied)
        self.stats.operations_executed += 1
        self._conflict[object_name].note_grant()
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
        Retries iteratively after a commit-wait deadlock victim is
        removed (the seed recursed).
        """
        while True:
            transaction = self.transaction(txn)
            transaction.require_active()
            waiting = set()
            for earlier, dependency in self._deps.predecessors(txn).items():
                status = self.transaction(earlier).status
                if status is TransactionStatus.ACTIVE:
                    waiting.add(earlier)
                elif (
                    status is TransactionStatus.ABORTED
                    and dependency is Dependency.AD
                ):
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
                    continue
                if self.tracer:
                    self.tracer.emit(
                        CommitWaited(
                            time=self.now,
                            txn=txn,
                            waiting_on=tuple(sorted(waiting)),
                        )
                    )
                return CommitDecision(
                    committed=False, waiting_on=frozenset(waiting)
                )
            transaction.status = TransactionStatus.COMMITTED
            self._active.discard(txn)
            self._commit_counter += 1
            transaction.commit_sequence = self._commit_counter
            self._wait_for.pop(txn, None)
            # Committed transactions are never certified against again;
            # their shadow states would only cost maintenance, and their
            # peer-index entries would only cost a skipped iteration.  Only
            # the objects the transaction touched can hold either, and only
            # their logs can have gained a resolved prefix to forget.
            for name in {record.object_name for record in transaction.records}:
                self._shadow.forget(name, txn)
                self._peers[name].by_txn.pop(txn, None)
                self._forget_resolved(name)
            if self.tracer:
                self.tracer.emit(
                    TxnCommitted(
                        time=self.now, txn=txn, commit_sequence=self._commit_counter
                    )
                )
            if self._resolution_listeners:
                for listener in self._resolution_listeners:
                    listener(txn, "committed")
            return CommitDecision(committed=True)

    def abort(self, txn: TxnId, reason: str = "requested") -> set[TxnId]:
        """Abort ``txn``, cascading along AD edges.

        Returns the set of transactions aborted *in addition to* ``txn``.
        Replay recovery re-verifies surviving return values; invalidated
        survivors (impossible under a sound table) are aborted as well and
        included in the returned set.  ``reason`` labels the trigger in
        the emitted trace event.

        Replay-invalidated collateral is processed with an explicit
        work-list (depth-first, matching the order the former recursion
        produced) so a deep invalidation chain cannot exhaust the Python
        call stack.
        """
        transaction = self.transaction(txn)
        if transaction.is_aborted:
            return set()
        transaction.require_active()
        cascade, collateral = self._abort_once(txn, reason)
        stack = list(reversed(collateral))
        while stack:
            t = stack.pop()
            cascade.add(t)
            if self.transaction(t).is_aborted:
                continue
            extra, more = self._abort_once(t, "replay-invalidated")
            cascade |= extra
            stack.extend(reversed(more))
        return cascade

    def _abort_once(
        self, txn: TxnId, reason: str
    ) -> tuple[set[TxnId], list[TxnId]]:
        """Abort one active transaction plus its AD cascade, no follow-up.

        Returns ``(cascade, collateral)``: the AD-cascaded transactions
        aborted alongside ``txn``, and the still-active transactions whose
        logged return values the rollback replay invalidated (the caller's
        work-list processes those).
        """
        cascade = {
            t
            for t in self._deps.abort_cascade([txn])
            if self.transaction(t).is_active
        }
        all_aborting = {txn} | cascade
        for t in all_aborting:
            self._txns[t].status = TransactionStatus.ABORTED
            self._active.discard(t)
            self._wait_for.pop(t, None)
            # Conflict telemetry: attribute the abort to the last object
            # the transaction touched (the same heuristic the offline
            # trace reconstruction uses).
            records = self._txns[t].records
            if records:
                tracker = self._conflict.get(records[-1].object_name)
                if tracker is not None:
                    tracker.note_abort()
        self.stats.aborts += len(all_aborting)
        self.stats.cascaded_aborts += len(cascade)
        if self._resolution_listeners:
            for t in sorted(all_aborting):
                for listener in self._resolution_listeners:
                    listener(t, "aborted")
        if self.tracer:
            self.tracer.emit(TxnAborted(time=self.now, txn=txn, reason=reason))
            for t in sorted(cascade):
                self.tracer.emit(CascadeAborted(time=self.now, txn=t, root=txn))
        # Only objects holding an entry of an aborting transaction need a
        # rollback: its records, plus the cycle victim's logged but
        # unrecorded operation.  Untouched objects hold no shadow state or
        # peer entry of an aborting transaction (both are keyed by logged
        # peers), so they are left as they are.
        touched = {
            record.object_name
            for t in all_aborting
            for record in self._txns[t].records
        }
        if self._unrecorded_on is not None:
            touched.add(self._unrecorded_on)
            self._unrecorded_on = None
        collateral: set[TxnId] = set()
        for name in self._objects:
            if name not in touched:
                continue
            invalidated = self._objects[name].shared.remove_transactions(
                all_aborting
            )
            collateral |= {
                t for t in invalidated if self.transaction(t).is_active
            }
            self._forget_resolved(name)
            # The rollback rewrote the log: every maintained shadow state
            # — and every peer-index entry, whose log objects were
            # replaced by the replay — is stale.  Epoch-invalidate and
            # rebuild lazily.
            self._shadow.invalidate(name)
            index = self._peers[name]
            index.stale = True
            index.by_txn = {}
        return cascade, list(collateral)

    # ------------------------------------------------------------------
    # Introspection for drivers
    # ------------------------------------------------------------------

    def waiting_on(self, txn: TxnId) -> set[TxnId]:
        """Transactions ``txn`` is currently blocked on (blocking policy)."""
        return set(self._wait_for.get(txn, set()))

    def dependency_graph(self) -> DependencyGraph:
        """The live inter-transaction dependency graph."""
        return self._deps

    def conflict_profiles(self) -> dict[str, "ConflictProfile"]:
        """Per-object windowed conflict profiles, keyed by object name.

        The published signal an adaptive blocking/optimistic/queued
        policy consumes (ROADMAP item 1); see :mod:`repro.obs.conflict`.
        """
        return {
            name: self._conflict[name].profile()
            for name in sorted(self._conflict)
        }

    def object_policy(self, name: str) -> str:
        """The discipline ``name`` currently runs under."""
        self._required(name)
        return self._object_policy.get(name, self.policy)

    def set_object_policy(self, name: str, policy: str) -> None:
        """Switch one object's discipline at a safe epoch boundary.

        Only legal while no active transaction has executed operations
        on the object: every decision already taken on it belongs to a
        resolved transaction, so the switch cannot retroactively change
        a dependency verdict and serializability is preserved (the
        adaptive property suite drives this across policies and seeds).
        """
        if policy not in self.POLICIES:
            raise SchedulerError(f"unknown policy {policy!r}")
        self._required(name)
        active = self.object_active_txns(name)
        if active:
            raise SchedulerError(
                f"cannot switch {name!r} to {policy!r}: transactions "
                f"{sorted(active)} are still active on it"
            )
        if policy == self.policy:
            self._object_policy.pop(name, None)
        else:
            self._object_policy[name] = policy

    def object_active_txns(self, name: str) -> set[TxnId]:
        """Active transactions with executed operations on ``name``.

        Empty exactly when the object is at a safe policy-switch
        boundary (see :meth:`set_object_policy`).
        """
        shared = self._required(name).shared
        return {
            entry.txn
            for entry in shared.log()
            if self._txns[entry.txn].is_active
        }

    def add_resolution_listener(self, listener) -> None:
        """Register ``listener(txn, status)`` for transaction resolutions.

        Fired once per transaction, with ``status`` ``"committed"`` or
        ``"aborted"`` — including cascade and deadlock victims resolved
        outside their own call, which is what lets a serving loop drain
        blocked work via callbacks instead of busy-retry.  With no
        listeners registered the scheduler takes no extra branches.
        """
        self._resolution_listeners.append(listener)

    def dependency_sets(self, txn: TxnId) -> tuple[frozenset, frozenset]:
        """``(abort-dependency, commit-dependency)`` predecessor sets of ``txn``.

        The 2PC piggybacking hook (:mod:`repro.dist`): a participant ships
        these with its PREPARE vote, and may only vote yes once every
        predecessor in either set has resolved locally — which is what
        carries the paper's AD/CD commit-ordering across nodes.
        """
        ad: set[TxnId] = set()
        cd: set[TxnId] = set()
        for earlier, dependency in self._deps.predecessors(txn).items():
            if dependency is Dependency.AD:
                ad.add(earlier)
            else:
                cd.add(earlier)
        return frozenset(ad), frozenset(cd)

    # ------------------------------------------------------------------
    # Quarantine (repro.robust invariant monitor)
    # ------------------------------------------------------------------

    def rebuild_fast_paths(self) -> None:
        """Drop and rebuild every derived fast-path structure.

        The quarantine rung of the robustness degradation ladder: the
        execution-cache entries are discarded (a poisoned entry cannot
        survive), every conflict matrix is recompiled from its
        authoritative :class:`~repro.core.tables.CompatibilityTable`, and
        the shadow index and peer index are replaced by fresh ones that
        rebuild lazily from the (authoritative) object logs.  Nothing
        here touches transactions, dependency edges or logs, so
        scheduling decisions after a rebuild are exactly what they would
        have been had the fast paths never been corrupted.
        """
        self.execution_cache.clear()
        self._matrices.clear()
        self._shadow = ShadowStateIndex(
            cache=self.execution_cache, stats=self.stats
        )
        for name, registered in self._objects.items():
            registered.matrix = ConflictMatrix.compile(registered.table)
            self._peers[name] = _PeerIndex()
            self._shadow.register(name)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _required(self, name: str) -> _RegisteredObject:
        try:
            return self._objects[name]
        except KeyError:
            raise SchedulerError(f"object {name!r} is not registered") from None

    def _forget_resolved(self, name: str) -> None:
        """Fold the object's resolved log prefix into its recovery baseline.

        Called wherever a log head can have resolved (a commit or a
        rollback on the object), so every log is empty or starts with an
        active transaction's entry, and recovery replays only the active
        window.
        """
        txns = self._txns
        self._objects[name].shared.forget(lambda t: not txns[t].is_active)

    def _note_peer_entry(
        self,
        name: str,
        registered: _RegisteredObject,
        txn: TxnId,
        applied: AppliedOperation,
    ) -> None:
        """Append one granted operation to the object's peer index.

        Called *after* :meth:`_record_dependencies`, mirroring the shadow
        index: certification must never see the entry it is certifying,
        so a live index naturally lacks it.  A stale index skips the
        append — the next :meth:`_active_peers` rebuild picks the entry
        up from the authoritative log.
        """
        index = self._peers[name]
        if index.stale:
            return
        op_id = registered.matrix.op_id[applied.invocation.operation]
        peer = index.by_txn.get(txn)
        if peer is None:
            peer = index.by_txn[txn] = _TxnEntries()
        peer.entries.append(applied)
        peer.ids.append(op_id)
        peer.mask |= 1 << op_id

    def _active_peers(self, registered: _RegisteredObject) -> dict[TxnId, _TxnEntries]:
        """The object's peer index, rebuilt from the log if stale.

        Groups the log entries of every active transaction, in log order
        within each transaction.  The requester's own entries are
        *included* — callers exclude the requesting transaction's key at
        iteration time, which lets the index be maintained incrementally
        instead of refiltered per request.  It is read before the
        requested operation runs, so the entry under certification is
        never in it.
        """
        index = self._peers[registered.shared.name]
        if index.stale:
            op_id = registered.matrix.op_id
            txns = self._txns
            by_txn: dict[TxnId, _TxnEntries] = {}
            for entry in registered.shared.log():
                t = entry.txn
                peer = by_txn.get(t)
                if peer is None:
                    if not txns[t].is_active:
                        continue
                    peer = by_txn[t] = _TxnEntries()
                oid = op_id[entry.invocation.operation]
                peer.entries.append(entry)
                peer.ids.append(oid)
                peer.mask |= 1 << oid
            index.by_txn = by_txn
            index.stale = False
        return index.by_txn

    def _pair_dependency(
        self,
        shared: SharedObject,
        matrix: ConflictMatrix,
        inv_id: int,
        invocation: Invocation,
        returned: ReturnValue,
        trace: LocalityTrace,
        pre_graph: _PreGraph,
        peer: _TxnEntries,
        other_txn: TxnId,
        skip: AppliedOperation | None,
    ) -> tuple[Dependency, _DepEvidence, int]:
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
           re-executed on the shadow state "log without the other
           transaction" (maintained incrementally by the
           :class:`~repro.perf.shadow.ShadowStateIndex`); a differing
           return value escalates to AD.

        Returns the verdict together with its provenance — which earlier
        operation, table entry, condition and evidence source were
        decisive — for the ``DependencyRecorded`` trace event, and the
        number of condition evaluations it took, which the caller adds
        to the stats where the seed evaluated.

        Cells that are unconditional ND are full-state-space forward
        commutativity: the operations can be swapped anywhere in any
        history, so the (conservative) locality escalation is skipped for
        them — otherwise two Deposits would be needlessly commit-ordered
        for touching the same balance vertex.  (The integration suite
        verifies the commutativity property for every unconditional ND
        cell of every derived table; the shadow test still runs.)  The
        whole peer transaction is first tested against the requested
        operation's unconditional-ND row in one bitmask operation,
        settling the common no-conflict case with zero per-entry work;
        the slow path indexes cells by integer id.  A condition context is
        built only for a conditional cell: an unconditional entry's
        conditions are all ``Always``, which reads no context.  The
        context carries the pre-state graph only for a cell holding a
        reference predicate (``matrix.pre_state_rows``); no other
        condition reads it.  After a table AD the locality kernel is not
        asked: it could change neither the verdict nor its source.
        """
        stats = self.stats
        entries = peer.entries
        verdict = Dependency.ND
        evidence = _NO_EVIDENCE
        evaluations = 0
        if matrix.all_nd(inv_id, peer.mask):
            # Every logged operation of the peer sits in an
            # unconditional-ND cell; count one fast-path hit per entry.
            stats.nd_fast_path_hits += len(entries)
        else:
            codes = matrix.codes
            table_entries = matrix.entries
            row = inv_id * matrix.size
            nd_row = matrix.nd_rows[inv_id]
            pre_state_row = matrix.pre_state_rows[inv_id]
            conditional = ConflictMatrix.CONDITIONAL
            ids = peer.ids
            for position, earlier in enumerate(entries):
                oid = ids[position]
                if nd_row >> oid & 1:
                    stats.nd_fast_path_hits += 1
                    continue
                cell = row + oid
                entry = table_entries[cell]
                context = None
                if codes[cell] == conditional:
                    evaluations += len(entry.pairs)
                    context = ConditionContext(
                        first_invocation=earlier.invocation,
                        second_invocation=invocation,
                        pre_graph=(
                            pre_graph.get()
                            if pre_state_row >> oid & 1
                            else None
                        ),
                        first_return=earlier.returned,
                        second_return=returned,
                    )
                resolved, held = entry.resolve_with_condition(context)
                from_locality = (
                    Dependency.ND
                    if resolved is Dependency.AD
                    else locality_dependency(earlier.trace, trace)
                )
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
                    return Dependency.AD, evidence, evaluations
        shadow = self._shadow.shadow_return(
            shared.name, shared, invocation, other_txn, skip
        )
        if shadow != returned:
            return Dependency.AD, _SHADOW_EVIDENCE, evaluations
        return verdict, evidence, evaluations

    def _record_dependencies(
        self,
        txn: TxnId,
        object_name: str,
        applied: AppliedOperation,
        verdicts: Iterable[_Verdict],
    ) -> list[tuple[TxnId, Dependency]] | None:
        """Record a granted operation's peer verdicts as dependency edges.

        Reads ``verdicts`` in transaction order and returns the recorded
        (txn, dependency) pairs, or ``None`` when an edge would close a
        cycle (the caller aborts the requester); a lazy stream then
        decides no later peer.
        """
        conflict = self._conflict[object_name]
        nd_fast_before = self.stats.nd_fast_path_hits
        recorded: list[tuple[TxnId, Dependency]] = []
        for other_txn, dependency, evidence, evaluations in verdicts:
            self.stats.condition_evaluations += evaluations
            if dependency is Dependency.ND:
                self.stats.nd_pairs += 1
                conflict.note_dep("ND")
                continue
            try:
                self._deps.add(txn, other_txn, dependency)
            except DependencyCycleError:
                return None
            if dependency is Dependency.AD:
                self.stats.ad_edges += 1
            else:
                self.stats.cd_edges += 1
            conflict.note_dep(dependency.name)
            if self.tracer:
                self.tracer.emit(
                    DependencyRecorded(
                        time=self.now,
                        txn=txn,
                        other_txn=other_txn,
                        object_name=object_name,
                        invoked=applied.invocation.operation,
                        executing=evidence.executing,
                        dependency=dependency.name,
                        entry=evidence.render_entry(),
                        condition=evidence.render_condition(),
                        source=evidence.source,
                    )
                )
            recorded.append((other_txn, dependency))
        conflict.add_nd_fast(self.stats.nd_fast_path_hits - nd_fast_before)
        return recorded

    def _verdicts(
        self,
        txn: TxnId,
        registered: _RegisteredObject,
        invocation: Invocation,
        stage: bool,
    ) -> tuple[AppliedOperation | None, Iterator[_Verdict]]:
        """Run ``invocation`` and return the run with its verdict stream.

        With ``stage`` the run is staged on the live graph
        (:meth:`~repro.cc.objects.SharedObject.preview_with_trace`): the
        grant keeps it and a blocked request undoes it.  Otherwise it is
        executed in place and logged, and the logged entry is returned.
        Either way it runs on the live graph, so the pre-state is read
        before it, and only when some peer's operation meets a cell of
        the requested row that holds a reference predicate: only those
        cells read the pre-state graph.

        The stream yields one :data:`_Verdict` per active peer, in
        transaction order, and decides each peer only when it is read.
        """
        shared, matrix = registered.shared, registered.matrix
        inv_id = matrix.op_id[invocation.operation]
        by_txn = self._active_peers(registered)
        others = sorted(t for t in by_txn if t != txn)
        pre_state_row = matrix.pre_state_rows[inv_id]
        asks = any(by_txn[t].mask & pre_state_row for t in others)
        pre_graph = _PreGraph(shared.adt, self.stats, shared.state() if asks else None)
        if stage:
            applied = None
            returned, trace = shared.preview_with_trace(invocation)
        else:
            applied = shared.execute(txn, invocation)
            returned, trace = applied.returned, applied.trace
        run = (shared, matrix, inv_id, invocation, returned, trace, pre_graph)
        stream = (
            (other, *self._pair_dependency(*run, by_txn[other], other, applied))
            for other in others
        )
        return applied, stream

    def _queued_conflicts(self, txn: TxnId, shared: SharedObject) -> set[TxnId]:
        """Every other *active* transaction holding operations on the object.

        The queued discipline serializes an object outright: a request
        waits until it is the only active transaction with executed
        operations there, regardless of what the compatibility table
        would allow.  No table entries are consulted and no preview is
        computed — once admitted, the requester records dependencies
        against an empty peer set, so queued access can never create an
        edge (or a cycle) on the object.  Wait-for bookkeeping and
        deadlock detection are shared with the blocking discipline.
        """
        return {
            other
            for other in shared.active_writers(txn)
            if self._txns[other].is_active
        }

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
        """Find a wait-for cycle through ``start``, as a list of members.

        Iterative depth-first traversal (the seed recursed, so wait-for
        chains longer than the interpreter's recursion limit would crash
        deadlock detection).  Visits blockers in the same order as the
        recursive formulation, so the cycle found — and therefore the
        victim chosen — is identical.
        """
        path: list[TxnId] = []
        on_path: set[TxnId] = set()
        #: Frame i is the pending-successor iterator whose yields become
        #: path depth i; exhausting it pops the node at depth i - 1.
        frames: list[Iterator[TxnId]] = [iter((start,))]
        while frames:
            node = next(frames[-1], None)
            if node is None:
                frames.pop()
                if path:
                    on_path.discard(path.pop())
                continue
            if node in on_path:
                return path[path.index(node):]
            path.append(node)
            on_path.add(node)
            frames.append(iter(self._wait_for.get(node, ())))
        return None
