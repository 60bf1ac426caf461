"""Incremental shadow states for the runtime scheduler.

The scheduler's certification step asks, on every operation request and
for every other active transaction ``T``: *what would this invocation
return had ``T`` never run?*  The seed answered by replaying the whole
operation log minus ``T``'s entries from the recovery baseline — an
O(log-length) execution chain per (request, active transaction) pair, so
per-request cost grew as O(active × log) and collapsed quadratically as
histories accumulated committed entries.

The :class:`ShadowStateIndex` maintains that answer incrementally: per
shared object it tracks, per active transaction, the "log without that
transaction" replay state.  Each granted operation advances every
maintained state by exactly one (memoized) execution — O(active) per
request — and a shadow query is then a single execution against the
maintained state.

Invalidation is by **epoch**: an abort rewrites the log of every object
the aborted transactions touched
(:meth:`repro.cc.objects.SharedObject.remove_transactions` erases their
entries and replays the survivors), so the scheduler bumps those
objects' epochs, which discards their maintained states in O(1); each is
rebuilt by one replay from the object's recovery baseline on its next
query.  Aborts are rare relative to requests, so the amortized O(active)
regime resumes immediately after.  Folding a resolved log prefix into
the baseline (:meth:`repro.cc.objects.SharedObject.forget`) invalidates
nothing: the folded entries precede every active transaction's entries,
so every "log minus txn" replay is unchanged.

Incremental steps and shadow queries go through a per-object
**transition memo**: ``invocation -> state -> Execution`` plain dicts,
filled on first use from the scheduler's
:class:`~repro.perf.cache.ExecutionCache` (under ``BOTH`` edge
attribution, the same key the derivation evidence uses); full rebuilds
replay through the cache directly.
Executions are deterministic, so the memo is a pure function and never
needs epoch invalidation; what it saves is the per-step lock acquisition
and the repeated hashing of the same
:class:`~repro.spec.operation.Invocation` (one hash per
:meth:`note_execute` batch instead of one per maintained state).  Memo
hits are counted in ``compiled_memo_hits``; misses flow through the
cache, so the ``execution_cache_*`` metrics reflect runtime traffic too.
The quarantine rung (``rebuild_fast_paths``) replaces the whole index,
memo included, exactly as it discards the cache.  Fault campaigns that
poison the cache also drop the memo
(:meth:`ShadowStateIndex.chaos_drop_memo`), so the injected corruption
stays reachable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.instrument import EdgeAttribution
from repro.spec.adt import AbstractState, execute_invocation
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["ShadowStateIndex"]


@dataclass
class _ObjectIndex:
    """Per-object maintained states, all belonging to one epoch."""

    epoch: int = 0
    #: txn -> replay state of the log *without* that transaction.
    excluding: dict[int, AbstractState] = field(default_factory=dict)


class ShadowStateIndex:
    """Per-object, per-active-transaction "log minus txn" replay states.

    The index is driven by its owning scheduler:

    * :meth:`note_execute` after every granted operation — advances every
      maintained state by one execution;
    * :meth:`invalidate` after every abort rollback (and any other
      wholesale log rewrite) — bumps epochs so maintained states are
      rebuilt lazily;
    * :meth:`forget` when a transaction resolves — drops its entry (its
      shadow state can never be queried again).

    Queries (:meth:`shadow_state`, :meth:`shadow_return`) take the shared
    object so that a lazily created or invalidated entry can be rebuilt
    from the authoritative log.  The ``skip`` parameter mirrors the
    scheduler's convention of certifying an operation *after* appending
    it to the log but *before* telling the index about it: a maintained
    state never includes un-noted entries, and a rebuild must skip the
    entry under certification explicitly.

    ``stats`` is the owning scheduler's
    :class:`~repro.cc.scheduler.SchedulerStats`: the index counts
    ``shadow_replays_avoided`` / ``shadow_full_replays`` /
    ``compiled_memo_hits`` there, so they export with the scheduler's
    counters.
    """

    def __init__(self, stats, cache=None) -> None:
        #: Optional :class:`~repro.perf.cache.ExecutionCache` consulted
        #: by full replays and on every transition-memo miss.
        self.cache = cache
        self.stats = stats
        self._objects: dict[str, _ObjectIndex] = {}
        #: object name -> invocation -> state -> Execution.
        self._memo: dict[str, dict[Invocation, dict[AbstractState, object]]] = {}

    # ------------------------------------------------------------------
    # Maintenance (driven by the scheduler)
    # ------------------------------------------------------------------

    def register(self, name: str) -> None:
        """Start tracking a shared object."""
        self._objects[name] = _ObjectIndex()
        self._memo[name] = {}

    def note_execute(self, name: str, shared, applied) -> None:
        """Advance every maintained state past one granted operation.

        ``applied`` is the :class:`~repro.cc.objects.AppliedOperation`
        just appended to ``shared``'s log.  The executor's own shadow
        state excludes it by definition and is left untouched.
        """
        index = self._objects[name]
        invocation = applied.invocation
        excluding = index.excluding
        # One invocation hash for the whole batch; per-state steps are
        # plain dict probes on the transition memo.
        memo = self._memo[name]
        per_invocation = memo.get(invocation)
        if per_invocation is None:
            per_invocation = memo[invocation] = {}
        stats = self.stats
        skip_txn = applied.txn
        for txn, state in excluding.items():
            if txn == skip_txn:
                continue
            execution = per_invocation.get(state)
            if execution is None:
                execution = self._execute(shared, state, invocation)
                per_invocation[state] = execution
            else:
                stats.compiled_memo_hits += 1
            excluding[txn] = execution.post_state

    def invalidate(self, name: str | None = None) -> None:
        """Discard maintained states (one object, or all of them).

        Called after any abort rollback: the shared object replayed its
        log without the aborted transactions, so every maintained state
        is suspect.  The epoch bump makes the discard O(1); states are
        rebuilt by full replay on their next query.
        """
        targets = (
            self._objects.values()
            if name is None
            else (self._objects[name],)
        )
        for index in targets:
            index.epoch += 1
            index.excluding.clear()

    def forget(self, name: str, txn: int) -> None:
        """Drop a resolved transaction's maintained state."""
        index = self._objects.get(name)
        if index is not None:
            index.excluding.pop(txn, None)

    def chaos_drop_memo(self) -> None:
        """Fault-injection hook: discard the transition memo.

        Cache-poison faults model corruption of the memoized execution
        records; the transition memo holds the same class of record in
        front of the cache and would otherwise shield a poisoned entry
        from every future read.  Dropping it forces subsequent
        transitions back through the (possibly poisoned) cache, so the
        robustness ladder still faces the injected corruption.
        """
        for per_object in self._memo.values():
            per_object.clear()

    def epoch(self, name: str) -> int:
        """The object's current invalidation epoch (for tests/debugging)."""
        return self._objects[name].epoch

    def maintained(self, name: str) -> dict[int, AbstractState]:
        """A snapshot of the maintained states: ``{txn: shadow state}``.

        Audit surface for the invariant monitor's shadow-freshness check:
        every maintained state must equal a fresh "log minus txn" replay.
        The copy is shallow (states are immutable), so auditors cannot
        perturb the index.
        """
        return dict(self._objects[name].excluding)

    # ------------------------------------------------------------------
    # Queries (the scheduler's certification hot path)
    # ------------------------------------------------------------------

    def shadow_state(
        self, name: str, shared, exclude_txn: int, skip=None
    ) -> AbstractState:
        """The replay state of ``shared``'s log without ``exclude_txn``.

        ``skip`` names one log entry to ignore during a rebuild — the
        scheduler certifies an operation *after* executing it, so the
        entry under certification is already logged but must not be part
        of any shadow state yet.
        """
        index = self._objects[name]
        state = index.excluding.get(exclude_txn)
        if state is not None:
            self.stats.shadow_replays_avoided += 1
            return state
        state = self._replay_without(shared, exclude_txn, skip)
        index.excluding[exclude_txn] = state
        self.stats.shadow_full_replays += 1
        return state

    def shadow_return(
        self,
        name: str,
        shared,
        invocation: Invocation,
        exclude_txn: int,
        skip=None,
    ) -> ReturnValue:
        """What ``invocation`` would return had ``exclude_txn`` never run."""
        state = self.shadow_state(name, shared, exclude_txn, skip)
        return self._memo_execute(name, shared, state, invocation).returned

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _execute(self, shared, state: AbstractState, invocation: Invocation):
        if self.cache is not None:
            return self.cache.get_or_execute(
                shared.adt, state, invocation, EdgeAttribution.BOTH
            )
        return execute_invocation(shared.adt, state, invocation)

    def _memo_execute(
        self, name: str, shared, state: AbstractState, invocation: Invocation
    ):
        """The transition-memo front of :meth:`_execute`."""
        memo = self._memo[name]
        per_invocation = memo.get(invocation)
        if per_invocation is None:
            per_invocation = memo[invocation] = {}
        execution = per_invocation.get(state)
        if execution is None:
            execution = self._execute(shared, state, invocation)
            per_invocation[state] = execution
        else:
            self.stats.compiled_memo_hits += 1
        return execution

    def _replay_without(self, shared, exclude_txn: int, skip) -> AbstractState:
        state = shared.baseline
        for entry in shared.log():
            if entry is skip or entry.txn == exclude_txn:
                continue
            state = self._execute(shared, state, entry.invocation).post_state
        return state
