"""Shared objects: live state, operation execution, replay recovery.

A :class:`SharedObject` wraps one ADT instance.  Its live state is an
object graph mutated in place by executed operations; in parallel it keeps
an *operation log* — the global execution order of (transaction,
invocation) pairs — which is the basis of recovery:

When a transaction aborts, its operations are removed from the log and the
remaining operations are **replayed from the recovery baseline** (footnote
1 of the paper: "p's changes have to be undone and possibly q's, and the
changes of q must be reapplied").  The baseline starts as the
registration state; :meth:`SharedObject.forget` folds the longest log
prefix of resolved transactions into it, so a scheduler that forgets
after every resolution replays only the active window, never the whole
history.  The registration state itself is kept apart
(:attr:`SharedObject.initial_state`): serial-replay checks start there.

Replay also *re-verifies* the return values of the surviving active
transactions: if a surviving operation would now return something
different, the information it handed to its transaction was
invalidated, and the object reports those transactions so
the scheduler can cascade the abort.  A sound compatibility table makes
such collateral aborts impossible beyond the recorded AD edges — the
property checked by the scheduler-soundness experiment (X5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.cc.transaction import TxnId
from repro.graph.instrument import EdgeAttribution, InstrumentedGraph, LocalityTrace
from repro.graph.object_graph import ObjectGraph
from repro.spec.adt import ADTSpec, AbstractState
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["AppliedOperation", "SharedObject"]


@dataclass
class AppliedOperation:
    """One log entry: who executed what, and what came back."""

    txn: TxnId
    invocation: Invocation
    returned: ReturnValue
    trace: LocalityTrace


class SharedObject:
    """One concurrently accessed ADT instance with replay recovery."""

    def __init__(
        self,
        name: str,
        adt: ADTSpec,
        initial_state: AbstractState | None = None,
        attribution: EdgeAttribution = EdgeAttribution.SOURCE,
    ) -> None:
        """Create a shared instance of ``adt``.

        Runtime traces default to ``SOURCE`` edge attribution — the
        reference-granular reading the paper's Stage 5 uses.  The literal
        ``BOTH`` reading also attributes ordering-edge changes to the
        *neighbouring* vertices, which makes adjacent front/back operations
        (Push vs. Deq on a two-element QStack) appear to conflict and
        erases exactly the concurrency the ``f ≠ b`` predicate exists to
        expose; see the attribution ablation benchmark.
        """
        self.name = name
        self.adt = adt
        self.attribution = attribution
        self._initial_state = (
            adt.initial_state() if initial_state is None else initial_state
        )
        self._baseline = self._initial_state
        self._graph: ObjectGraph = adt.build_graph(self._initial_state)
        self._log: list[AppliedOperation] = []

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ObjectGraph:
        """The live object graph (used to evaluate reference predicates)."""
        return self._graph

    @property
    def initial_state(self) -> AbstractState:
        """The registration state, fixed for the object's lifetime.

        The origin of serial-replay checks, which re-execute every
        committed transaction; recovery replays start at
        :attr:`baseline` instead.
        """
        return self._initial_state

    @property
    def baseline(self) -> AbstractState:
        """The recovery baseline: the state the operation log replays from.

        Equal to :attr:`initial_state` until :meth:`forget` folds a
        resolved log prefix into it.
        """
        return self._baseline

    def state(self) -> AbstractState:
        """The current abstract state."""
        return self.adt.abstract_state(self._graph)

    def log(self) -> list[AppliedOperation]:
        """A copy of the operation log in execution order."""
        return list(self._log)

    def operations_of(self, txn: TxnId) -> list[AppliedOperation]:
        """Log entries belonging to one transaction."""
        return [entry for entry in self._log if entry.txn == txn]

    def active_writers(self, exclude: TxnId) -> set[TxnId]:
        """Transactions (other than ``exclude``) present in the log."""
        return {entry.txn for entry in self._log if entry.txn != exclude}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, txn: TxnId, invocation: Invocation) -> AppliedOperation:
        """Execute an invocation on the live state and log it."""
        returned, trace = self._run(self._graph, invocation)
        applied = AppliedOperation(
            txn=txn, invocation=invocation, returned=returned, trace=trace
        )
        self._log.append(applied)
        return applied

    def preview(self, invocation: Invocation) -> ReturnValue:
        """Execute an invocation against a throwaway copy of the state.

        Used by the blocking scheduler to evaluate outcome-conditional
        entries without committing to the execution.
        """
        returned, _ = self.preview_with_trace(invocation)
        return returned

    def preview_with_trace(
        self, invocation: Invocation
    ) -> tuple[ReturnValue, LocalityTrace]:
        """Preview an invocation on an id-preserving clone of the live graph.

        The returned locality trace uses the *live* graph's vertex ids
        (the clone shares them and would allocate the same fresh ids), so
        it can be intersected with traces already recorded on the object —
        the basis of the scheduler's runtime conflict certification.
        """
        return self._run(self._graph.clone(), invocation)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def remove_transactions(self, txns: set[TxnId]) -> set[TxnId]:
        """Erase the given transactions' operations and replay the rest.

        Returns the set of *surviving* transactions whose replayed return
        values differ from the originally observed ones — the transactions
        whose information was invalidated by the abort.  Under a sound
        compatibility table this set is always empty (the scheduler already
        cascaded every AD-dependent); it is surfaced rather than assumed so
        the soundness experiments can detect violations.
        """
        survivors = [entry for entry in self._log if entry.txn not in txns]
        self._graph = self.adt.build_graph(self._baseline)
        invalidated: set[TxnId] = set()
        replayed: list[AppliedOperation] = []
        for entry in survivors:
            returned, trace = self._run(self._graph, entry.invocation)
            if returned != entry.returned:
                invalidated.add(entry.txn)
            replayed.append(
                AppliedOperation(
                    txn=entry.txn,
                    invocation=entry.invocation,
                    returned=entry.returned,
                    trace=trace,
                )
            )
        self._log = replayed
        return invalidated

    def forget(self, resolved: Callable[[TxnId], bool]) -> int:
        """Fold the longest log prefix of resolved transactions into the baseline.

        ``resolved(txn)`` says whether a logged transaction has resolved;
        aborted entries have already left the log, so in practice it means
        committed.  Folding stops at the first entry of a live transaction:
        a resolved entry logged after it stays, because undoing the live
        transaction must replay it.  A fully resolved log folds to the
        live state, which is its replay; a shorter prefix is replayed from
        the old baseline on a scratch graph.  Returns the number of entries
        folded.

        Executions are pure functions of the abstract state, so replays
        from the folded baseline reproduce every return value and state a
        replay from the registration state would; the live graph is left
        alone.  The prefix replay deliberately bypasses every execution
        memo: the baseline is authoritative state, and a poisoned cache
        entry (a fault campaign's ``cache_poison``) must not leak into it.
        """
        log = self._log
        folded = 0
        while folded < len(log) and resolved(log[folded].txn):
            folded += 1
        if not folded:
            return 0
        if folded == len(log):
            self._baseline = self.state()
        else:
            graph = self.adt.build_graph(self._baseline)
            for entry in log[:folded]:
                self._run(graph, entry.invocation)
            self._baseline = self.adt.abstract_state(graph)
        del log[:folded]
        return folded

    def _run(
        self, graph: ObjectGraph, invocation: Invocation
    ) -> tuple[ReturnValue, LocalityTrace]:
        """Execute ``invocation`` on ``graph`` in place, instrumented."""
        view = InstrumentedGraph(graph, attribution=self.attribution)
        operation = self.adt.operation(invocation.operation)
        return operation.execute(view, *invocation.args), view.trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedObject {self.name} state={self.state()!r}>"
