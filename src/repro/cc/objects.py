"""Shared objects: live state, operation execution, replay recovery.

A :class:`SharedObject` wraps one ADT instance.  Its live state is an
object graph advanced by executed operations: an operation whose
admission preview ran on the current graph adopts the graph that preview
produced, any other runs in place.  In parallel it keeps an *operation
log* — the global execution order of (transaction, invocation) pairs —
which is the basis of recovery:

When a transaction aborts, its operations are removed from the log and the
remaining operations are **replayed from the recovery baseline** (footnote
1 of the paper: "p's changes have to be undone and possibly q's, and the
changes of q must be reapplied").  The baseline starts as the
registration state; :meth:`SharedObject.forget` folds the longest log
prefix of resolved transactions into it, so a scheduler that forgets
after every resolution replays only the active window, never the whole
history.  A fold of the whole log keeps the live graph as a pending
baseline and reads its abstract state only when something asks.  The
registration state itself is kept apart
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
        #: A graph whose abstract state is the baseline, left by a
        #: whole-log :meth:`forget` and read on first use; it is never
        #: mutated while pending.
        self._pending_baseline: ObjectGraph | None = None
        self._graph: ObjectGraph = adt.build_graph(self._initial_state)
        self._log: list[AppliedOperation] = []
        #: The last preview, ``(invocation, source graph, produced graph,
        #: returned, trace)``, for :meth:`execute` to adopt.
        self._preview: tuple | None = None

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
        resolved log prefix into it.  Read straight from the graph a
        whole-log fold left pending, never through an execution memo.
        """
        self._settle_baseline()
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
        """Execute an invocation on the live state and log it.

        When ``invocation`` is the very object last previewed and the
        live graph is still the preview's source, the preview's graph
        becomes the live graph and its return value and trace are logged:
        the clone is id-preserving, so they are exactly what a second run
        would produce.  The replaced graph is never mutated again.
        Otherwise the invocation runs in place, after reading a pending
        baseline off the graph it is about to change.
        """
        preview, self._preview = self._preview, None
        if (
            preview is not None
            and preview[0] is invocation
            and preview[1] is self._graph
        ):
            _, _, self._graph, returned, trace = preview
        else:
            if self._pending_baseline is self._graph:
                self._settle_baseline()
            returned, trace = self._run(self._graph, invocation)
        applied = AppliedOperation(
            txn=txn, invocation=invocation, returned=returned, trace=trace
        )
        self._log.append(applied)
        return applied

    def preview(self, invocation: Invocation) -> ReturnValue:
        """Execute an invocation against a copy of the state.

        The live state is left as it is; see :meth:`preview_with_trace`,
        whose clone a following :meth:`execute` may adopt.
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

        The clone and the live graph it was taken from are kept in one
        slot: if the same invocation object is executed next,
        :meth:`execute` adopts the clone instead of running the operation again.  Every
        :meth:`execute` and :meth:`remove_transactions` clears the slot.
        """
        source = self._graph
        graph = source.clone()
        returned, trace = self._run(graph, invocation)
        self._preview = (invocation, source, graph, returned, trace)
        return returned, trace

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
        self._preview = None
        survivors = [entry for entry in self._log if entry.txn not in txns]
        self._graph = self.adt.build_graph(self.baseline)
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
        live state, which is its replay: the live graph becomes the
        pending baseline, read by :attr:`baseline` on first use.  A
        shorter prefix is replayed from the old baseline on a scratch
        graph.  Returns the number of entries folded.

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
            self._pending_baseline = self._graph
        else:
            graph = self.adt.build_graph(self.baseline)
            for entry in log[:folded]:
                self._run(graph, entry.invocation)
            self._baseline = self.adt.abstract_state(graph)
        del log[:folded]
        return folded

    def _settle_baseline(self) -> None:
        """Read a pending baseline off the graph a whole-log fold left."""
        if self._pending_baseline is not None:
            self._baseline = self.adt.abstract_state(self._pending_baseline)
            self._pending_baseline = None

    def _run(
        self, graph: ObjectGraph, invocation: Invocation
    ) -> tuple[ReturnValue, LocalityTrace]:
        """Execute ``invocation`` on ``graph`` in place, instrumented."""
        view = InstrumentedGraph(graph, attribution=self.attribution)
        operation = self.adt.operation(invocation.operation)
        return operation.execute(view, *invocation.args), view.trace

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedObject {self.name} state={self.state()!r}>"
