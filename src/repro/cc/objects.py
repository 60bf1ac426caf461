"""Shared objects: live state, operation execution, replay recovery.

A :class:`SharedObject` wraps one ADT instance.  Its live state is one
object graph that every operation runs on in place, under an
:class:`~repro.graph.instrument.UndoJournal`.  An admission check may
*stage* a run (:meth:`SharedObject.preview_with_trace`): executing that
same invocation next keeps it, and anything else undoes it first.  In
parallel the object keeps an *operation log* — the global execution order
of (transaction, invocation) pairs, each with the journal of its run —
which is the basis of recovery:

When a transaction aborts, the log is undone in place back to that
transaction's first entry and the later surviving operations are
**replayed** (footnote 1 of the paper: "p's changes have to be undone
and possibly q's, and the changes of q must be reapplied").  The recovery baseline, the state before the
first logged entry, starts as the registration state;
:meth:`SharedObject.forget` folds the longest log prefix of resolved
transactions into it by dropping their journals, so a scheduler that
forgets after every resolution replays only the active window, never the
whole history.  The baseline's abstract state is read only when
something asks, by undoing the log's journals, reading the graph and
redoing them.  The registration state itself is kept apart
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

from dataclasses import dataclass, field
from typing import Callable

from repro.cc.transaction import TxnId
from repro.graph.instrument import (
    EdgeAttribution,
    InstrumentedGraph,
    LocalityTrace,
    UndoJournal,
)
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
    #: The changes this entry's run made to the live graph.
    journal: UndoJournal = field(repr=False, compare=False)


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
        #: The baseline's abstract state, or ``None`` after a fold until
        #: :attr:`baseline` reads it.
        self._baseline: AbstractState | None = self._initial_state
        self._graph: ObjectGraph = adt.build_graph(self._initial_state)
        self._log: list[AppliedOperation] = []
        #: The staged run, ``(invocation, returned, trace, journal)``,
        #: kept for :meth:`execute` of that invocation object.
        self._staged: tuple | None = None

    # ------------------------------------------------------------------
    # State access
    # ------------------------------------------------------------------

    @property
    def graph(self) -> ObjectGraph:
        """The live object graph (used to evaluate reference predicates)."""
        self.unstage()
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
        resolved log prefix into it.  After a fold it is read on first
        use, off the live graph with the log (and a staged run) undone,
        and never through an execution memo.
        """
        if self._baseline is None:
            staged, log = self._staged, self._log
            if staged is not None:
                staged[3].undo()
            for entry in reversed(log):
                entry.journal.undo()
            self._baseline = self.adt.abstract_state(self._graph)
            for entry in log:
                entry.journal.redo()
            if staged is not None:
                staged[3].redo()
        return self._baseline

    def state(self) -> AbstractState:
        """The current abstract state."""
        self.unstage()
        return self.adt.abstract_state(self._graph)

    def log(self) -> list[AppliedOperation]:
        """A copy of the operation log in execution order."""
        return list(self._log)

    def active_writers(self, exclude: TxnId) -> set[TxnId]:
        """Transactions (other than ``exclude``) present in the log."""
        return {entry.txn for entry in self._log if entry.txn != exclude}

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def execute(self, txn: TxnId, invocation: Invocation) -> AppliedOperation:
        """Execute an invocation on the live state and log it.

        When ``invocation`` is the very object whose run is staged, that
        run is kept and logged as it is.  Otherwise any staged run is
        undone and the invocation runs in place.
        """
        staged = self._staged
        if staged is not None and staged[0] is invocation:
            self._staged = None
            _, returned, trace, journal = staged
        else:
            self.unstage()
            returned, trace, journal = self._run(self._graph, invocation)
        applied = AppliedOperation(txn, invocation, returned, trace, journal)
        self._log.append(applied)
        return applied

    def preview(self, invocation: Invocation) -> ReturnValue:
        """What ``invocation`` would return now, leaving the state as it is.

        Stages the run, then undoes it.
        """
        returned, _ = self.preview_with_trace(invocation)
        self.unstage()
        return returned

    def preview_with_trace(
        self, invocation: Invocation
    ) -> tuple[ReturnValue, LocalityTrace]:
        """Stage a run of ``invocation`` on the live graph.

        The locality trace uses the live graph's vertex ids, so it can be
        intersected with traces already recorded on the object — the
        basis of the scheduler's runtime conflict certification.

        If the same invocation object is executed next, :meth:`execute`
        keeps the staged run instead of running the operation again.
        Any other run, a rollback, and reading :meth:`state` or
        :attr:`graph` undo it first; :meth:`unstage` undoes it outright.
        """
        self.unstage()
        returned, trace, journal = self._run(self._graph, invocation)
        self._staged = (invocation, returned, trace, journal)
        return returned, trace

    def unstage(self) -> None:
        """Undo the staged run, if there is one."""
        staged = self._staged
        if staged is not None:
            self._staged = None
            staged[3].undo()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------

    def remove_transactions(self, txns: set[TxnId]) -> set[TxnId]:
        """Erase the given transactions' operations and replay the rest.

        The log is undone in place back to the first erased entry, and
        every later survivor runs again under a fresh journal.

        Returns the set of *surviving* transactions whose replayed return
        values differ from the originally observed ones — the transactions
        whose information was invalidated by the abort.  Under a sound
        compatibility table this set is always empty (the scheduler already
        cascaded every AD-dependent); it is surfaced rather than assumed so
        the soundness experiments can detect violations.
        """
        self.unstage()
        log = self._log
        first = next(
            (index for index, entry in enumerate(log) if entry.txn in txns),
            len(log),
        )
        for entry in reversed(log[first:]):
            entry.journal.undo()
        invalidated: set[TxnId] = set()
        replayed = log[:first]
        for entry in log[first:]:
            if entry.txn in txns:
                continue
            returned, trace, journal = self._run(self._graph, entry.invocation)
            if returned != entry.returned:
                invalidated.add(entry.txn)
            replayed.append(
                AppliedOperation(
                    txn=entry.txn,
                    invocation=entry.invocation,
                    returned=entry.returned,
                    trace=trace,
                    journal=journal,
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
        transaction must replay it.  The folded entries leave the log with
        their journals, which moves the baseline to the state after them;
        :attr:`baseline` reads it on first use.  Nothing runs and the live
        graph is left alone.  Returns the number of entries folded.
        """
        log = self._log
        folded = 0
        while folded < len(log) and resolved(log[folded].txn):
            folded += 1
        if folded:
            del log[:folded]
            self._baseline = None
        return folded

    def _run(
        self, graph: ObjectGraph, invocation: Invocation
    ) -> tuple[ReturnValue, LocalityTrace, UndoJournal]:
        """Execute ``invocation`` on ``graph`` in place, instrumented and journaled.

        A run that raises is undone before the exception propagates.
        """
        journal = UndoJournal()
        view = InstrumentedGraph(graph, attribution=self.attribution, journal=journal)
        operation = self.adt.operation(invocation.operation)
        try:
            returned = operation.execute(view, *invocation.args)
        except BaseException:
            journal.undo()
            raise
        return returned, view.trace, journal

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SharedObject {self.name} state={self.state()!r}>"
