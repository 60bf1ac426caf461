"""Recovery disciplines (Section 3's recovery-mechanism distinction).

The paper stresses that the applicable conflict notion depends on the
recovery mechanism: serial dependency assumes *intentions lists* (updates
deferred to commit), recoverability and backward commutativity assume
*in-place updates with undo* (log-based).  Both disciplines are provided:

* :class:`IntentionsList` — per-transaction buffers of deferred
  invocations, applied atomically at commit.  "With intentions lists ...
  the modifications of an object by an operation are not effected until
  the operation commits", so information never flows between active
  transactions.
* :class:`UndoLog` — in-place execution with replay-based undo, the
  discipline :class:`~repro.cc.objects.SharedObject` implements natively;
  the class here wraps it with explicit undo bookkeeping for direct use in
  examples and tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.objects import SharedObject
from repro.cc.transaction import TxnId
from repro.spec.adt import execute_invocation
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["IntentionsList", "UndoLog"]


@dataclass
class _Intention:
    invocation: Invocation
    predicted: ReturnValue


class IntentionsList:
    """Deferred-update recovery: buffer invocations, apply at commit.

    Each transaction sees the committed state plus its *own* intentions;
    other transactions' intentions are invisible until they commit.  At
    commit the buffered invocations are validated by re-execution against
    the current committed state — if any return value differs from the one
    the transaction observed, the commit is rejected (backward validation,
    as in the optimistic schemes of Section 3).
    """

    def __init__(self, shared: SharedObject) -> None:
        self._shared = shared
        self._intentions: dict[TxnId, list[_Intention]] = {}

    def execute(self, txn: TxnId, invocation: Invocation) -> ReturnValue:
        """Run ``invocation`` against committed-state + own intentions."""
        adt = self._shared.adt
        state = self._shared.state()
        for intention in self._intentions.get(txn, []):
            state = execute_invocation(adt, state, intention.invocation).post_state
        execution = execute_invocation(adt, state, invocation)
        self._intentions.setdefault(txn, []).append(
            _Intention(invocation=invocation, predicted=execution.returned)
        )
        return execution.returned

    def validate(self, txn: TxnId) -> bool:
        """Whether the buffered intentions still return the observed values."""
        adt = self._shared.adt
        state = self._shared.state()
        for intention in self._intentions.get(txn, []):
            execution = execute_invocation(adt, state, intention.invocation)
            if execution.returned != intention.predicted:
                return False
            state = execution.post_state
        return True

    def commit(self, txn: TxnId) -> bool:
        """Validate and, if valid, apply the intentions to the shared object.

        Returns ``False`` (and discards nothing) when validation fails; the
        caller decides whether to retry or abort.
        """
        if not self.validate(txn):
            return False
        for intention in self._intentions.pop(txn, []):
            self._shared.execute(txn, intention.invocation)
        return True

    def abort(self, txn: TxnId) -> None:
        """Discard the transaction's intentions (nothing was applied)."""
        self._intentions.pop(txn, None)

    def pending(self, txn: TxnId) -> list[Invocation]:
        """The invocations currently buffered for ``txn``."""
        return [intention.invocation for intention in self._intentions.get(txn, [])]


class UndoLog:
    """In-place updates with replay-based undo.

    A thin, explicit wrapper over the replay recovery built into
    :class:`~repro.cc.objects.SharedObject`: operations execute
    immediately; :meth:`undo` removes a transaction's operations and
    reports which surviving transactions saw their return values
    invalidated (the cascading-abort candidates of the paper's
    footnote 1).
    """

    def __init__(self, shared: SharedObject) -> None:
        self._shared = shared

    def execute(self, txn: TxnId, invocation: Invocation) -> ReturnValue:
        """Execute in place, logging for potential undo."""
        return self._shared.execute(txn, invocation).returned

    def undo(self, txn: TxnId) -> set[TxnId]:
        """Back out one transaction; returns invalidated survivors."""
        return self._shared.remove_transactions({txn})
