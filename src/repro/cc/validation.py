"""Commit-time validation scheduling over intentions lists.

The third discipline of the paper's Section 3, alongside the optimistic
(recoverability-style) and blocking schedulers of
:mod:`repro.cc.scheduler`: operations never touch the shared state during
execution — each transaction runs against the committed state plus its own
intentions — and conflicts surface at *commitment*, when the buffered
operations are validated against the state the earlier committers left
behind ("at the time of commitment, a transaction is validated to
determine if its commitment invalidates ... the effects of any in-progress
transaction").

This is backward validation: a committing transaction re-executes its
intentions against the current committed state; if every return value it
observed still holds, the intentions apply atomically, otherwise the
transaction aborts (and may be retried by the caller).  Serializability is
immediate — committed transactions are *literally* applied serially in
commit order, and validation guarantees their observations match that
serial execution.

The compatibility table is used as the *conflict filter* that makes
validation cheap and fair: a committing transaction is validated only
against the intentions it actually conflicts with; transactions whose
operations are pairwise ND against everything committed since their start
skip re-execution entirely (the table certifies their observations).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.objects import SharedObject
from repro.cc.transaction import TxnId
from repro.core.conditions import ConditionContext
from repro.core.dependency import Dependency
from repro.core.table import CompatibilityTable
from repro.errors import SchedulerError, TransactionStateError
from repro.spec.adt import ADTSpec, AbstractState, execute_invocation
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["ValidationScheduler", "ValidationStats"]


@dataclass
class ValidationStats:
    """Counters of the validation discipline."""

    operations_buffered: int = 0
    commits: int = 0
    validation_aborts: int = 0
    voluntary_aborts: int = 0
    validations_skipped_by_table: int = 0
    validations_run: int = 0


@dataclass
class _Intention:
    object_name: str
    invocation: Invocation
    predicted: ReturnValue


@dataclass
class _ValidationTxn:
    txn_id: TxnId
    #: Committed-state snapshot version at transaction start.
    start_version: int
    intentions: list[_Intention] = field(default_factory=list)
    status: str = "active"


@dataclass
class _ValidationObject:
    shared: SharedObject
    table: CompatibilityTable


class ValidationScheduler:
    """Intentions-list scheduler with table-filtered backward validation.

    The shadow executions of :meth:`request` and :meth:`_validate` go
    through :func:`~repro.spec.adt.execute_invocation`, so they are
    memoized whenever an execution cache is installed.
    """

    def __init__(self) -> None:
        self.stats = ValidationStats()
        self._objects: dict[str, _ValidationObject] = {}
        self._txns: dict[TxnId, _ValidationTxn] = {}
        self._next_txn: TxnId = 0
        #: Monotone commit version; committed operations are tagged with
        #: the version at which they applied.
        self._version = 0
        self._committed_ops: list[tuple[int, str, Invocation]] = []

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
        """Attach a shared object and the table filtering its validations."""
        if name in self._objects:
            raise SchedulerError(f"object {name!r} already registered")
        shared = SharedObject(name, adt, initial_state)
        self._objects[name] = _ValidationObject(shared=shared, table=table)
        return shared

    def object(self, name: str) -> SharedObject:
        """Look up a registered shared object."""
        return self._required(name).shared

    def begin(self) -> TxnId:
        """Start a transaction; it snapshots the current commit version."""
        txn_id = self._next_txn
        self._next_txn += 1
        self._txns[txn_id] = _ValidationTxn(
            txn_id=txn_id, start_version=self._version
        )
        return txn_id

    # ------------------------------------------------------------------
    # Execution (deferred)
    # ------------------------------------------------------------------

    def request(
        self, txn: TxnId, object_name: str, invocation: Invocation
    ) -> ReturnValue:
        """Execute against committed state + own intentions; never blocks."""
        record = self._active(txn)
        registered = self._required(object_name)
        state = registered.shared.state()
        for intention in record.intentions:
            if intention.object_name != object_name:
                continue
            state = execute_invocation(
                registered.shared.adt, state, intention.invocation
            ).post_state
        execution = execute_invocation(registered.shared.adt, state, invocation)
        record.intentions.append(
            _Intention(
                object_name=object_name,
                invocation=invocation,
                predicted=execution.returned,
            )
        )
        self.stats.operations_buffered += 1
        return execution.returned

    # ------------------------------------------------------------------
    # Commitment
    # ------------------------------------------------------------------

    def try_commit(self, txn: TxnId) -> bool:
        """Validate and, on success, apply the intentions atomically.

        Validation is skipped when the compatibility table certifies every
        buffered operation as ND against every operation committed since
        the transaction began (nothing it observed can have changed);
        otherwise the intentions are re-executed against the committed
        state and the observed returns must hold.  Failure aborts the
        transaction.
        """
        record = self._active(txn)
        if self._table_certifies_no_conflict(record):
            self.stats.validations_skipped_by_table += 1
        else:
            self.stats.validations_run += 1
            if not self._validate(record):
                record.status = "aborted"
                self.stats.validation_aborts += 1
                return False
        self._apply(record)
        record.status = "committed"
        self.stats.commits += 1
        return True

    def abort(self, txn: TxnId) -> None:
        """Discard the transaction's intentions (nothing was applied)."""
        record = self._active(txn)
        record.status = "aborted"
        self.stats.voluntary_aborts += 1

    def status(self, txn: TxnId) -> str:
        """``"active"``, ``"committed"`` or ``"aborted"``."""
        return self._record(txn).status

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _table_certifies_no_conflict(self, record: _ValidationTxn) -> bool:
        """Whether every intention is unconditionally ND against every
        operation committed after the transaction's snapshot."""
        recent = [
            (object_name, invocation)
            for version, object_name, invocation in self._committed_ops
            if version > record.start_version
        ]
        if not recent:
            return True
        for intention in record.intentions:
            table = self._required(intention.object_name).table
            for object_name, earlier in recent:
                if object_name != intention.object_name:
                    continue
                entry = table.entry(
                    intention.invocation.operation, earlier.operation
                )
                if entry.is_conditional:
                    return False
                context = ConditionContext(
                    first_invocation=earlier,
                    second_invocation=intention.invocation,
                )
                if entry.resolve(context) is not Dependency.ND:
                    return False
        return True

    def _validate(self, record: _ValidationTxn) -> bool:
        states = {}
        for intention in record.intentions:
            shared = self._required(intention.object_name).shared
            state = states.get(intention.object_name, shared.state())
            execution = execute_invocation(shared.adt, state, intention.invocation)
            if execution.returned != intention.predicted:
                return False
            states[intention.object_name] = execution.post_state
        return True

    def _apply(self, record: _ValidationTxn) -> None:
        self._version += 1
        for intention in record.intentions:
            shared = self._required(intention.object_name).shared
            shared.execute(record.txn_id, intention.invocation)
            self._committed_ops.append(
                (self._version, intention.object_name, intention.invocation)
            )

    def _required(self, name: str) -> _ValidationObject:
        try:
            return self._objects[name]
        except KeyError:
            raise SchedulerError(f"object {name!r} is not registered") from None

    def _record(self, txn: TxnId) -> _ValidationTxn:
        try:
            return self._txns[txn]
        except KeyError:
            raise SchedulerError(f"unknown transaction {txn}") from None

    def _active(self, txn: TxnId) -> _ValidationTxn:
        record = self._record(txn)
        if record.status != "active":
            raise TransactionStateError(
                f"transaction {txn} is {record.status}, not active"
            )
        return record
