"""Transactions and their lifecycle.

The paper assumes "a traditional transaction model in which transactions
have the properties of serializability and failure atomicity" (Section 2).
A transaction here is a flat sequence of operation invocations on shared
objects; its lifecycle is ``ACTIVE -> COMMITTED`` or ``ACTIVE -> ABORTED``,
with commit gated by the dependencies recorded against other transactions
(see :mod:`repro.cc.dependencies`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TransactionStateError
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = ["TxnId", "TransactionStatus", "OperationRecord", "Transaction"]

#: Transactions are identified by integers, assigned in arrival order.
TxnId = int


class TransactionStatus(enum.Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class OperationRecord:
    """One operation a transaction executed on a shared object."""

    object_name: str
    invocation: Invocation
    returned: ReturnValue
    sequence: int  #: global execution-order stamp assigned by the scheduler

    def render(self) -> str:
        ret = self.returned
        shown = ret.outcome if ret.has_outcome else repr(ret.result)
        return f"{self.object_name}.{self.invocation.render()}:{shown}"


@dataclass
class Transaction:
    """A flat transaction: identity, status, and executed-operation log."""

    txn_id: TxnId
    status: TransactionStatus = TransactionStatus.ACTIVE
    records: list[OperationRecord] = field(default_factory=list)
    #: Global commit-order stamp, set by the scheduler at commit time.
    commit_sequence: int | None = None

    def require_active(self) -> None:
        """Guard used by the scheduler before any further action."""
        if self.status is not TransactionStatus.ACTIVE:
            raise TransactionStateError(
                f"transaction {self.txn_id} is {self.status.value}, not active"
            )

    def record(self, record: OperationRecord) -> None:
        """Append an executed operation to the transaction's log."""
        self.require_active()
        self.records.append(record)

    @property
    def is_committed(self) -> bool:
        return self.status is TransactionStatus.COMMITTED

    @property
    def is_aborted(self) -> bool:
        return self.status is TransactionStatus.ABORTED

    @property
    def is_active(self) -> bool:
        return self.status is TransactionStatus.ACTIVE

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Txn {self.txn_id} {self.status.value} "
            f"ops={[r.render() for r in self.records]}>"
        )
