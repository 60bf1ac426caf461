"""Unit tests for transactions and their lifecycle."""

import pytest

from repro.cc.transaction import (
    OperationRecord,
    Transaction,
    TransactionStatus,
)
from repro.errors import TransactionStateError
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ok


def record(sequence=1, operation="Push"):
    return OperationRecord(
        object_name="qs",
        invocation=Invocation(operation, ("a",)),
        returned=ok(),
        sequence=sequence,
    )


class TestLifecycle:
    def test_new_transaction_is_active(self):
        txn = Transaction(txn_id=0)
        assert txn.is_active
        assert not txn.is_committed and not txn.is_aborted

    def test_terminal_states(self):
        txn = Transaction(txn_id=0, status=TransactionStatus.COMMITTED)
        assert txn.is_committed

    def test_require_active_guards(self):
        txn = Transaction(txn_id=0, status=TransactionStatus.ABORTED)
        with pytest.raises(TransactionStateError):
            txn.require_active()

    def test_recording_requires_active(self):
        txn = Transaction(txn_id=0, status=TransactionStatus.COMMITTED)
        with pytest.raises(TransactionStateError):
            txn.record(record())


class TestRecords:
    def test_records_accumulate_in_order(self):
        txn = Transaction(txn_id=0)
        txn.record(record(sequence=1))
        txn.record(record(sequence=2, operation="Pop"))
        assert [r.sequence for r in txn.records] == [1, 2]

    def test_record_render(self):
        assert record().render() == "qs.Push('a'):ok"
