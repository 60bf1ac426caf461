"""Conflict-graph serializability analysis of completed runs.

The classical theory-side checker, independent of the replay-based witness
search in :mod:`repro.cc.serializability`: build the serialization graph
whose nodes are committed transactions and whose edges follow the
execution order of *conflicting* operation instances (pairs that do not
commute in their executed context); acyclicity implies conflict
serializability, and any topological order is a witness.

Conflicts are decided semantically but *context-free* — two invocations
conflict unless they forward-commute in every state — which makes this the
ADT-aware generalisation of the read/write conflict graph and keeps the
certificate sound: an acyclic graph always implies a valid serial witness.
(The converse is not true for condition-refined scheduling: a run with a
cyclic conflict graph can still be serializable because the specific
states involved made the operations commute; the replay-based checker in
:mod:`repro.cc.serializability` decides those.)  The cross-validation
tests check the implication direction on every sweep run.

It reads the same :class:`~repro.cc.serializability.RunHistory` and
shares its :func:`~repro.cc.serializability.topological_order`, but its
order is deliberately not a candidate of
:func:`~repro.cc.serializability.find_witness`: a witness found there
and nowhere else would move a verdict.
"""

from __future__ import annotations

from repro.cc.serializability import RunHistory, topological_order
from repro.cc.transaction import TxnId
from repro.semantics.commutativity import forward_commute_invocations

__all__ = ["conflict_edges", "serialization_graph_order", "is_conflict_serializable"]


def conflict_edges(scheduler) -> set[tuple[TxnId, TxnId]]:
    """Edges of the serialization graph over the committed transactions.

    For each shared object, the committed operations are walked in global
    execution order; each pair of operations by different transactions
    that does not forward-commute (in every state) adds an edge from the
    earlier executor to the later one.
    """
    return _conflict_edges(RunHistory.of_scheduler(scheduler))


def serialization_graph_order(scheduler) -> list[TxnId] | None:
    """A topological order of the serialization graph, or ``None`` on a cycle.

    Ties go to the lower transaction id.
    """
    history = RunHistory.of_scheduler(scheduler)
    return topological_order(
        history.records,
        ((later, earlier) for earlier, later in _conflict_edges(history)),
        key=lambda txn: txn,
    )


def is_conflict_serializable(scheduler) -> bool:
    """Whether the committed run's serialization graph is acyclic."""
    return serialization_graph_order(scheduler) is not None


def _conflict_edges(history: RunHistory) -> set[tuple[TxnId, TxnId]]:
    records = sorted(
        (
            (record.sequence, txn, record)
            for txn, txn_records in history.records.items()
            for record in txn_records
        ),
        key=lambda item: item[0],
    )
    by_object: dict[str, list[tuple[TxnId, object]]] = {}
    for _, txn, record in records:
        by_object.setdefault(record.object_name, []).append((txn, record))

    edges: set[tuple[TxnId, TxnId]] = set()
    commute_cache: dict[tuple[str, object, object], bool] = {}
    for object_name, entries in by_object.items():
        adt = history.adts[object_name]
        for i, (first_txn, first_record) in enumerate(entries):
            for j in range(i + 1, len(entries)):
                second_txn, second_record = entries[j]
                if first_txn == second_txn:
                    continue
                key = (
                    object_name,
                    first_record.invocation,
                    second_record.invocation,
                )
                if key not in commute_cache:
                    commute_cache[key] = forward_commute_invocations(
                        adt,
                        first_record.invocation,
                        second_record.invocation,
                    )
                if not commute_cache[key]:
                    edges.add((first_txn, second_txn))
    return edges
