"""Serializability of a run: one history value, one witness search.

The ground truth every scheduler must preserve: some serial execution of
the committed transactions reproduces every recorded return value and
every final object state.  A :class:`RunHistory` is everything that
judgement reads, after Cerone–Gotsman–Yang's histories with their
dependency graphs: each object's ADT and initial state, each committed
transaction's records in program order, the commit stamps, the labelled
dependency edges, and the final object states where they are known.

Three constructors build one, each beside its source:
:meth:`RunHistory.of_scheduler` here,
:func:`repro.dist.audit.history_of_cluster` for a sharded cluster and
:func:`repro.obs.analysis.history_from_trace` for a JSONL trace.
:func:`find_witness` is the one search over it: the commit order, then
the topological order over the edges, then brute force for small
populations, each candidate checked by uncached serial replay — so a
poisoned execution cache never vouches for itself.  A history without
final states (a run still in flight, as the invariant monitor sees it)
is judged by its return values alone.

Used by the property-based soundness tests, experiment X5, the chaos
campaigns, the global audit and ``repro trace --verify``: under a table
derived by the methodology, every run must verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from itertools import permutations
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from repro.cc.transaction import OperationRecord, TxnId
from repro.core.dependency import Dependency
from repro.spec.adt import ADTSpec, AbstractState, execute_uncached

__all__ = [
    "RunHistory",
    "explains",
    "find_witness",
    "topological_order",
    "find_serialization",
    "is_serializable",
]


@dataclass(frozen=True)
class RunHistory:
    """The committed part of one run, as serializability judges it.

    Equality compares everything but the ADT specs, which compare by
    identity (a trace resolves them afresh by name).
    """

    #: object name -> ADT spec
    adts: Mapping[str, ADTSpec] = field(compare=False, repr=False)
    #: object name -> initial abstract state
    initial_states: Mapping[str, AbstractState]
    #: committed txn -> its operation records, in program order
    records: Mapping[TxnId, tuple[OperationRecord, ...]]
    #: committed txn -> commit stamp
    commit_stamps: Mapping[TxnId, int]
    #: ``(later, earlier)`` -> the strongest dependency recorded, over
    #: every transaction of the run (committed or not)
    edges: Mapping[tuple[TxnId, TxnId], Dependency]
    #: object name -> final abstract state, where known
    final_states: Mapping[str, AbstractState] = field(default_factory=dict)

    @classmethod
    def of_scheduler(cls, scheduler, final: bool = True) -> "RunHistory":
        """The history of ``scheduler``'s run.

        ``final=False`` leaves the object states out: mid-run they still
        hold active transactions' effects, so only the committed return
        values can be judged (and reading them would undo a staged run).
        """
        names = scheduler.object_names()
        objects = {name: scheduler.object(name) for name in names}
        committed = [
            txn for txn in scheduler.transactions() if txn.is_committed
        ]
        return cls(
            adts={name: shared.adt for name, shared in objects.items()},
            initial_states={
                name: shared.initial_state for name, shared in objects.items()
            },
            records={txn.txn_id: tuple(txn.records) for txn in committed},
            commit_stamps={
                txn.txn_id: txn.commit_sequence or 0 for txn in committed
            },
            edges=scheduler.dependency_graph().edges(),
            final_states=(
                {name: shared.state() for name, shared in objects.items()}
                if final
                else {}
            ),
        )

    @property
    def commit_order(self) -> list[TxnId]:
        """The committed transactions, by commit stamp."""
        stamps = self.commit_stamps
        return sorted(stamps, key=lambda txn: (stamps[txn], txn))


def explains(history: RunHistory, order: Sequence[TxnId]) -> bool:
    """Whether executing ``order`` serially reproduces ``history``.

    Every committed return value must come back, and every object the
    order touches must end in its final state, where the history has one.
    """
    states: dict[str, AbstractState] = {}
    for txn in order:
        for record in history.records[txn]:
            name = record.object_name
            execution = execute_uncached(
                history.adts[name],
                states.get(name, history.initial_states[name]),
                record.invocation,
            )
            if execution.returned != record.returned:
                return False
            states[name] = execution.post_state
    finals = history.final_states
    return all(
        state == finals[name] for name, state in states.items() if name in finals
    )


def topological_order(
    nodes: Iterable[Hashable],
    edges: Iterable[tuple[Hashable, Hashable]],
    key: Callable[[Hashable], object],
) -> list | None:
    """``nodes`` with every ``(later, earlier)`` edge pointing backwards.

    Among the nodes whose predecessors are all placed, the least ``key``
    goes next.  Edges touching a non-member are ignored; ``None`` means
    the edges close a cycle.
    """
    members = set(nodes)
    waiting = dict.fromkeys(members, 0)
    dependents: dict[Hashable, list] = {}
    for later, earlier in set(edges):
        if later in members and earlier in members:
            waiting[later] += 1
            dependents.setdefault(earlier, []).append(later)
    ready = [(key(node), node) for node, count in waiting.items() if not count]
    heapify(ready)
    order = []
    while ready:
        _, node = heappop(ready)
        order.append(node)
        for later in dependents.get(node, ()):
            waiting[later] -= 1
            if not waiting[later]:
                heappush(ready, (key(later), later))
    return order if len(order) == len(members) else None


def find_witness(
    history: RunHistory, brute_force_limit: int = 6
) -> list[TxnId] | None:
    """A serial order of the committed transactions that explains the run.

    Candidates, in order: the commit order (blocking disciplines order
    conflicting transactions by commitment, so this is the natural
    witness); the topological order over the recorded edges, ties broken
    by first execution stamp; then every permutation, lazily, when at
    most ``brute_force_limit`` transactions committed.  Returns the
    witness, or ``None`` when no order works.
    """
    committed = history.commit_order
    if explains(history, committed):
        return committed

    def first_stamp(txn: TxnId) -> tuple[int, TxnId]:
        records = history.records[txn]
        return (records[0].sequence if records else 0), txn

    order = topological_order(committed, history.edges, key=first_stamp)
    if order is not None and explains(history, order):
        return order
    if len(committed) <= brute_force_limit:
        for permutation in permutations(sorted(committed)):
            if explains(history, permutation):
                return list(permutation)
    return None


def find_serialization(
    scheduler, brute_force_limit: int = 6
) -> list[TxnId] | None:
    """The witness order of ``scheduler``'s finished run, or ``None``."""
    return find_witness(RunHistory.of_scheduler(scheduler), brute_force_limit)


def is_serializable(scheduler, brute_force_limit: int = 6) -> bool:
    """Whether the committed portion of the run is serializable."""
    return find_serialization(scheduler, brute_force_limit) is not None
