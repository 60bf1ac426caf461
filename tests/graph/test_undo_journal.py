"""Undo journals: a staged run on a live graph is taken back exactly.

A :class:`~repro.cc.objects.SharedObject` runs every operation on its
live graph under an :class:`~repro.graph.instrument.UndoJournal`.  These
tests check, for every builtin ADT (the ``Bank`` composite's nested
graphs included), every default-bounds state and every invocation, that
undoing a staged run restores the graph's exact structure and that a
second staging returns the same value and trace, with the same fresh
vertex ids.  On seeded random logs they check that the journal-derived
recovery baseline and an in-place rollback agree with a fresh replay.
"""

import random

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.cc.objects import SharedObject
from repro.graph.instrument import InstrumentedGraph, UndoJournal
from repro.graph.object_graph import ObjectGraph

ADTS = builtin_names()


def fingerprint(graph: ObjectGraph) -> tuple:
    """Vertex order and values (nested graphs recursed), edges, references, allocator."""
    return (
        graph.name,
        [
            (
                vid,
                vertex.label,
                fingerprint(vertex.value)
                if isinstance(vertex.value, ObjectGraph)
                else vertex.value,
            )
            for vid, vertex in graph._vertices.items()
        ],
        sorted((edge.source, edge.target) for edge in graph._ordering),
        list(graph._references.items()),
        graph._allocator._next,
    )


def replay(adt, state, invocations) -> tuple:
    """A fresh, unjournaled replay: ``(state, return values)``."""
    graph = adt.build_graph(state)
    returned = [
        adt.operation(inv.operation).execute(InstrumentedGraph(graph), *inv.args)
        for inv in invocations
    ]
    return adt.abstract_state(graph), returned


def test_builtin_adts_include_the_composite():
    assert "Bank" in ADTS and len(ADTS) == 8


@pytest.mark.parametrize("name", ADTS)
def test_staging_then_undoing_restores_the_exact_graph(name):
    adt = make_adt(name)
    for state in adt.state_list():
        for invocation in adt.invocations():
            shared = SharedObject(name, adt, initial_state=state)
            before = fingerprint(shared.graph)
            returned, trace = shared.preview_with_trace(invocation)
            shared.unstage()
            assert fingerprint(shared.graph) == before, (state, invocation)
            assert shared.preview_with_trace(invocation) == (returned, trace)
            assert shared.preview(invocation) == returned
            assert fingerprint(shared.graph) == before
            assert shared.state() == state


@pytest.mark.parametrize("name", ADTS)
def test_a_journal_redoes_what_it_undid(name):
    adt = make_adt(name)
    for state in adt.state_list():
        graph = adt.build_graph(state)
        journal = UndoJournal()
        for invocation in adt.invocations()[:4]:
            view = InstrumentedGraph(graph, journal=journal)
            adt.operation(invocation.operation).execute(view, *invocation.args)
        after = fingerprint(graph)
        journal.undo()
        assert fingerprint(graph) == fingerprint(adt.build_graph(state))
        journal.redo()
        assert fingerprint(graph) == after


@pytest.mark.parametrize("name", ADTS)
def test_baseline_and_rollback_match_a_fresh_replay(name):
    adt = make_adt(name)
    states = adt.state_list()
    invocations = adt.invocations()
    rng = random.Random(f"undo-journal-{name}")
    for _trial in range(12):
        start = rng.choice(states)
        shared = SharedObject(name, adt, initial_state=start)
        for txn in rng.choices(range(4), k=8):
            invocation = rng.choice(invocations)
            if rng.random() < 0.5:
                shared.preview_with_trace(invocation)
            shared.execute(txn, invocation)
        if rng.random() < 0.5:
            shared.preview_with_trace(rng.choice(invocations))

        # A partial fold: the baseline comes from the log's journals.
        log = shared.log()
        resolved = set(rng.sample(range(4), 2))
        folded = shared.forget(lambda txn: txn in resolved)
        expected, _ = replay(adt, start, [e.invocation for e in log[:folded]])
        assert shared.baseline == expected

        # An in-place rollback replays the survivors.
        baseline = shared.baseline
        victims = {rng.randrange(4)}
        survivors = [e for e in shared.log() if e.txn not in victims]
        state, returned = replay(adt, baseline, [e.invocation for e in survivors])
        invalidated = shared.remove_transactions(victims)
        assert shared.state() == state
        assert [e.txn for e in shared.log()] == [e.txn for e in survivors]
        assert invalidated == {
            e.txn for e, r in zip(survivors, returned) if r != e.returned
        }
        assert shared.baseline == baseline

        # The replayed entries' journals lead back to the same baseline:
        # drop the cached one so it is read through them.
        shared._baseline = None
        assert shared.baseline == baseline
        shared.remove_transactions(set(range(4)))
        assert shared.state() == baseline
