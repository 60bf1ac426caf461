"""``Condition.reads_pre_state`` is exact on every derived table.

The scheduler builds a pre-state object graph only for a cell whose entry
holds a condition declaring ``reads_pre_state``; every other conditional
cell is resolved with ``pre_graph=None``.  That is sound only if each
condition declaring ``reads_pre_state=False`` has the same value without
the graph as with it.  This suite checks exactly that, exhaustively: for
every built-in ADT, every condition (and sub-condition) of its derived
table, every default-bounds state ``s`` and every ordered pair of
invocations ``(first, second)``, with ``first`` run on ``s`` and
``second`` on the state ``first`` leaves.  It also pins the declaration
itself: the reference predicates read the pre-state, and a composite reads
it exactly when a part does.
"""

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.core.conditions import (
    Always,
    And,
    ArgsDistinct,
    ConditionContext,
    InputsEqual,
    Not,
    OutcomeIs,
    OutcomesEqual,
    ReferencesDistinct,
    ReferencesEqual,
)
from repro.core.methodology import derive
from repro.spec.adt import execute_invocation


def subconditions(condition):
    """``condition`` and every part nested in it, depth first."""
    yield condition
    if isinstance(condition, And):
        for part in condition.parts:
            yield from subconditions(part)
    elif isinstance(condition, Not):
        yield from subconditions(condition.part)


def table_conditions(table):
    """Every distinct condition of ``table``, sub-conditions included."""
    found = {}
    for invoked in table.operations:
        for executing in table.operations:
            for pair in table.entry(invoked, executing).pairs:
                for condition in subconditions(pair.condition):
                    found.setdefault(condition.render(), condition)
    return [found[key] for key in sorted(found)]


class TestDeclaration:
    def test_reference_predicates_read_the_pre_state(self):
        assert ReferencesEqual("f", "b").reads_pre_state
        assert ReferencesDistinct("f", "b").reads_pre_state

    @pytest.mark.parametrize(
        "condition",
        [
            Always(),
            OutcomeIs("first", "ok"),
            OutcomesEqual(),
            InputsEqual(),
            ArgsDistinct(),
        ],
    )
    def test_outcome_and_argument_conditions_do_not(self, condition):
        assert not condition.reads_pre_state

    def test_composites_read_it_when_a_part_does(self):
        reference = ReferencesDistinct("f", "b")
        outcome = OutcomeIs("second", "nok")
        assert And(outcome, reference).reads_pre_state
        assert Not(reference).reads_pre_state
        assert And(outcome, Not(And(InputsEqual(), reference))).reads_pre_state
        assert not And(outcome, InputsEqual()).reads_pre_state
        assert not Not(outcome).reads_pre_state


@pytest.mark.parametrize("adt_name", builtin_names())
def test_non_reading_conditions_ignore_the_pre_state(adt_name):
    adt = make_adt(adt_name)
    conditions = [
        condition
        for condition in table_conditions(derive(adt).final_table)
        if not condition.reads_pre_state
    ]
    invocations = adt.invocations()
    checked = 0
    for state in adt.states(adt.default_bounds):
        graph = adt.build_graph(state)
        for first in invocations:
            executed = execute_invocation(adt, state, first)
            for second in invocations:
                returned = execute_invocation(
                    adt, executed.post_state, second
                ).returned
                for condition in conditions:
                    values = [
                        condition.evaluate(
                            ConditionContext(
                                first_invocation=first,
                                second_invocation=second,
                                pre_graph=pre_graph,
                                first_return=executed.returned,
                                second_return=returned,
                            )
                        )
                        for pre_graph in (None, graph)
                    ]
                    assert values[0] == values[1], (
                        condition.render(), state, first, second
                    )
                    checked += 1
    # Every ADT with a conditional table has something to check.
    assert checked or not conditions
