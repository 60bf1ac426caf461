"""Unit tests for the executable Assertions 1-3 (Section 4.3)."""

import itertools

import pytest

from repro.adts.qstack import QStackSpec
from repro.core.assertions import (
    assertion1_no_dependency,
    assertion2_commute,
    assertion3_recoverable,
    locality_dependency,
)
from repro.core.dependency import Dependency
from repro.experiments.golden import TABLE2_LOCALITY
from repro.graph.instrument import LocalityTrace
from repro.spec.adt import execute_invocation
from repro.spec.operation import Invocation


@pytest.fixture(scope="module")
def qstack() -> QStackSpec:
    return QStackSpec()


def traces(qstack, state, first, second):
    return (
        execute_invocation(qstack, state, first).trace,
        execute_invocation(qstack, state, second).trace,
    )


class TestAssertion1:
    def test_disjoint_localities_no_dependency(self, qstack):
        x, y = traces(
            qstack,
            ("a", "b", "a"),
            Invocation("Replace", ("a", "b")),
            Invocation("XTop"),
        )
        # Replace is content-restricted, XTop structure-restricted: the
        # paper's separation corollary (with the corrected third term).
        assert assertion1_no_dependency(x, y)

    def test_intersecting_modifications_flagged(self, qstack):
        x, y = traces(qstack, ("a", "b"), Invocation("Pop"), Invocation("Pop"))
        assert not assertion1_no_dependency(x, y)

    def test_empty_traces_trivially_separate(self):
        assert assertion1_no_dependency(LocalityTrace(), LocalityTrace())


class TestAssertion2:
    def test_observers_commute(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Top"), Invocation("Size"))
        assert assertion2_commute(x, y)

    def test_modifier_vs_observer_on_same_vertex(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Pop"), Invocation("Top"))
        assert not assertion2_commute(x, y)

    def test_structure_content_separation_commutes(self, qstack):
        x, y = traces(
            qstack,
            ("a", "b", "b"),
            Invocation("XTop"),
            Invocation("Replace", ("b", "a")),
        )
        assert assertion2_commute(x, y)


class TestAssertion3:
    def test_observer_then_modifier_is_recoverable(self, qstack):
        # y = Pop after x = Size: Pop's modifications intersect Size's
        # observations -> CD cells only -> recoverable.
        x, y = traces(qstack, ("a",), Invocation("Size"), Invocation("Pop"))
        assert assertion3_recoverable(x, y)

    def test_modifier_then_observer_not_recoverable(self, qstack):
        # y = Size after x = Pop: Size observes what Pop modified -> AD.
        x, y = traces(qstack, ("a",), Invocation("Pop"), Invocation("Size"))
        assert not assertion3_recoverable(x, y)

    def test_commuting_pair_is_recoverable(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Top"), Invocation("Top"))
        assert assertion3_recoverable(x, y)


class TestLocalityDependency:
    def test_strongest_intersection_wins(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Pop"), Invocation("Top"))
        assert locality_dependency(x, y) is Dependency.AD

    def test_commit_dependency_case(self, qstack):
        x, y = traces(qstack, ("a",), Invocation("Size"), Invocation("Pop"))
        assert locality_dependency(x, y) is Dependency.CD

    def test_no_intersection_is_nd(self, qstack):
        x, y = traces(
            qstack,
            ("a", "b"),
            Invocation("Replace", ("a", "b")),
            Invocation("XTop"),
        )
        assert locality_dependency(x, y) is Dependency.ND


class TestExhaustiveTable2:
    """Every pair of traces whose four locality sets are subsets of {1, 2}.

    4 subsets per kind, 4 kinds per trace and 2 traces give 4**8 = 65,536
    pairs.  The oracles are written from the printed table and the
    paper's wording, never from the kernel's cell lists: a 16-cell fold
    over ``golden.TABLE2_LOCALITY`` for :func:`locality_dependency` and
    Assertion 1 (no dependency), and the literal same-dimension,
    modifier-involving intersections for Assertions 2 and 3.
    """

    KINDS = ("so", "co", "sm", "cm")
    SUBSETS = (set(), {1}, {2}, {1, 2})
    STRENGTH = {"ND": Dependency.ND, "CD": Dependency.CD, "AD": Dependency.AD}

    @classmethod
    def pairs(cls):
        """``(trace_x, trace_y, x_sets, y_sets)`` for all 65,536 pairs."""
        sets = [
            dict(zip(cls.KINDS, choice))
            for choice in itertools.product(cls.SUBSETS, repeat=4)
        ]
        traces = [
            LocalityTrace(
                structure_observed=set(kinds["so"]),
                content_observed=set(kinds["co"]),
                structure_modified=set(kinds["sm"]),
                content_modified=set(kinds["cm"]),
            )
            for kinds in sets
        ]
        for x, y in itertools.product(range(len(sets)), repeat=2):
            yield traces[x], traces[y], sets[x], sets[y]

    @classmethod
    def printed_table2(cls, x_sets, y_sets) -> Dependency:
        """Strongest entry of Table 2 over all 16 non-empty intersections."""
        verdict = Dependency.ND
        for (y_kind, x_kind), entry in TABLE2_LOCALITY.items():
            if y_sets[y_kind] & x_sets[x_kind]:
                verdict = max(verdict, cls.STRENGTH[entry])
        return verdict

    @classmethod
    def modifying_intersections(cls, x_sets, y_sets):
        """``(y_kind, x_kind)`` of every non-empty intersection of one
        dimension (structure or content) that involves a modifier."""
        return [
            (y_kind, x_kind)
            for y_kind in cls.KINDS
            for x_kind in cls.KINDS
            if y_kind[0] == x_kind[0]
            and "m" in (y_kind[1], x_kind[1])
            and y_sets[y_kind] & x_sets[x_kind]
        ]

    def test_kernel_matches_printed_table2(self):
        mismatches = [
            (x_sets, y_sets)
            for trace_x, trace_y, x_sets, y_sets in self.pairs()
            if locality_dependency(trace_x, trace_y)
            is not self.printed_table2(x_sets, y_sets)
        ]
        assert not mismatches, (len(mismatches), mismatches[:3])

    def test_assertions_match_literal_definitions(self):
        mismatches = []
        for trace_x, trace_y, x_sets, y_sets in self.pairs():
            hits = self.modifying_intersections(x_sets, y_sets)
            expected = (
                self.printed_table2(x_sets, y_sets) is Dependency.ND,
                not hits,
                all(TABLE2_LOCALITY[hit] != "AD" for hit in hits),
            )
            actual = (
                assertion1_no_dependency(trace_x, trace_y),
                assertion2_commute(trace_x, trace_y),
                assertion3_recoverable(trace_x, trace_y),
            )
            if actual != expected:
                mismatches.append((x_sets, y_sets, expected, actual))
        assert not mismatches, (len(mismatches), mismatches[:3])
