"""Unit tests for the instrumented graph and locality traces (Defs. 11-17)."""

import pytest

from repro.graph.instrument import EdgeAttribution, InstrumentedGraph, LocalityTrace
from repro.graph.object_graph import ObjectGraph


@pytest.fixture
def view() -> InstrumentedGraph:
    return InstrumentedGraph(ObjectGraph("obj"))


class TestStructureModification:
    def test_insert_enters_sm_and_cm(self, view):
        vid = view.insert_vertex("x")
        assert vid in view.trace.structure_modified
        assert vid in view.trace.content_modified

    def test_delete_enters_sm_and_cm(self, view):
        vid = view.insert_vertex("x")
        view.trace = LocalityTrace()  # fresh trace for the delete alone
        value = view.delete_vertex(vid)
        assert value == "x"
        assert vid in view.trace.structure_modified
        assert vid in view.trace.content_modified

    def test_delete_attributes_surviving_neighbours_under_both(self, view):
        a = view.insert_vertex("a")
        b = view.insert_vertex("b")
        view.add_ordering_edge(a, b)
        view.trace = LocalityTrace()
        view.delete_vertex(a)
        assert b in view.trace.structure_modified

    def test_delete_ignores_neighbours_under_source_attribution(self):
        view = InstrumentedGraph(ObjectGraph("obj"), EdgeAttribution.SOURCE)
        a = view.insert_vertex("a")
        b = view.insert_vertex("b")
        view.add_ordering_edge(a, b)
        view.trace = LocalityTrace()
        view.delete_vertex(a)
        assert b not in view.trace.structure_modified

    def test_ordering_edge_attribution_both(self, view):
        a, b = view.insert_vertex(), view.insert_vertex()
        view.trace = LocalityTrace()
        view.add_ordering_edge(a, b)
        assert view.trace.structure_modified == {a, b}

    def test_ordering_edge_attribution_source_only(self):
        view = InstrumentedGraph(ObjectGraph("obj"), EdgeAttribution.SOURCE)
        a, b = view.insert_vertex(), view.insert_vertex()
        view.trace = LocalityTrace()
        view.add_ordering_edge(a, b)
        assert view.trace.structure_modified == {a}


class TestContentAccess:
    def test_modify_content_enters_cm_only(self, view):
        vid = view.insert_vertex("old")
        view.trace = LocalityTrace()
        view.modify_content(vid, "new")
        assert view.trace.content_modified == {vid}
        assert not view.trace.structure_modified
        assert view.graph.content(vid) == "new"

    def test_observe_content_enters_co(self, view):
        vid = view.insert_vertex("x")
        view.trace = LocalityTrace()
        assert view.observe_content(vid) == "x"
        assert view.trace.content_observed == {vid}
        assert not view.trace.structure_modified
        assert not view.trace.content_modified


class TestStructureObservation:
    def test_observe_presence(self, view):
        vid = view.insert_vertex()
        view.trace = LocalityTrace()
        assert view.observe_presence(vid)
        assert view.trace.structure_observed == {vid}

    def test_observe_absent_vertex_records_nothing(self, view):
        assert not view.observe_presence(99)
        assert not view.trace.structure_observed

    def test_observe_all_presence(self, view):
        vids = {view.insert_vertex() for _ in range(3)}
        view.trace = LocalityTrace()
        assert view.observe_all_presence() == vids
        assert view.trace.structure_observed == vids

    def test_observe_order_records_endpoints(self, view):
        a, b = view.insert_vertex(), view.insert_vertex()
        view.add_ordering_edge(a, b)
        view.trace = LocalityTrace()
        assert view.observe_order(a) == {b}
        assert view.trace.structure_observed == {a, b}

    def test_observe_predecessors(self, view):
        a, b = view.insert_vertex(), view.insert_vertex()
        view.add_ordering_edge(a, b)
        view.trace = LocalityTrace()
        assert view.observe_predecessors(b) == {a}
        assert view.trace.structure_observed == {a, b}


class TestReferences:
    def test_deref_records_read_and_so(self, view):
        vid = view.insert_vertex()
        view.graph.declare_reference("b", vid)
        view.trace = LocalityTrace()
        assert view.deref("b") == vid
        assert "b" in view.trace.references_read
        assert vid in view.trace.structure_observed

    def test_deref_dangling_records_read_only(self, view):
        view.graph.declare_reference("f", None)
        assert view.deref("f") is None
        assert "f" in view.trace.references_read
        assert not view.trace.structure_observed

    def test_retarget_records_write(self, view):
        vid = view.insert_vertex()
        view.graph.declare_reference("b", None)
        view.retarget("b", vid)
        assert "b" in view.trace.references_written
        assert view.graph.reference("b") == vid


class TestLocalityTrace:
    def test_derived_sets(self):
        trace = LocalityTrace(
            structure_observed={1},
            structure_modified={2},
            content_observed={3},
            content_modified={2, 4},
        )
        assert trace.structure_locality == {1, 2}
        assert trace.content_locality == {2, 3, 4}
        assert trace.locality == {1, 2, 3, 4}

    def test_kind_lookup(self):
        trace = LocalityTrace(structure_observed={7})
        assert trace.kind("so") == {7}
        assert trace.kind("cm") == set()
