"""Unit tests for the object graph (Defs. 7-10, 18, 20)."""

import pytest

from repro.errors import (
    InvalidEdgeError,
    UnknownReferenceError,
    UnknownVertexError,
)
from repro.graph.object_graph import ObjectGraph


@pytest.fixture
def graph() -> ObjectGraph:
    return ObjectGraph("obj")


class TestVertices:
    def test_add_vertex_returns_fresh_ids(self, graph):
        first = graph.add_vertex("x")
        second = graph.add_vertex("y")
        assert first != second
        assert graph.vertex_ids() == {first, second}

    def test_vertex_ids_never_reused_after_removal(self, graph):
        first = graph.add_vertex("x")
        graph.remove_vertex(first)
        second = graph.add_vertex("y")
        assert second != first

    def test_remove_vertex_returns_the_vertex(self, graph):
        vid = graph.add_vertex("payload")
        removed = graph.remove_vertex(vid)
        assert removed.value == "payload"
        assert vid not in graph

    def test_unknown_vertex_raises(self, graph):
        with pytest.raises(UnknownVertexError):
            graph.vertex(99)

    def test_len_counts_components(self, graph):
        graph.add_vertex()
        graph.add_vertex()
        assert len(graph) == 2

    def test_contains(self, graph):
        vid = graph.add_vertex()
        assert vid in graph
        assert 1234 not in graph


class TestComposedOfEdges:
    def test_one_composed_of_edge_per_component(self, graph):
        graph.add_vertex()
        graph.add_vertex()
        edges = graph.composed_of_edges()
        assert len(edges) == 2
        assert {edge.target for edge in edges} == graph.vertex_ids()

    def test_removal_drops_the_composed_of_edge(self, graph):
        vid = graph.add_vertex()
        graph.remove_vertex(vid)
        assert graph.composed_of_edges() == set()


class TestOrderingEdges:
    def test_add_and_query_successors(self, graph):
        a, b = graph.add_vertex(), graph.add_vertex()
        graph.add_ordering_edge(a, b)
        assert graph.successors(a) == {b}
        assert graph.predecessors(b) == {a}

    def test_self_loop_rejected(self, graph):
        vid = graph.add_vertex()
        with pytest.raises(InvalidEdgeError):
            graph.add_ordering_edge(vid, vid)

    def test_cycles_between_distinct_vertices_allowed(self, graph):
        a, b = graph.add_vertex(), graph.add_vertex()
        graph.add_ordering_edge(a, b)
        graph.add_ordering_edge(b, a)  # paper: ordering graphs may have cycles
        assert graph.successors(a) == {b}
        assert graph.successors(b) == {a}

    def test_edges_to_unknown_vertices_rejected(self, graph):
        vid = graph.add_vertex()
        with pytest.raises(UnknownVertexError):
            graph.add_ordering_edge(vid, 99)

    def test_vertex_removal_drops_incident_ordering_edges(self, graph):
        a, b, c = (graph.add_vertex() for _ in range(3))
        graph.add_ordering_edge(a, b)
        graph.add_ordering_edge(b, c)
        graph.remove_vertex(b)
        assert graph.ordering_edges() == set()

    def test_remove_ordering_edge_is_idempotent(self, graph):
        a, b = graph.add_vertex(), graph.add_vertex()
        graph.add_ordering_edge(a, b)
        graph.remove_ordering_edge(a, b)
        graph.remove_ordering_edge(a, b)  # no error
        assert graph.ordering_edges() == set()


class TestContent:
    def test_primitive_content(self, graph):
        vid = graph.add_vertex(42)
        assert graph.content(vid) == 42

    def test_complex_content_is_recursive(self, graph):
        inner = ObjectGraph("inner")
        e = inner.add_vertex("e")
        vid = graph.add_vertex(inner)
        assert graph.content(vid) == {e: "e"}

    def test_simple_vertices_flat(self, graph):
        a = graph.add_vertex(1)
        b = graph.add_vertex(2)
        assert graph.simple_vertices() == {(a,), (b,)}

    def test_simple_vertices_nested_are_paths(self, graph):
        inner = ObjectGraph("inner")
        e = inner.add_vertex("e")
        f = inner.add_vertex("f")
        d = graph.add_vertex(inner)
        b = graph.add_vertex("b")
        assert graph.simple_vertices() == {(b,), (d, e), (d, f)}


class TestReferences:
    def test_declare_and_read(self, graph):
        vid = graph.add_vertex()
        graph.declare_reference("b", vid)
        assert graph.reference("b") == vid

    def test_dangling_reference(self, graph):
        graph.declare_reference("f", None)
        assert graph.reference("f") is None

    def test_undeclared_reference_raises(self, graph):
        with pytest.raises(UnknownReferenceError):
            graph.reference("nope")

    def test_retarget(self, graph):
        a, b = graph.add_vertex(), graph.add_vertex()
        graph.declare_reference("b", a)
        graph.retarget_reference("b", b)
        assert graph.reference("b") == b

    def test_retarget_undeclared_raises(self, graph):
        with pytest.raises(UnknownReferenceError):
            graph.retarget_reference("nope", None)

    def test_vertex_removal_dangles_references(self, graph):
        vid = graph.add_vertex()
        graph.declare_reference("b", vid)
        graph.remove_vertex(vid)
        assert graph.reference("b") is None

    def test_reference_names(self, graph):
        graph.declare_reference("f", None)
        graph.declare_reference("b", None)
        assert graph.reference_names() == {"f", "b"}

