"""Unit tests for the graph builder and the chain helper."""

import pytest

from repro.errors import GraphError
from repro.graph.builder import GraphBuilder, build_chain


class TestGraphBuilder:
    def test_components_and_order(self):
        graph = (
            GraphBuilder("A")
            .component("B", value=1)
            .component("C", value=2)
            .order("B", "C")
            .build()
        )
        labels = {v.display_name(): v.vid for v in graph.vertices()}
        assert set(labels) == {"B", "C"}
        assert graph.successors(labels["B"]) == {labels["C"]}

    def test_nested_component(self):
        inner = GraphBuilder("D").component("E", value="e").build()
        graph = GraphBuilder("A").component("D", value=inner).build()
        (vertex,) = list(graph.vertices())
        assert vertex.is_complex()

    def test_reference_by_label(self):
        builder = GraphBuilder("S").component("top", value=9)
        graph = builder.reference("b", "top").build()
        (top,) = graph.vertices()
        assert graph.reference("b") == top.vid

    def test_dangling_reference(self):
        graph = GraphBuilder("S").reference("b", None).build()
        assert graph.reference("b") is None

    def test_duplicate_label_rejected(self):
        builder = GraphBuilder("A").component("B")
        with pytest.raises(GraphError):
            builder.component("B")

    def test_unknown_label_rejected(self):
        builder = GraphBuilder("A").component("B")
        with pytest.raises(GraphError):
            builder.order("B", "missing")

    def test_builder_is_single_use(self):
        builder = GraphBuilder("A").component("B")
        builder.build()
        with pytest.raises(GraphError):
            builder.component("C")


class TestBuildChain:
    def test_reverse_order_points_towards_front(self):
        graph = build_chain("Q", ["front", "mid", "back"])
        by_value = {v.value: v.vid for v in graph.vertices()}
        assert graph.successors(by_value["back"]) == {by_value["mid"]}
        assert graph.successors(by_value["mid"]) == {by_value["front"]}
        assert graph.successors(by_value["front"]) == set()

    def test_forward_order(self):
        graph = build_chain("Q", ["a", "b"], reverse_order=False)
        by_value = {v.value: v.vid for v in graph.vertices()}
        assert graph.successors(by_value["a"]) == {by_value["b"]}

    def test_references_by_index(self):
        graph = build_chain("Q", ["x", "y"], references=[("f", 0), ("b", 1)])
        assert graph.vertex(graph.reference("f")).value == "x"
        assert graph.vertex(graph.reference("b")).value == "y"

    def test_dangling_reference_via_none_index(self):
        graph = build_chain("Q", [], references=[("f", None)])
        assert graph.reference("f") is None

    def test_empty_chain(self):
        graph = build_chain("Q", [])
        assert len(graph) == 0
        assert graph.ordering_edges() == set()

    def test_singleton_chain_has_no_edges(self):
        graph = build_chain("Q", ["only"])
        assert len(graph) == 1
        assert graph.ordering_edges() == set()
