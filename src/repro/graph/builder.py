"""Fluent construction of object graphs.

Building the graphs of the paper's figures by hand is verbose; the builder
provides a compact, readable way to declare components, ordering edges,
nested component objects and references.  It is used by the ADT models in
:mod:`repro.adts` and by the figure-reproduction experiments.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import GraphError
from repro.graph.object_graph import ObjectGraph
from repro.graph.vertex import VertexId

__all__ = ["GraphBuilder", "build_chain"]


class GraphBuilder:
    """Incrementally assemble an :class:`ObjectGraph`.

    Components may be given string labels; ordering edges and references can
    then be declared in terms of those labels, which keeps figure
    definitions close to the paper's notation::

        graph = (
            GraphBuilder("A")
            .component("B", value=1)
            .component("C", value=2)
            .component("D", value=GraphBuilder("D").component("E").build())
            .order("B", "C")
            .order("C", "D")
            .build()
        )
    """

    def __init__(self, name: str = "object") -> None:
        self._graph = ObjectGraph(name)
        self._by_label: dict[str, VertexId] = {}
        self._built = False

    def component(self, label: str, value: Any = None) -> "GraphBuilder":
        """Add a labelled component vertex.

        ``value`` may be a simple data value or a nested ``ObjectGraph``
        (making the parent a complex object, as in Figure 1).
        """
        self._check_open()
        if label in self._by_label:
            raise GraphError(f"duplicate component label {label!r}")
        vid = self._graph.add_vertex(value=value, label=label)
        self._by_label[label] = vid
        return self

    def order(self, source_label: str, target_label: str) -> "GraphBuilder":
        """Add an ordering edge between two labelled components."""
        self._check_open()
        self._graph.add_ordering_edge(
            self._resolve(source_label), self._resolve(target_label)
        )
        return self

    def reference(self, name: str, target_label: str | None) -> "GraphBuilder":
        """Declare a named reference, optionally aimed at a component."""
        self._check_open()
        target = None if target_label is None else self._resolve(target_label)
        self._graph.declare_reference(name, target)
        return self

    def build(self) -> ObjectGraph:
        """Finish construction and return the graph.

        The builder is single-use: further calls raise ``GraphError``.
        """
        self._check_open()
        self._built = True
        return self._graph

    # -- internals ------------------------------------------------------

    def _resolve(self, label: str) -> VertexId:
        try:
            return self._by_label[label]
        except KeyError:
            raise GraphError(f"unknown component label {label!r}") from None

    def _check_open(self) -> None:
        if self._built:
            raise GraphError("builder already finished; create a new one")


def build_chain(
    name: str,
    values: Sequence[Any],
    references: Iterable[tuple[str, int | None]] = (),
    reverse_order: bool = True,
) -> ObjectGraph:
    """Build a linear object: components holding ``values``, chained by order.

    This is the shape of the paper's QStack (Figure 2): components
    ``values[0] .. values[n-1]`` from front to back, with ordering edges
    pointing *towards the front* when ``reverse_order`` is true (edge from
    each element to the element in front of it).

    Args:
        name: Object name (root label).
        values: Component contents, front first.
        references: ``(reference_name, index_into_values_or_None)`` pairs;
            an index of ``None`` declares a dangling reference.
        reverse_order: Direction of ordering edges.  ``True`` gives
            back-to-front edges (QStack convention); ``False`` gives
            front-to-back edges (plain queue convention).

    Returns:
        The assembled object graph.
    """
    graph = ObjectGraph(name)
    vids = [graph.add_vertex(value=value) for value in values]
    pairs = zip(vids[1:], vids) if reverse_order else zip(vids, vids[1:])
    for source, target in pairs:
        graph.add_ordering_edge(source, target)
    for ref_name, index in references:
        target = None if index is None else vids[index]
        graph.declare_reference(ref_name, target)
    return graph
