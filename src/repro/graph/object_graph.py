"""The object graph of Defs. 7-10 and its two subgraphs.

An object ``ob`` is a 3-tuple ``(S, R, O)``: a set of components ``S``, a
set of ordering rules ``R`` and a set of operations ``O`` (Def. 7).  Its
*object graph* ``G_ob`` (Def. 8) consists of

* a root vertex ``v_ob``,
* component vertices ``V_ob``,
* composed-of edges ``E_com`` from the root to every component, and
* ordering edges ``E_ord`` between components.

Def. 9 names the two subgraphs: the *composition graph* (root, components
and composed-of edges, :meth:`ObjectGraph.composed_of_edges`) and the
*ordering graph* (components and ordering edges,
:meth:`ObjectGraph.ordering_edges`).  Def. 10 defines the *content* of a vertex recursively; Def. 18
defines ``V_simple``, the set of all primitive vertices in the hierarchy;
Def. 20 defines *references* as distinguished composed-of edges.

This module implements the graph as a mutable structure: operations on an
ADT are expressed as sequences of graph mutations and observations (see
:mod:`repro.graph.instrument`), which is exactly how the paper derives the
locality of an operation.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import (
    DuplicateVertexError,
    InvalidEdgeError,
    UnknownReferenceError,
    UnknownVertexError,
)
from repro.graph.edges import ComposedOfEdge, OrderingEdge
from repro.graph.vertex import Vertex, VertexId, VertexIdAllocator

__all__ = ["ObjectGraph"]


class ObjectGraph:
    """Mutable object graph ``G_ob`` of Def. 8.

    The root vertex is implicit; components live in :attr:`_vertices` and
    every component is automatically connected to the root by a composed-of
    edge (Def. 8 mandates a composed-of edge from the root to *every*
    vertex, so the set of composed-of edges is exactly the set of component
    vertices and needs no separate bookkeeping).

    References (Def. 20) are named composed-of edges kept in
    :attr:`_references`.  A reference may be *dangling* (``None``) — the
    paper allows references to be deleted, "for example when a QStack
    becomes empty".

    Args:
        name: Name of the object, used as the root-vertex label when
            rendering (e.g. ``"QStack"``).
    """

    def __init__(self, name: str = "object") -> None:
        self.name = name
        self._vertices: dict[VertexId, Vertex] = {}
        self._ordering: set[OrderingEdge] = set()
        self._references: dict[str, VertexId | None] = {}
        self._allocator = VertexIdAllocator()

    # ------------------------------------------------------------------
    # Vertices and composed-of edges
    # ------------------------------------------------------------------

    def add_vertex(self, value: Any = None, label: str | None = None) -> VertexId:
        """Insert a new component vertex and its composed-of edge.

        Returns the freshly allocated vertex id.
        """
        vid = self._allocator.allocate()
        if vid in self._vertices:  # pragma: no cover - allocator guarantees
            raise DuplicateVertexError(vid)
        self._vertices[vid] = Vertex(vid=vid, value=value, label=label)
        return vid

    def remove_vertex(self, vid: VertexId) -> Vertex:
        """Delete a component vertex, its composed-of edge and its ordering edges.

        Any reference that targeted the vertex becomes dangling (``None``),
        mirroring the paper's observation that references can be deleted.
        Returns the removed vertex.
        """
        vertex = self._require(vid)
        del self._vertices[vid]
        self._ordering = {
            edge for edge in self._ordering if vid not in edge.endpoints()
        }
        for ref_name, target in self._references.items():
            if target == vid:
                self._references[ref_name] = None
        return vertex

    def vertex(self, vid: VertexId) -> Vertex:
        """Return the vertex with id ``vid`` (raises if unknown)."""
        return self._require(vid)

    def has_vertex(self, vid: VertexId) -> bool:
        """Whether ``vid`` currently names a component of this object."""
        return vid in self._vertices

    def vertex_ids(self) -> set[VertexId]:
        """Ids of all current components (the set ``V_ob``)."""
        return set(self._vertices)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over the current component vertices."""
        return iter(self._vertices.values())

    def __len__(self) -> int:
        return len(self._vertices)

    def __contains__(self, vid: object) -> bool:
        return vid in self._vertices

    def composed_of_edges(self) -> set[ComposedOfEdge]:
        """The set ``E_com``: one composed-of edge per component (Def. 8)."""
        return {ComposedOfEdge(target=vid) for vid in self._vertices}

    # ------------------------------------------------------------------
    # Content (Def. 10)
    # ------------------------------------------------------------------

    def content(self, vid: VertexId) -> Any:
        """The content of a vertex per Def. 10.

        For a primitive vertex this is its simple data value; for a complex
        vertex it is the (recursively computed) content of the nested
        object graph, rendered as a mapping from nested vertex id to nested
        content.
        """
        vertex = self._require(vid)
        if isinstance(vertex.value, ObjectGraph):
            nested: ObjectGraph = vertex.value
            return {inner: nested.content(inner) for inner in nested.vertex_ids()}
        return vertex.value

    def simple_vertices(self) -> set[tuple[int, ...]]:
        """``V_simple`` of Def. 18, as hierarchical paths.

        Each primitive vertex is identified by the path of vertex ids from
        this graph down to it, so that primitives of nested component
        objects are distinguishable from primitives of the parent.
        """
        simple: set[tuple[int, ...]] = set()
        for vid, vertex in self._vertices.items():
            if isinstance(vertex.value, ObjectGraph):
                nested: ObjectGraph = vertex.value
                simple.update((vid, *path) for path in nested.simple_vertices())
            else:
                simple.add((vid,))
        return simple

    # ------------------------------------------------------------------
    # Ordering edges
    # ------------------------------------------------------------------

    def add_ordering_edge(self, source: VertexId, target: VertexId) -> OrderingEdge:
        """Add an ordering edge between two components of *this* object.

        Both endpoints must be components at this level of the hierarchy:
        "ordering edges are restricted to lie at a single level" (Section
        4.1).  Self-loops are rejected; cycles between distinct vertices are
        allowed ("the ordering graph ... may contain cycles").
        """
        if source == target:
            raise InvalidEdgeError(
                f"ordering edge {source}->{target} would be a self-loop"
            )
        self._require(source)
        self._require(target)
        edge = OrderingEdge(source=source, target=target)
        self._ordering.add(edge)
        return edge

    def remove_ordering_edge(self, source: VertexId, target: VertexId) -> None:
        """Remove the ordering edge ``source -> target`` if present."""
        self._ordering.discard(OrderingEdge(source=source, target=target))

    def ordering_edges(self) -> set[OrderingEdge]:
        """The current set ``E_ord`` of ordering edges."""
        return set(self._ordering)

    def successors(self, vid: VertexId) -> set[VertexId]:
        """Targets of ordering edges emanating from ``vid``."""
        self._require(vid)
        return {edge.target for edge in self._ordering if edge.source == vid}

    def predecessors(self, vid: VertexId) -> set[VertexId]:
        """Sources of ordering edges arriving at ``vid``."""
        self._require(vid)
        return {edge.source for edge in self._ordering if edge.target == vid}

    # ------------------------------------------------------------------
    # References (Def. 20)
    # ------------------------------------------------------------------

    def declare_reference(self, name: str, target: VertexId | None = None) -> None:
        """Declare a named reference, optionally pointing it at a component.

        References are part of the object state (Section 4.3): "this set is
        a subset of the composed-of edges ... and is generally maintained as
        part of the object state".
        """
        if target is not None:
            self._require(target)
        self._references[name] = target

    def reference(self, name: str) -> VertexId | None:
        """The component currently designated by reference ``name``.

        Returns ``None`` for a dangling reference (e.g. ``f`` on an empty
        QStack).  Raises :class:`UnknownReferenceError` for an undeclared
        name.
        """
        if name not in self._references:
            raise UnknownReferenceError(name)
        return self._references[name]

    def retarget_reference(self, name: str, target: VertexId | None) -> None:
        """Point reference ``name`` at another composed-of edge (or nothing).

        The paper: "Modification can be done without necessarily deleting
        the corresponding composed-of edge by selecting a different
        composed-of edge as the new reference."
        """
        if name not in self._references:
            raise UnknownReferenceError(name)
        if target is not None:
            self._require(target)
        self._references[name] = target

    def reference_names(self) -> set[str]:
        """All declared reference names."""
        return set(self._references)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require(self, vid: VertexId) -> Vertex:
        try:
            return self._vertices[vid]
        except KeyError:
            raise UnknownVertexError(vid) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ObjectGraph({self.name!r}, |V|={len(self._vertices)}, "
            f"|E_ord|={len(self._ordering)}, refs={sorted(self._references)})"
        )

