"""Instrumented object-graph access and locality traces (Defs. 11-17).

The paper derives the concurrency properties of an operation from its
*locality*: the set of vertices it inserted/deleted, whose existence it
observed, whose content it changed or observed, and to/from which it
changed or observed ordering edges (Def. 11).  The locality splits into

* structure-observation locality ``L^so`` (Def. 14),
* structure-modification locality ``L^sm`` (Def. 15),
* content-observation locality ``L^co`` (Def. 16), and
* content-modification locality ``L^cm`` (Def. 17).

Operations in this library are written as *graph programs* against an
:class:`InstrumentedGraph`, a thin wrapper over
:class:`~repro.graph.object_graph.ObjectGraph` that performs the underlying
mutation or observation **and** records it in a :class:`LocalityTrace`.
Deriving a locality therefore never requires annotating an operation by
hand — it falls out of executing the operation, which is the behaviour the
paper anticipates ("finding the actual locality of an operation may require
the execution of the operation", Section 4.3).

An instrumented run may also keep an :class:`UndoJournal` of its graph
changes, so that a trial run on a live graph can be taken back exactly —
the runtime certification's admission run, in place of a copy of the
graph.

Attribution of ordering-edge changes
------------------------------------

Def. 15 places in ``L^sm`` the vertices "to/from which ordering edges are
changed".  Read literally, a changed edge contributes *both* endpoints
(``EdgeAttribution.BOTH``).  The paper's own Stage-5 reasoning for the
QStack, however, works at the granularity of *references* and effectively
attributes an inserted vertex's new ordering edge only to the inserted
vertex.  Both attributions are implemented; ``BOTH`` is the default because
it is the literal reading, and the difference between the two is the
subject of an ablation benchmark (see DESIGN.md §5).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.graph.edges import OrderingEdge
from repro.graph.object_graph import ObjectGraph
from repro.graph.vertex import VertexId

__all__ = [
    "EdgeAttribution",
    "LOCALITY_FIELDS",
    "LocalityTrace",
    "InstrumentedGraph",
    "UndoJournal",
    "discard_trace",
]


class EdgeAttribution(enum.Enum):
    """How an ordering-edge change is attributed to vertex localities."""

    #: Both endpoints of the edge enter the locality (literal Def. 15).
    BOTH = "both"
    #: Only the source of the edge enters the locality (reference-granular
    #: reading used implicitly by the paper's Stage 5).
    SOURCE = "source"


#: The :class:`LocalityTrace` field of each Table-2 locality kind.
LOCALITY_FIELDS = {
    "so": "structure_observed",
    "co": "content_observed",
    "sm": "structure_modified",
    "cm": "content_modified",
}


@dataclass
class LocalityTrace:
    """Record of the locality of one executed operation.

    The four vertex sets correspond directly to Defs. 14-17.  In addition
    the trace records which named references the operation read and wrote —
    that information belongs to dimension *D5* of the Stage-2
    characterisation (Section 5) and feeds the Stage-5 locality predicates.
    """

    structure_observed: set[VertexId] = field(default_factory=set)
    structure_modified: set[VertexId] = field(default_factory=set)
    content_observed: set[VertexId] = field(default_factory=set)
    content_modified: set[VertexId] = field(default_factory=set)
    references_read: set[str] = field(default_factory=set)
    references_written: set[str] = field(default_factory=set)

    # -- Derived sets of the paper ------------------------------------

    @property
    def structure_locality(self) -> set[VertexId]:
        """``L^s`` of Def. 12."""
        return self.structure_observed | self.structure_modified

    @property
    def content_locality(self) -> set[VertexId]:
        """``L^c`` of Def. 13."""
        return self.content_observed | self.content_modified

    @property
    def locality(self) -> set[VertexId]:
        """``L = L^s ∪ L^c`` of Def. 11."""
        return self.structure_locality | self.content_locality

    def kind(self, name: str) -> set[VertexId]:
        """Locality set by short name: ``'so'``, ``'sm'``, ``'co'`` or ``'cm'``."""
        return getattr(self, LOCALITY_FIELDS[name])


class _DiscardSet(set):
    """A set that drops everything added to it.

    Backing store of :func:`discard_trace`: the instrumentation code paths
    stay identical (no per-call-site "am I tracing?" branches) while the
    bookkeeping itself becomes a no-op.
    """

    __slots__ = ()

    def add(self, _element: object) -> None:
        pass

    def update(self, *_others: object) -> None:
        pass


def discard_trace() -> LocalityTrace:
    """A :class:`LocalityTrace` that records nothing.

    For callers that execute an operation only for its post-state or
    return value (e.g. reachability sweeps), locality bookkeeping is pure
    overhead; executing against a discarding trace skips it without
    forking the execution path.
    """
    return LocalityTrace(
        structure_observed=_DiscardSet(),
        structure_modified=_DiscardSet(),
        content_observed=_DiscardSet(),
        content_modified=_DiscardSet(),
        references_read=_DiscardSet(),
        references_written=_DiscardSet(),
    )


class UndoJournal(list):
    """The graph changes of instrumented runs, in order, undoable and redoable.

    Each journaled primitive of :class:`InstrumentedGraph` appends one
    step ``(undo, redo, graph-or-vertex, *operands)``.  A step restores
    exactly what its primitive changed: the vertex table's insertion
    order, the ordering edges a deletion dropped, the references it left
    dangling, and the id allocator — so an undone run leaves the graph
    structurally identical, and running the same operation again
    allocates the same vertex ids.  The steps reach into the graph's
    private tables: they are its inverse, not a client of its API.

    Several journals on one graph form a stack: undo them newest first,
    redo them oldest first, and make no unjournaled change in between.
    """

    __slots__ = ()

    def undo(self) -> None:
        """Take back every step, newest first."""
        for step in reversed(self):
            step[0](step)

    def redo(self) -> None:
        """Reapply every step, oldest first, after :meth:`undo`."""
        for step in self:
            step[1](step)


def _undo_insert(step: tuple) -> None:
    _, _, graph, vid, _vertex = step
    del graph._vertices[vid]
    graph._allocator._next = vid


def _redo_insert(step: tuple) -> None:
    _, _, graph, vid, vertex = step
    graph._vertices[vid] = vertex
    graph._allocator._next = vid + 1


def _undo_delete(step: tuple) -> None:
    _, _, graph, vid, vertex, position, ordering, _after, dangled = step
    vertices = graph._vertices
    if position == len(vertices):
        vertices[vid] = vertex
    else:
        items = list(vertices.items())
        items.insert(position, (vid, vertex))
        vertices.clear()
        vertices.update(items)
    # ``remove_vertex`` replaced the edge set, so the old one is intact.
    graph._ordering = ordering
    for name in dangled:
        graph._references[name] = vid


def _redo_delete(step: tuple) -> None:
    _, _, graph, vid, _vertex, _position, _ordering, after, dangled = step
    del graph._vertices[vid]
    graph._ordering = after
    for name in dangled:
        graph._references[name] = None


def _add_edge(step: tuple) -> None:
    step[2]._ordering.add(step[3])


def _discard_edge(step: tuple) -> None:
    step[2]._ordering.discard(step[3])


def _undo_content(step: tuple) -> None:
    step[2].value = step[3]


def _redo_content(step: tuple) -> None:
    step[2].value = step[4]


def _undo_retarget(step: tuple) -> None:
    step[2]._references[step[3]] = step[4]


def _redo_retarget(step: tuple) -> None:
    step[2]._references[step[3]] = step[5]


class InstrumentedGraph:
    """Object-graph facade that records every access in a locality trace.

    All mutating and observing graph primitives of the paper's Section 4.2
    list are provided:

    1. change the contents of vertices        -> :meth:`modify_content`
    2. insert or delete vertices and edges    -> :meth:`insert_vertex`,
                                                 :meth:`delete_vertex`
    3. change the structure (ordering edges)  -> :meth:`add_ordering_edge`,
                                                 :meth:`remove_ordering_edge`
    4. observe the contents of vertices       -> :meth:`observe_content`
    5. observe the structure / presence       -> :meth:`observe_presence`,
                                                 :meth:`observe_order`,
                                                 :meth:`observe_all_presence`

    Reference handling (Def. 20) goes through :meth:`deref` and
    :meth:`retarget`; dereferencing a non-dangling reference counts as a
    structure observation of the referenced vertex (the operation noted the
    vertex's existence through the composed-of edge).

    Given a ``journal``, every mutation also appends its inverse step to
    it (see :class:`UndoJournal`); a view on a nested graph shares the
    journal of the run that opened it.
    """

    def __init__(
        self,
        graph: ObjectGraph,
        attribution: EdgeAttribution = EdgeAttribution.BOTH,
        trace: LocalityTrace | None = None,
        journal: UndoJournal | None = None,
    ) -> None:
        self.graph = graph
        self.attribution = attribution
        self.trace = trace if trace is not None else LocalityTrace()
        self.journal = journal

    # ------------------------------------------------------------------
    # Structure modification
    # ------------------------------------------------------------------

    def insert_vertex(self, value: Any = None, label: str | None = None) -> VertexId:
        """Insert a vertex; enters both ``L^sm`` and ``L^cm`` (Defs. 15, 17)."""
        graph = self.graph
        vid = graph.add_vertex(value=value, label=label)
        if self.journal is not None:
            self.journal.append(
                (_undo_insert, _redo_insert, graph, vid, graph._vertices[vid])
            )
        self.trace.structure_modified.add(vid)
        self.trace.content_modified.add(vid)
        return vid

    def delete_vertex(self, vid: VertexId, observe_value: bool = True) -> Any:
        """Delete a vertex; enters both ``L^sm`` and ``L^cm``.

        The deleted value is returned to the caller, so by default the
        vertex also enters ``L^co``: a Pop that hands its transaction the
        popped element has *observed* that content (this is what makes a
        Pop conflict with a preceding Replace).  Pass
        ``observe_value=False`` for operations that discard the value.

        Ordering edges incident to the vertex disappear with it; under
        ``BOTH`` attribution their surviving endpoints also enter ``L^sm``
        because edges "from which" them changed.
        """
        graph = self.graph
        if self.attribution is EdgeAttribution.BOTH:
            for other in graph.successors(vid) | graph.predecessors(vid):
                self.trace.structure_modified.add(other)
        journal = self.journal
        if journal is None:
            vertex = graph.remove_vertex(vid)
        else:
            graph.vertex(vid)  # an unknown id raises before anything is noted
            position = list(graph._vertices).index(vid)
            ordering = graph._ordering
            dangled = tuple(
                name for name, target in graph._references.items() if target == vid
            )
            vertex = graph.remove_vertex(vid)
            journal.append(
                (
                    _undo_delete,
                    _redo_delete,
                    graph,
                    vid,
                    vertex,
                    position,
                    ordering,
                    graph._ordering,
                    dangled,
                )
            )
        self.trace.structure_modified.add(vid)
        self.trace.content_modified.add(vid)
        if observe_value:
            self.trace.content_observed.add(vid)
        return vertex.value

    def add_ordering_edge(self, source: VertexId, target: VertexId) -> None:
        """Add an ordering edge; endpoints enter ``L^sm`` per attribution."""
        graph = self.graph
        before = len(graph._ordering)
        edge = graph.add_ordering_edge(source, target)
        if self.journal is not None and len(graph._ordering) != before:
            self.journal.append((_discard_edge, _add_edge, graph, edge))
        self._attribute_edge_change(source, target)

    def remove_ordering_edge(self, source: VertexId, target: VertexId) -> None:
        """Remove an ordering edge; endpoints enter ``L^sm`` per attribution."""
        graph = self.graph
        before = len(graph._ordering)
        graph.remove_ordering_edge(source, target)
        if self.journal is not None and len(graph._ordering) != before:
            edge = OrderingEdge(source=source, target=target)
            self.journal.append((_add_edge, _discard_edge, graph, edge))
        self._attribute_edge_change(source, target)

    # ------------------------------------------------------------------
    # Content access
    # ------------------------------------------------------------------

    def modify_content(self, vid: VertexId, value: Any) -> None:
        """Change a vertex's content; the vertex enters ``L^cm`` (Def. 17)."""
        vertex = self.graph.vertex(vid)
        if self.journal is not None:
            self.journal.append(
                (_undo_content, _redo_content, vertex, vertex.value, value)
            )
        vertex.value = value
        self.trace.content_modified.add(vid)

    def observe_content(self, vid: VertexId) -> Any:
        """Read a vertex's content; the vertex enters ``L^co`` (Def. 16)."""
        self.trace.content_observed.add(vid)
        return self.graph.content(vid)

    # ------------------------------------------------------------------
    # Structure observation
    # ------------------------------------------------------------------

    def observe_presence(self, vid: VertexId) -> bool:
        """Note the existence of a vertex; it enters ``L^so`` (Def. 14)."""
        present = self.graph.has_vertex(vid)
        if present:
            self.trace.structure_observed.add(vid)
        return present

    def observe_all_presence(self) -> set[VertexId]:
        """Observe the presence of *every* component (e.g. QStack ``Size``).

        "Size observes the structure and counts the vertices present"
        (Section 4.2).  Every current vertex enters ``L^so``.
        """
        vids = self.graph.vertex_ids()
        self.trace.structure_observed.update(vids)
        return vids

    def observe_order(self, vid: VertexId) -> set[VertexId]:
        """Observe the ordering edges emanating from ``vid``.

        ``vid`` and (under ``BOTH`` attribution) the observed successors
        enter ``L^so``; returns the successor set.
        """
        successors = self.graph.successors(vid)
        self.trace.structure_observed.add(vid)
        if self.attribution is EdgeAttribution.BOTH:
            self.trace.structure_observed.update(successors)
        return successors

    def observe_predecessors(self, vid: VertexId) -> set[VertexId]:
        """Observe the ordering edges arriving at ``vid`` (symmetric to
        :meth:`observe_order`)."""
        predecessors = self.graph.predecessors(vid)
        self.trace.structure_observed.add(vid)
        if self.attribution is EdgeAttribution.BOTH:
            self.trace.structure_observed.update(predecessors)
        return predecessors

    # ------------------------------------------------------------------
    # References (Def. 20 / dimension D5)
    # ------------------------------------------------------------------

    def deref(self, name: str) -> VertexId | None:
        """Follow a named reference.

        Recorded as a reference read; when the reference designates a
        vertex, the operation has noted that vertex's existence, so the
        vertex enters ``L^so``.
        """
        self.trace.references_read.add(name)
        vid = self.graph.reference(name)
        if vid is not None:
            self.trace.structure_observed.add(vid)
        return vid

    def retarget(self, name: str, target: VertexId | None) -> None:
        """Point a named reference at a (possibly different) component.

        Recorded as a reference write.  Reference retargeting selects a
        different composed-of edge (Def. 20 discussion); it does not by
        itself place any vertex in a locality set — the vertices involved
        will already be in the trace through the graph accesses that
        located them.
        """
        self.trace.references_written.add(name)
        graph = self.graph
        previous = graph.reference(name)
        graph.retarget_reference(name, target)
        if self.journal is not None:
            self.journal.append(
                (_undo_retarget, _redo_retarget, graph, name, previous, target)
            )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _attribute_edge_change(self, source: VertexId, target: VertexId) -> None:
        self.trace.structure_modified.add(source)
        if self.attribution is EdgeAttribution.BOTH:
            self.trace.structure_modified.add(target)
