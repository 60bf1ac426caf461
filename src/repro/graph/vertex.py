"""Vertices of the object graph (Def. 8 of the paper).

A vertex represents one component of an object.  A component is either a
*primitive* object carrying a simple data value, or itself a *complex*
object, in which case the vertex's value is a nested
:class:`~repro.graph.object_graph.ObjectGraph` (the recursive view of
Def. 7: "the primitive object has a simple data value").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["VertexId", "Vertex", "VertexIdAllocator"]

#: Vertices are identified by small integers; identities are stable for the
#: lifetime of a graph so that locality sets (Defs. 11-17) can be compared
#: across the execution of several operations on the same graph.
VertexId = int

#: :class:`~repro.graph.object_graph.ObjectGraph`, bound by the first
#: :meth:`Vertex.is_complex` call.
_ObjectGraph: type | None = None


@dataclass
class Vertex:
    """One component of an object.

    Attributes:
        vid: The identity of the vertex inside its graph.
        value: The content of the vertex.  A simple data value for a
            primitive component, or a nested ``ObjectGraph`` for a component
            that is itself an object (Def. 10).
        label: Optional human-readable name used when rendering figures
            (e.g. ``"B"`` in Figure 1 of the paper).
    """

    vid: VertexId
    value: Any = None
    label: str | None = None

    def is_complex(self) -> bool:
        """Return ``True`` when this vertex holds a nested object graph.

        The class is bound on first use: ``object_graph`` imports this
        module, so it cannot be imported at the top.
        """
        global _ObjectGraph
        if _ObjectGraph is None:
            from repro.graph.object_graph import ObjectGraph as _ObjectGraph
        return isinstance(self.value, _ObjectGraph)

    def display_name(self) -> str:
        """Name used by the renderers: the label if set, else ``v<id>``."""
        return self.label if self.label is not None else f"v{self.vid}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.is_complex():
            return f"Vertex({self.display_name()}, <complex>)"
        return f"Vertex({self.display_name()}, {self.value!r})"


@dataclass
class VertexIdAllocator:
    """Monotonically increasing vertex-id source.

    Each :class:`~repro.graph.object_graph.ObjectGraph` owns one allocator so
    that vertex ids are never reused within a graph, even after deletions.
    Never reusing ids keeps locality traces unambiguous: a vertex deleted by
    one operation can never be confused with a vertex inserted by a later
    one.  Undoing a journaled run
    (:class:`~repro.graph.instrument.UndoJournal`) takes its ids back with
    its vertices, so no trace of the undone run survives to be confused.
    """

    _next: int = 0

    def allocate(self) -> VertexId:
        """Return a fresh, never-before-issued vertex id."""
        vid = self._next
        self._next += 1
        return vid
