"""Object-graph substrate (Section 4.1 of the paper).

Public surface:

* :class:`~repro.graph.object_graph.ObjectGraph` — the graph ``G_ob`` of
  Def. 8 with its composed-of and ordering edge sets (Def. 9), recursive
  content (Def. 10), ``V_simple`` (Def. 18) and references (Def. 20).
* :class:`~repro.graph.instrument.InstrumentedGraph` /
  :class:`~repro.graph.instrument.LocalityTrace` — execution-time recording
  of operation localities (Defs. 11-17).
* :class:`~repro.graph.builder.GraphBuilder` and
  :func:`~repro.graph.builder.build_chain` — fluent construction.
* Rendering (:func:`render_ascii`, :func:`render_dot`,
  :func:`render_chain`) and analysis helpers.
"""

from repro.graph.analysis import (
    component_count,
    has_ordering_cycle,
    hierarchy_depth,
    is_linear_chain,
    ordering_walk,
)
from repro.graph.builder import GraphBuilder, build_chain
from repro.graph.edges import ComposedOfEdge, OrderingEdge
from repro.graph.instrument import EdgeAttribution, InstrumentedGraph, LocalityTrace
from repro.graph.object_graph import ObjectGraph
from repro.graph.render import render_ascii, render_chain, render_dot
from repro.graph.vertex import Vertex, VertexId, VertexIdAllocator

__all__ = [
    "ObjectGraph",
    "Vertex",
    "VertexId",
    "VertexIdAllocator",
    "ComposedOfEdge",
    "OrderingEdge",
    "InstrumentedGraph",
    "LocalityTrace",
    "EdgeAttribution",
    "GraphBuilder",
    "build_chain",
    "render_ascii",
    "render_dot",
    "render_chain",
    "has_ordering_cycle",
    "ordering_walk",
    "hierarchy_depth",
    "component_count",
    "is_linear_chain",
]
