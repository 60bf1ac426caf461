"""Composite (complex) objects: ADTs whose components are ADT instances.

Section 4.1: "In case an object has components which are themselves
objects, then concurrent access to that object ... are controlled by the
component object", with the multilevel concurrency-control literature
[9, 10, 11] handling the hierarchy.  A :class:`CompositeSpec` realises
this model:

* the object graph has one **complex vertex per component**, whose value
  is the component's own object graph (Def. 10's recursive content,
  Def. 18's path-based ``V_simple``);
* the operations are the components' operations, namespaced
  ``<component>.<operation>`` and delegated;
* at the *parent* level a delegated operation is a content access on the
  component's vertex — the multilevel abstraction: whatever happens
  inside a component is, to the parent, a change/observation of one
  composed-of child;
* each component doubles as a declared **reference** of the parent, so
  Stage 5 derives ``a ≠ b`` no-dependency predicates between operations
  on distinct components — operations on different components never
  conflict, which is the concurrency composition buys.

Component state spaces multiply, so composites should be built from small
components (two accounts, an account and a mailbox, ...).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import SpecError
from repro.graph.instrument import InstrumentedGraph
from repro.graph.object_graph import ObjectGraph
from repro.spec.adt import ADTSpec, EnumerationBounds, execute_invocation
from repro.spec.operation import Invocation, OperationSpec
from repro.spec.returnvalue import ReturnValue

__all__ = ["CompositeSpec", "DelegatedOp"]


class DelegatedOp(OperationSpec):
    """A component operation lifted to the composite.

    Executing it locates the component's vertex through the component's
    named reference, runs the inner operation against the component's own
    graph, and records the access at the parent level: a content
    observation always (the outcome reflects the component's state), plus
    a content modification when the component's state changed.
    """

    referencing = "implicit"

    def __init__(
        self, component: str, component_adt: ADTSpec, inner: OperationSpec
    ) -> None:
        self.component = component
        self.component_adt = component_adt
        self.inner = inner
        self.name = f"{component}.{inner.name}"
        self.references_used = frozenset({component})

    def argument_tuples(self, bounds: EnumerationBounds) -> Iterable[tuple]:
        return self.inner.argument_tuples(self.component_adt.default_bounds)

    def execute(self, view: InstrumentedGraph, *args: Any) -> ReturnValue:
        vid = view.deref(self.component)
        if vid is None:  # pragma: no cover - components are permanent
            raise SpecError(f"component {self.component!r} is missing")
        before = view.observe_content(vid)
        inner_graph: ObjectGraph = view.graph.vertex(vid).value
        inner_view = InstrumentedGraph(
            inner_graph, attribution=view.attribution, journal=view.journal
        )
        returned = self.inner.execute(inner_view, *args)
        after = view.graph.content(vid)
        if after != before:
            view.modify_content(vid, inner_graph)
        return returned


class CompositeSpec(ADTSpec):
    """An object composed of named component objects.

    Args:
        name: Composite type name.
        components: Ordered mapping of component name to its ADT spec.

    Abstract states are tuples of component abstract states, in component
    declaration order.
    """

    def __init__(self, name: str, components: Mapping[str, ADTSpec]) -> None:
        if not components:
            raise SpecError("a composite needs at least one component")
        self.name = name
        self._components = dict(components)
        self._order = list(components)
        self.default_bounds = EnumerationBounds(
            capacity=max(
                adt.default_bounds.capacity for adt in components.values()
            ),
            domain=tuple(
                sorted(
                    {
                        value
                        for adt in components.values()
                        for value in adt.default_bounds.domain
                    },
                    key=repr,
                )
            ),
        )
        self._operations: dict[str, OperationSpec] = {}
        for component, adt in self._components.items():
            for inner in adt.operations.values():
                delegated = DelegatedOp(component, adt, inner)
                self._operations[delegated.name] = delegated

    @property
    def components(self) -> Mapping[str, ADTSpec]:
        """The component specs, by name."""
        return dict(self._components)

    @property
    def operations(self) -> Mapping[str, OperationSpec]:
        return self._operations

    def states(self, bounds: EnumerationBounds) -> Iterable[tuple]:
        """The product of the component state spaces."""
        del bounds  # components enumerate under their own bounds

        def extend(index: int, prefix: tuple) -> Iterable[tuple]:
            if index == len(self._order):
                yield prefix
                return
            component = self._components[self._order[index]]
            for state in component.states(component.default_bounds):
                yield from extend(index + 1, prefix + (state,))

        return extend(0, ())

    def initial_state(self) -> tuple:
        return tuple(
            self._components[name].initial_state() for name in self._order
        )

    def build_graph(self, state: tuple) -> ObjectGraph:
        """One complex vertex per component, referenced by component name."""
        graph = ObjectGraph(self.name)
        for name, component_state in zip(self._order, state):
            inner = self._components[name].build_graph(component_state)
            vid = graph.add_vertex(value=inner, label=name)
            graph.declare_reference(name, vid)
        return graph

    def abstract_state(self, graph: ObjectGraph) -> tuple:
        parts = []
        for name in self._order:
            vid = graph.reference(name)
            inner: ObjectGraph = graph.vertex(vid).value
            parts.append(self._components[name].abstract_state(inner))
        return tuple(parts)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def component_invocation(
        self, component: str, operation: str, *args: Any
    ) -> Invocation:
        """Build an invocation of ``<component>.<operation>``."""
        name = f"{component}.{operation}"
        if name not in self._operations:
            raise SpecError(f"unknown composite operation {name!r}")
        return Invocation(name, tuple(args))

    def component_state(self, state: tuple, component: str):
        """Project a composite state onto one component."""
        return state[self._order.index(component)]

    def run_component(
        self, state: tuple, component: str, operation: str, *args: Any
    ):
        """Execute a component operation on a composite state (testing aid)."""
        return execute_invocation(
            self, state, self.component_invocation(component, operation, *args)
        )
