"""Abstract data type specifications.

An ADT specification bundles everything the methodology needs about an
object type (Def. 7's 3-tuple ``(S, R, O)`` in executable form):

* the set of operations (``O``),
* a way to enumerate a bounded abstract state space (``S``), and
* a mapping between abstract states and object graphs, whose ordering
  edges realise the ordering rules (``R``).

Abstract states are hashable canonical values (e.g. a tuple of elements
front-to-back for the QStack) so that post-states of different executions
can be compared — that comparison is how Defs. 1-6 are decided.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Hashable, Iterable, Mapping

from repro.errors import UnknownOperationError
from repro.graph.instrument import (
    EdgeAttribution,
    InstrumentedGraph,
    LocalityTrace,
    discard_trace,
)
from repro.graph.object_graph import ObjectGraph
from repro.spec.operation import Invocation, OperationSpec
from repro.spec.returnvalue import ReturnValue

__all__ = [
    "EnumerationBounds",
    "ADTSpec",
    "Execution",
    "execute_invocation",
    "post_state_of",
    "render_state",
    "install_execution_cache",
    "active_execution_cache",
]

#: Abstract states are opaque hashable values.
AbstractState = Hashable


def render_state(state: AbstractState) -> str:
    """The canonical text of an abstract state: ``repr``, sets sorted.

    ``repr`` prints a ``frozenset`` in hash order, which for string
    elements varies with ``PYTHONHASHSEED``; traces, transcripts and
    reports render states through this function so that they do not.
    Elements sort by their own rendering (so mixed-type sets sort too),
    tuples render element-wise, and the result still parses with
    :func:`repro.obs.analysis.parse_literal`.
    """
    if type(state) is frozenset and state:
        inner = ", ".join(sorted(render_state(element) for element in state))
        return f"frozenset({{{inner}}})"
    if type(state) is tuple:
        inner = ", ".join(render_state(element) for element in state)
        return f"({inner},)" if len(state) == 1 else f"({inner})"
    return repr(state)


@dataclass(frozen=True)
class EnumerationBounds:
    """Bounds for the finite state-space / argument enumeration.

    The paper's "∃s" / "∀s" quantifiers (Defs. 1-6, 18-19) are decided by
    exhaustive enumeration over the states these bounds induce.  The
    defaults (capacity 3, two-element domain) are small enough to enumerate
    every operation pair over every state in milliseconds yet large enough
    to distinguish all the operation classes of the paper's QStack; the
    bound-sensitivity tests confirm classifications are stable from
    capacity 2 upward.

    Attributes:
        capacity: Maximum number of elements a bounded container holds
            (``Push`` on a full container returns ``nok``).
        domain: Universe of element values.
    """

    capacity: int = 3
    domain: tuple[Any, ...] = ("a", "b")

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")
        if not self.domain:
            raise ValueError("domain must not be empty")


class ADTSpec(abc.ABC):
    """Executable specification of an abstract data type.

    Subclasses provide the state space, the state <-> graph mapping and the
    operation set.  Everything else in the library (classification,
    localities, template lookups, the five-stage pipeline, the Section-3
    semantic notions, the scheduler) is generic over this interface.
    """

    #: Type name, e.g. ``"QStack"``.
    name: str = "ADT"
    #: Default bounds used when a caller does not supply their own.
    default_bounds: EnumerationBounds = EnumerationBounds()

    @property
    @abc.abstractmethod
    def operations(self) -> Mapping[str, OperationSpec]:
        """The operations defined on the type, by name."""

    @abc.abstractmethod
    def states(self, bounds: EnumerationBounds) -> Iterable[AbstractState]:
        """Enumerate every abstract state within ``bounds``."""

    @abc.abstractmethod
    def initial_state(self) -> AbstractState:
        """The state of a freshly created instance (used by histories)."""

    @abc.abstractmethod
    def build_graph(self, state: AbstractState) -> ObjectGraph:
        """Materialise the object graph (Def. 8) for an abstract state."""

    @abc.abstractmethod
    def abstract_state(self, graph: ObjectGraph) -> AbstractState:
        """Extract the canonical abstract state from an object graph."""

    # ------------------------------------------------------------------
    # Conveniences shared by every ADT
    # ------------------------------------------------------------------

    def operation(self, name: str) -> OperationSpec:
        """Look up an operation by name."""
        try:
            return self.operations[name]
        except KeyError:
            raise UnknownOperationError(self.name, name) from None

    def operation_names(self) -> list[str]:
        """Operation names in declaration order."""
        return list(self.operations)

    def invocations(
        self, bounds: EnumerationBounds | None = None
    ) -> list[Invocation]:
        """Every (operation, argument-tuple) pair within ``bounds``."""
        bounds = bounds or self.default_bounds
        found = []
        for name, op in self.operations.items():
            for args in op.argument_tuples(bounds):
                found.append(Invocation(operation=name, args=tuple(args)))
        return found

    def invocations_of(
        self, operation: str, bounds: EnumerationBounds | None = None
    ) -> list[Invocation]:
        """The invocations of a single operation within ``bounds``."""
        bounds = bounds or self.default_bounds
        op = self.operation(operation)
        return [
            Invocation(operation=operation, args=tuple(args))
            for args in op.argument_tuples(bounds)
        ]

    def state_list(self, bounds: EnumerationBounds | None = None) -> list:
        """All states within ``bounds`` as a list."""
        return list(self.states(bounds or self.default_bounds))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ADTSpec {self.name} ops={self.operation_names()}>"


@dataclass(frozen=True)
class Execution:
    """The complete record of executing one invocation in one state.

    This is the paper's ``(state(s, p), return(s, p))`` plus the locality
    trace of Defs. 11-17 and ``V_simple`` of the *pre*-state (needed for
    the globality test of Def. 19).
    """

    pre_state: AbstractState
    invocation: Invocation
    post_state: AbstractState
    returned: ReturnValue
    trace: LocalityTrace
    pre_simple_vertices: frozenset

    @property
    def is_identity(self) -> bool:
        """Whether the execution left the abstract state unchanged."""
        return self.pre_state == self.post_state


#: Process-wide :class:`~repro.perf.cache.ExecutionCache`, or ``None``.
#: Installed for the duration of a derivation (or explicitly by callers);
#: when present every :func:`execute_invocation` goes through it.  The
#: specs are deterministic, so the cached and uncached paths are
#: bit-identical by construction.
_ACTIVE_CACHE = None


def install_execution_cache(cache):
    """Install (or, with ``None``, remove) the process-wide execution cache.

    Returns the previously installed cache so callers can restore it —
    the idiom used by :func:`~repro.core.methodology.derive` and by
    :func:`~repro.perf.cache.ensure_execution_cache` to support nesting.
    """
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    return previous


def active_execution_cache():
    """The currently installed execution cache, or ``None``."""
    return _ACTIVE_CACHE


def execute_invocation(
    adt: ADTSpec,
    state: AbstractState,
    invocation: Invocation,
    attribution: EdgeAttribution = EdgeAttribution.BOTH,
) -> Execution:
    """Run one invocation against a fresh graph built from ``state``.

    The single entry point used by classification, locality analysis, the
    Section-3 semantic notions and the experiments; building a fresh graph
    per execution keeps executions independent and reproducible.  When an
    execution cache is installed the result is memoized by
    ``(adt, state, invocation, attribution)``.
    """
    cache = _ACTIVE_CACHE
    if cache is not None:
        return cache.get_or_execute(adt, state, invocation, attribution)
    return execute_uncached(adt, state, invocation, attribution)


def execute_uncached(
    adt: ADTSpec,
    state: AbstractState,
    invocation: Invocation,
    attribution: EdgeAttribution = EdgeAttribution.BOTH,
) -> Execution:
    """The raw execution path (also the cache's miss handler)."""
    graph = adt.build_graph(state)
    pre_simple = frozenset(graph.simple_vertices())
    view = InstrumentedGraph(graph, attribution=attribution)
    operation = adt.operation(invocation.operation)
    returned = operation.execute(view, *invocation.args)
    return Execution(
        pre_state=state,
        invocation=invocation,
        post_state=adt.abstract_state(graph),
        returned=returned,
        trace=view.trace,
        pre_simple_vertices=pre_simple,
    )


def post_state_of(
    adt: ADTSpec, state: AbstractState, invocation: Invocation
) -> AbstractState:
    """The successor state only, skipping locality bookkeeping.

    Reachability-style sweeps need nothing but the state transition; the
    full :class:`Execution` record (locality trace, ``V_simple`` snapshot,
    ``BOTH`` edge attribution) is pure overhead there.  With a cache
    installed the full execution is computed once and shared with every
    other consumer; without one the invocation runs against a discarding
    trace under ``SOURCE`` attribution (attribution and tracing cannot
    affect the post-state, so the result is identical either way).
    """
    cache = _ACTIVE_CACHE
    if cache is not None:
        return cache.get_or_execute(
            adt, state, invocation, EdgeAttribution.BOTH
        ).post_state
    graph = adt.build_graph(state)
    view = InstrumentedGraph(
        graph,
        attribution=EdgeAttribution.SOURCE,
        trace=discard_trace(),
    )
    adt.operation(invocation.operation).execute(view, *invocation.args)
    return adt.abstract_state(graph)
