"""Abstract operation specifications.

Operations are "functions from one object state to another object state"
(Section 2.1); the paper writes ``state(s, p)`` for the post-state and
``return(s, p)`` for the return value of operation ``p`` in state ``s``.

In this library an operation is specified *executably*: its
:meth:`OperationSpec.execute` method is a graph program that manipulates an
:class:`~repro.graph.instrument.InstrumentedGraph` and returns a
:class:`~repro.spec.returnvalue.ReturnValue`.  Executing the program yields
all three artefacts the methodology needs at once: the post-state, the
return value, and the locality trace (Defs. 11-17).

Operations are *total*: instead of failing on boundary states they return a
``nok`` outcome, exactly like the paper's QStack operations.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Literal

from repro.graph.instrument import InstrumentedGraph
from repro.spec.returnvalue import ReturnValue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spec.adt import EnumerationBounds

__all__ = ["OperationSpec", "Invocation", "Referencing"]

#: How an operation locates the components it works on (dimension D5):
#: through references held in the object state (implicit), through its
#: input parameters (explicit), or not at all (e.g. global operations).
Referencing = Literal["implicit", "explicit", "none"]


class OperationSpec(abc.ABC):
    """One abstract operation of an ADT.

    Subclasses define the graph program in :meth:`execute` and enumerate
    the operation's possible argument tuples in :meth:`argument_tuples`.
    The three class attributes below declare dimension-D5 information that
    cannot be observed from execution alone (which *named* references the
    operation is specified to use).
    """

    #: Operation name, e.g. ``"Push"``.
    name: str = "operation"
    #: Referencing style (dimension D5).
    referencing: Referencing = "none"
    #: Names of the references the operation uses (dimension D5); empty for
    #: global operations like ``Size``.
    references_used: frozenset[str] = frozenset()
    #: Optional self-declared Stage-2 answers (the paper's questionnaire
    #: filled in by hand), enabling annotation-only characterisation
    #: without state enumeration.  Keys: ``"class"`` ("O"/"M"/"MO"),
    #: ``"observer_kind"`` / ``"modifier_kind"`` ("S"/"C"/"CS"/None),
    #: ``"is_global"`` (bool), ``"outcomes"`` (set of outcome labels) and
    #: ``"has_result"`` (bool).  ``None`` means "derive by enumeration".
    declared_profile: dict | None = None

    @abc.abstractmethod
    def argument_tuples(self, bounds: "EnumerationBounds") -> Iterable[tuple]:
        """All argument tuples considered during bounded enumeration.

        An operation without parameters yields the single empty tuple.
        """

    @abc.abstractmethod
    def execute(self, view: InstrumentedGraph, *args: Any) -> ReturnValue:
        """Run the operation against an instrumented object graph.

        Must express every state access through ``view`` so that the
        locality trace is complete.  Returns the operation's return value.
        """

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OperationSpec {self.name}>"


@dataclass(frozen=True)
class Invocation:
    """An operation together with concrete arguments.

    The unit over which classification (Defs. 1-6), commutativity and the
    other Section-3 notions quantify.  Hashable so invocations can key
    tables and sets.
    """

    operation: str
    args: tuple = ()

    def render(self) -> str:
        """``Push(a)`` style rendering."""
        inner = ", ".join(repr(a) for a in self.args)
        return f"{self.operation}({inner})"

    def __repr__(self) -> str:
        return self.render()
