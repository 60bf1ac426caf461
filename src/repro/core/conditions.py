"""Condition algebra for conditional compatibility entries (Stages 4-5).

From Stage 4 onward, a compatibility-table entry is no longer a single
dependency but a set of *(dependency, condition)* pairs; the condition is
"dependent on the predicate that describes the locality of the operation"
or on outcomes and input parameters (Section 4.4).  Conditions here form a
small AST that can be

* **evaluated** against a :class:`ConditionContext` — a concrete pre-state
  plus the two invocations and (once known) their return values.  The
  scheduler uses this to resolve conditional entries at run time with
  exactly the dynamic information the paper appeals to; and
* **rendered** in the paper's notation (``Push_out = nok``, ``f ≠ b``,
  ``Push_in^x = Push_in^y``) for the table-reproduction experiments.

Conditions over outcomes evaluate to ``None`` ("not yet decidable") while
the relevant return value is unknown; the entry-resolution logic treats an
undecidable condition as not holding, which errs towards the stronger
dependency and is therefore safe.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Optional

from repro.graph.object_graph import ObjectGraph
from repro.spec.operation import Invocation
from repro.spec.returnvalue import ReturnValue

__all__ = [
    "ConditionContext",
    "Condition",
    "Always",
    "OutcomeIs",
    "OutcomesEqual",
    "InputsEqual",
    "ReferencesDistinct",
    "ReferencesEqual",
    "ArgsDistinct",
    "And",
    "Not",
]


@dataclass(frozen=True)
class ConditionContext:
    """Everything a condition may consult.

    ``first`` is the operation in execution (the paper's ``x``), ``second``
    the operation that follows (``y``).  ``pre_graph`` is the object graph
    *before either operation runs* — the paper evaluates reference
    predicates "before the operations are executed"; only conditions that
    declare :attr:`Condition.reads_pre_state` read it, so the scheduler
    leaves it ``None`` for every other cell.  Return values may be
    ``None`` while not yet known.
    """

    first_invocation: Invocation
    second_invocation: Invocation
    pre_graph: ObjectGraph | None = None
    first_return: ReturnValue | None = None
    second_return: ReturnValue | None = None

    def returned(self, role: str) -> ReturnValue | None:
        """Return value of ``'first'`` or ``'second'``."""
        return self.first_return if role == "first" else self.second_return

    def invocation(self, role: str) -> Invocation:
        """Invocation of ``'first'`` or ``'second'``."""
        return self.first_invocation if role == "first" else self.second_invocation


class Condition(abc.ABC):
    """A predicate attached to a compatibility-table dependency."""

    @abc.abstractmethod
    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        """Truth value in ``context``; ``None`` when not yet decidable."""

    @abc.abstractmethod
    def render(self) -> str:
        """The paper-style notation of the condition."""

    #: Number of semantic dimensions the condition exploits; used by the
    #: mutual-consistency check (a condition exploiting more semantics must
    #: carry a weaker dependency).  Composite conditions sum their parts.
    specificity: int = 1

    #: Whether :meth:`evaluate` reads ``context.pre_graph``: true only
    #: for the reference predicates and composites holding one; outcome
    #: and argument conditions decide on invocations and returns alone.
    reads_pre_state = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.render()


def _label_of(returned: ReturnValue) -> str:
    """Outcome label of a return value (outcome, or ``"result"``)."""
    return returned.outcome if returned.has_outcome else "result"


@dataclass(frozen=True, repr=False)
class Always(Condition):
    """The vacuous condition of an unconditional entry."""

    specificity: int = 0

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        return True

    def render(self) -> str:
        return "true"


@dataclass(frozen=True, repr=False)
class OutcomeIs(Condition):
    """``<Op>_out = <label>`` for the first or second operation (Stage 4)."""

    role: str  #: ``'first'`` (x, in execution) or ``'second'`` (y, invoked)
    label: str  #: ``"ok"``, ``"nok"`` or ``"result"``

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        returned = context.returned(self.role)
        if returned is None:
            return None
        return _label_of(returned) == self.label

    def render(self) -> str:
        marker = "x" if self.role == "first" else "y"
        return f"{marker}_out = {self.label}"


@dataclass(frozen=True, repr=False)
class InputsEqual(Condition):
    """``<Op>_in^x = <Op>_in^y`` — both invocations got equal arguments."""

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        return context.first_invocation.args == context.second_invocation.args

    def render(self) -> str:
        return "x_in = y_in"


@dataclass(frozen=True, repr=False)
class OutcomesEqual(Condition):
    """Both operations produced the same outcome label.

    The guard the validated pipeline adds to the paper's Table-13
    same-input condition: two equal-input executions commute except where
    one succeeds and the other hits the capacity boundary.
    """

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        if context.first_return is None or context.second_return is None:
            return None
        return _label_of(context.first_return) == _label_of(context.second_return)

    def render(self) -> str:
        return "x_out = y_out"


@dataclass(frozen=True, repr=False)
class ArgsDistinct(Condition):
    """First arguments differ — explicit-referencing disjointness (Stage 5).

    For explicitly referencing operations the input parameter determines
    the reference (Section 4.3's ``search(x)`` example); distinct key
    arguments therefore mean disjoint localities.
    """

    position: int = 0  #: argument position carrying the key

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        first_args = context.first_invocation.args
        second_args = context.second_invocation.args
        if len(first_args) <= self.position or len(second_args) <= self.position:
            return False
        return first_args[self.position] != second_args[self.position]

    def render(self) -> str:
        return f"x_in[{self.position}] ≠ y_in[{self.position}]"


@dataclass(frozen=True, repr=False)
class ReferencesDistinct(Condition):
    """``r1 ≠ r2`` — two references designate distinct composed-of edges.

    Evaluated on the pre-state graph, before either operation executes
    (Section 5: "before the operations are executed f and b refer to the
    same composed-of edge").  Dangling references compare equal to other
    dangling references (an empty object offers no disjointness), which is
    the conservative choice.
    """

    first_reference: str
    second_reference: str

    reads_pre_state = True

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        if context.pre_graph is None:
            return None
        first = context.pre_graph.reference(self.first_reference)
        second = context.pre_graph.reference(self.second_reference)
        if first is None or second is None:
            return False
        return first != second

    def render(self) -> str:
        return f"{self.first_reference} ≠ {self.second_reference}"


@dataclass(frozen=True, repr=False)
class ReferencesEqual(Condition):
    """``r1 = r2`` — the complement of :class:`ReferencesDistinct`."""

    first_reference: str
    second_reference: str

    reads_pre_state = True

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        distinct = ReferencesDistinct(
            self.first_reference, self.second_reference
        ).evaluate(context)
        return None if distinct is None else not distinct

    def render(self) -> str:
        return f"{self.first_reference} = {self.second_reference}"


@dataclass(frozen=True, repr=False)
class And(Condition):
    """Conjunction of conditions."""

    parts: tuple[Condition, ...]

    def __init__(self, *parts: Condition) -> None:
        # Flatten nested conjunctions for canonical rendering.
        flattened: list[Condition] = []
        for part in parts:
            if isinstance(part, And):
                flattened.extend(part.parts)
            else:
                flattened.append(part)
        object.__setattr__(self, "parts", tuple(flattened))

    @property
    def specificity(self) -> int:  # type: ignore[override]
        return sum(part.specificity for part in self.parts)

    @property
    def reads_pre_state(self) -> bool:  # type: ignore[override]
        return any(part.reads_pre_state for part in self.parts)

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        undecided = False
        for part in self.parts:
            value = part.evaluate(context)
            if value is False:
                return False
            if value is None:
                undecided = True
        return None if undecided else True

    def render(self) -> str:
        return " ∧ ".join(part.render() for part in self.parts)


@dataclass(frozen=True, repr=False)
class Not(Condition):
    """Negation of a condition."""

    part: Condition

    @property
    def specificity(self) -> int:  # type: ignore[override]
        return self.part.specificity

    @property
    def reads_pre_state(self) -> bool:  # type: ignore[override]
        return self.part.reads_pre_state

    def evaluate(self, context: ConditionContext) -> Optional[bool]:
        value = self.part.evaluate(context)
        return None if value is None else not value

    def render(self) -> str:
        return f"¬({self.part.render()})"
