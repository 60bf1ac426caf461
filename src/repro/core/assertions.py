"""Executable forms of the paper's Assertions 1-3 (Section 4.3).

The assertions relate *per-state* locality intersections of two operations
to dependency formation, commutativity and recoverability:

* **Assertion 1** — the six intersections whose Table-2 entries are
  non-ND are all empty ⇒ no dependency forms.
* **Assertion 2** — the operations commute iff every same-dimension
  intersection involving at least one modifier is empty.
* **Assertion 3** — ``y`` is recoverable relative to ``x`` iff every such
  non-empty intersection lands on an ND or CD entry of Table 2 (i.e. no
  AD-producing intersection exists).

These are *locality-based* predicates; experiment X3 cross-validates them
against the direct state-machine definitions of commutativity and
recoverability from :mod:`repro.semantics`.

The kernel, :func:`locality_dependency`, reads Table 2 as disjointness
tests.  By Assertion 1 only the six non-ND cells can form a dependency,
so only they are tested, with one ``set.isdisjoint`` each: the two AD
cells first (the first hit decides AD), then the four CD cells.  The cell
lists are read off :data:`~repro.core.templates.TABLE2` at import.  The
scheduler runs the kernel for every pair it certifies; Assertions 1-3 are
its verdict read three ways.
"""

from __future__ import annotations

from repro.core.dependency import Dependency
from repro.core.templates import TABLE2
from repro.graph.instrument import LOCALITY_FIELDS, LocalityTrace

__all__ = [
    "assertion1_no_dependency",
    "assertion2_commute",
    "assertion3_recoverable",
    "locality_dependency",
]


def _cells(dependency: Dependency) -> tuple[tuple[str, str], ...]:
    """``(y_field, x_field)`` of every Table-2 cell holding ``dependency``."""
    return tuple(
        (LOCALITY_FIELDS[y_kind], LOCALITY_FIELDS[x_kind])
        for (y_kind, x_kind), entry in TABLE2.items()
        if entry is dependency
    )


#: The two AD cells of Table 2 (``so``×``sm``, ``co``×``cm``).
_AD_CELLS = _cells(Dependency.AD)
#: The four CD cells of Table 2.
_CD_CELLS = _cells(Dependency.CD)


def assertion1_no_dependency(trace_x: LocalityTrace, trace_y: LocalityTrace) -> bool:
    """Assertion 1: the listed intersections are all empty ⇒ no dependency.

    Note the corollary the paper draws: "operations restricted to the
    structure of an object do not form dependencies with operations
    restricted to the content of the object".

    Note on Assertion 1 as printed: the paper lists ``L_x^cm ∩ L_y^sm`` as
    its third term, which is an ND cell of Table 2 (structure-modification
    never conflicts with content-modification) and would wrongly flag the
    paper's own Replace/XTop commuting example.  Matching the six non-ND
    cells of Table 2 — and the corollary above — requires
    ``L_x^cm ∩ L_y^cm`` instead; that reading is implemented here and the
    discrepancy is recorded in EXPERIMENTS.md.
    """
    return locality_dependency(trace_x, trace_y) is Dependency.ND


def assertion2_commute(trace_x: LocalityTrace, trace_y: LocalityTrace) -> bool:
    """Assertion 2: ``x`` and ``y`` commute iff every same-dimension
    modifier-involving locality intersection is empty."""
    return locality_dependency(trace_x, trace_y) is Dependency.ND


def assertion3_recoverable(trace_x: LocalityTrace, trace_y: LocalityTrace) -> bool:
    """Assertion 3: ``y`` recoverable relative to ``x`` iff every non-empty
    modifier-involving intersection maps to ND or CD in Table 2."""
    return locality_dependency(trace_x, trace_y) is not Dependency.AD


def locality_dependency(
    trace_x: LocalityTrace, trace_y: LocalityTrace
) -> Dependency:
    """Strongest Table-2 dependency induced by the actual intersections.

    The "most general case" of Section 4.3: two operations conflict if the
    intersection of their localities is non-empty; the dependency formed is
    read off Table 2 per intersecting kind pair, strongest first.
    """
    for y_field, x_field in _AD_CELLS:
        if not getattr(trace_y, y_field).isdisjoint(getattr(trace_x, x_field)):
            return Dependency.AD
    for y_field, x_field in _CD_CELLS:
        if not getattr(trace_y, y_field).isdisjoint(getattr(trace_x, x_field)):
            return Dependency.CD
    return Dependency.ND
