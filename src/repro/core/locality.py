"""Locality analysis: structure/content kinds and globality (Defs. 11-19).

From the locality traces produced by executing an operation over the
bounded state space, this module derives the dimension-D2 and D4 answers
of the Stage-2 questionnaire:

* *D2* — does the operation observe/modify content, structure, or both?
  An operation's **observer kind** is ``S``, ``C`` or ``CS`` according to
  which of ``L^so`` / ``L^co`` are ever non-empty, and likewise its
  **modifier kind** from ``L^sm`` / ``L^cm``.
* *D4* — is the operation *global* (Def. 19: its locality always contains
  every primitive vertex, ``L_o ⊇ V_simple``) or non-global?

The per-kind globality flags implement the refined classes of Section 4.2
("global-content-observer", etc.); QStack's ``Size`` is a global structure
observer, ``Replace`` a global content observer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.graph.instrument import LOCALITY_FIELDS, EdgeAttribution
from repro.spec.adt import ADTSpec, EnumerationBounds, Execution
from repro.spec.enumeration import executions_of

__all__ = [
    "SCKind",
    "LocalityProfile",
    "profile_executions",
    "profile_invocation",
    "profile_operation",
]

#: A structure/content kind: "S", "C", "CS" or None (no such component).
SCKind = str | None


def _combine_kind(has_structure: bool, has_content: bool) -> SCKind:
    if has_structure and has_content:
        return "CS"
    if has_structure:
        return "S"
    if has_content:
        return "C"
    return None


def _kind_components(kind: SCKind) -> tuple[str, ...]:
    """Decompose a kind into its dimension letters ('s', 'c')."""
    if kind is None:
        return ()
    return tuple(letter.lower() for letter in kind)


@dataclass(frozen=True)
class LocalityProfile:
    """Aggregated locality characterisation of an invocation or operation.

    Attributes:
        observer_kind: ``S``/``C``/``CS``/None — which locality dimensions
            the operation ever *observes*.
        modifier_kind: ``S``/``C``/``CS``/None — which it ever *modifies*.
        is_global: Def. 19 over every enumerated state.
        global_kinds: The locality kinds (``"so"``, ``"sm"``, ``"co"``,
            ``"cm"``) that individually cover ``V_simple`` in every state —
            the refined global classes of Section 4.2.
        references_read: Names of references the operation ever read (D5).
        references_written: Names of references it ever retargeted.
    """

    observer_kind: SCKind
    modifier_kind: SCKind
    is_global: bool
    global_kinds: frozenset[str]
    references_read: frozenset[str]
    references_written: frozenset[str]

    @property
    def combined_kind(self) -> SCKind:
        """Single Cont/Str answer for Table 9 (union of both roles)."""
        obs = set(_kind_components(self.observer_kind))
        mod = set(_kind_components(self.modifier_kind))
        both = obs | mod
        return _combine_kind("s" in both, "c" in both)

    @property
    def locality_symbol(self) -> str:
        """``"G"`` or ``"L"`` — the D4 column of Table 9."""
        return "G" if self.is_global else "L"

    def components(self) -> tuple[tuple[str, str], ...]:
        """Role/kind components for template-table lookups.

        Returns pairs ``(role, kind)`` with role ``'o'`` or ``'m'``; a role
        is present only when the operation has that locality component
        somewhere.  Used by Stage 3's D2 lookup, which decomposes each
        operation into its observer and modifier components.
        """
        found = []
        if self.observer_kind is not None:
            found.append(("o", self.observer_kind))
        if self.modifier_kind is not None:
            found.append(("m", self.modifier_kind))
        return tuple(found)

    def merge(self, other: "LocalityProfile") -> "LocalityProfile":
        """Aggregate two profiles (e.g. across a operation's invocations)."""
        obs = set(_kind_components(self.observer_kind)) | set(
            _kind_components(other.observer_kind)
        )
        mod = set(_kind_components(self.modifier_kind)) | set(
            _kind_components(other.modifier_kind)
        )
        return LocalityProfile(
            observer_kind=_combine_kind("s" in obs, "c" in obs),
            modifier_kind=_combine_kind("s" in mod, "c" in mod),
            is_global=self.is_global and other.is_global,
            global_kinds=self.global_kinds & other.global_kinds,
            references_read=self.references_read | other.references_read,
            references_written=self.references_written | other.references_written,
        )


def profile_executions(executions: Sequence[Execution]) -> LocalityProfile:
    """Build a :class:`LocalityProfile` from a full set of executions."""
    if not executions:
        raise ValueError("cannot profile from an empty execution set")
    observes_s = any(e.trace.structure_observed for e in executions)
    observes_c = any(e.trace.content_observed for e in executions)
    modifies_s = any(e.trace.structure_modified for e in executions)
    modifies_c = any(e.trace.content_modified for e in executions)

    def covers(vertex_ids: set[int], simple: frozenset) -> bool:
        """Whether a flat locality set covers ``V_simple`` (Def. 18 paths)."""
        return {(vid,) for vid in vertex_ids} >= set(simple)

    is_global = all(
        covers(e.trace.locality, e.pre_simple_vertices) for e in executions
    )
    global_kinds = frozenset(
        kind
        for kind in LOCALITY_FIELDS
        if all(covers(e.trace.kind(kind), e.pre_simple_vertices) for e in executions)
    )
    return LocalityProfile(
        observer_kind=_combine_kind(observes_s, observes_c),
        modifier_kind=_combine_kind(modifies_s, modifies_c),
        is_global=is_global,
        global_kinds=global_kinds,
        references_read=frozenset().union(
            *(e.trace.references_read for e in executions)
        ),
        references_written=frozenset().union(
            *(e.trace.references_written for e in executions)
        ),
    )


def profile_invocation(
    adt: ADTSpec,
    invocation,
    bounds: EnumerationBounds | None = None,
    attribution: EdgeAttribution = EdgeAttribution.BOTH,
) -> LocalityProfile:
    """Profile one invocation over every state within ``bounds``."""
    executions = list(executions_of(adt, invocation, bounds, attribution))
    return profile_executions(executions)


def profile_operation(
    adt: ADTSpec,
    operation: str,
    bounds: EnumerationBounds | None = None,
    attribution: EdgeAttribution = EdgeAttribution.BOTH,
) -> LocalityProfile:
    """Profile an operation: the merge of its invocation profiles."""
    profiles = [
        profile_invocation(adt, invocation, bounds, attribution)
        for invocation in adt.invocations_of(operation, bounds)
    ]
    merged = profiles[0]
    for profile in profiles[1:]:
        merged = merged.merge(profile)
    return merged
