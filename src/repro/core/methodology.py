"""The five-stage compatibility-table derivation (Section 5).

Given an executable ADT specification, :func:`derive` runs the paper's
methodology end to end:

* **Stage 1** — construct the object graph and identify the references.
* **Stage 2** — characterise each operation along D1-D5
  (:mod:`repro.core.profile`; the QStack result is the paper's Table 9).
* **Stage 3** — build the initial compatibility table from the template
  tables: the D1 lookup (Table 5 with MO expansion) and the D2 lookup
  (Tables 6-8 via Table 2), combined with the *least restrictive across
  dimensions* rule (the QStack result is Table 10).
* **Stage 4** — refine entries with input/output semantics: outcome
  partitioning ("when the outcome is nok, Push acts as an observer") and
  input-equality conditions (Tables 11-13).
* **Stage 5** — refine entries of non-global operation pairs with
  locality predicates built from their references or key arguments
  (Table 14's ``f ≠ b``).

Every Stage-4/5 condition the pipeline emits is, by default, *validated*
against the bounded state space: a no-dependency condition is only added
if the two operations provably commute in every state (and for every
argument pair) satisfying it.  ``paper_fidelity`` options disable the
validation guards where the paper's printed tables are themselves
unguarded (see EXPERIMENTS.md for the two affected cells).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.core.classification import OpClass, outcome_label
from repro.core.conditions import (
    And,
    ArgsDistinct,
    Condition,
    ConditionContext,
    InputsEqual,
    OutcomeIs,
    OutcomesEqual,
    ReferencesDistinct,
    ReferencesEqual,
)
from repro.core.dependency import Dependency, weaker
from repro.core.entry import ConditionalDependency, Entry
from repro.core.profile import OperationProfile, characterize_all
from repro.core.table import CompatibilityTable
from repro.core.templates import d1_entry, d2_entry
from repro.graph.instrument import EdgeAttribution
from repro.graph.object_graph import ObjectGraph
from repro.obs.profiling import DerivationProfile, StageProfiler
from repro.obs.tracers import Tracer
from repro.perf.cache import ExecutionCache, install_execution_cache
from repro.perf.evidence import EvidenceBase
from repro.spec.adt import ADTSpec, EnumerationBounds
from repro.spec.operation import Invocation

__all__ = [
    "MethodologyOptions",
    "DerivationResult",
    "derive",
    "stage3_dependency",
]


#: The accepted values of the two string-valued options.
_OUTCOME_PARTITIONS = ("auto", "first", "second", "joint", "none")
_OUTCOME_FEASIBILITIES = ("serial", "any")


@dataclass(frozen=True)
class MethodologyOptions:
    """Tuning knobs of the derivation pipeline.

    Attributes:
        bounds: Enumeration bounds (default: the ADT's own).
        attribution: Ordering-edge locality attribution (DESIGN.md §5.2).
        outcome_partition: Stage-4 outcome partition shape — ``"auto"``
            (joint, collapsed to one-sided where the other outcome doesn't
            matter), ``"first"``, ``"second"``, ``"joint"`` or ``"none"``.
        outcome_feasibility: ``"serial"`` keeps only outcome combinations
            observable when the two operations run back to back;
            ``"any"`` keeps the full cross product (the paper's Table 12
            includes a serially-infeasible cell, so its reproduction uses
            ``"any"``).
        refine_inputs: Add Stage-4 input-equality conditions (Table 13).
        refine_localities: Run Stage 5 at all.
        use_annotations: Take the Stage-2 characterisation from the
            operations' ``declared_profile`` annotations instead of
            deriving it by enumeration (the DESIGN.md §5 ablation).
            Stages 4-5 still use execution evidence.
        validate_conditions: Empirically validate every emitted ND
            condition by exhaustive commutativity checking.  Disabling
            this reproduces the paper's literal Table 13 (whose unguarded
            same-input condition is unsound at the capacity boundary).
        use_cache: Install a shared execution cache for the derivation
            (see ``docs/PERFORMANCE.md``); results are bit-identical
            either way.
    """

    bounds: EnumerationBounds | None = None
    attribution: EdgeAttribution = EdgeAttribution.BOTH
    outcome_partition: str = "auto"
    outcome_feasibility: str = "serial"
    refine_inputs: bool = True
    refine_localities: bool = True
    validate_conditions: bool = True
    use_annotations: bool = False
    #: Memoize every execution behind one shared
    #: :class:`~repro.perf.cache.ExecutionCache` for the duration of the
    #: derivation.  Deterministic specs make the cached and uncached
    #: paths bit-identical; disabling exists for benchmarking and audit.
    use_cache: bool = True

    def __post_init__(self) -> None:
        for name, allowed in (
            ("outcome_partition", _OUTCOME_PARTITIONS),
            ("outcome_feasibility", _OUTCOME_FEASIBILITIES),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"{name} must be one of {', '.join(map(repr, allowed))}, "
                    f"got {value!r}"
                )


@dataclass
class DerivationResult:
    """Everything the five stages produce for one ADT."""

    adt_name: str
    operations: list[str]
    #: Stage 1 — a sample object graph (built from the initial state).
    object_graph: ObjectGraph
    #: Stage 1 — the reference names declared by the object.
    references: list[str]
    #: Stage 2 — D1-D5 characterisation per operation (Table 9).
    profiles: dict[str, OperationProfile]
    #: Stage 3 — the initial compatibility table (Table 10).
    stage3_table: CompatibilityTable
    #: Stage 4 — after outcome/input refinement (Tables 11-13 live here).
    stage4_table: CompatibilityTable
    #: Stage 5 — after locality-predicate refinement (Table 14).
    stage5_table: CompatibilityTable
    #: Free-form derivation notes (validation outcomes, skipped candidates).
    notes: list[str] = field(default_factory=list)
    #: Per-stage wall-time and table-entry-count profile of the run.
    profile: DerivationProfile | None = None

    @property
    def final_table(self) -> CompatibilityTable:
        """The fully refined table (output of Stage 5)."""
        return self.stage5_table

    def stage_tables(self) -> list[tuple[str, CompatibilityTable]]:
        """The three tables in stage order, labelled."""
        return [
            ("stage3", self.stage3_table),
            ("stage4", self.stage4_table),
            ("stage5", self.stage5_table),
        ]


# ---------------------------------------------------------------------------
# Stage 3
# ---------------------------------------------------------------------------

def stage3_dependency(
    invoked: OperationProfile, executing: OperationProfile
) -> Dependency:
    """The Stage-3 entry for one operation pair.

    D1: the Table-5 lookup with MO expansion.  D2: the Tables-6/7/8 lookup
    over the operations' locality components.  "The final dependency ...
    is taken to be the least restrictive dependency of the dependencies
    specified by the appropriate template tables in each dimension."
    """
    from_d1 = d1_entry(invoked.op_class, executing.op_class)
    from_d2 = d2_entry(
        invoked.locality.components(), executing.locality.components()
    )
    if from_d2 is None:
        return from_d1
    return weaker(from_d1, from_d2)


def _stage3_table(
    operations: Sequence[str], profiles: Mapping[str, OperationProfile]
) -> CompatibilityTable:
    table = CompatibilityTable(operations, name="stage3")
    for invoked in operations:
        for executing in operations:
            dependency = stage3_dependency(profiles[invoked], profiles[executing])
            table.set_entry(invoked, executing, Entry.unconditional(dependency))
    return table


# ---------------------------------------------------------------------------
# Stage 4 — outcome and input refinement
# ---------------------------------------------------------------------------

def _cell_dependency(
    evidence: EvidenceBase,
    profiles: Mapping[str, OperationProfile],
    invoked: str,
    executing: str,
    invoked_label: str | None,
    executing_label: str | None,
    cap: Dependency,
) -> Dependency | None:
    """Template-derived dependency of one outcome cell (paper-literal path).

    The restricted classes feed the D1 template; the cap keeps a cell from
    ever being stronger than what Stage 3 already established through D2.
    Returns ``None`` when a label never occurs for the operation.

    The paper's own derivations use this reasoning, and for its QStack
    examples it is sound; in general, conditioning the *invoked*
    operation's class on its outcome can hide a dependency (a Push whose
    ``ok`` exists only because a preceding Pop made room is not a pure
    modifier relative to that Pop), which is why the validated pipeline
    uses :func:`_empirical_cells` instead.
    """
    if executing_label is None:
        executing_class: OpClass | None = profiles[executing].op_class
    else:
        executing_class = evidence.class_given_label(executing, executing_label)
    if invoked_label is None:
        invoked_class: OpClass | None = profiles[invoked].op_class
    else:
        invoked_class = evidence.class_given_label(invoked, invoked_label)
    if executing_class is None or invoked_class is None:
        return None
    return weaker(d1_entry(invoked_class, executing_class), cap)


def _empirical_cells(
    evidence: EvidenceBase,
    invoked: str,
    executing: str,
    cap: Dependency,
) -> dict[tuple[str, str], Dependency]:
    """Required dependency per serially-feasible outcome combination.

    For every invocation pair and every state, executing the pair back to
    back yields the outcome-label cell it witnesses; the dependency the
    cell *requires* is

    * ND when the pair commutes in that state,
    * CD when it does not commute but the follower's return value is
      unaffected by the first operation (recoverable: commit ordering
      suffices), and
    * AD otherwise (the follower observed the first operation's effect).

    Each cell takes the strongest requirement over its witnesses, capped
    at the Stage-3 verdict.  Soundness over the enumerated fragment is by
    construction.
    """
    cells: dict[tuple[str, str], Dependency] = {}
    for first, second in evidence.invocation_pairs(executing, invoked):
        for state in evidence.states():
            first_execution = evidence.execute(state, first)
            second_execution = evidence.execute(
                first_execution.post_state, second
            )
            key = (outcome_label(first_execution), outcome_label(second_execution))
            if evidence.commute_in_state(state, first, second):
                required = Dependency.ND
            else:
                alone = evidence.execute(state, second).returned
                if alone == second_execution.returned:
                    required = Dependency.CD
                else:
                    required = Dependency.AD
            cells[key] = max(cells.get(key, Dependency.ND), required)
    return {key: weaker(value, cap) for key, value in cells.items()}


def _joint_cell_map(
    evidence: EvidenceBase,
    profiles: Mapping[str, OperationProfile],
    invoked: str,
    executing: str,
    current: Dependency,
    options: MethodologyOptions,
) -> dict[tuple[str, str], Dependency]:
    """The (x_label, y_label) -> dependency map all partitions derive from.

    Validated mode computes the empirically *required* dependency per
    serially-witnessed cell; paper-literal mode looks up the D1 template
    with outcome-restricted classes, over serially feasible combinations
    or the full label cross product per ``outcome_feasibility``.
    """
    if options.validate_conditions:
        return _empirical_cells(evidence, invoked, executing, current)
    if options.outcome_feasibility == "serial":
        combos = sorted(evidence.serial_label_pairs(executing, invoked))
    else:
        combos = [
            (x_label, y_label)
            for x_label in sorted(evidence.labels(executing))
            for y_label in sorted(evidence.labels(invoked))
        ]
    cells = {}
    for x_label, y_label in combos:
        dep = _cell_dependency(
            evidence, profiles, invoked, executing, y_label, x_label, current
        )
        if dep is not None:
            cells[(x_label, y_label)] = dep
    return cells


def _outcome_cells(
    evidence: EvidenceBase,
    profiles: Mapping[str, OperationProfile],
    invoked: str,
    executing: str,
    current: Dependency,
    options: MethodologyOptions,
) -> list[tuple[Dependency, Condition]] | None:
    """Stage-4 outcome partition for one pair, or ``None`` if unrefinable."""
    partition = options.outcome_partition
    if partition == "none":
        return None
    joint_map = _joint_cell_map(
        evidence, profiles, invoked, executing, current, options
    )
    if not joint_map:
        return None
    # When every outcome combination requires the same dependency, no
    # condition is needed: the entry weakens *unconditionally*.  This is
    # how two Deposits — pure modifiers whose D1/D2 templates top out at
    # CD — are recognised as commuting by the validated pipeline.
    distinct = set(joint_map.values())
    if len(distinct) == 1:
        (dep,) = distinct
        if dep < current:
            from repro.core.conditions import Always

            return [(dep, Always())]
        return None
    by_first: dict[str, Dependency] = {}
    by_second: dict[str, Dependency] = {}
    for (x_label, y_label), dep in joint_map.items():
        by_first[x_label] = max(by_first.get(x_label, Dependency.ND), dep)
        by_second[y_label] = max(by_second.get(y_label, Dependency.ND), dep)

    def first_only() -> list[tuple[Dependency, Condition]] | None:
        if len(by_first) < 2:
            return None
        return [
            (dep, OutcomeIs("first", label))
            for label, dep in sorted(by_first.items())
        ]

    def second_only() -> list[tuple[Dependency, Condition]] | None:
        if len(by_second) < 2:
            return None
        return [
            (dep, OutcomeIs("second", label))
            for label, dep in sorted(by_second.items())
        ]

    def joint() -> list[tuple[Dependency, Condition]]:
        return [
            (dep, And(OutcomeIs("first", x_label), OutcomeIs("second", y_label)))
            for (x_label, y_label), dep in sorted(joint_map.items())
        ]

    if partition == "first":
        return first_only()
    if partition == "second":
        return second_only()
    if partition == "joint":
        return joint()

    # "auto": use the joint cells, collapsed to a one-sided partition when
    # the other side's outcome never changes the verdict.
    first_determined = all(
        joint_map[(x_label, y_label)] == by_first[x_label]
        for (x_label, y_label) in joint_map
    )
    second_determined = all(
        joint_map[(x_label, y_label)] == by_second[y_label]
        for (x_label, y_label) in joint_map
    )
    if first_determined and len(by_first) > 1:
        return first_only()
    if second_determined and len(by_second) > 1:
        return second_only()
    return joint()


def _validated_inputs_condition(
    evidence: EvidenceBase,
    invoked: str,
    executing: str,
    options: MethodologyOptions,
    notes: list[str],
) -> Condition | None:
    """The Stage-4 input-equality refinement (Table 13), guarded if needed.

    Candidate: equal inputs ⇒ no dependency.  Validation checks
    commutativity in every state for every equal-argument invocation pair;
    when the bare condition fails only at outcome boundaries, the guarded
    ``inputs-equal ∧ outcomes-equal`` variant is tried.
    """
    first_ops = evidence.by_operation[executing]
    second_ops = evidence.by_operation[invoked]
    equal_pairs = [
        (first, second)
        for first in first_ops
        for second in second_ops
        if first.args and first.args == second.args
    ]
    if not equal_pairs:
        return None
    if not options.validate_conditions:
        return InputsEqual()

    def commutes_under(guarded: bool) -> bool:
        for first, second in equal_pairs:
            for state in evidence.states():
                if guarded:
                    first_execution = evidence.execute(state, first)
                    second_execution = evidence.execute(
                        first_execution.post_state, second
                    )
                    if outcome_label(first_execution) != outcome_label(
                        second_execution
                    ):
                        continue
                if not evidence.commute_in_state(state, first, second):
                    return False
        return True

    if commutes_under(guarded=False):
        return InputsEqual()
    if commutes_under(guarded=True):
        notes.append(
            f"({invoked}, {executing}): bare inputs-equal condition fails at an "
            "outcome boundary; emitted the outcome-guarded variant instead"
        )
        return And(InputsEqual(), OutcomesEqual())
    notes.append(
        f"({invoked}, {executing}): inputs-equal condition rejected by "
        "commutativity validation"
    )
    return None


def _stage4_pair_entry(
    evidence: EvidenceBase,
    profiles: Mapping[str, OperationProfile],
    invoked: str,
    executing: str,
    entry: Entry,
    options: MethodologyOptions,
) -> tuple[Entry, list[str]]:
    """The Stage-4 entry for one operation pair (plus its derivation notes)."""
    notes: list[str] = []
    current = entry.strongest()
    pairs: list[ConditionalDependency] = []
    if current is not Dependency.ND:
        cells = _outcome_cells(
            evidence, profiles, invoked, executing, current, options
        )
        if cells and any(dep < current for dep, _ in cells):
            pairs = [
                ConditionalDependency(dep, condition) for dep, condition in cells
            ]
    if not pairs:
        pairs = list(entry.pairs)
    strongest_so_far = max(pair.dependency for pair in pairs)
    if options.refine_inputs and strongest_so_far is not Dependency.ND:
        inputs_condition = _validated_inputs_condition(
            evidence, invoked, executing, options, notes
        )
        if inputs_condition is not None:
            pairs.append(
                ConditionalDependency(Dependency.ND, inputs_condition)
            )
    return Entry(pairs), notes


def _refined_table(
    evidence: EvidenceBase,
    profiles: Mapping[str, OperationProfile],
    previous: CompatibilityTable,
    options: MethodologyOptions,
    notes: list[str],
    pair_entry: Callable[..., tuple[Entry, list[str]]],
    name: str,
) -> CompatibilityTable:
    """Refine every cell of ``previous`` with ``pair_entry`` (Stage 4 or
    5), collecting the per-pair notes in cell order."""
    table = CompatibilityTable(previous.operations, name=name)
    for invoked, executing, entry in previous.cells():
        new_entry, pair_notes = pair_entry(
            evidence, profiles, invoked, executing, entry, options
        )
        table.set_entry(invoked, executing, new_entry)
        notes.extend(pair_notes)
    return table


# ---------------------------------------------------------------------------
# Stage 5 — locality-predicate refinement
# ---------------------------------------------------------------------------

def _stage5_candidate(
    invoked_profile: OperationProfile, executing_profile: OperationProfile
) -> tuple[Condition, Condition] | None:
    """The (no-dependency condition, complement) pair for a non-global pair.

    * Implicit/implicit referencing with disjoint declared reference sets:
      references-distinct predicates, the paper's ``f ≠ b``.
    * Explicit/explicit referencing: distinct key arguments.
    """
    if invoked_profile.locality.is_global or executing_profile.locality.is_global:
        return None
    invoked_refs = sorted(invoked_profile.declared_references)
    executing_refs = sorted(executing_profile.declared_references)
    if (
        invoked_profile.referencing == "implicit"
        and executing_profile.referencing == "implicit"
        and invoked_refs
        and executing_refs
        and not set(invoked_refs) & set(executing_refs)
    ):
        distinct = [
            ReferencesDistinct(second_ref, first_ref)
            for second_ref in invoked_refs
            for first_ref in executing_refs
        ]
        equal = [
            ReferencesEqual(second_ref, first_ref)
            for second_ref in invoked_refs
            for first_ref in executing_refs
        ]
        condition = distinct[0] if len(distinct) == 1 else And(*distinct)
        # The complement of "all pairs distinct" is "some pair equal";
        # for the single-pair case this is the paper's plain ``f = b``.
        if len(equal) == 1:
            complement: Condition = equal[0]
        else:
            from repro.core.conditions import Not

            complement = Not(condition)
        return condition, complement
    if (
        invoked_profile.referencing == "explicit"
        and executing_profile.referencing == "explicit"
        and invoked_profile.has_inputs
        and executing_profile.has_inputs
    ):
        from repro.core.conditions import Not

        condition = ArgsDistinct(0)
        return condition, Not(condition)
    return None


def _validate_stage5(
    evidence: EvidenceBase,
    invoked: str,
    executing: str,
    condition: Condition,
) -> bool:
    """Check a candidate ND condition: wherever it holds, the pair commutes.

    The context carries the return values of executing the pair back to
    back, so conditions conjoined with Stage-4 outcome predicates are
    evaluable; commutativity of the pair then guarantees the condition
    holds identically in the reversed order.
    """
    for first, second in evidence.invocation_pairs(executing, invoked):
        for state in evidence.states():
            first_execution = evidence.execute(state, first)
            second_execution = evidence.execute(
                first_execution.post_state, second
            )
            context = ConditionContext(
                first_invocation=first,
                second_invocation=second,
                pre_graph=evidence.adt.build_graph(state),
                first_return=first_execution.returned,
                second_return=second_execution.returned,
            )
            if condition.evaluate(context) is not True:
                continue
            if not evidence.commute_in_state(state, first, second):
                return False
    return True


def _conjoin(outcome_condition: Condition, locality_condition: Condition) -> Condition:
    """``outcome ∧ locality``, dropping a vacuous outcome condition."""
    from repro.core.conditions import Always

    if isinstance(outcome_condition, Always):
        return locality_condition
    return And(outcome_condition, locality_condition)


def _stage5_entry_validated(
    evidence: EvidenceBase,
    invoked: str,
    executing: str,
    entry: Entry,
    condition: Condition,
    complement: Condition,
    notes: list[str],
) -> Entry:
    """Per-pair Stage-5 refinement with empirical validation.

    Each restrictive pair ``(dep, cond)`` is split into
    ``(ND, cond ∧ L)`` + ``(dep, cond ∧ ¬L)`` when the conjunction
    validates (the pair commutes in every state satisfying it); pairs whose
    conjunction fails validation are kept untouched.  This is how the
    soundness gap of the paper's bare ``f ≠ b`` at the capacity boundary
    is repaired: the ND condition acquires the ``Push_out = ok`` guard.
    """
    new_pairs: list[ConditionalDependency] = []
    refined_any = False
    for pair in entry.pairs:
        if pair.dependency is Dependency.ND:
            new_pairs.append(pair)
            continue
        nd_condition = _conjoin(pair.condition, condition)
        if _validate_stage5(evidence, invoked, executing, nd_condition):
            refined_any = True
            new_pairs.append(
                ConditionalDependency(
                    pair.dependency, _conjoin(pair.condition, complement)
                )
            )
            new_pairs.append(ConditionalDependency(Dependency.ND, nd_condition))
        else:
            notes.append(
                f"({invoked}, {executing}): locality predicate "
                f"{nd_condition.render()} rejected by commutativity validation"
            )
            new_pairs.append(pair)
    if not refined_any:
        return entry
    return Entry(new_pairs)


def _stage5_entry_paper(
    entry: Entry, condition: Condition, complement: Condition
) -> Entry:
    """Paper-literal Stage-5 shape (Table 14).

    The pairs carrying the entry's strongest dependency are collapsed into
    a single ``(strongest, ¬L)`` pair, weaker pairs are kept, and
    ``(ND, L)`` is added — reproducing
    ``{(CD, Push_out = nok), (AD, f = b), (ND, f ≠ b)}`` exactly.
    """
    strongest = entry.strongest()
    new_pairs: list[ConditionalDependency] = []
    replaced = False
    for pair in entry.pairs:
        if pair.dependency == strongest:
            replaced = True
            continue  # collapsed into the single complement pair below
        new_pairs.append(pair)
    if replaced:
        new_pairs.append(ConditionalDependency(strongest, complement))
    new_pairs.append(ConditionalDependency(Dependency.ND, condition))
    return Entry(new_pairs)


def _stage5_pair_entry(
    evidence: EvidenceBase,
    profiles: Mapping[str, OperationProfile],
    invoked: str,
    executing: str,
    entry: Entry,
    options: MethodologyOptions,
) -> tuple[Entry, list[str]]:
    """The Stage-5 entry for one operation pair (plus its derivation notes)."""
    notes: list[str] = []
    if entry.strongest() is Dependency.ND:
        return entry, notes
    candidate = _stage5_candidate(profiles[invoked], profiles[executing])
    if candidate is None:
        return entry, notes
    condition, complement = candidate
    if options.validate_conditions:
        refined = _stage5_entry_validated(
            evidence, invoked, executing, entry, condition, complement, notes
        )
    else:
        refined = _stage5_entry_paper(entry, condition, complement)
    return refined, notes


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------

def derive(
    adt: ADTSpec,
    operations: Sequence[str] | None = None,
    options: MethodologyOptions | None = None,
    tracer: Tracer | None = None,
) -> DerivationResult:
    """Run the five-stage methodology for an ADT.

    Args:
        adt: The executable specification.
        operations: Optional subset of operations to derive the table for
            (the paper's worked example uses Push/Pop/Deq/Top/Size).
        options: Pipeline knobs; defaults are the validated, automatic
            settings described in :class:`MethodologyOptions`.
        tracer: Optional trace-event sink; each pipeline stage emits a
            ``StageTimed`` event (wall time + table-entry counts).  The
            profile itself is always attached to the result.

    Returns:
        The :class:`DerivationResult` bundling the Stage-1 graph, the
        Stage-2 profiles, the Stage-3/4/5 tables and the stage profile.
    """
    options = options or MethodologyOptions()
    bounds = options.bounds or adt.default_bounds
    names = list(operations) if operations is not None else adt.operation_names()
    notes: list[str] = []

    # The shared execution cache: installed for the whole run so Stage 2
    # characterisation, the evidence base and the Stage-4/5 validators all
    # draw from one memoized pool.  Restored (not just removed) on exit so
    # nested derivations compose.
    cache = ExecutionCache() if options.use_cache else None
    previous = install_execution_cache(cache) if cache is not None else None
    profiler = StageProfiler(adt.name, tracer, cache=cache)
    try:
        # Stage 1: the object graph and its references.
        with profiler.stage("stage1"):
            sample_graph = adt.build_graph(adt.initial_state())
            references = sorted(sample_graph.reference_names())

        # Stage 2: D1-D5 characterisation — derived by enumeration, or
        # taken from the operations' own declarations in annotation mode.
        with profiler.stage("stage2"):
            if options.use_annotations:
                from repro.core.profile import characterize_from_annotations

                profiles = characterize_from_annotations(adt, names)
            else:
                profiles = characterize_all(adt, names, bounds, options.attribution)

        # Stage 3: template-table lookup.
        with profiler.stage("stage3") as stage:
            stage3 = _stage3_table(names, profiles)
            stage.count_table(stage3)

        # Stages 4 and 5: conditional refinement over the evidence base.
        with profiler.stage("evidence"):
            evidence = EvidenceBase(adt, names, bounds, options.attribution)
        with profiler.stage("stage4") as stage:
            stage4 = _refined_table(
                evidence, profiles, stage3, options, notes,
                _stage4_pair_entry, "stage4",
            )
            stage.count_table(stage4)
        with profiler.stage("stage5") as stage:
            if options.refine_localities:
                stage5 = _refined_table(
                    evidence, profiles, stage4, options, notes,
                    _stage5_pair_entry, "stage5",
                )
            else:
                stage5 = stage4.map_entries(
                    lambda *_args: _args[2], name="stage5"
                )
            stage.count_table(stage5)
    finally:
        if cache is not None:
            install_execution_cache(previous)

    profile = profiler.profile
    if cache is not None:
        stats = cache.stats()
        profile.cache_hits = stats.hits
        profile.cache_misses = stats.misses
        profile.cache_evictions = stats.evictions

    return DerivationResult(
        adt_name=adt.name,
        operations=names,
        object_graph=sample_graph,
        references=references,
        profiles=profiles,
        stage3_table=stage3,
        stage4_table=stage4,
        stage5_table=stage5,
        notes=notes,
        profile=profile,
    )
