"""The registration-time compilation layer (:mod:`repro.perf.codegen`).

Covers the tentpole's correctness edges:

* :class:`ConflictMatrix` agrees cell-for-cell with the
  :class:`~repro.core.table.CompatibilityTable` it compiles, for every
  builtin ADT's derived table;
* the ``exec``-generated executors are bit-identical to
  :func:`~repro.spec.adt.execute_uncached` over the full enumerated
  state x invocation space (covering the variadic fallback the builtin
  ADTs take *and* the fixed-arity unpack paths via custom specs);
* degenerate shapes: a single-operation ADT (1x1 matrix) and an
  all-conflict table (empty ND bitmasks, the fast path never fires);
* two ADTs sharing operation names on one compiled scheduler — the
  dense integer-id spaces are per-artefact, so names can never collide
  (the degenerate and shared-name runs are checked against the seed
  :class:`~repro.cc.reference.ReferenceScheduler`);
* the :class:`~repro.perf.cache.ExecutionCache` extensions the compiled
  path rides on: the pluggable ``executor`` miss handler and the batched
  ``get_or_execute_batch`` lookup.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.core.conditions import (
    And,
    Not,
    ReferencesDistinct,
    ReferencesEqual,
)
from repro.core.dependency import Dependency
from repro.core.entry import Entry
from repro.core.methodology import derive
from repro.core.table import CompatibilityTable
from repro.graph.instrument import EdgeAttribution, InstrumentedGraph
from repro.graph.object_graph import ObjectGraph
from repro.perf.cache import ExecutionCache
from repro.perf.codegen import (
    CompiledADT,
    ConflictMatrix,
    compile_adt,
    compiled_execute,
)
from repro.cc.reference import ReferenceScheduler
from repro.cc.scheduler import TableDrivenScheduler
from repro.spec.adt import ADTSpec, EnumerationBounds, execute_uncached
from repro.spec.operation import Invocation, OperationSpec
from repro.spec.returnvalue import ok, result_only

_TABLES = {}


def _table(adt):
    if adt.name not in _TABLES:
        _TABLES[adt.name] = derive(adt).final_table
    return _TABLES[adt.name]


# ----------------------------------------------------------------------
# Custom specs: fixed-arity executors and degenerate operation counts
# ----------------------------------------------------------------------


class _TickOp(OperationSpec):
    """Zero-argument, *fixed-arity* modifier (no ``*args`` fallback)."""

    name = "Tick"
    referencing = "implicit"
    references_used = frozenset({"counter"})

    def argument_tuples(self, bounds: EnumerationBounds) -> Iterable[tuple]:
        return [()]

    def execute(self, view: InstrumentedGraph) -> Any:
        vid = view.deref("counter")
        view.modify_content(vid, view.observe_content(vid) + 1)
        return ok()


class _AddOp(OperationSpec):
    """One-argument, fixed-arity modifier (the ``_a0, =`` unpack path)."""

    name = "Add"
    referencing = "implicit"
    references_used = frozenset({"counter"})

    def argument_tuples(self, bounds: EnumerationBounds) -> Iterable[tuple]:
        return [(n,) for n in bounds.domain]

    def execute(self, view: InstrumentedGraph, amount) -> Any:
        vid = view.deref("counter")
        view.modify_content(vid, view.observe_content(vid) + amount)
        return ok()


class _ReadOp(OperationSpec):
    name = "Read"
    referencing = "implicit"
    references_used = frozenset({"counter"})

    def argument_tuples(self, bounds: EnumerationBounds) -> Iterable[tuple]:
        return [()]

    def execute(self, view: InstrumentedGraph) -> Any:
        return result_only(view.observe_content(view.deref("counter")))


class CounterSpec(ADTSpec):
    """A tiny counter; ``operations`` selects the exposed subset."""

    def __init__(self, name: str = "Counter", ops: tuple[str, ...] = ("Tick",)):
        self.name = name
        self.default_bounds = EnumerationBounds(capacity=3, domain=(1, 2))
        available = {
            "Tick": _TickOp(),
            "Add": _AddOp(),
            "Read": _ReadOp(),
        }
        self._operations = {op: available[op] for op in ops}

    @property
    def operations(self) -> Mapping[str, OperationSpec]:
        return self._operations

    def states(self, bounds: EnumerationBounds) -> Iterable[int]:
        return range(bounds.capacity + 1)

    def initial_state(self) -> int:
        return 0

    def build_graph(self, state: int) -> ObjectGraph:
        graph = ObjectGraph(self.name)
        vid = graph.add_vertex(value=state, label="count")
        graph.declare_reference("counter", vid)
        return graph

    def abstract_state(self, graph: ObjectGraph) -> int:
        (vertex,) = list(graph.vertices())
        return vertex.value


def _uniform_table(operations, dependency: Dependency) -> CompatibilityTable:
    table = CompatibilityTable(operations, name=f"all-{dependency.name}")
    for invoked in operations:
        for executing in operations:
            table.set_entry(
                invoked, executing, Entry.unconditional(dependency)
            )
    return table


# ----------------------------------------------------------------------
# ConflictMatrix vs CompatibilityTable
# ----------------------------------------------------------------------


def _holds_reference_predicate(condition) -> bool:
    """Whether a reference predicate occurs anywhere in ``condition``."""
    if isinstance(condition, (ReferencesEqual, ReferencesDistinct)):
        return True
    if isinstance(condition, And):
        return any(_holds_reference_predicate(part) for part in condition.parts)
    if isinstance(condition, Not):
        return _holds_reference_predicate(condition.part)
    return False


@pytest.mark.parametrize("adt_name", builtin_names())
def test_matrix_agrees_with_table_entries(adt_name):
    adt = make_adt(adt_name)
    table = _table(adt)
    matrix = ConflictMatrix.compile(table)
    assert matrix.operations == tuple(table.operations)
    for invoked in table.operations:
        i = matrix.op_id[invoked]
        for executing in table.operations:
            j = matrix.op_id[executing]
            # The live entry is the same object the table serves.
            source = table.entry(invoked, executing)
            assert matrix.entry_at(i, j) is source
            is_nd = matrix.code(i, j) == ConflictMatrix.ND
            assert is_nd == (
                not source.is_conditional
                and source.weakest() is Dependency.ND
            )
            # A single-operation mask agrees with the cell code, so the
            # whole-transaction bitmask test can never diverge from the
            # per-entry loop.
            assert matrix.all_nd(i, 1 << j) == is_nd
            code = matrix.code(i, j)
            # The pre-state mask holds exactly the cells with a
            # reference predicate, the only conditions that read the
            # pre-state graph, so a peer that misses it has no condition
            # to read a pre-state; all of them are conditional cells.
            pre_state = bool(matrix.pre_state_rows[i] >> j & 1)
            assert pre_state == any(
                _holds_reference_predicate(pair.condition)
                for pair in source.pairs
            )
            assert not pre_state or code == ConflictMatrix.CONDITIONAL
            entry = matrix.entry_at(i, j)
            if code == ConflictMatrix.CONDITIONAL:
                assert entry.is_conditional
            elif code == ConflictMatrix.NON_ND:
                assert not entry.is_conditional
                assert entry.weakest() is not Dependency.ND


def test_single_operation_matrix():
    adt = CounterSpec(ops=("Tick",))
    table = _uniform_table(["Tick"], Dependency.CD)
    matrix = ConflictMatrix.compile(table)
    assert matrix.size == 1
    assert matrix.op_id == {"Tick": 0}
    assert matrix.code(0, 0) == ConflictMatrix.NON_ND
    assert not matrix.all_nd(0, 1)
    assert matrix.all_nd(0, 0)  # empty peer mask is trivially all-ND
    # And the compiled scheduler schedules it identically to the seed.
    assert _drive_counter(adt, table, _compiled()) == _drive_counter(
        adt, table, ReferenceScheduler(policy="optimistic")
    )


def test_all_conflict_matrix_has_empty_nd_masks():
    operations = ["Tick", "Add", "Read"]
    table = _uniform_table(operations, Dependency.AD)
    matrix = ConflictMatrix.compile(table)
    assert matrix.nd_rows == (0, 0, 0)
    assert matrix.pre_state_rows == (0, 0, 0)
    for i in range(3):
        for j in range(3):
            assert matrix.code(i, j) == ConflictMatrix.NON_ND
            assert not matrix.all_nd(i, 1 << j)
    adt = CounterSpec(ops=("Tick", "Add", "Read"))
    assert _drive_counter(adt, table, _compiled()) == _drive_counter(
        adt, table, ReferenceScheduler(policy="optimistic")
    )


def test_objects_sharing_a_table_share_one_compiled_matrix():
    adt = CounterSpec(ops=("Tick",))
    table = _uniform_table(["Tick"], Dependency.ND)
    scheduler = _compiled()
    scheduler.register_object("a", adt, table)
    scheduler.register_object("b", adt, table)
    shared = scheduler._objects["a"].matrix
    assert scheduler._objects["b"].matrix is shared
    # A table edited between two registrations is not served the stale
    # matrix: the later object is certified by the edited entry.
    table.set_entry("Tick", "Tick", Entry.unconditional(Dependency.AD))
    scheduler.register_object("c", adt, table)
    assert scheduler._objects["c"].matrix is not shared
    assert scheduler._objects["c"].matrix.code(0, 0) == ConflictMatrix.NON_ND
    t1, t2 = scheduler.begin(), scheduler.begin()
    tick = Invocation(operation="Tick", args=())
    assert scheduler.request(t1, "c", tick).executed
    assert scheduler.request(t2, "c", tick).dependencies
    # Quarantine recompiles every object's matrix from its table.
    scheduler.rebuild_fast_paths()
    rebuilt = scheduler._objects["c"].matrix
    assert rebuilt is not scheduler._objects["b"].matrix
    assert rebuilt.code(0, 0) == ConflictMatrix.NON_ND


def _compiled() -> TableDrivenScheduler:
    return TableDrivenScheduler(
        policy="optimistic", execution_cache=ExecutionCache()
    )


def _drive_counter(adt, table, scheduler):
    """Two interleaved transactions over one counter; full decision log."""
    scheduler.register_object("ctr", adt, table)
    decisions = []
    t1, t2 = scheduler.begin(), scheduler.begin()
    for txn, operation in (
        (t1, "Tick"), (t2, "Tick"), (t1, "Tick"), (t2, "Tick")
    ):
        if not scheduler.transaction(txn).is_active:
            decisions.append((txn, "inactive"))
            continue
        invocation = Invocation(operation=operation, args=())
        decision = scheduler.request(txn, "ctr", invocation)
        decisions.append(
            (txn, decision.executed, decision.aborted, decision.dependencies)
        )
    for txn in (t1, t2):
        if scheduler.transaction(txn).is_active:
            decisions.append((txn, scheduler.try_commit(txn).committed))
    decisions.append(scheduler.object("ctr").state())
    decisions.append(scheduler.stats.seed_counters())
    return decisions


# ----------------------------------------------------------------------
# Generated executors
# ----------------------------------------------------------------------


@pytest.mark.parametrize("adt_name", builtin_names())
def test_executors_match_execute_uncached(adt_name):
    adt = make_adt(adt_name)
    compiled = compile_adt(adt)
    attribution = EdgeAttribution.BOTH
    states = adt.state_list(adt.default_bounds)
    for invocation in adt.invocations():
        executor = compiled.executor(invocation.operation, attribution)
        for state in states:
            assert executor(state, invocation) == execute_uncached(
                adt, state, invocation, attribution
            )


def test_fixed_arity_executors_match():
    """Builtin specs are all variadic; the fixed-arity unpack paths are
    exercised by the custom counter ops (arity 0 and arity 1)."""
    adt = CounterSpec(ops=("Tick", "Add", "Read"))
    compiled = compile_adt(adt)
    attribution = EdgeAttribution.BOTH
    for invocation in adt.invocations():
        executor = compiled.executor(invocation.operation, attribution)
        for state in adt.state_list(adt.default_bounds):
            assert executor(state, invocation) == execute_uncached(
                adt, state, invocation, attribution
            )


def test_compile_adt_memoizes_by_identity():
    a = CounterSpec(ops=("Tick",))
    b = CounterSpec(ops=("Tick",))
    assert compile_adt(a) is compile_adt(a)
    assert compile_adt(a) is not compile_adt(b)
    compiled = compile_adt(a)
    assert compiled.executor("Tick") is compiled.executor("Tick")


def test_compiled_execute_is_a_drop_in_miss_handler():
    adt = make_adt("Account")
    invocation = Invocation(operation="Deposit", args=(1,))
    assert compiled_execute(
        adt, 0, invocation, EdgeAttribution.BOTH
    ) == execute_uncached(adt, 0, invocation, EdgeAttribution.BOTH)


# ----------------------------------------------------------------------
# Shared operation names across ADTs
# ----------------------------------------------------------------------


def test_shared_operation_names_do_not_collide():
    """Stack and QStack both expose Push/Pop/Top/Size; each compiled
    artefact numbers its *own* operations, so one compiled scheduler can
    host both without id-space interference."""
    stack = make_adt("Stack")
    qstack = make_adt("QStack")
    assert set(stack.operation_names()) & set(qstack.operation_names())
    assert compile_adt(stack).op_id != compile_adt(qstack).op_id or (
        compile_adt(stack).operations != compile_adt(qstack).operations
    )

    def run(scheduler):
        scheduler.register_object("s", stack, _table(stack))
        scheduler.register_object("q", qstack, _table(qstack))
        out = []
        t1, t2 = scheduler.begin(), scheduler.begin()
        script = [
            (t1, "s", Invocation(operation="Push", args=(1,))),
            (t2, "q", Invocation(operation="Push", args=(2,))),
            (t2, "s", Invocation(operation="Push", args=(2,))),
            (t1, "q", Invocation(operation="Deq", args=())),
            (t1, "s", Invocation(operation="Top", args=())),
            (t2, "q", Invocation(operation="Size", args=())),
        ]
        for txn, obj, invocation in script:
            if not scheduler.transaction(txn).is_active:
                out.append((txn, obj, "inactive"))
                continue
            decision = scheduler.request(txn, obj, invocation)
            out.append(
                (
                    txn,
                    obj,
                    decision.executed,
                    decision.aborted,
                    repr(decision.returned),
                    decision.dependencies,
                )
            )
        for txn in (t1, t2):
            if scheduler.transaction(txn).is_active:
                out.append((txn, scheduler.try_commit(txn).committed))
        out.append((scheduler.object("s").state(), scheduler.object("q").state()))
        out.append(scheduler.stats.seed_counters())
        return out

    assert run(_compiled()) == run(ReferenceScheduler(policy="optimistic"))


# ----------------------------------------------------------------------
# ExecutionCache: pluggable executor + batched lookups
# ----------------------------------------------------------------------


def test_cache_executor_override_serves_identical_values():
    adt = make_adt("Account")
    invocation = Invocation(operation="Deposit", args=(1,))
    default = ExecutionCache()
    compiled = ExecutionCache(executor=compiled_execute)
    a = default.get_or_execute(adt, 0, invocation, EdgeAttribution.BOTH)
    b = compiled.get_or_execute(adt, 0, invocation, EdgeAttribution.BOTH)
    assert a == b
    assert default.misses == compiled.misses == 1


def test_get_or_execute_batch_counters_and_alignment():
    adt = make_adt("Account")
    invocation = Invocation(operation="Deposit", args=(1,))
    attribution = EdgeAttribution.BOTH
    states = adt.state_list(adt.default_bounds)
    cache = ExecutionCache()
    executor = compile_adt(adt).executor("Deposit", attribution)
    compute = lambda state: executor(state, invocation)  # noqa: E731

    first = cache.get_or_execute_batch(
        adt, invocation, attribution, states, compute
    )
    assert cache.misses == len(states) and cache.hits == 0
    assert [e.pre_state for e in first] == list(states)
    for state, execution in zip(states, first):
        assert execution == execute_uncached(adt, state, invocation, attribution)

    second = cache.get_or_execute_batch(
        adt, invocation, attribution, states, compute
    )
    assert cache.hits == len(states) and cache.misses == len(states)
    # Hits return the canonical cached records, by identity.
    assert all(a is b for a, b in zip(first, second))


def test_get_or_execute_batch_respects_the_lru_bound():
    adt = make_adt("Account")
    invocation = Invocation(operation="Deposit", args=(1,))
    attribution = EdgeAttribution.BOTH
    states = adt.state_list(adt.default_bounds)
    assert len(states) > 2
    cache = ExecutionCache(maxsize=2)
    executor = compile_adt(adt).executor("Deposit", attribution)
    results = cache.get_or_execute_batch(
        adt, invocation, attribution, states, lambda s: executor(s, invocation)
    )
    assert len(results) == len(states)
    assert len(cache) == 2
    assert cache.evictions == len(states) - 2
