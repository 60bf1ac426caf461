"""Registration-time compilation of the scheduler hot path.

The paper's premise is that the expensive semantic analysis happens
**once, offline**, producing tables the runtime consults cheaply.  This
module pushes the remaining per-request interpretation costs to
registration time, in two compiled artefacts:

* :class:`ConflictMatrix` — the derived
  :class:`~repro.core.table.CompatibilityTable` compiled into flat
  integer arrays over **dense operation ids**: a row-major ``bytes``
  code matrix (unconditional-ND / unconditional non-ND / conditional),
  per-row unconditional-ND bitmasks, and a flat tuple of the live
  :class:`~repro.core.entry.Entry` objects.  Admit/conflict decisions
  become index computations with zero string hashing; a whole peer
  transaction can be settled against one invocation by a single bitmask
  test (``mask & ~nd_row == 0``).
* :class:`CompiledADT` — per-ADT specialized executor closures,
  ``exec``'d from generated source, one function per (operation,
  attribution): graph build, argument unpacking (arity-specialized) and
  the state transition are inlined with every global prebound as a
  default argument, replacing the generic
  :func:`~repro.spec.adt.execute_uncached` dispatch chain.

Both id spaces are **local to their compiled artefact** — a
``ConflictMatrix`` numbers the operations of *its* table and a
``CompiledADT`` those of *its* spec — so two ADTs sharing operation
names can never collide (covered by ``tests/perf/test_codegen.py``).

Compiled executors are bit-identical to :func:`execute_uncached` by
construction (same statements, prebound names); the transcript-parity
suite against the seed :class:`~repro.cc.reference.ReferenceScheduler`
(``tests/property/test_scheduler_parity.py``) enforces it end to end.
See ``docs/PERFORMANCE.md`` ("Compiled dispatch").
"""

from __future__ import annotations

import inspect
import threading
import weakref
from array import array

from repro.core.dependency import Dependency
from repro.core.entry import Entry
from repro.core.table import CompatibilityTable
from repro.graph.instrument import EdgeAttribution, InstrumentedGraph
from repro.spec.adt import ADTSpec, Execution

__all__ = [
    "ConflictMatrix",
    "CompiledADT",
    "compile_adt",
    "compiled_execute",
]


class ConflictMatrix:
    """A compatibility table compiled to integer arrays over dense op ids.

    ``codes[invoked_id * size + executing_id]`` classifies the cell:

    * :data:`ND` (0) — unconditional entry whose weakest dependency is
      ND: full-state-space forward commutativity, the fast-path cell;
    * :data:`NON_ND` (1) — unconditional entry with a CD/AD dependency;
    * :data:`CONDITIONAL` (2) — the entry carries runtime conditions.

    ``nd_rows[invoked_id]`` is the bitmask of executing ids whose cell
    is :data:`ND`, so :meth:`all_nd` settles an entire peer transaction
    (its operations OR-ed into one mask) in a single integer test;
    ``pre_state_rows[invoked_id]`` is the bitmask of its
    :data:`CONDITIONAL` cells whose entry holds a condition that reads
    the pre-state graph (a reference predicate, see
    :attr:`~repro.core.conditions.Condition.reads_pre_state`): only a
    peer meeting one of these makes the scheduler read the pre-state.
    ``entries`` holds the live :class:`~repro.core.entry.Entry` objects
    flat at the same indices, for the slow path.

    Read-only and derived purely from the source table;
    :meth:`compile` is the only constructor.
    """

    #: Cell codes (the ``bytes`` matrix values).
    ND = 0
    NON_ND = 1
    CONDITIONAL = 2

    __slots__ = (
        "operations",
        "op_id",
        "size",
        "codes",
        "nd_rows",
        "pre_state_rows",
        "entries",
    )

    def __init__(
        self,
        operations: tuple[str, ...],
        codes: bytes,
        nd_rows: tuple[int, ...],
        pre_state_rows: tuple[int, ...],
        entries: tuple[Entry, ...],
    ) -> None:
        self.operations = operations
        self.op_id = {op: i for i, op in enumerate(operations)}
        self.size = len(operations)
        self.codes = codes
        self.nd_rows = nd_rows
        self.pre_state_rows = pre_state_rows
        self.entries = entries

    @classmethod
    def compile(cls, table: CompatibilityTable) -> "ConflictMatrix":
        """Flatten ``table``; requires a complete table (every cell set)."""
        operations = tuple(table.operations)
        size = len(operations)
        codes = array("B", bytes(size * size))
        nd_rows = [0] * size
        pre_state_rows = [0] * size
        entries: list[Entry] = []
        for row, invoked in enumerate(operations):
            for column, executing in enumerate(operations):
                entry = table.entry(invoked, executing)
                entries.append(entry)
                if entry.is_conditional:
                    codes[row * size + column] = cls.CONDITIONAL
                    if any(
                        pair.condition.reads_pre_state for pair in entry.pairs
                    ):
                        pre_state_rows[row] |= 1 << column
                elif entry.weakest() is Dependency.ND:
                    nd_rows[row] |= 1 << column
                else:
                    codes[row * size + column] = cls.NON_ND
        return cls(
            operations,
            bytes(codes),
            tuple(nd_rows),
            tuple(pre_state_rows),
            tuple(entries),
        )

    def all_nd(self, invoked_id: int, executing_mask: int) -> bool:
        """Whether every executing op in ``executing_mask`` is an ND cell."""
        return not (executing_mask & ~self.nd_rows[invoked_id])

    def code(self, invoked_id: int, executing_id: int) -> int:
        """The cell code (:data:`ND` / :data:`NON_ND` / :data:`CONDITIONAL`)."""
        return self.codes[invoked_id * self.size + executing_id]

    def entry_at(self, invoked_id: int, executing_id: int) -> Entry:
        """The live entry at integer coordinates (the slow-path lookup)."""
        return self.entries[invoked_id * self.size + executing_id]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConflictMatrix ops={list(self.operations)}>"


#: Source template of one generated executor.  Every free name is
#: prebound as a keyword default, so the compiled body performs only
#: local loads — no globals, no attribute chains, no generic dispatch.
#: ``$UNPACK`` / ``$ARGS`` are replaced with arity-specialized argument
#: handling (``a0, a1 = invocation.args`` + ``view, a0, a1``) or the
#: star-call fallback when the operation takes variadic arguments.
_EXECUTOR_TEMPLATE = """\
def __executor(
    state,
    invocation,
    _build_graph=_build_graph,
    _frozenset=frozenset,
    _InstrumentedGraph=_InstrumentedGraph,
    _attribution=_attribution,
    _op_execute=_op_execute,
    _abstract_state=_abstract_state,
    _Execution=_Execution,
):
    graph = _build_graph(state)
    pre_simple = _frozenset(graph.simple_vertices())
    view = _InstrumentedGraph(graph, attribution=_attribution)
    $UNPACK
    returned = _op_execute($ARGS)
    return _Execution(
        pre_state=state,
        invocation=invocation,
        post_state=_abstract_state(graph),
        returned=returned,
        trace=view.trace,
        pre_simple_vertices=pre_simple,
    )
"""


def _fixed_arity(op_execute) -> int | None:
    """The operation's argument count after ``view``, or ``None`` if variadic."""
    try:
        parameters = list(inspect.signature(op_execute).parameters.values())
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return None
    for parameter in parameters:
        if parameter.kind not in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            return None
    # The first parameter is the instrumented view (``self`` is already
    # bound); the rest are the invocation arguments.
    return max(len(parameters) - 1, 0)


def _generate_executor(adt: ADTSpec, operation: str, attribution):
    """``exec`` one specialized ``(state, invocation) -> Execution`` closure."""
    op_execute = adt.operation(operation).execute
    arity = _fixed_arity(op_execute)
    if arity is None:
        unpack = "pass"
        args = "view, *invocation.args"
    elif arity == 0:
        unpack = "pass"
        args = "view"
    else:
        names = [f"_a{i}" for i in range(arity)]
        unpack = ", ".join(names) + ("," if arity == 1 else "") + " = invocation.args"
        args = "view, " + ", ".join(names)
    source = _EXECUTOR_TEMPLATE.replace("$UNPACK", unpack).replace("$ARGS", args)
    namespace = {
        "_build_graph": adt.build_graph,
        "_InstrumentedGraph": InstrumentedGraph,
        "_attribution": attribution,
        "_op_execute": op_execute,
        "_abstract_state": adt.abstract_state,
        "_Execution": Execution,
    }
    exec(  # noqa: S102 - the source is generated here, from our template
        compile(source, f"<codegen {adt.name}.{operation}>", "exec"), namespace
    )
    return namespace["__executor"]


class CompiledADT:
    """Per-ADT compiled dispatch: dense op ids + generated executors.

    Built once per spec instance by :func:`compile_adt`; executors are
    generated lazily per (operation, attribution) and memoized, so the
    one-time ``exec`` cost is paid at first use, never per request.
    """

    __slots__ = ("adt", "operations", "op_id", "_executors", "_lock")

    def __init__(self, adt: ADTSpec) -> None:
        self.adt = adt
        self.operations = tuple(adt.operation_names())
        self.op_id = {op: i for i, op in enumerate(self.operations)}
        self._executors: dict[tuple[str, object], object] = {}
        self._lock = threading.Lock()

    def executor(self, operation: str, attribution=EdgeAttribution.BOTH):
        """The compiled ``(state, invocation) -> Execution`` for one operation."""
        key = (operation, attribution)
        executor = self._executors.get(key)
        if executor is None:
            with self._lock:
                executor = self._executors.get(key)
                if executor is None:
                    executor = _generate_executor(
                        self.adt, operation, attribution
                    )
                    self._executors[key] = executor
        return executor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CompiledADT {self.adt.name} ops={list(self.operations)}>"


#: Process-wide memo of compiled ADTs, keyed by spec *identity* (same
#: rationale as the execution cache: two instances of one spec class are
#: never conflated).  Weak keys, so a compiled ADT never outlives its
#: spec.
_COMPILED: "weakref.WeakKeyDictionary[ADTSpec, CompiledADT]" = (
    weakref.WeakKeyDictionary()
)
_COMPILED_LOCK = threading.Lock()


def compile_adt(adt: ADTSpec) -> CompiledADT:
    """The (memoized) compiled form of one ADT spec instance."""
    compiled = _COMPILED.get(adt)
    if compiled is None:
        with _COMPILED_LOCK:
            compiled = _COMPILED.get(adt)
            if compiled is None:
                compiled = CompiledADT(adt)
                _COMPILED[adt] = compiled
    return compiled


def compiled_execute(adt, state, invocation, attribution) -> Execution:
    """Drop-in for :func:`~repro.spec.adt.execute_uncached` via codegen.

    The :class:`~repro.perf.cache.ExecutionCache` miss handler the
    compiled scheduler installs: resolves the memoized
    :class:`CompiledADT` and runs the specialized executor.  Results are
    bit-identical to the uncached reference path by construction.
    """
    return compile_adt(adt).executor(invocation.operation, attribution)(
        state, invocation
    )
