"""repro.perf — shared evidence base, execution memoization, hot-path compilation.

Four modules, each usable on its own:

* :mod:`repro.perf.cache` — a bounded LRU :class:`ExecutionCache` that
  :func:`~repro.spec.adt.execute_invocation` consults when installed, so
  every semantic judgement in the library shares one execution pool;
  counters export through the :mod:`repro.obs` metrics registry.
* :mod:`repro.perf.evidence` — the :class:`EvidenceBase` built once per
  derivation: the full state x invocation execution matrix, the successor
  index, memoized replay, and the Stage-4 evidence queries.
* :mod:`repro.perf.shadow` — the :class:`ShadowStateIndex` backing the
  runtime scheduler's certification hot path: per-object, per-active-
  transaction "log without that transaction" replay states, advanced
  incrementally per grant and epoch-invalidated on abort rollback.
* :mod:`repro.perf.codegen` — registration-time compilation of the
  scheduler hot path: :class:`ConflictMatrix` (the table as flat integer
  arrays over dense operation ids, with an unconditional-ND bitmask fast
  path) and :class:`CompiledADT` (``exec``-generated per-operation
  executor closures), with :func:`compiled_execute` as the execution
  cache's compiled miss handler.  The seed
  :class:`~repro.cc.reference.ReferenceScheduler` is the parity oracle.

See ``docs/PERFORMANCE.md`` for the architecture and the knobs.
"""

from repro.perf.cache import (
    DEFAULT_CACHE_MAXSIZE,
    CacheStats,
    ExecutionCache,
    ensure_execution_cache,
    execution_cache,
)
from repro.perf.codegen import (
    CompiledADT,
    ConflictMatrix,
    compile_adt,
    compiled_execute,
)
from repro.perf.evidence import EvidenceBase
from repro.perf.shadow import ShadowStateIndex

__all__ = [
    "DEFAULT_CACHE_MAXSIZE",
    "CacheStats",
    "CompiledADT",
    "ConflictMatrix",
    "ExecutionCache",
    "EvidenceBase",
    "ShadowStateIndex",
    "compile_adt",
    "compiled_execute",
    "ensure_execution_cache",
    "execution_cache",
]
