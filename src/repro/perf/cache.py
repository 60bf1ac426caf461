"""Execution memoization — the shared foundation of :mod:`repro.perf`.

Every semantic judgement in the library (Stage-2 classification, the
Section-3 commutativity/recoverability tables, Stage-4/5 condition
validation, the simulator's shadow executions) bottoms out in
:func:`~repro.spec.adt.execute_invocation`, and the operation specs are
deterministic: the same ``(adt, state, invocation, attribution)`` always
yields the same :class:`~repro.spec.adt.Execution`.  The
:class:`ExecutionCache` exploits exactly that — a bounded LRU memo that
:func:`~repro.spec.adt.execute_invocation` consults when the cache is
*installed* (see :func:`~repro.spec.adt.install_execution_cache`), so
every call site in the library shares one evidence pool without being
rewritten.

The cached :class:`~repro.spec.adt.Execution` records are treated as
immutable by every consumer (their locality traces are only ever read or
merged into fresh traces), so sharing one record across call sites is
safe.

Hit/miss/eviction counters are exported from a :meth:`ExecutionCache.stats`
snapshot as ``execution_cache_*`` by
:func:`repro.obs.registry.publish_counters`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.spec.adt import (
    Execution,
    active_execution_cache,
    execute_uncached,
    install_execution_cache,
)

__all__ = [
    "DEFAULT_CACHE_MAXSIZE",
    "CacheStats",
    "ExecutionCache",
    "ensure_execution_cache",
    "execution_cache",
]

#: Default entry bound.  An entry is one ``Execution`` (a few hundred
#: bytes); the default comfortably holds the full evidence base of every
#: built-in ADT at default bounds while still bounding pathological use.
DEFAULT_CACHE_MAXSIZE = 1 << 18


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Entries held at snapshot time: a level, exported as a gauge.
    size: int = field(default=0, metadata={"counter": False})

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup, ``0.0`` before the first lookup."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0


class ExecutionCache:
    """Bounded LRU memo of :func:`~repro.spec.adt.execute_invocation`.

    Keys are ``(adt, state, invocation, attribution)`` where the ADT spec
    participates by *identity* (``ADTSpec`` instances hash by object
    identity): two instances of the same class are never conflated, so a
    parameterised spec (e.g. a QStack restricted to a subset of its
    operations) can never poison another instance's entries.

    Thread-safe: lookups and insertions run under a lock, so a cache
    installed process-wide behaves under the threaded examples exactly as
    it does single-threaded.

    ``executor`` replaces the miss handler: the compiled scheduler passes
    :func:`~repro.perf.codegen.compiled_execute` so misses run the
    ``exec``-generated per-ADT executors instead of the generic
    :func:`~repro.spec.adt.execute_uncached` path.  Both are
    bit-identical by construction, so swapping the handler never changes
    a cached value — only what a miss costs.
    """

    def __init__(
        self, maxsize: int = DEFAULT_CACHE_MAXSIZE, executor=None
    ) -> None:
        if maxsize < 1:
            raise ValueError("cache maxsize must be at least 1")
        self.maxsize = maxsize
        #: ``(adt, state, invocation, attribution) -> Execution`` run on
        #: a miss (default: the uncached reference path).
        self._executor = executor if executor is not None else execute_uncached
        self._entries: OrderedDict[tuple, Execution] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------
    # Core
    # ------------------------------------------------------------------

    def get_or_execute(self, adt, state, invocation, attribution) -> Execution:
        """The memoized execution of one invocation in one state."""
        key = (adt, state, invocation, attribution)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._hits += 1
                self._entries.move_to_end(key)
                return cached
            self._misses += 1
        execution = self._executor(adt, state, invocation, attribution)
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
            self._entries[key] = execution
        return execution

    def get_or_execute_batch(
        self, adt, invocation, attribution, states, compute
    ) -> list[Execution]:
        """Batched :meth:`get_or_execute` of one invocation over many states.

        The vectorized :class:`~repro.perf.evidence.EvidenceBase` build
        path: hits are collected under a single lock acquisition (instead
        of one per state), misses are computed outside the lock by
        ``compute(state)`` — typically a compiled per-operation executor
        — and inserted under a second single acquisition.  Counters and
        eviction behave exactly as per-state lookups would; the returned
        list is positionally aligned with ``states`` and canonical (cached
        records win over freshly computed ones).
        """
        results: list[Execution | None] = [None] * len(states)
        missing: list[int] = []
        entries = self._entries
        with self._lock:
            for position, state in enumerate(states):
                key = (adt, state, invocation, attribution)
                cached = entries.get(key)
                if cached is not None:
                    self._hits += 1
                    entries.move_to_end(key)
                    results[position] = cached
                else:
                    self._misses += 1
                    missing.append(position)
        for position in missing:
            results[position] = compute(states[position])
        if missing:
            with self._lock:
                for position in missing:
                    key = (adt, states[position], invocation, attribution)
                    if key not in entries and len(entries) >= self.maxsize:
                        entries.popitem(last=False)
                        self._evictions += 1
                    entries[key] = results[position]
        return results

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    # Chaos hooks (repro.robust fault injection)
    # ------------------------------------------------------------------

    def chaos_evict(self, count: int = 1) -> int:
        """Forcibly evict up to ``count`` LRU entries; returns how many.

        Fault-injection hook: models cache pressure/loss without touching
        the LRU bound.  Evictions are counted in the ordinary eviction
        counter so the metrics export reflects them.
        """
        evicted = 0
        with self._lock:
            while self._entries and evicted < count:
                self._entries.popitem(last=False)
                self._evictions += 1
                evicted += 1
        return evicted

    def chaos_corrupt(self) -> bool:
        """Corrupt one cached entry in place; returns whether one was.

        Fault-injection hook: the most recently used entry whose
        execution actually changed state gets its ``post_state`` rolled
        back to its ``pre_state`` — a silent wrong answer that stays
        internally plausible, which is exactly what the invariant
        monitor's shadow-freshness check must catch.
        """
        from dataclasses import replace

        with self._lock:
            for key in reversed(self._entries):
                execution = self._entries[key]
                if execution.post_state != execution.pre_state:
                    self._entries[key] = replace(
                        execution, post_state=execution.pre_state
                    )
                    return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    @property
    def hits(self) -> int:
        return self._hits

    @property
    def misses(self) -> int:
        return self._misses

    @property
    def evictions(self) -> int:
        return self._evictions

    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
            )


@contextmanager
def execution_cache(
    maxsize: int = DEFAULT_CACHE_MAXSIZE,
) -> Iterator[ExecutionCache]:
    """Install a fresh cache for the dynamic extent of the ``with`` block.

    The previously installed cache (if any) is restored on exit, so the
    context nests — an inner derivation gets its own cache without
    disturbing an outer one.
    """
    cache = ExecutionCache(maxsize=maxsize)
    previous = install_execution_cache(cache)
    try:
        yield cache
    finally:
        install_execution_cache(previous)


@contextmanager
def ensure_execution_cache(
    maxsize: int = DEFAULT_CACHE_MAXSIZE,
) -> Iterator[ExecutionCache]:
    """Reuse the installed cache, or install a temporary one.

    The idiom for library entry points (the semantic table builders, the
    serial-dependency search): inside a derivation they join its cache and
    contribute to its hit rate; standalone they still get memoization for
    their own internal redundancy, torn down on exit.
    """
    existing = active_execution_cache()
    if existing is not None:
        yield existing
        return
    with execution_cache(maxsize=maxsize) as cache:
        yield cache
