"""Derivation profiling: where the five-stage pipeline spends its time.

:func:`repro.core.methodology.derive` drives a :class:`StageProfiler`
through its stages; the result is a :class:`DerivationProfile` of
per-stage wall time and table-entry counts, and — when a tracer is
supplied — a :class:`~repro.obs.events.StageTimed` event per stage, so
derivation cost lands in the same trace as the scheduling decisions the
derived table later produces.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.events import StageTimed
from repro.obs.tracers import NULL_TRACER, Tracer

__all__ = ["StageProfile", "DerivationProfile", "StageProfiler"]


@dataclass(frozen=True)
class StageProfile:
    """One pipeline stage: wall time plus the size of what it produced."""

    stage: str
    seconds: float
    #: Cells of the stage's table (0 for the non-table stages 1-2).
    table_entries: int = 0
    #: Cells carrying at least one non-vacuous condition.
    conditional_entries: int = 0
    #: Execution-cache traffic attributed to this stage (0 when no cache
    #: was installed for the run).
    cache_hits: int = 0
    cache_misses: int = 0


@dataclass
class DerivationProfile:
    """Per-stage profile of one :func:`~repro.core.methodology.derive` run."""

    adt_name: str
    stages: list[StageProfile] = field(default_factory=list)
    #: Execution-cache totals over the whole run (0 when uncached).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    @property
    def cache_hit_rate(self) -> float:
        """Cache hits per lookup over the run, ``0.0`` when uncached."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0

    def stage(self, name: str) -> StageProfile:
        for profile in self.stages:
            if profile.stage == name:
                return profile
        raise KeyError(f"no stage {name!r} profiled")

    def speedup_vs(self, baseline: "DerivationProfile") -> dict[str, float]:
        """Per-stage (and total) wall-time speedup relative to ``baseline``.

        Keys are stage names plus ``"total"``; a stage missing from either
        profile, or taking no measurable time in this one, is omitted.
        """
        speedups: dict[str, float] = {}
        mine = {profile.stage: profile.seconds for profile in self.stages}
        for profile in baseline.stages:
            seconds = mine.get(profile.stage)
            if seconds:
                speedups[profile.stage] = profile.seconds / seconds
        if self.total_seconds:
            speedups["total"] = baseline.total_seconds / self.total_seconds
        return speedups

    def publish(self, registry, labels: dict[str, str] | None = None) -> None:
        """Export the profile through a :class:`~repro.obs.registry.MetricsRegistry`."""
        labels = dict(labels or {})
        labels.setdefault("adt", self.adt_name)
        registry.gauge(
            "derivation_seconds",
            help="Total wall time of the last derivation.",
            labels=labels,
        ).set(self.total_seconds)
        registry.gauge(
            "derivation_cache_hit_rate",
            help="Execution-cache hit rate of the last derivation.",
            labels=labels,
        ).set(self.cache_hit_rate)
        for stage in self.stages:
            registry.gauge(
                "derivation_stage_seconds",
                help="Wall time of one derivation stage.",
                labels={**labels, "stage": stage.stage},
            ).set(stage.seconds)

    def summary(self) -> str:
        """One line per stage, ``stage3 0.123s entries=25 conditional=4``."""
        lines = []
        for profile in self.stages:
            line = f"{profile.stage:10} {profile.seconds:8.4f}s"
            if profile.table_entries:
                line += (
                    f" entries={profile.table_entries}"
                    f" conditional={profile.conditional_entries}"
                )
            if profile.cache_hits or profile.cache_misses:
                line += (
                    f" cache={profile.cache_hits}h/{profile.cache_misses}m"
                )
            lines.append(line)
        total_line = f"{'total':10} {self.total_seconds:8.4f}s"
        if self.cache_hits or self.cache_misses:
            total_line += (
                f" cache_hit_rate={self.cache_hit_rate:.3f}"
                f" evictions={self.cache_evictions}"
            )
        lines.append(total_line)
        return "\n".join(lines)


class StageProfiler:
    """Context-manager-per-stage timer feeding a :class:`DerivationProfile`."""

    def __init__(
        self, adt_name: str, tracer: Tracer | None = None, cache=None
    ) -> None:
        self.profile = DerivationProfile(adt_name=adt_name)
        self._tracer = tracer if tracer is not None else NULL_TRACER
        #: Optional :class:`~repro.perf.cache.ExecutionCache` whose
        #: hit/miss counters are snapshotted around each stage.
        self._cache = cache

    class _Stage:
        def __init__(self, profiler: "StageProfiler", name: str) -> None:
            self._profiler = profiler
            self._name = name
            self._started = 0.0
            self._hits_before = 0
            self._misses_before = 0
            self.table_entries = 0
            self.conditional_entries = 0

        def __enter__(self) -> "StageProfiler._Stage":
            cache = self._profiler._cache
            if cache is not None:
                self._hits_before = cache.hits
                self._misses_before = cache.misses
            self._started = time.perf_counter()
            return self

        def count_table(self, table) -> None:
            """Record the entry counts of the stage's output table."""
            cells = list(table.cells())
            self.table_entries = len(cells)
            self.conditional_entries = sum(
                1 for _, _, entry in cells if entry.is_conditional
            )

        def __exit__(self, *exc_info: object) -> None:
            elapsed = time.perf_counter() - self._started
            cache = self._profiler._cache
            stage_hits = stage_misses = 0
            if cache is not None:
                stage_hits = cache.hits - self._hits_before
                stage_misses = cache.misses - self._misses_before
            profile = StageProfile(
                stage=self._name,
                seconds=elapsed,
                table_entries=self.table_entries,
                conditional_entries=self.conditional_entries,
                cache_hits=stage_hits,
                cache_misses=stage_misses,
            )
            self._profiler.profile.stages.append(profile)
            tracer = self._profiler._tracer
            if tracer:
                tracer.emit(
                    StageTimed(
                        time=0.0,
                        adt=self._profiler.profile.adt_name,
                        stage=profile.stage,
                        seconds=profile.seconds,
                        table_entries=profile.table_entries,
                        conditional_entries=profile.conditional_entries,
                    )
                )

    def stage(self, name: str) -> "StageProfiler._Stage":
        """``with profiler.stage("stage3") as s: ... s.count_table(t)``."""
        return StageProfiler._Stage(self, name)
