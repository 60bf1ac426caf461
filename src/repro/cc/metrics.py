"""Concurrency metrics of a simulated run.

The refinement experiment (X1) compares runs of the *same workload* under
tables of increasing refinement; the metrics here are the observables that
must improve (or at least not degrade) with every methodology stage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cc.scheduler import SchedulerStats

__all__ = ["RunMetrics"]


@dataclass
class RunMetrics:
    """Aggregated observables of one simulated run."""

    #: Time of the last event (commit/abort) of the run.
    makespan: float = 0.0
    #: Transactions by final status.
    committed: int = 0
    aborted: int = 0
    #: Involuntary-abort restarts performed (restart_aborted mode).
    restarts: int = 0
    #: Programs that hit the restart ceiling and finished aborted — the
    #: simulator's livelock-avoidance giving up, which used to be silent.
    restarts_exhausted: int = 0
    #: Sum over transactions of time spent blocked waiting for conflicts.
    total_blocked_time: float = 0.0
    #: Individual blocked-interval durations (feeds the histogram export).
    blocked_durations: list[float] = field(default_factory=list)
    #: Sum over committed transactions of (commit time - arrival time).
    total_response_time: float = 0.0
    #: Sum of service times of every executed operation (committed or not).
    total_service_time: float = 0.0
    #: Raw scheduler counters.
    scheduler: SchedulerStats = field(default_factory=SchedulerStats)
    #: The scheduler's execution cache, when the run had one; exported as
    #: ``execution_cache_*`` counters so cache behaviour under runtime
    #: traffic is observable alongside the scheduler counters.
    execution_cache: object | None = None
    #: Robustness counters (:class:`repro.robust.faults.RobustStats`)
    #: when the run carried a fault plan or monitor; exported as
    #: ``robust_*`` counters.
    robust: object | None = None
    #: End-to-end latencies (commit time - arrival time) of committed
    #: transactions, in arrival order — feeds the latency histogram.
    txn_latencies: list[float] = field(default_factory=list)
    #: Individual commit-wait interval durations (time spent between a
    #: program's last operation finishing and its commit being granted).
    commit_wait_durations: list[float] = field(default_factory=list)
    #: Sum of the commit-wait intervals above.
    total_commit_wait_time: float = 0.0
    #: Per-object :class:`repro.obs.conflict.ConflictProfile` snapshots
    #: taken at the end of the run, when the scheduler tracks them.
    conflict_profiles: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Committed transactions per unit time."""
        return self.committed / self.makespan if self.makespan > 0 else 0.0

    @property
    def mean_response_time(self) -> float:
        """Average latency of committed transactions."""
        return self.total_response_time / self.committed if self.committed else 0.0

    @property
    def effective_concurrency(self) -> float:
        """Mean number of operations in service: busy time over makespan.

        The higher the table's potential for concurrency, the more
        operations overlap and the higher this index.
        """
        return self.total_service_time / self.makespan if self.makespan > 0 else 0.0

    @property
    def blocking_ratio(self) -> float:
        """Blocked time as a fraction of total transaction time."""
        busy = self.total_service_time + self.total_blocked_time
        return self.total_blocked_time / busy if busy > 0 else 0.0

    def summary(self) -> str:
        """One-line report used by benches and examples."""
        exhausted = (
            f" restarts_exhausted={self.restarts_exhausted}"
            if self.restarts_exhausted
            else ""
        )
        return (
            f"makespan={self.makespan:.2f} committed={self.committed} "
            f"aborted={self.aborted} restarts={self.restarts}{exhausted} "
            f"throughput={self.throughput:.3f} "
            f"concurrency={self.effective_concurrency:.2f} "
            f"blocked={self.total_blocked_time:.2f} "
            f"(AD={self.scheduler.ad_edges} CD={self.scheduler.cd_edges} "
            f"ND={self.scheduler.nd_pairs})"
        )

    def latency_summary(self) -> str:
        """One-line latency footer: e2e quantiles plus a phase breakdown.

        The quantiles come from the log2-bucketed histogram (so they match
        what ``repro report`` prints from a trace); the phase percentages
        split total transaction time into service, blocked, and
        commit-wait shares.
        """
        from repro.obs.latency import histogram_of

        histogram = histogram_of(self.txn_latencies)
        busy = (
            self.total_service_time
            + self.total_blocked_time
            + self.total_commit_wait_time
        )
        if busy > 0:
            phases = (
                f"service={100.0 * self.total_service_time / busy:.0f}% "
                f"blocked={100.0 * self.total_blocked_time / busy:.0f}% "
                f"commit_wait={100.0 * self.total_commit_wait_time / busy:.0f}%"
            )
        else:
            phases = "service=0% blocked=0% commit_wait=0%"
        return f"latency: {histogram.summary()} | phases: {phases}"

    def to_registry(self, registry=None):
        """Export the run into a :class:`repro.obs.registry.MetricsRegistry`.

        Scheduler counters become counters, the derived observables become
        gauges, and the blocked-interval durations populate a fixed-bound
        histogram — ready for JSON or Prometheus text rendering.
        """
        from repro.obs.registry import MetricsRegistry, publish_counters

        registry = registry if registry is not None else MetricsRegistry()
        registry.counter("txns", "Transactions by final status.",
                         labels={"status": "committed"}).inc(self.committed)
        registry.counter("txns", "Transactions by final status.",
                         labels={"status": "aborted"}).inc(self.aborted)
        registry.counter("restarts", "Involuntary-abort restarts.").inc(
            self.restarts
        )
        registry.counter(
            "restarts_exhausted",
            "Programs that hit the restart ceiling and finished aborted.",
        ).inc(self.restarts_exhausted)
        if self.robust is not None:
            publish_counters(registry, "robust", self.robust)
        publish_counters(registry, "scheduler", self.scheduler)
        if self.execution_cache is not None:
            cache = self.execution_cache.stats()
            publish_counters(registry, "execution_cache", cache)
            registry.gauge(
                "execution_cache_size",
                "Entries currently held by the execution cache.",
            ).set(cache.size)
        registry.gauge("makespan", "Time of the last event of the run.").set(
            self.makespan
        )
        registry.gauge("throughput", "Committed transactions per unit time.").set(
            self.throughput
        )
        registry.gauge(
            "effective_concurrency", "Mean operations in service."
        ).set(self.effective_concurrency)
        registry.gauge(
            "blocking_ratio", "Blocked time over busy time."
        ).set(self.blocking_ratio)
        registry.gauge(
            "mean_response_time", "Average committed-transaction latency."
        ).set(self.mean_response_time)
        blocked = registry.histogram(
            "blocked_time",
            bounds=(0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0),
            help="Blocked-interval durations (sim-time units).",
        )
        for duration in self.blocked_durations:
            blocked.observe(duration)
        if self.txn_latencies:
            from repro.obs.latency import histogram_of

            recorder_histogram = histogram_of(self.txn_latencies)
            target = registry.histogram(
                "txn_latency",
                bounds=tuple(
                    bound
                    for bound, _count in recorder_histogram.bucket_counts()
                ) or (1.0,),
                help="End-to-end committed-transaction latencies.",
            )
            for duration in self.txn_latencies:
                target.observe(duration)
        registry.gauge(
            "total_commit_wait_time",
            "Sum of commit-wait interval durations.",
        ).set(self.total_commit_wait_time)
        for name, profile in sorted(self.conflict_profiles.items()):
            labels = {"object": name}
            registry.counter(
                "conflict_requests", "Operation requests per object.",
                labels=labels,
            ).inc(profile.total.requests)
            registry.counter(
                "conflict_blocks", "Blocked operations per object.",
                labels=labels,
            ).inc(profile.total.blocks)
            registry.counter(
                "conflict_aborts", "Aborts attributed per object.",
                labels=labels,
            ).inc(profile.total.aborts)
            registry.gauge(
                "conflict_rate", "Recent-window block rate per object.",
                labels=labels,
            ).set(profile.conflict_rate)
        return registry
