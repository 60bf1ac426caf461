"""Deterministic fault injection: seeded plans consulted at named points.

The schedulers and drivers in this repository are deterministic by
design, so failures can be too: a :class:`FaultPlan` is a pure function
of ``(seed, spec)`` and the sequence of fault points the run consults.
Re-running the same workload with the same plan reproduces every
injected fault — spurious aborts, operation failures, delayed commits,
execution-cache poisoning and scheduler crashes — byte for byte, which
is what makes chaos reports diffable and chaos regressions bisectable.

Fault points are *named*; the drivers consult the plan at exactly these
points, in a deterministic order:

``spurious_abort``
    Before a transaction issues an operation: the transaction is aborted
    as if an operator or an external failure detector killed it.
``op_failure``
    Before an operation executes: the execution fails transiently and
    the program retries later (exercising retry paths, not atomicity).
``commit_delay``
    Before a commit attempt: the attempt is postponed, widening the
    window in which other transactions conflict with a finished one.
``cache_poison``
    Between events: the scheduler's :class:`~repro.perf.cache.ExecutionCache`
    is force-evicted or an entry is corrupted (the invariant monitor's
    corruption-detection target).
``crash``
    Between events: the scheduler "process" dies; with a
    :class:`~repro.robust.decision_log.DecisionLog` attached the driver
    recovers by replay, otherwise the crash point is skipped.

The distributed layer (:mod:`repro.dist`) adds *message-level* fault
points, consulted by the :class:`~repro.dist.bus.SimBus` per sent
message:

``msg_drop`` / ``msg_duplicate`` / ``msg_delay`` / ``msg_reorder``
    The message is silently dropped, enqueued twice, delayed by a
    bounded seeded amount, or jittered past later sends (reordered).
``partition``
    A bidirectional network partition opens between the coordinator and
    a seeded-chosen node for ``partition_duration`` sim-time units;
    messages crossing it in either direction are dropped until it heals.

Every fault point owns a **private RNG stream** seeded as
``f"{seed}:{kind}"``, so consulting one point never perturbs another:
adding message faults to a spec leaves the five scheduler-level streams
byte-identical (the PR 4 determinism contract), and an all-zero rate
draws nothing at all.  An all-zero :class:`FaultSpec` produces a falsy
plan; every consultation site is guarded with ``if plan:``, so
fault-free runs never draw from any RNG and remain bit-identical to
runs without a plan at all.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field

__all__ = [
    "FAULT_KINDS",
    "MESSAGE_FAULT_KINDS",
    "REPLICA_FAULT_KINDS",
    "FaultRecord",
    "FaultSpec",
    "FaultPlan",
    "RobustStats",
]

#: The named scheduler-level fault points, in a stable order used by reports.
FAULT_KINDS = (
    "spurious_abort",
    "op_failure",
    "commit_delay",
    "cache_poison",
    "crash",
)

#: The named message-level fault points consulted by the SimBus.
MESSAGE_FAULT_KINDS = (
    "msg_drop",
    "msg_duplicate",
    "msg_delay",
    "msg_reorder",
    "partition",
)

#: The named replication-level fault points consulted by the replication
#: manager at cluster boundaries.  A separate tuple (and therefore a
#: separate set of private RNG streams) so enabling replica faults
#: leaves every pre-existing plan's schedule byte-identical.
REPLICA_FAULT_KINDS = ("replica_crash",)


@dataclass(frozen=True)
class FaultSpec:
    """Rates and caps of one fault campaign (all rates are per consult).

    The spec is immutable and hashable so ``(seed, spec)`` fully
    identifies a plan; :meth:`FaultPlan.report` embeds both.
    """

    spurious_abort_rate: float = 0.0
    op_failure_rate: float = 0.0
    commit_delay_rate: float = 0.0
    cache_poison_rate: float = 0.0
    crash_rate: float = 0.0
    #: Message-level rates, consulted by the SimBus per sent message.
    msg_drop_rate: float = 0.0
    msg_duplicate_rate: float = 0.0
    msg_delay_rate: float = 0.0
    msg_reorder_rate: float = 0.0
    partition_rate: float = 0.0
    #: Sim-time delay applied to a delayed commit / failed operation retry.
    commit_delay: float = 1.0
    op_failure_retry_delay: float = 0.25
    #: Bound of the seeded extra latency of a delayed message.
    msg_delay_max: float = 2.0
    #: Bound of the seeded jitter that reorders a message past later sends.
    msg_reorder_window: float = 0.5
    #: Sim-time a partition stays open before healing.
    partition_duration: float = 5.0
    #: Hard caps: a campaign never exceeds these, whatever the rates say.
    max_faults: int = 1_000
    max_crashes: int = 2
    max_partitions: int = 4
    #: Replication-level rate, consulted once per backup per boundary.
    replica_crash_rate: float = 0.0
    max_replica_crashes: int = 2

    def __post_init__(self) -> None:
        for name in (
            "spurious_abort_rate",
            "op_failure_rate",
            "commit_delay_rate",
            "cache_poison_rate",
            "crash_rate",
            "msg_drop_rate",
            "msg_duplicate_rate",
            "msg_delay_rate",
            "msg_reorder_rate",
            "partition_rate",
            "replica_crash_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {rate}")

    @property
    def is_empty(self) -> bool:
        """Whether every rate is zero (the plan will never fire)."""
        return not (
            self.spurious_abort_rate
            or self.op_failure_rate
            or self.commit_delay_rate
            or self.cache_poison_rate
            or self.crash_rate
            or self.replica_crash_rate
            or self.has_message_faults
        )

    @property
    def has_message_faults(self) -> bool:
        """Whether any message-level rate is non-zero (bus consults pay off)."""
        return bool(
            self.msg_drop_rate
            or self.msg_duplicate_rate
            or self.msg_delay_rate
            or self.msg_reorder_rate
            or self.partition_rate
        )

    @classmethod
    def storm(cls, intensity: float = 0.05) -> "FaultSpec":
        """A balanced everything-on campaign scaled by ``intensity``."""
        return cls(
            spurious_abort_rate=intensity,
            op_failure_rate=intensity,
            commit_delay_rate=intensity,
            cache_poison_rate=intensity / 2,
            crash_rate=intensity / 2,
        )

    @classmethod
    def message_storm(cls, intensity: float = 0.05) -> "FaultSpec":
        """A message-level-only campaign scaled by ``intensity``."""
        return cls(
            msg_drop_rate=intensity,
            msg_duplicate_rate=intensity,
            msg_delay_rate=intensity,
            msg_reorder_rate=intensity,
            partition_rate=intensity / 4,
        )

    @classmethod
    def dist_storm(cls, intensity: float = 0.05) -> "FaultSpec":
        """Message faults plus node crashes: the distributed chaos mix."""
        return cls(
            msg_drop_rate=intensity,
            msg_duplicate_rate=intensity,
            msg_delay_rate=intensity,
            msg_reorder_rate=intensity,
            partition_rate=intensity / 4,
            crash_rate=intensity / 2,
        )

    @classmethod
    def replication_storm(cls, intensity: float = 0.05) -> "FaultSpec":
        """The dist storm plus seeded backup crashes: the replication mix."""
        return cls(
            msg_drop_rate=intensity,
            msg_duplicate_rate=intensity,
            msg_delay_rate=intensity,
            msg_reorder_rate=intensity,
            partition_rate=intensity / 4,
            crash_rate=intensity / 2,
            replica_crash_rate=intensity,
        )


@dataclass(frozen=True)
class FaultRecord:
    """One injected fault, in injection order."""

    index: int  #: 0-based injection sequence number
    kind: str
    txn: int = -1
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "txn": self.txn,
            "detail": self.detail,
        }


@dataclass
class RobustStats:
    """Counters of the robustness layer, shared by plans and monitors.

    One instance is threaded through the :class:`FaultPlan`, the
    :class:`~repro.robust.monitor.MonitoredScheduler` and the recovery
    path of a run (the :class:`~repro.cc.scheduler.SchedulerStats`
    pattern), then exported as ``robust_*`` counters by
    :func:`~repro.obs.registry.publish_counters` — which is what
    ``simulate --metrics-format`` shows.
    """

    faults_injected: int = 0
    #: Per-kind injection counts (keys from :data:`FAULT_KINDS`, plus
    #: each message or replica kind once it fires); exported as
    #: ``robust_faults{kind}`` over every kind.
    faults_by_kind: dict = field(
        default_factory=lambda: {kind: 0 for kind in FAULT_KINDS},
        metadata={
            "keys": FAULT_KINDS + MESSAGE_FAULT_KINDS + REPLICA_FAULT_KINDS
        },
    )
    #: Crash recoveries plus fast-path rebuilds after a violation.
    recoveries: int = 0
    invariant_checks: int = 0
    invariant_violations: int = 0
    degradations: int = 0


class FaultPlan:
    """A seeded, reproducible schedule of fault injections.

    Every fault point owns a private ``random.Random(f"{seed}:{kind}")``
    stream (string seeds hash through SHA-512, so streams are stable
    across processes and Python versions); a consult of a point with a
    non-zero rate draws exactly one uniform variate *from that point's
    stream*, so the injection schedule is a deterministic function of
    ``(seed, spec)`` and the (deterministic) consult sequence of the run
    — and consulting one point never perturbs another.  That per-point
    isolation is what lets the distributed bus add message-level
    consults without changing where the five scheduler-level points
    fire.  Consults of zero-rate points draw nothing, which is what
    keeps an all-zero spec bit-identical to running without a plan.

    Truthiness: a plan is falsy when its spec is empty, so hot paths can
    guard with ``if plan:`` and pay a single branch in fault-free runs.
    """

    def __init__(
        self,
        seed: int,
        spec: FaultSpec | None = None,
        stats: RobustStats | None = None,
    ) -> None:
        self.seed = seed
        self.spec = spec if spec is not None else FaultSpec.storm()
        self.stats = stats if stats is not None else RobustStats()
        self.records: list[FaultRecord] = []
        self._streams = {
            kind: random.Random(f"{seed}:{kind}")
            for kind in FAULT_KINDS + MESSAGE_FAULT_KINDS + REPLICA_FAULT_KINDS
        }
        self._crashes = 0
        self._partitions = 0
        self._replica_crashes = 0

    def __bool__(self) -> bool:
        return not self.spec.is_empty

    # ------------------------------------------------------------------
    # Fault points
    # ------------------------------------------------------------------

    def spurious_abort(self, txn: int) -> bool:
        """Should ``txn`` be spuriously aborted before its next operation?"""
        return self._fires("spurious_abort", self.spec.spurious_abort_rate, txn)

    def op_failure(self, txn: int) -> bool:
        """Should the next operation execution fail transiently?"""
        return self._fires("op_failure", self.spec.op_failure_rate, txn)

    def commit_delay(self, txn: int) -> float | None:
        """Delay to impose on the commit attempt, or ``None``."""
        if self._fires(
            "commit_delay",
            self.spec.commit_delay_rate,
            txn,
            detail=f"+{self.spec.commit_delay}",
        ):
            return self.spec.commit_delay
        return None

    def cache_poison(self) -> str | None:
        """Cache fault to inject now: ``"evict"``, ``"corrupt"`` or ``None``.

        The mode itself is part of the seeded schedule (a second draw,
        from the point's own stream, made only when the point fires).
        """
        if not self._may_fire("cache_poison", self.spec.cache_poison_rate):
            return None
        mode = "evict" if self._streams["cache_poison"].random() < 0.5 else "corrupt"
        self._record("cache_poison", detail=mode)
        return mode

    def crash(self) -> bool:
        """Should the scheduler crash now?  Capped by ``max_crashes``."""
        if self._crashes >= self.spec.max_crashes:
            return False
        if not self._may_fire("crash", self.spec.crash_rate):
            return False
        self._crashes += 1
        self._record("crash")
        return True

    # ------------------------------------------------------------------
    # Message-level fault points (consulted by the SimBus per send)
    # ------------------------------------------------------------------

    def msg_drop(self, detail: str = "") -> bool:
        """Should this message be silently dropped?"""
        return self._fires("msg_drop", self.spec.msg_drop_rate, -1, detail)

    def msg_duplicate(self, detail: str = "") -> bool:
        """Should this message be delivered twice?"""
        return self._fires(
            "msg_duplicate", self.spec.msg_duplicate_rate, -1, detail
        )

    def msg_delay(self, detail: str = "") -> float | None:
        """Extra bounded latency for this message, or ``None``.

        The amount is a second seeded draw from the point's own stream,
        made only when the point fires, scaled by ``msg_delay_max``.
        """
        if not self._may_fire("msg_delay", self.spec.msg_delay_rate):
            return None
        delay = self._streams["msg_delay"].random() * self.spec.msg_delay_max
        self._record("msg_delay", detail=f"{detail}+{delay:.6f}".strip("+"))
        return delay

    def msg_reorder(self, detail: str = "") -> float | None:
        """Jitter that pushes this message past later sends, or ``None``."""
        if not self._may_fire("msg_reorder", self.spec.msg_reorder_rate):
            return None
        jitter = (
            self._streams["msg_reorder"].random() * self.spec.msg_reorder_window
        )
        self._record("msg_reorder", detail=f"{detail}+{jitter:.6f}".strip("+"))
        return jitter

    def partition(self, choices: int) -> tuple[int, float] | None:
        """Open a partition now?  ``(seeded choice, duration)`` or ``None``.

        ``choices`` is the number of candidate links; the pick is a
        second draw from the point's own stream.  Capped by
        ``max_partitions``.
        """
        if choices <= 0 or self._partitions >= self.spec.max_partitions:
            return None
        if not self._may_fire("partition", self.spec.partition_rate):
            return None
        pick = min(
            int(self._streams["partition"].random() * choices), choices - 1
        )
        self._partitions += 1
        duration = self.spec.partition_duration
        self._record("partition", detail=f"link={pick} duration={duration}")
        return pick, duration

    # ------------------------------------------------------------------
    # Replication-level fault points (consulted at cluster boundaries)
    # ------------------------------------------------------------------

    def replica_crash(self, choices: int) -> int | None:
        """Crash a backup replica now?  Seeded victim index or ``None``.

        ``choices`` is the number of live backups; the pick is a second
        draw from the point's own stream (the :meth:`partition`
        pattern).  Capped by ``max_replica_crashes``.  The point owns a
        private stream, so plans without ``replica_crash_rate`` never
        draw from it and stay bit-identical to pre-replication runs.
        """
        if choices <= 0 or self._replica_crashes >= self.spec.max_replica_crashes:
            return None
        if not self._may_fire("replica_crash", self.spec.replica_crash_rate):
            return None
        pick = min(
            int(self._streams["replica_crash"].random() * choices), choices - 1
        )
        self._replica_crashes += 1
        self._record("replica_crash", detail=f"backup={pick}")
        return pick

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(self) -> dict:
        """A JSON-ready account of the campaign (deterministic field order)."""
        return {
            "seed": self.seed,
            "spec": asdict(self.spec),
            "faults_injected": self.stats.faults_injected,
            "faults_by_kind": dict(self.stats.faults_by_kind),
            "records": [record.to_dict() for record in self.records],
        }

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _may_fire(self, kind: str, rate: float) -> bool:
        """One draw from ``kind``'s stream against ``rate`` (no draw for
        zero rates, so untouched points stay byte-identical)."""
        if rate <= 0.0:
            return False
        if self.stats.faults_injected >= self.spec.max_faults:
            return False
        return self._streams[kind].random() < rate

    def _fires(self, kind: str, rate: float, txn: int, detail: str = "") -> bool:
        if not self._may_fire(kind, rate):
            return False
        self._record(kind, txn=txn, detail=detail)
        return True

    def _record(self, kind: str, txn: int = -1, detail: str = "") -> None:
        self.records.append(
            FaultRecord(
                index=self.stats.faults_injected,
                kind=kind,
                txn=txn,
                detail=detail,
            )
        )
        self.stats.faults_injected += 1
        self.stats.faults_by_kind[kind] = (
            self.stats.faults_by_kind.get(kind, 0) + 1
        )
