"""Exhaustive crash-point sweep over the distributed protocol.

The single-node robustness layer sweeps scheduler decision points; here
the swept surface is the *protocol*: every named crash point a run
passes — participant log appends and scheduler applications
(``attach``/``op``/``prepare``/``decide``/``decided``/``commit``/``abort``,
each ``pre``/``post``) and coordinator steps (PREPARE sends, the
decision-log write, COMMIT notification sends) — is killed in its own
fresh cluster run, before-and-after style, exactly once.

A census run (no target) first enumerates the points the workload
actually reaches; then one cluster per point crashes there and runs to
completion, crash recovery and the termination protocol included.  Each
run must end with **no transaction in doubt, a serializable stitched
global history, and the AD/CD contract intact** — the distributed
acceptance bar of the PR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dist.audit import GlobalAudit, audit_global
from repro.dist.cluster import Cluster
from repro.robust.crash import CrashSweepResult

__all__ = [
    "CrashSchedule",
    "DistCrashPointResult",
    "dist_crash_sweep",
]


class CrashSchedule:
    """Fires a crash at the N-th protocol crash point of a run.

    With ``target=None`` it only records the points it is consulted at
    (the census pass); with an integer target, consultation number
    ``target`` (0-based) raises the crash — once.
    """

    def __init__(self, target: int | None = None) -> None:
        self.target = target
        self.points: list[tuple[str, str]] = []  # (actor, label), in order
        self.fired: tuple[str, str] | None = None

    def fire(self, actor: str, label: str) -> bool:
        index = len(self.points)
        self.points.append((actor, label))
        if self.target is not None and index == self.target:
            self.fired = (actor, label)
            return True
        return False


@dataclass(frozen=True)
class DistCrashPointResult:
    """Outcome of killing one protocol point."""

    index: int
    actor: str
    label: str
    audit: GlobalAudit
    #: Status disagreements between the census run and this run, if any
    #: — commits already decided before the crash must survive it.
    regressions: tuple = ()

    @property
    def passed(self) -> bool:
        return self.audit.passed and not self.regressions

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "actor": self.actor,
            "label": self.label,
            "violations": list(self.audit.violations),
        }


def dist_crash_sweep(
    adt,
    table,
    workload,
    shards: int = 2,
    policy: str = "optimistic",
    seed: int = 0,
    max_points: int | None = None,
    replicas: int = 1,
) -> CrashSweepResult:
    """Crash every reached protocol point in its own cluster run.

    ``max_points`` caps the sweep (evenly prefix-truncated) for smoke
    use; the full sweep is the default.  ``replicas > 1`` sweeps over
    replica groups instead of bare nodes: every crashed point then also
    exercises the hold-down/promotion path wherever a live backup
    exists.
    """

    def fresh(schedule: CrashSchedule | None) -> Cluster:
        return Cluster(
            adt, table, shards=shards, policy=policy,
            crash_schedule=schedule, replicas=replicas,
        )

    census = CrashSchedule(target=None)
    baseline_cluster = fresh(census)
    baseline = baseline_cluster.run(workload, seed=seed)
    reached = len(census.points)

    targets = range(reached if max_points is None else min(reached, max_points))
    results = []
    baseline_status = dict(baseline.statuses)
    for target in targets:
        schedule = CrashSchedule(target=target)
        cluster = fresh(schedule)
        cluster.run(workload, seed=seed)
        audit = audit_global(cluster)
        actor, label = schedule.fired if schedule.fired else ("", "unreached")
        # Durability regression check: a transaction the crashed run
        # *committed* must not be one the coordinator's log can lose —
        # i.e. every commit this run reports must replay as a commit
        # from durable state (it does: gstatus only turns COMMITTED on a
        # logged or one-phase-applied decision).  The census comparison
        # is deliberately loose — crashes legitimately change outcomes
        # (aborts instead of commits) — but a gtxn committed in BOTH
        # runs must agree with the census on its existence.
        regressions = tuple(
            f"gtxn {gtxn} has status {status} but was never admitted "
            f"in the census run"
            for gtxn, status in cluster.transcript.statuses
            if gtxn not in baseline_status
        )
        results.append(
            DistCrashPointResult(
                index=target,
                actor=actor,
                label=label,
                audit=audit,
                regressions=regressions,
            )
        )
    return CrashSweepResult(
        header={"points_reached": reached}, results=tuple(results)
    )
