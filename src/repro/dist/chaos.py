"""Distributed chaos campaigns: message storms and replicated failover.

Both campaigns sweep their matrix through the campaign kernel
(:func:`repro.robust.chaos.sweep_matrix`), which builds one report cell
per ADT × axis point and ANDs the cell verdicts into ``passed``.

:func:`run_dist_chaos` sweeps **shard count × fault mix × seed**: each
cell runs one full cluster under a seeded
:class:`~repro.robust.faults.FaultPlan` whose message-level fault
points batter the bus (drops, duplicates, reorders, delays, partitions
— plus node crashes in the ``dist`` mix), then audits the stitched
global history with :func:`repro.dist.audit.audit_global`.  Its
optional protocol crash sweep is a second matrix over shard counts.

:func:`run_replication_chaos` sweeps **shard count × seed** over
replica groups; each cell runs five dependent scenarios (nominal,
primary kill, partition-then-heal, dueling-primary fencing, replica
storm), each with its own gates.

Everything is seeded and clock-free, so the reports are
**byte-stable**: the same matrix and mixes produce the identical JSON
byte-for-byte (asserted by the CI ``dist-chaos-smoke`` and
``replication-chaos-smoke`` jobs, which run each campaign twice and
compare).  Each cell embeds a SHA-256 digest of the full transcript
repr, so even sub-field drift between two runs is loud.
"""

from __future__ import annotations

from repro.cc.workload import Workload
from repro.robust.chaos import (
    campaign_workload,
    digest,
    spec_dict,
    sweep_matrix,
)
from repro.robust.faults import FaultPlan, FaultSpec

from repro.dist.audit import audit_global
from repro.dist.cluster import Cluster
from repro.dist.crash import dist_crash_sweep

__all__ = [
    "DEFAULT_MIXES",
    "run_dist_chaos",
    "run_replication_chaos",
]


def DEFAULT_MIXES() -> dict[str, FaultSpec | None]:
    """The standard fault mixes: fault-free, message-only, and full.

    A factory (not a constant) so every campaign gets fresh spec
    instances; ``None`` means no fault plan at all — the control column
    that must match an empty-plan run bit-for-bit.
    """
    return {
        "baseline": None,
        "messages": FaultSpec.message_storm(),
        "dist": FaultSpec.dist_storm(),
    }


def _committed(transcript) -> list[int]:
    """The gtxns a cluster transcript committed, in transcript order."""
    return [
        gtxn for gtxn, status in transcript.statuses if status == "COMMITTED"
    ]


def run_dist_chaos(
    adts: dict[str, tuple],
    shard_counts: tuple[int, ...] = (1, 2),
    seeds: tuple[int, ...] = (1991,),
    mixes: dict[str, FaultSpec | None] | None = None,
    policy: str = "optimistic",
    transactions: int = 6,
    operations: int = 3,
    crash_sweep_enabled: bool = False,
) -> dict:
    """Run the distributed chaos matrix; returns the JSON-ready report.

    ``adts`` maps ADT name to ``(adt, table)``.  The report's
    ``"passed"`` field is the CI gate: every cell's stitched history
    serializable, AD/CD contract intact, and nothing left in doubt.
    ``crash_sweep_enabled`` additionally runs the exhaustive
    :func:`~repro.dist.crash.dist_crash_sweep` per (ADT, shard count)
    and folds its verdict in.
    """
    mixes = DEFAULT_MIXES() if mixes is None else mixes

    def storm(adt, table, shards: int, mix: str, seed: int):
        spec = mixes[mix]
        plan = None if spec is None else FaultPlan(seed, spec)
        cluster = Cluster(
            adt, table, shards=shards, policy=policy, fault_plan=plan
        )
        transcript = cluster.run(
            campaign_workload(adt, transactions, operations, seed), seed=seed
        )
        audit = audit_global(cluster)
        return {
            "digest": digest(transcript),
            "committed": _committed(transcript),
            "final_states": [list(pair) for pair in transcript.final_states],
            "audit": audit.to_dict(),
            "faults": None if plan is None else plan.report(),
            "dist": dict(transcript.dist_stats),
        }, audit.passed

    cells, passed = sweep_matrix(
        adts,
        {"shards": shard_counts, "mix": sorted(mixes), "seed": seeds},
        storm,
    )
    report = {
        "matrix": {
            "adts": sorted(adts),
            "shard_counts": list(shard_counts),
            "mixes": {
                name: spec_dict(mixes[name]) for name in sorted(mixes)
            },
            "seeds": list(seeds),
            "policy": policy,
            "transactions": transactions,
            "operations": operations,
        },
        "cells": cells,
    }
    if crash_sweep_enabled:

        def sweep(adt, table, shards: int):
            result = dist_crash_sweep(
                adt,
                table,
                campaign_workload(adt, transactions, operations, seeds[0]),
                shards=shards,
                policy=policy,
                seed=seeds[0],
            )
            return result.to_dict(), result.passed

        report["crash_sweeps"], swept = sweep_matrix(
            adts, {"shards": shard_counts}, sweep
        )
        passed = passed and swept
    report["passed"] = passed
    return report


class _KillPrimariesOnce:
    """A crash schedule that kills each listed primary exactly once.

    Fires at the first 2PC-adjacent protocol point (an operation apply,
    a PREPARE log, or a decision apply) each primary reaches, so every
    shard loses its primary mid-protocol — the worst moment — exactly
    once per campaign run.  Deterministic: the fire set depends only on
    the run's own protocol point order.
    """

    POINT_KINDS = ("op", "prepare", "decide")

    def __init__(self, names) -> None:
        self.remaining = set(names)
        self.fired: list[tuple[str, str]] = []

    def fire(self, actor: str, label: str) -> bool:
        if (
            actor in self.remaining
            and label.split(":")[0] in self.POINT_KINDS
        ):
            self.remaining.discard(actor)
            self.fired.append((actor, label))
            return True
        return False


def _replication_cell_report(cluster: Cluster, gates: dict) -> dict:
    """Common per-scenario evidence: audit, loss, fencing, stats."""
    audit = audit_global(cluster)
    committed = sorted(
        gtxn
        for gtxn, status in cluster.gstatus.items()
        if status == "COMMITTED"
    )
    # Zero committed-transaction loss: every decision the coordinator
    # durably logged as commit must have survived as COMMITTED.
    lost = sorted(
        gtxn
        for gtxn in cluster.coordinator.committed
        if cluster.gstatus.get(gtxn) != "COMMITTED"
    )
    fencing = (
        cluster.replication.fencing_violations()
        if cluster.replication is not None
        else []
    )
    gates = dict(gates)
    gates["audit"] = audit.passed
    gates["no_committed_loss"] = not lost
    gates["single_primary_per_epoch"] = not fencing
    stats = cluster.stats
    return {
        "gates": gates,
        "passed": all(gates.values()),
        "committed": committed,
        "lost_commits": lost,
        "fencing_violations": fencing,
        "audit_violations": list(audit.violations),
        "view_changes": stats.view_changes,
        "fenced_messages": stats.fenced_messages,
        "replication": (
            cluster.replication.lag_report()
            if cluster.replication is not None
            else {}
        ),
    }


def run_replication_chaos(
    adts: dict[str, tuple],
    shard_counts: tuple[int, ...] = (2,),
    seeds: tuple[int, ...] = (1991,),
    policy: str = "blocking",
    transactions: int = 10,
    operations: int = 3,
    replicas: int = 2,
    goodput_floor: float = 0.5,
    storm_intensity: float = 0.05,
) -> dict:
    """The replicated-failover chaos campaign; returns a JSON-ready report.

    Five scenarios per (ADT, shard count, seed) over ``replicas``-wide
    replica groups, each gated:

    ``nominal``
        Fault-free replicated run: the goodput reference; must audit
        clean, be transcript-identical across two runs (byte stability),
        and finish with every backup's watermark at the primary's log.
    ``primary_kill``
        Every primary killed exactly once mid-protocol
        (:class:`_KillPrimariesOnce`).  Gates: a view change per shard,
        committed work at least ``goodput_floor`` of nominal, zero
        committed-transaction loss, clean audit, and the
        single-primary-per-epoch fencing certificate.
    ``partition_heal``
        Two :meth:`~repro.dist.cluster.Cluster.run` segments on one
        cluster — the first half of the programs, then the rest — with
        a long coordinator↔primary partition opened between them: the
        heartbeat detector falsely suspects the (alive) primary and
        fails over; the partition then heals and serving converges.
    ``duel_fence``
        After the partition failover, a message stamped with the deposed
        epoch is injected and pumped: it must be *fenced* (rejected),
        not applied, and settled statuses must be unaffected.
    ``replica_storm``
        :meth:`~repro.robust.faults.FaultSpec.replication_storm` —
        message faults, primary crashes *and* backup crashes — twice,
        with byte-identical reports and a clean audit both times.

    Every scenario's stitched history must pass
    :func:`~repro.dist.audit.audit_global`; the report's ``"passed"``
    is the CI gate.
    """

    def replicated(adt, table, shards, crash_schedule=None, plan=None):
        return Cluster(
            adt, table, shards=shards, policy=policy, fault_plan=plan,
            crash_schedule=crash_schedule, replicas=replicas,
        )

    def cell(adt, table, shards: int, seed: int):
        workload = campaign_workload(adt, transactions, operations, seed)
        scenarios = {}

        # -- nominal: the goodput reference ----------------------------
        nominal_cluster = replicated(adt, table, shards)
        nominal = nominal_cluster.run(workload, seed=seed)
        rerun = replicated(adt, table, shards).run(workload, seed=seed)
        nominal_committed = len(_committed(nominal))
        caught_up = all(
            backup["lag"] == 0
            for shard in nominal_cluster.replication.lag_report().values()
            for backup in shard["backups"].values()
        )
        scenarios["nominal"] = _replication_cell_report(
            nominal_cluster,
            {
                "deterministic": nominal == rerun,
                "backups_caught_up": caught_up,
            },
        )
        scenarios["nominal"]["digest"] = digest(nominal)

        # -- primary_kill: every primary dies mid-protocol -------------
        schedule = _KillPrimariesOnce(
            node.name for node in nominal_cluster.nodes
        )
        kill_cluster = replicated(adt, table, shards, crash_schedule=schedule)
        kill_committed = len(_committed(kill_cluster.run(workload, seed=seed)))
        floor = int(goodput_floor * nominal_committed)
        scenarios["primary_kill"] = _replication_cell_report(
            kill_cluster,
            {
                "all_primaries_killed": not schedule.remaining,
                "failover_per_shard":
                    kill_cluster.stats.view_changes >= shards,
                "goodput": kill_committed >= floor,
            },
        )
        scenarios["primary_kill"]["killed"] = [
            list(pair) for pair in schedule.fired
        ]
        scenarios["primary_kill"]["committed_vs_nominal"] = [
            kill_committed, nominal_committed,
        ]

        # -- partition_heal: false suspicion, then healing -------------
        part_cluster = replicated(adt, table, shards)
        half = transactions // 2
        part_cluster.run(Workload(workload.programs[:half]), seed=seed)
        link = (part_cluster.coordinator.name, part_cluster.nodes[0].name)
        part_cluster.bus.open_partition(frozenset(link), 200.0)
        part_cluster.run(Workload(workload.programs[half:]), seed=seed)
        scenarios["partition_heal"] = _replication_cell_report(
            part_cluster,
            {
                "failed_over": part_cluster.stats.view_changes >= 1,
                "all_settled": all(
                    status in ("COMMITTED", "ABORTED")
                    for status in part_cluster.gstatus.values()
                ),
            },
        )

        # -- duel_fence: the deposed view's message bounces ------------
        bus = part_cluster.bus
        before = dict(part_cluster.gstatus)
        fenced_before = part_cluster.stats.fenced_messages
        stamp, bus.epoch_stamp = bus.epoch_stamp, None
        try:
            bus.send(
                part_cluster.coordinator.name,
                part_cluster.nodes[0].name,
                "decide",
                payload={"decision": "abort", "_epoch": 0},
            )
            bus._pump("~duel", "", bus.now)
        finally:
            bus.epoch_stamp = stamp
        scenarios["duel_fence"] = _replication_cell_report(
            part_cluster,
            {
                "stale_message_fenced":
                    part_cluster.stats.fenced_messages > fenced_before,
                "statuses_unaffected": dict(part_cluster.gstatus) == before,
            },
        )

        # -- replica_storm: full fault mix, twice, byte-stable ---------
        spec = FaultSpec.replication_storm(storm_intensity)
        storm_digests = []
        storm_reports = []
        for _ in range(2):
            storm_cluster = replicated(
                adt, table, shards, plan=FaultPlan(seed, spec)
            )
            storm_digests.append(
                digest(storm_cluster.run(workload, seed=seed))
            )
            storm_reports.append(_replication_cell_report(storm_cluster, {}))
        storm_report = storm_reports[0]
        storm_report["gates"]["deterministic"] = (
            storm_digests[0] == storm_digests[1]
            and storm_reports[0] == storm_reports[1]
        )
        storm_report["passed"] = all(storm_report["gates"].values())
        storm_report["digest"] = storm_digests[0]
        scenarios["replica_storm"] = storm_report

        passed = all(s["passed"] for s in scenarios.values())
        return {"scenarios": scenarios, "passed": passed}, passed

    cells, passed = sweep_matrix(
        adts, {"shards": shard_counts, "seed": seeds}, cell
    )
    return {
        "matrix": {
            "adts": sorted(adts),
            "shard_counts": list(shard_counts),
            "seeds": list(seeds),
            "policy": policy,
            "transactions": transactions,
            "operations": operations,
            "replicas": replicas,
            "goodput_floor": goodput_floor,
            "storm_intensity": storm_intensity,
        },
        "cells": cells,
        "passed": passed,
    }
