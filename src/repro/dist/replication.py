"""Per-shard primary/backup replication with deterministic failover.

Each shard's :class:`~repro.dist.node.ParticipantNode` becomes the
primary of a **replica group**: the primary ships its
:class:`~repro.robust.decision_log.DecisionLog` records to ``N - 1``
seeded backups, and a deterministic heartbeat failure detector drives an
**epoch-numbered view change** that promotes the most-caught-up backup
when the primary stays unreachable.  The replication channel is the
durable log itself, not the :class:`~repro.dist.bus.SimBus`: recovery
is deterministic replay of that log, so a backup needs the records
*applied*, not messaged, and :meth:`ReplicaGroup.ship` hands each live
backup the primary's records past its ``applied`` count directly
(:meth:`BackupReplica.receive`, a verified replay of every record).  The
channel neither drops, delays nor reorders, so it draws nothing from the
fault plan, and ``applied`` is the one watermark: nothing is shipped
twice, so nothing is acknowledged or retransmitted.  For reporting, the
:class:`ReplicationManager` reads each live backup's ``applied`` at
every cluster turn boundary, and that reading is the group's ``acked``
watermark until the next boundary (so
:class:`~repro.obs.events.LogShipped` ``lag`` is measured against the
last boundary's reading).  Three rules make failover safe:

1. **Ship before reply.**  The primary ships every record it logged
   while handling a message *before* the reply externalizes the outcome
   (every live backup applies the tail inside the primary's handler,
   before the reply is enqueued), so no outcome is ever observable
   whose durable evidence lives only on the primary.  A
   record logged by a handler that crashed mid-call was never
   externalized, so a promoted backup missing it is consistent — the
   coordinator saw a timeout and retries or presumes abort.
2. **Name takeover.**  The promoted backup assumes the deposed
   primary's bus name (the name is the shard's *role address*), so the
   coordinator's participant lists, unacked-decision queues, the
   termination protocol, the serving backend and the global audit all
   survive failover unchanged; the deposed instance simply becomes
   unreachable.
3. **Epoch fencing.**  The :class:`ReplicationManager` installs a
   :attr:`~repro.dist.bus.SimBus.epoch_stamp` hook that stamps every
   message to a primary with the group's current epoch (re-evaluated per
   RPC retry attempt); a group member that receives a message stamped
   with an older epoch — a deposed view's in-flight 2PC PREPARE or
   decide leg, a delayed duplicate — rejects it with a ``fenced`` reply
   instead of applying it (:class:`~repro.obs.events.PrimaryFenced`).

The manager is the *driver-side control plane* — the simulation's stand
-in for a reliable external configuration service: view changes are
decided synchronously at cluster turn boundaries and epochs are
installed directly on the surviving members, so no protocol message can
ever race a view change.  Backups that crash (the
:meth:`~repro.robust.faults.FaultPlan.replica_crash` fault point) are
revived at the next boundary by **state transfer** from the primary's
durable log — the log is disk, readable even while the primary process
itself is down — which is what keeps every promotion candidate fully
caught up by promotion time.  A backup is also **fail-stop**: one whose
verification of a shipped record fails crashes at once, and one whose
state transfer fails verification too stays down for good
(``failed_backups`` in :meth:`ReplicationManager.lag_report`).

Backups additionally serve **snapshot observer reads** at their applied
watermark (:meth:`Cluster.observer_read <repro.dist.cluster.Cluster.observer_read>`):
a pure :meth:`~repro.cc.objects.SharedObject.preview` against the
backup's replica state, traced as
:class:`~repro.obs.events.ReplicaReadServed` — the start of the
ROADMAP's replicated-read serving story.
"""

from __future__ import annotations

import itertools

from repro.errors import RecoveryError
from repro.obs.events import (
    LogShipped,
    NodeCrashed,
    NodeRecovered,
    ReplicaReadServed,
    ViewChanged,
)
from repro.obs.tracers import NULL_TRACER
from repro.robust.decision_log import (
    DecisionLog,
    LoggingScheduler,
    apply_record,
    recover,
)

from repro.dist.node import ParticipantNode
from repro.dist.stats import DistStats

__all__ = ["BackupReplica", "ReplicaGroup", "ReplicationManager"]


class BackupReplica:
    """A warm standby: an applied copy of the primary's decision log.

    The backup owns a silent (untraced) scheduler built by verified
    replay of the seeded log; every shipped record is appended and
    applied incrementally with the same
    :func:`~repro.robust.decision_log.apply_record` verification the
    crash-recovery path runs, so a diverging backup fails loudly instead
    of silently serving garbage.  ``applied`` is the replication
    watermark: the number of primary records this backup has durably
    applied, where :meth:`ReplicaGroup.ship` resumes and what the
    manager reads at every boundary.
    """

    def __init__(
        self,
        name: str,
        shard: str,
        group: "ReplicaGroup",
        log: DecisionLog,
        policy: str,
        tracer=NULL_TRACER,
        stats: DistStats | None = None,
    ) -> None:
        self.name = name
        self.shard = shard
        self.group = group
        self.policy = policy
        self.tracer = tracer
        self.stats = stats if stats is not None else DistStats()
        self.bus = None  # wired by the manager
        self.reseed(log)

    def reseed(self, log: DecisionLog) -> None:
        """(Re)build the replica state by verified replay of ``log``.

        Used at construction and for post-crash state transfer: a
        revived backup reseeds from a fork of the primary's durable log
        rather than trying to patch its lost volatile state.
        """
        self.log = log
        self.sched = recover(log, policy=self.policy)
        self.applied = len(log.records)

    def receive(self, records) -> None:
        """Append and apply the primary's records from index ``applied``.

        Every record runs :func:`~repro.robust.decision_log.apply_record`.
        A record that diverges from what this replica computes fails that
        verification inside the primary's handler, before its reply, and
        the backup fail-stops: it crashes on the bus (its half-applied
        state is never read again) and counts ``repl_verify_failures``,
        while the primary's handler carries on.  The next boundary
        reseeds it from the primary's log, or holds it down for good.
        """
        try:
            for record in records:
                self.log.records.append(record)
                apply_record(self.sched, self.log, record, self.applied)
                self.applied += 1
                self.stats.repl_records_applied += 1
        except RecoveryError:
            self.stats.repl_verify_failures += 1
            self.bus.crash(self.name)
            if self.tracer:
                self.tracer.emit(
                    NodeCrashed(time=self.bus.now, node=self.name)
                )
            return
        self.stats.repl_acks += 1

    def handle(self, message) -> None:
        """Bus endpoint: serve observer reads."""
        if message.kind == "replica-read":
            shard = message.payload["object_name"]
            invocation = message.payload["invocation"]
            returned = self.sched.object(shard).preview(invocation)
            self.stats.replica_reads += 1
            if self.tracer:
                self.tracer.emit(
                    ReplicaReadServed(
                        time=self.bus.now,
                        backup=self.name,
                        shard=shard,
                        operation=invocation.operation,
                        watermark=self.applied,
                    )
                )
            self.bus.send(
                self.name,
                message.src,
                "replica-read-reply",
                message.gtxn,
                {"returned": returned, "watermark": self.applied},
                request_id=message.request_id,
            )


class ReplicaGroup:
    """One shard's replication state: primary, backups, epoch, watermarks."""

    def __init__(self, shard: str, primary: ParticipantNode) -> None:
        self.shard = shard
        self.primary = primary
        self.backups: list[BackupReplica] = []
        self.epoch = 0
        #: Per-backup applied watermarks as the manager read them at the
        #: last boundary (reported lag is measured against these).
        self.acked: dict[str, int] = {}
        #: Consecutive missed heartbeats (reset by any answered ping).
        self.missed = 0
        #: Backups held down for good: a verified replay of the
        #: primary's log failed while reseeding them.
        self.failed: set[str] = set()
        #: ``(epoch, incarnation)`` of every non-fenced served message —
        #: the evidence behind the single-primary-per-epoch certificate.
        self.servings: set[tuple[int, int]] = set()

    def note_serve(self, incarnation: int) -> None:
        self.servings.add((self.epoch, incarnation))

    def ship(self) -> None:
        """Ship each live backup the primary's log past its ``applied``.

        Each backup applies its tail before this returns.  Called by the
        primary after handling each message, *before* the reply is
        enqueued, and by the manager at boundaries to push tails written
        outside handlers.  A backup's ``applied`` is its only shipping
        position: the channel loses nothing, and a crashed backup is
        skipped until the boundary reseeds it whole.
        """
        node = self.primary
        total = len(node.log.records)
        down = node.bus.down()
        for backup in self.backups:
            if backup.name in down:
                continue
            start = backup.applied
            if start >= total:
                continue
            batch = node.log.records[start:]
            if node.tracer:
                node.tracer.emit(
                    LogShipped(
                        time=node.bus.now,
                        primary=node.name,
                        backup=backup.name,
                        from_index=start,
                        count=len(batch),
                        lag=start - self.acked[backup.name],
                    )
                )
            node.stats.repl_records_shipped += len(batch)
            backup.receive(batch)


class ReplicationManager:
    """The driver-side control plane of every replica group.

    Modeled as a reliable external configuration service: it observes
    liveness through seeded heartbeats at cluster boundaries, decides
    view changes synchronously (no protocol message can race one), and
    installs the new epoch directly on the surviving members.  All of it
    is clock-free and seeded, so two runs of the same ``(seed, plan)``
    promote the same backups at the same boundaries.
    """

    #: Consecutive missed heartbeats before a view change is declared.
    HEARTBEAT_THRESHOLD = 2

    def __init__(self, cluster, replicas: int) -> None:
        if replicas < 1:
            raise ValueError("a replica group needs at least one member")
        self.cluster = cluster
        self.replicas = replicas
        self.stats = cluster.stats
        self.tracer = cluster.tracer
        self.groups: dict[str, ReplicaGroup] = {}
        self._incarnations = itertools.count(1)
        shard_of = {owner: shard for shard, owner in cluster.owner.items()}
        for node in cluster.nodes:
            group = ReplicaGroup(shard_of[node.name], node)
            node.group = group
            node.incarnation = next(self._incarnations)
            for index in range(1, replicas):
                self._add_backup(group, f"{node.name}b{index}", node.log)
            self.groups[node.name] = group
        cluster.bus.epoch_stamp = self._stamp

    def _stamp(self, dst: str) -> int | None:
        group = self.groups.get(dst)
        return None if group is None else group.epoch

    def _add_backup(
        self, group: ReplicaGroup, name: str, log: DecisionLog
    ) -> BackupReplica:
        backup = BackupReplica(
            name,
            group.shard,
            group,
            log.fork(),
            self.cluster.policy,
            tracer=self.tracer,
            stats=self.stats,
        )
        backup.bus = self.cluster.bus
        self.cluster.bus.register_endpoint(name, backup.handle)
        group.backups.append(backup)
        group.backups.sort(key=lambda b: b.name)
        group.acked[name] = backup.applied
        return backup

    # ------------------------------------------------------------------
    # The boundary protocol
    # ------------------------------------------------------------------

    def boundary(self, mark_aborted) -> None:
        """One control-plane round, run at every cluster turn boundary.

        In order: deliver the messages already due, read every live
        backup's applied watermark into ``acked`` (there is no per-batch
        ack message: the watermark is consumed only here, so it is read
        here), revive crashed backups by state transfer, track
        heartbeats and hold crashed primaries that have a live backup,
        promote where the miss threshold is reached, consult the
        ``replica_crash`` fault point, then ship each live primary's
        tail and observe replication lag.
        """
        cluster = self.cluster
        bus = cluster.bus
        # Replication needs no pumping (backups apply inside ``ship``),
        # but this drain also delivers every other message already due
        # under message faults — a delayed or duplicated 2PC leg, a
        # stale reply — before the heartbeats and the fault draws below,
        # so the round sees the same bus it always has.
        bus._pump("~repl-drain", "", bus.now)
        for name in sorted(self.groups):
            group = self.groups[name]
            down = bus.down()
            for backup in group.backups:
                if backup.name not in down:
                    group.acked[backup.name] = backup.applied
                    continue
                if backup.name in group.failed:
                    continue
                try:
                    backup.reseed(group.primary.log.fork())
                except RecoveryError:
                    # The primary's own log does not replay: reseeding
                    # again would fail again, so the backup stays down.
                    group.failed.add(backup.name)
                    continue
                bus.revive(backup.name)
                group.acked[backup.name] = backup.applied
                self.stats.node_recoveries += 1
                if self.tracer:
                    self.tracer.emit(
                        NodeRecovered(
                            time=bus.now,
                            node=backup.name,
                            replayed=backup.applied,
                        )
                    )
        for name in sorted(self.groups):
            group = self.groups[name]
            live = [
                b for b in group.backups if b.name not in bus.down()
            ]
            if name in bus.down():
                if not live:
                    # Nothing to fail over to: release the hold and let
                    # the ordinary revive-from-own-log path take it.
                    cluster._held.discard(name)
                    group.missed = 0
                    continue
                # Held down: the failure detector counts a direct miss
                # (no ping can reach a dead process), and the ordinary
                # revive path keeps its hands off while a failover is
                # brewing.
                cluster._held.add(name)
                group.missed += 1
                self.stats.heartbeats_missed += 1
            else:
                self.stats.heartbeats_sent += 1
                reply = bus.rpc(
                    cluster.coordinator.name, name, "ping",
                    timeout=1.0, retries=0,
                )
                if reply is None:
                    group.missed += 1
                    self.stats.heartbeats_missed += 1
                else:
                    group.missed = 0
            if group.missed >= self.HEARTBEAT_THRESHOLD and live:
                self.promote(group, mark_aborted)
        plan = cluster.plan
        if plan:
            candidates = sorted(
                backup.name
                for group in self.groups.values()
                for backup in group.backups
                if backup.name not in bus.down()
            )
            pick = plan.replica_crash(len(candidates))
            if pick is not None:
                victim = candidates[pick]
                self.stats.replica_crashes += 1
                self.stats.node_crashes += 1
                if self.tracer:
                    self.tracer.emit(
                        NodeCrashed(time=bus.now, node=victim)
                    )
                bus.crash(victim)
        for name in sorted(self.groups):
            group = self.groups[name]
            if name in bus.down():
                continue
            group.ship()
            total = len(group.primary.log.records)
            for backup in group.backups:
                cluster.latency.observe(
                    "repl_lag",
                    group.shard,
                    float(total - group.acked[backup.name]),
                )

    # ------------------------------------------------------------------
    # View change
    # ------------------------------------------------------------------

    def promote(self, group: ReplicaGroup, mark_aborted) -> None:
        """Promote the most-caught-up live backup into the primary role.

        The new epoch fences the deposed view; the promoted node takes
        over the primary's bus name (role address), rebuilds its 2PC
        protocol state from the replicated log, resolves its in-doubt
        transactions with the termination protocol, and the group is
        brought back to full strength by seeding a fresh backup (under
        the promoted replica's retired name) from the new primary's log.
        """
        cluster = self.cluster
        bus = cluster.bus
        group.epoch += 1
        group.missed = 0
        self.stats.view_changes += 1
        live = [b for b in group.backups if b.name not in bus.down()]
        best = sorted(live, key=lambda b: (-b.applied, b.name))[0]
        deposed = group.primary
        name = deposed.name
        node = ParticipantNode(
            name, policy=cluster.policy, tracer=cluster.tracer,
            stats=cluster.stats,
        )
        node.bus = bus
        node.crash_hook = cluster._crash_point
        # Adopt the promoted replica's applied scheduler and log whole —
        # no replay needed, the backup *is* the recovered state.
        best.sched.tracer = cluster.tracer
        best.sched.now = bus.now
        node.log = best.log
        node.sched = LoggingScheduler(best.sched, log=best.log)
        node.rebuild_protocol_state()
        node.group = group
        node.incarnation = next(self._incarnations)
        group.primary = node
        group.backups.remove(best)
        group.acked.pop(best.name, None)
        # The remaining backups hold prefixes of the promoted log (the
        # promoted one applied the most), so shipping resumes at each
        # one's ``applied``.
        index = cluster.nodes.index(deposed)
        cluster.nodes[index] = node
        cluster._node_by_name[name] = node
        bus.register_endpoint(name, node.handle)
        bus.revive(name)
        cluster._held.discard(name)
        in_doubt = node.in_doubt()
        if self.tracer:
            self.tracer.emit(
                ViewChanged(
                    time=bus.now,
                    shard=group.shard,
                    primary=name,
                    promoted=best.name,
                    epoch=group.epoch,
                    log_records=len(node.log.records),
                    in_doubt=len(in_doubt),
                )
            )
        cluster._terminate(node, in_doubt, mark_aborted)
        # Refill the group under the retired name: the promoted engine
        # moved into the primary, so the old endpoint must be replaced
        # (not left aliasing the primary's live scheduler).
        self._add_backup(group, best.name, node.log)

    # ------------------------------------------------------------------
    # Reads and certificates
    # ------------------------------------------------------------------

    def observer_read(self, shard: str, invocation):
        """A snapshot read served by a backup at its watermark, or ``None``.

        Returns the previewed value, or ``None`` when no live backup can
        serve (the caller falls back to the primary's preview).
        """
        cluster = self.cluster
        group = self.groups[cluster.owner[shard]]
        live = [
            b for b in group.backups if b.name not in cluster.bus.down()
        ]
        if not live:
            return None
        reply = cluster.bus.rpc(
            "driver", live[0].name, "replica-read", -1,
            {"object_name": shard, "invocation": invocation},
        )
        if reply is None:
            return None
        return reply.payload["returned"]

    def fencing_violations(self) -> list[str]:
        """Single-primary-per-epoch certificate: violations, or empty.

        Every non-fenced served message recorded ``(epoch, incarnation)``
        on its group; two incarnations serving the same epoch would mean
        a request observed two primaries in one view.
        """
        violations = []
        for name in sorted(self.groups):
            group = self.groups[name]
            per_epoch: dict[int, set[int]] = {}
            for epoch, incarnation in group.servings:
                per_epoch.setdefault(epoch, set()).add(incarnation)
            for epoch in sorted(per_epoch):
                incarnations = per_epoch[epoch]
                if len(incarnations) > 1:
                    violations.append(
                        f"{name}: epoch {epoch} served by incarnations "
                        f"{sorted(incarnations)}"
                    )
        return violations

    def lag_report(self) -> dict:
        """Per-shard replication state (report/dashboard fodder)."""
        out = {}
        for name in sorted(self.groups):
            group = self.groups[name]
            total = len(group.primary.log.records)
            out[group.shard] = {
                "primary": name,
                "epoch": group.epoch,
                "log_records": total,
                "backups": {
                    backup.name: {
                        "applied": backup.applied,
                        "acked": group.acked[backup.name],
                        "lag": total - group.acked[backup.name],
                    }
                    for backup in group.backups
                },
            }
            if group.failed:
                out[group.shard]["failed_backups"] = sorted(group.failed)
        return out
