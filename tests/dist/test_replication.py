"""Replica groups: log shipping, view changes, fencing, failover.

The replication layer's contracts, each tested on its own:

* **Identity at ``replicas=1``** — no manager is built, so replicated
  clusters degenerate bit-identically to the bare ones (transcript and
  frontend parity).
* **Determinism** — a fault-free replicated run and the full failover
  campaign are byte-stable across repeated runs.
* **One watermark** — after every ship each live backup has applied its
  primary's whole log, so its applied count is all the shipping position
  it needs, through view changes and replication storms.
* **Zero committed loss** — killing every primary once mid-protocol
  loses no committed transaction: the primary ships its log tail before
  any reply externalizes an outcome.
* **Fencing** — a deposed primary's stale-epoch message is rejected
  with a ``fenced`` reply, never applied, and the run certifies
  single-primary-per-epoch.
* **Termination across failover** — a coordinator crash after the
  decision log write plus a participant crash before applying the
  decision, with a backup promotion in between, still resolves the
  in-doubt transaction to the logged decision.
"""

import dataclasses
import hashlib

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.adts.registry import builtin_names, make_adt as make_builtin
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.dist import run_distributed
from repro.dist.audit import audit_global
from repro.dist.chaos import _KillPrimariesOnce, run_replication_chaos
from repro.dist.cluster import Cluster, ClusterFrontend, shard_workload
from repro.dist.replication import ReplicaGroup
from repro.experiments import golden
from repro.robust import FaultPlan, FaultSpec
from repro.robust.chaos import campaign_workload
from repro.spec.operation import Invocation


def make_adt(name):
    if name == "Account":
        return AccountSpec()
    return QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)


@pytest.fixture(scope="module", params=["Account", "QStack"])
def fixture(request):
    adt = make_adt(request.param)
    return adt, derive(adt).final_table


def workload_for(adt, seed, transactions=8):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=transactions,
            operations_per_transaction=3,
            seed=seed,
        ),
    )


def digest(transcript) -> str:
    return hashlib.sha256(repr(transcript).encode()).hexdigest()


class _LabelCrash:
    """Crash schedule keyed on exact ``(actor, label)`` points.

    Each listed point fires exactly once, the first time its actor
    reaches its label; everything else runs through.
    """

    def __init__(self, points) -> None:
        self.remaining = set(points)
        self.fired: list[tuple[str, str]] = []

    def fire(self, actor: str, label: str) -> bool:
        if (actor, label) in self.remaining:
            self.remaining.discard((actor, label))
            self.fired.append((actor, label))
            return True
        return False


class TestReplicasOneParity:
    @pytest.mark.parametrize("policy", ["optimistic", "blocking"])
    def test_transcript_identical_to_bare_cluster(self, fixture, policy):
        adt, table = fixture
        workload = workload_for(adt, 7)
        bare = run_distributed(
            adt, table, workload, shards=2, policy=policy, seed=7
        )
        replicated = run_distributed(
            adt, table, workload, shards=2, policy=policy, seed=7, replicas=1
        )
        assert replicated == bare
        assert digest(replicated) == digest(bare)

    def test_frontend_transcript_identical(self, fixture):
        adt, table = fixture
        workload = workload_for(adt, 11)

        def serve(replicas):
            cluster = Cluster(
                adt, table, shards=2, policy="blocking", replicas=replicas
            )
            frontend = ClusterFrontend(cluster)
            assignments = shard_workload(workload, cluster.shard_names, 11)
            for index, program in enumerate(workload.programs):
                gtxn = frontend.begin()
                aborted = False
                for step_index, step in enumerate(program.steps):
                    decision = frontend.request(
                        gtxn, assignments[index][step_index], step.invocation
                    )
                    if decision.aborted:
                        aborted = True
                        break
                if aborted:
                    continue
                if program.voluntary_abort:
                    frontend.abort(gtxn, "voluntary")
                else:
                    frontend.try_commit(gtxn)
            frontend.finalize()
            return dict(cluster.gstatus), dict(cluster.gstamps)

        assert serve(1) == serve(2) == serve(1)


class TestDeterminism:
    def test_fault_free_replicated_run_is_bit_identical(self, fixture):
        adt, table = fixture
        workload = workload_for(adt, 1991)

        def run():
            cluster = Cluster(
                adt, table, shards=2, policy="blocking", replicas=2
            )
            transcript = cluster.run(workload, seed=1991)
            return cluster, transcript

        first_cluster, first = run()
        second_cluster, second = run()
        assert first == second
        assert digest(first) == digest(second)
        assert (
            first_cluster.replication.lag_report()
            == second_cluster.replication.lag_report()
        )

    def test_empty_fault_plan_is_bit_identical_across_runs(self, fixture):
        adt, table = fixture
        workload = workload_for(adt, 1991)

        def run():
            cluster = Cluster(
                adt,
                table,
                shards=2,
                policy="blocking",
                replicas=2,
                fault_plan=FaultPlan(1991, FaultSpec()),
            )
            return cluster.run(workload, seed=1991)

        assert digest(run()) == digest(run())

    def test_backups_fully_caught_up_after_fault_free_run(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=3)
        cluster.run(workload_for(adt, 5), seed=5)
        for shard, row in cluster.replication.lag_report().items():
            for backup in row["backups"].values():
                assert backup["lag"] == 0
                assert backup["applied"] == row["log_records"]


class TestWatermarks:
    """Log records reach backups off the bus and no batch is acked; the
    manager reads each live backup's applied watermark at every
    boundary."""

    #: Per-shard log lengths of the fault-free seed-5 runs below, as
    #: the per-batch-ack protocol reported them.
    LOG_RECORDS = {"Account": (91, 46), "QStack": (70, 52)}

    @staticmethod
    def sent_kinds(cluster) -> list:
        """The kind of every message the cluster's bus sends from now on."""
        kinds = []
        send = cluster.bus.send

        def counting(src, dst, kind, *args, **kwargs):
            kinds.append(kind)
            return send(src, dst, kind, *args, **kwargs)

        cluster.bus.send = counting
        return kinds

    def test_fault_free_run_sends_no_ack(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=3)
        kinds = self.sent_kinds(cluster)
        cluster.run(workload_for(adt, 5), seed=5)
        # Backups apply the log directly: neither a batch nor an ack
        # crosses the bus.
        assert "replicate" not in kinds
        assert "replicate-ack" not in kinds
        assert cluster.stats.repl_acks > 0  # applied batches still count
        expected = {}
        for index, records in enumerate(self.LOG_RECORDS[adt.name]):
            expected[f"shard{index}"] = {
                "primary": f"node{index}",
                "epoch": 0,
                "log_records": records,
                "backups": {
                    f"node{index}b{b}": {
                        "applied": records, "acked": records, "lag": 0,
                    }
                    for b in (1, 2)
                },
            }
        assert cluster.replication.lag_report() == expected

    def test_tampered_record_fails_in_ship_before_the_reply(self):
        # Every shipped record is verified as it reaches a backup: a
        # record whose logged return value the backup's own replay does
        # not reproduce fails inside ship(), before the primary enqueues
        # its reply.  The backup fail-stops there: it is crashed and
        # counted, and the primary's handler carries on.
        adt = AccountSpec()
        cluster = Cluster(
            adt, derive(adt).final_table, shards=1, policy="blocking",
            replicas=2,
        )
        primary = cluster.nodes[0]
        group = primary.group
        ship = group.ship

        def tamper_then_ship():
            records = primary.log.records
            last = records[-1]
            if last.kind == "request" and last.outcome == "executed":
                records[-1] = dataclasses.replace(last, returned="'tampered'")
            ship()

        group.ship = tamper_then_ship
        kinds = self.sent_kinds(cluster)
        frontend = ClusterFrontend(cluster)
        gtxn = frontend.begin()
        balance = Invocation(operation="Balance", args=())
        frontend.request(gtxn, cluster.shard_names[0], balance)
        assert kinds == ["op", "op-reply"]
        (backup,) = group.backups
        assert backup.name in cluster.bus.down()
        assert cluster.stats.repl_verify_failures == 1
        diverged = len(backup.log.records)
        assert backup.applied == diverged - 1
        # A down backup is skipped: a second request neither raises nor
        # hands it the diverging record again.
        frontend.request(frontend.begin(), cluster.shard_names[0], balance)
        assert len(backup.log.records) == diverged
        assert cluster.stats.repl_verify_failures == 1
        # The primary's own log now fails a verified replay, so the
        # boundary's state transfer fails too: the backup is held down
        # for good, named in the lag report, and never reseeded again.
        reseeds = []
        reseed = backup.reseed
        backup.reseed = lambda log: reseeds.append(log) or reseed(log)
        for _ in range(2):
            frontend.tick_boundary()
        assert len(reseeds) == 1
        assert backup.name in cluster.bus.down()
        (row,) = cluster.replication.lag_report().values()
        assert row["failed_backups"] == [backup.name]

    def test_backup_crashed_between_boundaries_catches_up(self, fixture):
        adt, table = fixture
        # A backup crashed at one boundary stays down until the next,
        # missing the batches its primary logs meanwhile; that boundary
        # revives it by state transfer, and the run ends fully caught up.
        cluster = Cluster(
            adt, table, shards=2, policy="blocking", replicas=3,
            fault_plan=FaultPlan(3, FaultSpec(replica_crash_rate=0.3)),
        )
        cluster.run(workload_for(adt, 3), seed=3)
        assert cluster.stats.replica_crashes == 2
        assert cluster.stats.node_recoveries == 2
        assert cluster.stats.view_changes == 0
        # A live backup's boundary reading is never behind what it
        # applied, so nothing is re-shipped.
        for row in cluster.replication.lag_report().values():
            for backup in row["backups"].values():
                assert backup["lag"] == 0
                assert backup["applied"] == row["log_records"]


class TestOneWatermark:
    """Every ``ReplicaGroup.ship`` leaves each live backup at its
    primary's log length, so a backup's ``applied`` count is all the
    shipping position it needs.  Checked after every ship, across view
    changes (every primary killed once) and replication storms (message
    faults, primary and backup crashes), for every built-in ADT."""

    @pytest.mark.parametrize("shards", [2, 3])
    @pytest.mark.parametrize("name", builtin_names())
    def test_every_ship_leaves_live_backups_caught_up(
        self, monkeypatch, name, shards
    ):
        adt = make_builtin(name)
        table = derive(adt).final_table
        ship = ReplicaGroup.ship
        positions = []

        def checked_ship(group):
            ship(group)
            down = group.primary.bus.down()
            total = len(group.primary.log.records)
            positions.extend(
                (backup.name, backup.applied, total)
                for backup in group.backups
                if backup.name not in down
            )

        monkeypatch.setattr(ReplicaGroup, "ship", checked_ship)
        view_changes = replica_crashes = 0
        for seed in (1991, 3):
            workload = campaign_workload(adt, 10, 3, seed)
            kill = Cluster(
                adt, table, shards=shards, policy="blocking", replicas=3,
                crash_schedule=_KillPrimariesOnce(
                    f"node{i}" for i in range(shards)
                ),
            )
            kill.run(workload, seed=seed)
            assert kill.stats.view_changes >= shards
            storm = Cluster(
                adt, table, shards=shards, policy="blocking", replicas=3,
                fault_plan=FaultPlan(seed, FaultSpec.replication_storm()),
            )
            storm.run(workload, seed=seed)
            view_changes += kill.stats.view_changes + storm.stats.view_changes
            replica_crashes += storm.stats.replica_crashes
        assert positions
        assert [p for p in positions if p[1] != p[2]] == []
        assert view_changes > 0 and replica_crashes > 0


class TestFailover:
    def run_with_kills(self, adt, table, seed):
        cluster = Cluster(
            adt,
            table,
            shards=2,
            policy="blocking",
            replicas=2,
            crash_schedule=_KillPrimariesOnce(
                [f"node{i}" for i in range(2)]
            ),
        )
        transcript = cluster.run(workload_for(adt, seed, 10), seed=seed)
        return cluster, transcript

    def test_kill_every_primary_loses_no_commit(self, fixture):
        adt, table = fixture
        cluster, _ = self.run_with_kills(adt, table, 1991)
        assert cluster.crash_schedule.remaining == set()
        assert cluster.stats.view_changes == 2
        audit = audit_global(cluster)
        assert audit.passed, audit.violations
        lost = [
            gtxn
            for gtxn in cluster.coordinator.committed
            if cluster.gstatus.get(gtxn) != "COMMITTED"
        ]
        assert lost == []
        assert cluster.replication.fencing_violations() == []

    def test_failover_run_is_deterministic(self, fixture):
        adt, table = fixture
        _, first = self.run_with_kills(adt, table, 1991)
        _, second = self.run_with_kills(adt, table, 1991)
        assert digest(first) == digest(second)


class TestFencing:
    def test_stale_epoch_message_is_fenced_not_applied(self, fixture):
        adt, table = fixture
        cluster, _ = TestFailover().run_with_kills(adt, table, 1991)
        group = cluster.replication.groups["node0"]
        assert group.epoch >= 1
        statuses_before = dict(cluster.gstatus)
        fenced_before = cluster.stats.fenced_messages
        bus = cluster.bus
        stamp, bus.epoch_stamp = bus.epoch_stamp, None
        try:
            # A deposed epoch-0 primary's decision leg arrives late.
            bus.send(
                cluster.coordinator.name,
                "node0",
                "decide",
                payload={"decision": "abort", "_epoch": 0},
            )
            bus._pump("~fence-test", "", bus.now)
        finally:
            bus.epoch_stamp = stamp
        assert cluster.stats.fenced_messages == fenced_before + 1
        assert dict(cluster.gstatus) == statuses_before
        assert cluster.replication.fencing_violations() == []

    def test_current_epoch_messages_are_served(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        cluster.run(workload_for(adt, 3), seed=3)
        assert cluster.stats.fenced_messages == 0
        for group in cluster.replication.groups.values():
            assert {epoch for epoch, _ in group.servings} <= {group.epoch}


class TestTerminationAcrossFailover:
    def test_in_doubt_txn_resolves_to_logged_decision(self, fixture):
        """Coordinator dies right after logging the decision; the
        participant dies right before applying it; a backup is promoted
        in between.  The termination protocol must land the logged
        decision on the promoted primary — never a divergent one."""
        adt, table = fixture
        schedule = _LabelCrash(
            {
                ("coord", "decision:post-log"),
                ("node0", "decided:pre-log"),
            }
        )
        cluster = Cluster(
            adt,
            table,
            shards=2,
            policy="blocking",
            replicas=2,
            crash_schedule=schedule,
        )
        cluster.run(workload_for(adt, 1991, 10), seed=1991)
        assert ("coord", "decision:post-log") in schedule.fired
        assert cluster.stats.view_changes >= 1
        audit = audit_global(cluster)
        assert audit.passed, audit.violations
        assert audit.in_doubt == ()
        for gtxn in cluster.coordinator.committed:
            assert cluster.gstatus.get(gtxn) == "COMMITTED"


class TestObserverReads:
    def observer_invocation(self, adt):
        name = "Balance" if adt.name == "Account" else "Top"
        return Invocation(operation=name, args=())

    def test_replica_read_matches_primary_preview(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        cluster.run(workload_for(adt, 7), seed=7)
        invocation = self.observer_invocation(adt)
        for shard in cluster.shard_names:
            served = cluster.observer_read(shard, invocation)
            assert served == cluster._shard_object(shard).preview(invocation)
        assert cluster.stats.replica_reads == 2

    def test_falls_back_to_primary_without_live_backup(self, fixture):
        adt, table = fixture
        cluster = Cluster(adt, table, shards=2, policy="blocking", replicas=2)
        cluster.run(workload_for(adt, 7), seed=7)
        for group in cluster.replication.groups.values():
            for backup in group.backups:
                cluster.bus.crash(backup.name)
        invocation = self.observer_invocation(adt)
        served = cluster.observer_read("shard0", invocation)
        assert served == cluster._shard_object("shard0").preview(invocation)


class TestCampaign:
    def test_campaign_passes_and_is_byte_stable(self):
        adt = AccountSpec()
        adts = {"Account": (adt, derive(adt).final_table)}
        first = run_replication_chaos(adts, transactions=8)
        second = run_replication_chaos(adts, transactions=8)
        assert first == second
        assert first["passed"], [
            {
                name: scenario["gates"]
                for name, scenario in cell["scenarios"].items()
                if not scenario["passed"]
            }
            for cell in first["cells"]
            if not cell["passed"]
        ]
        kill = first["cells"][0]["scenarios"]["primary_kill"]
        assert kill["gates"]["all_primaries_killed"]
        assert kill["gates"]["no_committed_loss"]
        assert kill["gates"]["single_primary_per_epoch"]

    def test_single_shard_is_rejected(self):
        # On one shard the partition heals before the heartbeat detector
        # misses twice, so partition_heal could never fail over.
        adt = AccountSpec()
        adts = {"Account": (adt, derive(adt).final_table)}
        with pytest.raises(ValueError, match="at least 2 shards"):
            run_replication_chaos(adts, shard_counts=(1,))
