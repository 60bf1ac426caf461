"""Atomicity under message storms: seeded reproducers and an audit sweep.

Two defects surfaced by the blocking-policy ``dist_storm`` matrix:

* a participant whose prepared leg was rolled back by a presumed abort
  (the termination protocol's answer while the coordinator had not yet
  decided) re-voted ``yes`` from its prepared cache on a later PREPARE,
  so the coordinator committed a global transaction with an aborted
  leg and the stitched history had no serial order;
* a late ``query-reply`` delivered to a node while the coordinator was
  pumping crashed the run with an unknown-message error.

Each defect has a cluster-level reproducer (the seed that found it) and
a node-level one; the sweep runs the whole seeded matrix that found
them.
"""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.workload import Workload, WorkloadConfig, generate
from repro.core.methodology import derive
from repro.dist import Cluster, audit_global
from repro.dist.bus import Message, SimBus
from repro.dist.node import ParticipantNode
from repro.experiments import golden
from repro.robust import FaultPlan, FaultSpec
from repro.robust.chaos import campaign_workload
from repro.spec.operation import Invocation


@pytest.fixture(scope="module")
def adts():
    account = AccountSpec()
    qstack = QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)
    return {
        "Account": (account, derive(account).final_table),
        "QStack": (qstack, derive(qstack).final_table),
    }


def storm_run(adts, name, seed):
    """Two blocking shards under ``dist_storm``, 8 txns × 3 ops."""
    adt, table = adts[name]
    cluster = Cluster(
        adt, table, shards=2, policy="blocking",
        fault_plan=FaultPlan(seed, FaultSpec.dist_storm()),
    )
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=8, operations_per_transaction=3, seed=seed
        ),
    )
    cluster.run(workload, seed=seed)
    return cluster


def prepared_node(adts):
    """A node holding one prepared leg of gtxn 0 on an Account shard."""
    adt, table = adts["Account"]
    node = ParticipantNode("node0", policy="blocking")
    node.bus = SimBus()
    node.bus.register_endpoint(node.name, node.handle)
    node.register_object("shard0", adt, table)
    op = Message(
        src="coord", dst="node0", kind="op", gtxn=0,
        payload={
            "op_seq": 0,
            "object_name": "shard0",
            "invocation": Invocation("Deposit", (1,)),
        },
    )
    node.handle(op)
    node.handle(Message(src="coord", dst="node0", kind="prepare", gtxn=0))
    assert node.prepared[0]["decided"] == ""
    return node


def replies(node, kind):
    return [
        message.payload
        for _at, _seq, message in sorted(node.bus._queue)
        if message.kind == kind
    ]


class TestNoCommitAfterPresumedAbort:
    @pytest.mark.parametrize("name, seed", [("Account", 23), ("QStack", 100)])
    def test_storm_history_stays_serializable(self, adts, name, seed):
        cluster = storm_run(adts, name, seed)
        audit = audit_global(cluster)
        assert audit.passed, audit.violations

    def test_prepare_after_presumed_abort_votes_no(self, adts):
        node = prepared_node(adts)
        # The termination protocol's presumed-abort answer rolls the
        # prepared leg back; a later PREPARE must not re-vote yes.
        node.apply_decision(0, "abort")
        node.handle(Message(src="coord", dst="node0", kind="prepare", gtxn=0))
        votes = [reply["vote"] for reply in replies(node, "prepare-reply")]
        assert votes == ["yes", "no"]

    def test_prepare_after_commit_still_votes_yes(self, adts):
        node = prepared_node(adts)
        node.apply_decision(0, "commit")
        node.handle(Message(src="coord", dst="node0", kind="prepare", gtxn=0))
        votes = [reply["vote"] for reply in replies(node, "prepare-reply")]
        assert votes == ["yes", "yes"]


class TestLateQueryReply:
    # Seed 27 found the crash; seed 150 still delivers a late reply to
    # a node under the frontend-scripted drive.
    @pytest.mark.parametrize("seed", [27, 150])
    def test_storm_run_completes_and_audits(self, adts, seed):
        cluster = storm_run(adts, "QStack", seed)
        assert audit_global(cluster).passed

    def test_node_drops_a_late_query_reply_as_stale(self, adts):
        node = prepared_node(adts)
        before = node.stats.stale_replies
        node.handle(
            Message(
                src="coord", dst="node0", kind="query-reply", gtxn=0,
                payload={"decision": "abort"},
            )
        )
        assert node.stats.stale_replies == before + 1
        assert node.prepared[0]["decided"] == ""


@pytest.mark.parametrize("name", ["Account", "QStack"])
@pytest.mark.parametrize("seed", range(1, 41))
def test_blocking_storm_sweep_audits(adts, name, seed):
    cluster = storm_run(adts, name, seed)
    audit = audit_global(cluster)
    assert audit.passed, audit.violations


@pytest.mark.parametrize(
    "name, seed", [("Account", 1991), ("Account", 3), ("QStack", 3)]
)
def test_two_runs_on_one_cluster_audit_as_one_history(adts, name, seed):
    """A second :meth:`Cluster.run` continues the cluster-wide commit
    stamps and operation sequence numbers the audit orders the stitched
    history by; restarting them at 0 lets a later commit sort before an
    earlier one, and the audit finds no serial order."""
    adt, table = adts[name]
    workload = campaign_workload(adt, 10, 3, seed)
    cluster = Cluster(adt, table, shards=2, policy="blocking")
    cluster.run(Workload(workload.programs[:5]), seed=seed)
    cluster.run(Workload(workload.programs[5:]), seed=seed)
    audit = audit_global(cluster)
    assert audit.passed, audit.violations
    stamps = list(cluster.gstamps.values())
    assert len(set(stamps)) == len(stamps)
