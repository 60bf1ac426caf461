"""Serving over faults: determinism, terminal outcomes, no resurrection.

The PR 9 property suite:

* the empty-fault-plan contract — a hardened loop given an all-zero
  :class:`~repro.robust.faults.FaultSpec` is bit-identical to the same
  loop with no plan at all (nothing is drawn from any RNG);
* every admitted request reaches exactly one terminal outcome, under
  scheduler-level storms and under message storms plus crashes;
* no request the loop shed, expired or retired ever appears in a
  committed history — certified by ``is_serializable`` on the bare
  scheduler and by :func:`~repro.dist.audit.audit_global` on the
  cluster;
* the end-to-end campaign (:func:`repro.serve.chaos.run_serving_chaos`)
  passes its gates and renders byte-stable.
"""

import json

import pytest

from repro.adts.registry import make_adt
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.core.methodology import derive
from repro.dist.audit import audit_global
from repro.dist.cluster import Cluster, ClusterFrontend
from repro.robust import FaultPlan, FaultSpec
from repro.serve import (
    BreakerConfig,
    ClusterBackend,
    DeadlinePolicy,
    RetryPolicy,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    ShedConfig,
    generate,
    run_serving_chaos,
)

TERMINAL = ("committed", "aborted", "shed", "deadline_exceeded",
            "retries_exhausted")
SHEDDED = ("shed", "deadline_exceeded", "retries_exhausted")


@pytest.fixture(scope="module")
def qstack():
    adt = make_adt("QStack")
    return adt, derive(adt).final_table


@pytest.fixture(scope="module")
def account():
    adt = make_adt("Account")
    return adt, derive(adt).final_table


CONFIG = ServeConfig(
    sessions=5,
    requests_per_session=4,
    operations_per_request=3,
    mode="open",
    mean_interarrival=0.3,
    objects=2,
    zipf_s=1.2,
    operation_mix={"Pop": 2.0, "Push": 1.0},
    seed=1991,
)


def hardened_scheduler_loop(fixture, fault_plan=None, config=CONFIG):
    adt, table = fixture
    backend = SchedulerBackend(TableDrivenScheduler(policy="optimistic"))
    workload = generate(adt, config)
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    return ServingLoop(
        backend,
        workload,
        max_inflight=8,
        retry_aborts=True,
        max_retries=3,
        deadline=DeadlinePolicy(budget=64.0),
        retry_policy=RetryPolicy(seed=1991),
        breakers=BreakerConfig(),
        shedding=ShedConfig(queue_limit=64),
        fault_plan=fault_plan,
    )


def fingerprint(result):
    return (
        result.requests, result.committed, result.aborted, result.shed,
        result.deadline_exceeded, result.retries_exhausted, result.retries,
        result.goodput_ops, result.sim_duration, result.outcomes,
        result.breaker_transitions, result.degradation_steps,
    )


class TestEmptyPlanBitIdentity:
    def test_empty_plan_is_bit_identical_to_no_plan(self, qstack):
        bare = hardened_scheduler_loop(qstack, fault_plan=None).run()
        plan = FaultPlan(1991, FaultSpec())
        guarded = hardened_scheduler_loop(qstack, fault_plan=plan).run()
        assert fingerprint(guarded) == fingerprint(bare)
        assert plan.stats.faults_injected == 0

    def test_hardening_without_pressure_changes_no_outcomes(self, account):
        adt, table = account
        # A benign workload: commuting deposits, spread arrivals — no
        # aborts, so no retries, no trips, no backlog, no deadlines.
        benign = ServeConfig(
            sessions=4,
            requests_per_session=4,
            operations_per_request=2,
            mode="open",
            mean_interarrival=0.5,
            objects=2,
            operation_mix={"Deposit": 1.0},
            seed=1991,
        )

        def run(hardened: bool):
            backend = SchedulerBackend(
                TableDrivenScheduler(policy="blocking")
            )
            workload = generate(adt, benign)
            for name in workload.object_names:
                backend.register_object(name, adt, table)
            extras = {}
            if hardened:
                extras = dict(
                    deadline=DeadlinePolicy(budget=64.0),
                    retry_policy=RetryPolicy(seed=1991),
                    breakers=BreakerConfig(),
                    shedding=ShedConfig(queue_limit=64),
                )
            return ServingLoop(
                backend, workload, max_inflight=8, retry_aborts=True,
                max_retries=3, **extras,
            ).run()

        plain, hardened = run(False), run(True)
        # Generous budgets, untripped breakers, an empty ladder: the
        # hardened loop lands the same outcomes as the plain one.
        assert hardened.outcomes == plain.outcomes
        assert hardened.committed == plain.committed == plain.requests
        assert hardened.shed == 0
        assert hardened.deadline_exceeded == 0
        assert hardened.breaker_transitions == ()
        assert hardened.degradation_steps == ()


class TestTerminalOutcomes:
    def run_stormy(self, fixture, seed):
        plan = FaultPlan(seed, FaultSpec.storm(0.15))
        loop = hardened_scheduler_loop(fixture, fault_plan=plan)
        return loop, loop.run()

    def test_every_request_reaches_exactly_one_terminal_outcome(self, qstack):
        for seed in (1, 7, 1991):
            loop, result = self.run_stormy(qstack, seed)
            assert sum(
                getattr(result, outcome)
                if outcome != "committed" else result.committed
                for outcome in TERMINAL
            ) == result.requests
            assert len(loop.outcomes) == result.requests
            assert set(loop.outcomes.values()) <= set(TERMINAL)

    def test_storms_are_reproducible(self, qstack):
        one = self.run_stormy(qstack, 7)[1]
        two = self.run_stormy(qstack, 7)[1]
        assert fingerprint(one) == fingerprint(two)


class TestNoResurrection:
    def test_scheduler_shed_requests_never_commit(self, qstack):
        plan = FaultPlan(1991, FaultSpec.storm(0.2))
        loop = hardened_scheduler_loop(
            qstack,
            fault_plan=plan,
            config=ServeConfig(
                sessions=6,
                requests_per_session=4,
                operations_per_request=3,
                mode="open",
                mean_interarrival=0.1,
                objects=1,
                operation_mix={"Pop": 2.0, "Push": 1.0},
                seed=3,
            ),
        )
        result = loop.run()
        scheduler = loop.backend.scheduler
        shed = [
            rid for rid, outcome in loop.outcomes.items()
            if outcome in SHEDDED
        ]
        assert shed  # the storm must actually shed something
        for rid in shed:
            for txn in loop.request_txns.get(rid, ()):
                assert scheduler.transaction(txn).status.name != "COMMITTED"
        assert is_serializable(scheduler)
        assert result.committed == sum(
            1 for outcome in loop.outcomes.values() if outcome == "committed"
        )

    def test_cluster_shed_requests_never_commit(self, account):
        adt, table = account
        plan = FaultPlan(11, FaultSpec(
            msg_drop_rate=0.1,
            msg_duplicate_rate=0.1,
            msg_delay_rate=0.1,
            crash_rate=0.05,
        ))
        cluster = Cluster(
            adt, table, shards=2, policy="blocking", fault_plan=plan
        )
        backend = ClusterBackend(ClusterFrontend(cluster))
        workload = generate(
            adt,
            ServeConfig(
                sessions=5,
                requests_per_session=4,
                mode="open",
                mean_interarrival=0.3,
                objects=2,
                seed=11,
            ),
            object_names=tuple(cluster.shard_names),
        )
        loop = ServingLoop(
            backend,
            workload,
            max_inflight=6,
            retry_aborts=True,
            max_retries=3,
            deadline=DeadlinePolicy(budget=64.0),
            retry_policy=RetryPolicy(seed=11),
            breakers=BreakerConfig(),
            shedding=ShedConfig(queue_limit=64),
        )
        result = loop.run()
        assert len(loop.outcomes) == result.requests
        for rid, outcome in sorted(loop.outcomes.items()):
            if outcome not in SHEDDED:
                continue
            for gtxn in loop.request_txns.get(rid, ()):
                assert cluster.gstatus.get(gtxn) != "COMMITTED"
        audit = audit_global(cluster)
        assert audit.passed, audit.violations


class TestServingChaosCampaign:
    @pytest.fixture(scope="class")
    def report(self, qstack):
        adt, table = qstack
        return run_serving_chaos(
            {"QStack": (adt, table)}, shard_counts=(2,), seeds=(1991,)
        )

    def test_campaign_passes_its_gates(self, report):
        assert report["passed"]
        for group in report["groups"]:
            assert group["degraded_ok"]
            for cell in group["cells"].values():
                assert not cell["audit"].get("violations")

    def test_campaign_is_byte_stable(self, report, qstack):
        adt, table = qstack
        again = run_serving_chaos(
            {"QStack": (adt, table)}, shard_counts=(2,), seeds=(1991,)
        )
        assert json.dumps(report, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )
