"""Determinism and bit-parity guarantees of the fault plan."""

import json

import pytest

from repro.robust import FAULT_KINDS, FaultPlan, FaultSpec, RobustStats


def consume(plan, rounds=200):
    """A fixed consult script: what a deterministic driver would do."""
    fired = []
    for txn in range(rounds):
        if plan.spurious_abort(txn):
            fired.append(("spurious_abort", txn))
        if plan.op_failure(txn):
            fired.append(("op_failure", txn))
        delay = plan.commit_delay(txn)
        if delay is not None:
            fired.append(("commit_delay", txn))
        mode = plan.cache_poison()
        if mode:
            fired.append(("cache_poison", mode))
        if plan.crash():
            fired.append(("crash", txn))
    return fired


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(spurious_abort_rate=1.5)
        with pytest.raises(ValueError):
            FaultSpec(crash_rate=-0.1)

    def test_empty_detection(self):
        assert FaultSpec().is_empty
        assert not FaultSpec.storm().is_empty
        assert not FaultSpec(op_failure_rate=0.01).is_empty

    def test_storm_scales_with_intensity(self):
        storm = FaultSpec.storm(0.2)
        assert storm.spurious_abort_rate == 0.2
        assert storm.crash_rate == 0.1


class TestFaultPlanDeterminism:
    def test_same_seed_same_schedule(self):
        a = consume(FaultPlan(42, FaultSpec.storm(0.2)))
        b = consume(FaultPlan(42, FaultSpec.storm(0.2)))
        assert a == b
        assert a  # premise: the storm actually fires

    def test_different_seed_different_schedule(self):
        a = consume(FaultPlan(42, FaultSpec.storm(0.2)))
        b = consume(FaultPlan(43, FaultSpec.storm(0.2)))
        assert a != b

    def test_report_byte_identical_across_runs(self):
        plan_a = FaultPlan(7, FaultSpec.storm(0.1))
        plan_b = FaultPlan(7, FaultSpec.storm(0.1))
        consume(plan_a)
        consume(plan_b)
        assert json.dumps(plan_a.report(), sort_keys=True) == json.dumps(
            plan_b.report(), sort_keys=True
        )

    def test_report_embeds_seed_and_spec(self):
        plan = FaultPlan(9, FaultSpec.storm(0.1))
        consume(plan)
        report = plan.report()
        assert report["seed"] == 9
        assert report["spec"]["spurious_abort_rate"] == 0.1
        assert report["faults_injected"] == len(report["records"])


class TestBitParityGuard:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan(1, FaultSpec())
        assert FaultPlan(1, FaultSpec.storm())

    def test_zero_rate_points_never_fire_and_never_draw(self):
        plan = FaultPlan(1, FaultSpec())
        before = {k: rng.getstate() for k, rng in plan._streams.items()}
        assert consume(plan) == []
        # Bit-parity foundation: an all-zero spec draws nothing from any
        # per-point RNG stream, so guarded call sites can consult it freely.
        assert {k: rng.getstate() for k, rng in plan._streams.items()} == before
        assert plan.stats.faults_injected == 0

    def test_max_faults_caps_the_campaign(self):
        spec = FaultSpec(spurious_abort_rate=1.0, max_faults=5)
        plan = FaultPlan(3, spec)
        fired = [plan.spurious_abort(txn) for txn in range(20)]
        assert sum(fired) == 5
        assert plan.stats.faults_injected == 5

    def test_max_crashes_caps_crash_events(self):
        plan = FaultPlan(3, FaultSpec(crash_rate=1.0, max_crashes=2))
        assert [plan.crash() for _ in range(6)].count(True) == 2


class TestStreamIndependence:
    def test_message_faults_leave_scheduler_streams_byte_identical(self):
        """The PR 4 determinism contract extended to messages: adding
        message-level fault points to a spec (and consulting them) must
        not perturb the five scheduler-level per-point RNG streams."""
        import dataclasses

        base = FaultSpec.storm(0.1)
        extended = dataclasses.replace(
            base,
            msg_drop_rate=0.2,
            msg_duplicate_rate=0.2,
            msg_delay_rate=0.2,
            msg_reorder_rate=0.2,
            partition_rate=0.1,
        )
        plain = FaultPlan(42, base)
        noisy = FaultPlan(42, extended)

        plain_fired = []
        noisy_fired = []
        for txn in range(100):
            # Identical scheduler-level consult script on both plans...
            for plan, fired in ((plain, plain_fired), (noisy, noisy_fired)):
                fired.append(
                    (
                        plan.spurious_abort(txn),
                        plan.op_failure(txn),
                        plan.commit_delay(txn),
                        plan.cache_poison(),
                        plan.crash(),
                    )
                )
            # ...interleaved with message-level consults on one of them
            # (what the SimBus does between scheduler turns).
            noisy.msg_drop("a->b:op")
            noisy.msg_duplicate("a->b:op")
            noisy.msg_delay("a->b:op")
            noisy.msg_reorder("a->b:op")
            noisy.partition(2)
        assert plain_fired == noisy_fired
        for kind in FAULT_KINDS:
            assert (
                plain._streams[kind].getstate()
                == noisy._streams[kind].getstate()
            ), f"stream {kind!r} perturbed by message-fault consults"

    def test_message_points_have_private_streams(self):
        from repro.robust import MESSAGE_FAULT_KINDS

        plan = FaultPlan(1, FaultSpec.message_storm(0.5))
        before = {k: plan._streams[k].getstate() for k in FAULT_KINDS}
        for _ in range(50):
            plan.msg_drop()
            plan.msg_duplicate()
            plan.msg_delay()
            plan.msg_reorder()
            plan.partition(3)
        # Scheduler streams untouched; every consulted message stream
        # advanced.
        assert {k: plan._streams[k].getstate() for k in FAULT_KINDS} == before
        fired_kinds = {record.kind for record in plan.records}
        assert fired_kinds <= set(MESSAGE_FAULT_KINDS)
        assert plan.stats.faults_injected > 0

    def test_replica_crash_point_leaves_existing_streams_byte_identical(self):
        """The same contract extended to replication: adding (and
        consulting) the ``replica_crash`` point must not perturb any
        scheduler- or message-level stream — pre-replication plans stay
        bit-identical."""
        import dataclasses

        from repro.robust import MESSAGE_FAULT_KINDS

        base = FaultSpec.dist_storm(0.1)
        extended = dataclasses.replace(
            base, replica_crash_rate=0.3, max_replica_crashes=10
        )
        plain = FaultPlan(42, base)
        noisy = FaultPlan(42, extended)

        plain_fired = []
        noisy_fired = []
        for txn in range(100):
            for plan, fired in ((plain, plain_fired), (noisy, noisy_fired)):
                fired.append(
                    (
                        plan.spurious_abort(txn),
                        plan.crash(),
                        plan.msg_drop("a->b:op"),
                        plan.msg_delay("a->b:op"),
                        plan.partition(2),
                    )
                )
            noisy.replica_crash(2)
        assert plain_fired == noisy_fired
        for kind in FAULT_KINDS + MESSAGE_FAULT_KINDS:
            assert (
                plain._streams[kind].getstate()
                == noisy._streams[kind].getstate()
            ), f"stream {kind!r} perturbed by replica_crash consults"
        assert any(
            record.kind == "replica_crash" for record in noisy.records
        )

    def test_zero_rate_replica_crash_never_draws(self):
        plan = FaultPlan(7, FaultSpec.dist_storm(0.1))
        before = plan._streams["replica_crash"].getstate()
        for _ in range(50):
            assert plan.replica_crash(3) is None
        assert plan._streams["replica_crash"].getstate() == before


class TestCachePoison:
    def test_drive_poison_drops_the_transition_memo(self):
        # The shadow index's transition memo fronts the execution cache;
        # a cache_poison fault that left it in place would shield shadow
        # reads from the injected corruption.  Both drivers must drop it.
        from repro.adts.account import AccountSpec
        from repro.cc.harness import drive
        from repro.cc.scheduler import TableDrivenScheduler
        from repro.cc.workload import WorkloadConfig, generate
        from repro.core.methodology import derive

        adt = AccountSpec()
        workload = generate(
            adt,
            "obj",
            WorkloadConfig(
                transactions=6,
                operations_per_transaction=5,
                operation_mix={"Deposit": 1.0},
                seed=7,
            ),
        )
        plan = FaultPlan(3, FaultSpec(cache_poison_rate=0.3))
        poisons_seen = 0
        after_poison, otherwise = [], []

        def checkpoint(index, scheduler):
            nonlocal poisons_seen
            poisons = sum(r.kind == "cache_poison" for r in plan.records)
            memo = scheduler.shadow_index()._memo
            size = sum(len(per) for per in memo.values())
            (after_poison if poisons > poisons_seen else otherwise).append(size)
            poisons_seen = poisons

        drive(
            TableDrivenScheduler(policy="optimistic"),
            adt,
            derive(adt).final_table,
            workload,
            checkpoint=checkpoint,
            fault_plan=plan,
        )
        assert after_poison and all(size == 0 for size in after_poison)
        assert any(size > 0 for size in otherwise)


class TestRobustStats:
    def test_counters_by_kind_track_records(self):
        plan = FaultPlan(11, FaultSpec.storm(0.3))
        consume(plan)
        stats = plan.stats
        assert stats.faults_injected == sum(stats.faults_by_kind.values())
        assert set(stats.faults_by_kind) == set(FAULT_KINDS)

    def test_publish_exports_robust_counters(self):
        from repro.obs.registry import MetricsRegistry, publish_counters
        from repro.robust.faults import (
            MESSAGE_FAULT_KINDS,
            REPLICA_FAULT_KINDS,
        )

        stats = RobustStats(
            faults_injected=4, recoveries=2, invariant_checks=9,
            invariant_violations=1, degradations=1,
        )
        registry = MetricsRegistry()
        publish_counters(registry, "robust", stats)
        rendered = registry.render_json()
        assert '"robust_faults_injected": 4' in rendered
        assert '"robust_recoveries": 2' in rendered
        assert '"robust_degradations": 1' in rendered
        # Every fault kind exports, fired or not.
        for kind in FAULT_KINDS + MESSAGE_FAULT_KINDS + REPLICA_FAULT_KINDS:
            assert f'"robust_faults{{kind=\\"{kind}\\"}}": 0' in rendered
