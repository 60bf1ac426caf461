"""Invariant monitor: transparency, detection, and the degradation ladder."""

import pytest

from repro.adts.account import AccountSpec
from repro.cc.harness import drive
from repro.cc.reference import ReferenceScheduler
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.errors import InvariantViolationError
from repro.obs.events import DegradedMode, InvariantViolated
from repro.obs.tracers import RecordingTracer
from repro.robust import DecisionLog, MonitoredScheduler, RobustStats


@pytest.fixture(scope="module")
def adt():
    return AccountSpec()


@pytest.fixture(scope="module")
def table(adt):
    return derive(adt).final_table


@pytest.fixture(scope="module")
def workload(adt):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=6, operations_per_transaction=3, seed=29,
            abort_probability=0.2,
        ),
    )


def monitored(policy="optimistic", tracer=None, **kwargs):
    stats = kwargs.pop("stats", None) or RobustStats()
    scheduler = MonitoredScheduler(
        TableDrivenScheduler(policy=policy, tracer=tracer),
        log=DecisionLog(),
        robust_stats=stats,
        **kwargs,
    )
    return scheduler, stats


def seed_contention(scheduler, adt):
    """Two overlapping transactions with executed operations."""
    deposit = adt.invocations_of("Deposit")[1]
    withdraw = adt.invocations_of("Withdraw")[1]
    t0 = scheduler.begin()
    t1 = scheduler.begin()
    assert scheduler.request(t0, "obj", deposit).executed
    assert scheduler.request(t1, "obj", withdraw).executed
    return t0, t1


def corrupt_shadow(scheduler, txn):
    """Plant a wrong maintained state in the live shadow index."""
    shadow = scheduler.inner.shadow_index()
    shadow._objects["obj"].excluding[txn] = ("garbage",)


class TestTransparency:
    @pytest.mark.parametrize("policy", ["optimistic", "blocking"])
    def test_clean_run_is_bit_identical_and_audited(
        self, adt, table, workload, policy
    ):
        plain = drive(
            TableDrivenScheduler(policy=policy), adt, table, workload
        )
        scheduler, stats = monitored(policy=policy, check_interval=2)
        assert drive(scheduler, adt, table, workload) == plain
        assert stats.invariant_checks > 0
        assert stats.invariant_violations == 0
        assert stats.degradations == 0
        assert not scheduler.degraded

    def test_check_interval_sets_the_cadence(self, adt, table, workload):
        every, every_stats = monitored(check_interval=1)
        sparse, sparse_stats = monitored(check_interval=5)
        drive(every, adt, table, workload)
        drive(sparse, adt, table, workload)
        assert every_stats.invariant_checks > sparse_stats.invariant_checks

    def test_check_interval_validated(self):
        with pytest.raises(ValueError):
            monitored(check_interval=0)


class TestDetection:
    def test_clean_scheduler_passes_every_invariant(self, adt, table):
        scheduler, _ = monitored()
        scheduler.register_object("obj", adt, table)
        seed_contention(scheduler, adt)
        assert scheduler.check_invariants() == []

    def test_shadow_corruption_is_named(self, adt, table):
        scheduler, _ = monitored()
        scheduler.register_object("obj", adt, table)
        t0, _ = seed_contention(scheduler, adt)
        corrupt_shadow(scheduler, t0)
        failures = scheduler.check_invariants()
        assert [invariant for invariant, _ in failures] == ["shadow_freshness"]

    def test_dependency_cycle_is_named(self, adt, table):
        scheduler, _ = monitored()
        scheduler.register_object("obj", adt, table)
        seed_contention(scheduler, adt)

        class Cyclic:
            def edges(self):
                return {(0, 1): "AD", (1, 0): "CD"}

        scheduler.inner.dependency_graph = lambda: Cyclic()
        failures = scheduler.check_invariants()
        assert [invariant for invariant, _ in failures] == ["acyclicity"]

    def test_tampered_committed_return_breaks_serializability(
        self, adt, table
    ):
        import dataclasses

        from repro.spec.returnvalue import result_only

        scheduler, _ = monitored()
        scheduler.register_object("obj", adt, table)
        t0, _ = seed_contention(scheduler, adt)
        assert scheduler.try_commit(t0).committed
        transaction = scheduler.transaction(t0)
        transaction.records[0] = dataclasses.replace(
            transaction.records[0], returned=result_only(-999)
        )
        failures = dict(scheduler.check_invariants())
        assert "serializability" in failures


class TestDegradationLadder:
    def test_quarantine_rebuild_repairs_the_fast_path(self, adt, table):
        tracer = RecordingTracer()
        scheduler, stats = monitored(tracer=tracer, max_recoveries=2)
        scheduler.register_object("obj", adt, table)
        t0, _ = seed_contention(scheduler, adt)
        corrupt_shadow(scheduler, t0)

        scheduler.enforce()

        assert stats.invariant_violations == 1
        assert stats.recoveries == 1
        assert stats.degradations == 0
        assert not scheduler.degraded
        assert len(tracer.of_type(InvariantViolated)) == 1
        assert scheduler.check_invariants() == []

    def test_exhausted_rebuilds_degrade_to_reference(self, adt, table):
        tracer = RecordingTracer()
        scheduler, stats = monitored(tracer=tracer, max_recoveries=1)
        scheduler.register_object("obj", adt, table)
        t0, t1 = seed_contention(scheduler, adt)

        corrupt_shadow(scheduler, t0)
        scheduler.enforce()  # rung 1: rebuild spends the only recovery
        corrupt_shadow(scheduler, t0)
        scheduler.enforce()  # rung 2: replay into the reference scheduler

        assert scheduler.degraded
        assert isinstance(scheduler.inner, ReferenceScheduler)
        assert stats.degradations == 1
        degraded_events = tracer.of_type(DegradedMode)
        assert [event.reason for event in degraded_events] == [
            "shadow_freshness"
        ]

        # The degraded scheduler keeps serving the run to completion...
        assert scheduler.try_commit(t0).committed
        assert scheduler.try_commit(t1).committed

        # ...with bit-parity against a pure reference execution.
        oracle = ReferenceScheduler()
        oracle.register_object("obj", adt, table)
        seed_contention(oracle, adt)
        assert oracle.try_commit(0).committed
        assert oracle.try_commit(1).committed
        assert (
            scheduler.object("obj").state() == oracle.object("obj").state()
        )

    def test_persistent_corruption_raises(self, adt, table):
        scheduler, stats = monitored(max_recoveries=1)
        scheduler.register_object("obj", adt, table)
        seed_contention(scheduler, adt)
        # Authoritative-state corruption: no rebuild or replay can repair
        # a check that keeps failing.
        scheduler._check_acyclicity = lambda: "forced corruption"

        with pytest.raises(InvariantViolationError):
            scheduler.enforce()
        assert scheduler.degraded
        assert stats.degradations == 1
        assert stats.recoveries == 1

    def test_tainted_log_blocks_degradation(self, adt, table):
        import dataclasses

        # A corruption that slips between two audits can poison a
        # *logged* decision.  The degraded replay then rightly refuses to
        # vouch for the recorded history: the ladder must end in
        # InvariantViolationError naming the tainted log, not in a raw
        # RecoveryError escaping from the replay.
        scheduler, stats = monitored(max_recoveries=0)
        scheduler.register_object("obj", adt, table)
        t0, _ = seed_contention(scheduler, adt)
        target = next(
            index
            for index, record in enumerate(scheduler.log.records)
            if record.kind == "request"
        )
        scheduler.log.records[target] = dataclasses.replace(
            scheduler.log.records[target], returned="ReturnValue(bogus)"
        )
        corrupt_shadow(scheduler, t0)

        with pytest.raises(InvariantViolationError, match="tainted"):
            scheduler.enforce()
        assert not scheduler.degraded
        assert stats.degradations == 0

    def test_counters_flow_into_the_registry(self, adt, table):
        from repro.obs.registry import MetricsRegistry, publish_counters

        scheduler, stats = monitored(max_recoveries=2)
        scheduler.register_object("obj", adt, table)
        t0, _ = seed_contention(scheduler, adt)
        corrupt_shadow(scheduler, t0)
        scheduler.enforce()

        registry = MetricsRegistry()
        publish_counters(registry, "robust", stats)
        rendered = registry.render_json()
        assert '"robust_invariant_violations": 1' in rendered
        assert '"robust_recoveries": 1' in rendered


class TestMonitoredReincarnation:
    def test_crash_recovery_keeps_the_monitor_config(self, adt, table):
        stats = RobustStats()
        scheduler, _ = monitored(check_interval=3, stats=stats)
        scheduler.register_object("obj", adt, table)
        t0, t1 = seed_contention(scheduler, adt)

        reborn = scheduler.reincarnate()
        assert isinstance(reborn, MonitoredScheduler)
        assert reborn.check_interval == 3
        assert reborn.robust_stats is stats
        assert reborn.try_commit(t0).committed
        assert reborn.try_commit(t1).committed
