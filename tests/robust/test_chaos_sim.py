"""Fault injection in the discrete-event simulator and chaos campaigns."""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.harness import drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.simulator import SimulationConfig, simulate
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.errors import SchedulerError
from repro.experiments import golden
from repro.obs.events import RestartsExhausted
from repro.obs.tracers import RecordingTracer
from repro.robust import (
    DecisionLog,
    FaultPlan,
    FaultSpec,
    MonitoredScheduler,
    RobustStats,
    render_report,
    run_chaos,
)


@pytest.fixture(scope="module")
def adt():
    return QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)


@pytest.fixture(scope="module")
def table(adt):
    return derive(adt).final_table


def contended_workload(adt, seed=21):
    return generate(
        adt,
        "shared",
        WorkloadConfig(
            transactions=10,
            operations_per_transaction=3,
            mean_interarrival=0.1,
            operation_mix={"Pop": 2, "Push": 2, "Deq": 1},
            seed=seed,
        ),
    )


def fingerprint(metrics):
    """The comparable essence of a run: counters and derived observables."""
    return (
        metrics.summary(),
        metrics.blocked_durations,
        metrics.restarts_exhausted,
    )


class TestBitParity:
    def test_no_plan_and_empty_plan_are_identical(self, adt, table):
        workload = contended_workload(adt)
        bare = simulate(
            SimulationConfig(adt=adt, table=table, workload=workload)
        )
        empty = simulate(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=workload,
                fault_plan=FaultPlan(99, FaultSpec()),
            )
        )
        assert fingerprint(bare) == fingerprint(empty)

    def test_same_seed_storms_are_identical(self, adt, table):
        workload = contended_workload(adt)

        def run():
            plan = FaultPlan(5, FaultSpec.storm(0.05))
            metrics = simulate(
                SimulationConfig(
                    adt=adt, table=table, workload=workload, fault_plan=plan
                )
            )
            return fingerprint(metrics), plan.report()

        first, second = run(), run()
        assert first == second

    def test_different_seed_storms_draw_different_schedules(
        self, adt, table
    ):
        workload = contended_workload(adt)
        reports = []
        for seed in (5, 6):
            plan = FaultPlan(seed, FaultSpec.storm(0.1))
            simulate(
                SimulationConfig(
                    adt=adt, table=table, workload=workload, fault_plan=plan
                )
            )
            reports.append(plan.report())
        assert reports[0]["records"] != reports[1]["records"]

    def test_storm_counters_reach_the_registry(self, adt, table):
        plan = FaultPlan(5, FaultSpec.storm(0.1))
        metrics = simulate(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=contended_workload(adt),
                fault_plan=plan,
            )
        )
        assert metrics.robust is plan.stats
        assert plan.stats.faults_injected > 0  # premise: the storm fires
        rendered = metrics.to_registry().render_json()
        assert '"robust_faults_injected"' in rendered


class TestMonitoredSimulation:
    def test_wrapper_and_plan_share_one_counter_sink(self, adt, table):
        stats = RobustStats()
        plan = FaultPlan(7, FaultSpec.storm(0.05), stats=stats)
        metrics = simulate(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=contended_workload(adt),
                fault_plan=plan,
                scheduler_wrapper=lambda s: MonitoredScheduler(
                    s, log=DecisionLog(), check_interval=8, robust_stats=stats
                ),
            )
        )
        assert metrics.robust is stats
        assert stats.invariant_checks > 0
        assert metrics.committed + metrics.aborted == 10


class TestCrashRecoveriesCounted:
    """Both drivers count every crash recovery in the plan's stats."""

    def crash_plan(self):
        # A high rate so both drivers reach the spec's max_crashes cap.
        return FaultPlan(3, FaultSpec(crash_rate=0.5))

    def monitored(self, scheduler, plan):
        return MonitoredScheduler(
            scheduler, log=DecisionLog(), robust_stats=plan.stats
        )

    def test_drive_and_simulate_count_every_crash_recovery(self, adt, table):
        driven = self.crash_plan()
        drive(
            self.monitored(TableDrivenScheduler(policy="optimistic"), driven),
            adt,
            table,
            contended_workload(adt),
            object_name="shared",
            fault_plan=driven,
        )
        simulated = self.crash_plan()
        simulate(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=contended_workload(adt),
                object_name="shared",
                fault_plan=simulated,
                scheduler_wrapper=lambda s: self.monitored(s, simulated),
            )
        )
        for plan in (driven, simulated):
            assert plan.stats.faults_by_kind["crash"] == FaultSpec().max_crashes
            assert plan.stats.recoveries == plan.stats.faults_by_kind["crash"]


class TestRestartPolicies:
    def test_unknown_policy_rejected(self, adt, table):
        with pytest.raises(SchedulerError):
            simulate(
                SimulationConfig(
                    adt=adt,
                    table=table,
                    workload=contended_workload(adt),
                    restart_policy="fibonacci",
                )
            )

    def test_exponential_cap_bounds_the_backoff(self, adt, table):
        workload = contended_workload(adt)
        base = dict(
            adt=adt,
            table=table,
            workload=workload,
            restart_aborted=True,
            restart_backoff=100.0,
        )
        linear = simulate(SimulationConfig(**base))
        capped = simulate(
            SimulationConfig(
                **base,
                restart_policy="exponential",
                max_restart_backoff=1.0,
            )
        )
        assert linear.restarts > 0  # premise: restarts actually happen
        assert capped.restarts > 0
        # Linear waits restarts*100 time units; the capped exponential
        # waits at most 1.0 per restart, so its makespan collapses.
        assert capped.makespan < linear.makespan

    def test_default_linear_policy_matches_seed_behaviour(self, adt, table):
        workload = contended_workload(adt)
        implicit = simulate(
            SimulationConfig(
                adt=adt, table=table, workload=workload, restart_aborted=True
            )
        )
        explicit = simulate(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=workload,
                restart_aborted=True,
                restart_policy="linear",
            )
        )
        assert fingerprint(implicit) == fingerprint(explicit)


class TestRestartsExhausted:
    def test_exhaustion_is_counted_and_traced(self, adt, table):
        tracer = RecordingTracer()
        metrics = simulate(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=contended_workload(adt),
                restart_aborted=True,
                max_restarts=0,
                tracer=tracer,
            )
        )
        assert metrics.restarts_exhausted > 0
        events = tracer.of_type(RestartsExhausted)
        assert len(events) == metrics.restarts_exhausted
        assert all(event.restarts == 0 for event in events)
        assert "restarts_exhausted=" in metrics.summary()
        assert '"restarts_exhausted"' in metrics.to_registry().render_json()

    def test_successful_restarts_stay_silent(self):
        # An Account workload whose restarts all eventually commit: the
        # counter must stay zero and out of the summary line.
        account = AccountSpec()
        account_table = derive(account).final_table
        workload = generate(
            account,
            "shared",
            WorkloadConfig(
                transactions=8,
                operations_per_transaction=3,
                mean_interarrival=0.1,
                seed=13,
            ),
        )
        metrics = simulate(
            SimulationConfig(
                adt=account,
                table=account_table,
                workload=workload,
                restart_aborted=True,
                max_restarts=50,
            )
        )
        assert metrics.restarts > 0  # premise: retries actually happen
        assert metrics.committed == 8
        assert metrics.restarts_exhausted == 0
        assert "restarts_exhausted=" not in metrics.summary()


class TestChaosCampaign:
    @pytest.fixture(scope="class")
    def matrix(self):
        account = AccountSpec()
        return {"Account": (account, derive(account).final_table)}

    def test_report_is_byte_identical_across_runs(self, matrix):
        def campaign():
            return run_chaos(
                matrix,
                policies=("optimistic",),
                seeds=(3,),
                transactions=4,
                operations=2,
            )

        assert render_report(campaign()) == render_report(campaign())

    def test_campaign_passes_and_carries_evidence(self, matrix):
        report = run_chaos(
            matrix,
            policies=("optimistic", "blocking"),
            seeds=(3,),
            transactions=4,
            operations=2,
        )
        assert report["passed"]
        assert len(report["cells"]) == 2
        for cell in report["cells"]:
            assert cell["crash_sweep"]["passed"]
            assert cell["fault_storm"]["serializable"]
            assert cell["fault_storm"]["faults"]["seed"] == 3

    def test_sweep_can_be_disabled(self, matrix):
        report = run_chaos(
            matrix,
            policies=("optimistic",),
            seeds=(3,),
            transactions=3,
            operations=2,
            crash_sweep_enabled=False,
        )
        assert "crash_sweep" not in report["cells"][0]
