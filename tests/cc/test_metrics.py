"""Unit tests for run metrics."""

import pytest

from repro.cc.metrics import RunMetrics
from repro.cc.scheduler import SchedulerStats


class TestDerivedMetrics:
    def test_throughput(self):
        metrics = RunMetrics(makespan=10.0, committed=5)
        assert metrics.throughput == pytest.approx(0.5)

    def test_throughput_zero_makespan(self):
        assert RunMetrics(committed=3).throughput == 0.0

    def test_mean_response_time(self):
        metrics = RunMetrics(committed=4, total_response_time=20.0)
        assert metrics.mean_response_time == pytest.approx(5.0)

    def test_mean_response_time_no_commits(self):
        assert RunMetrics().mean_response_time == 0.0

    def test_effective_concurrency(self):
        metrics = RunMetrics(makespan=4.0, total_service_time=12.0)
        assert metrics.effective_concurrency == pytest.approx(3.0)

    def test_blocking_ratio(self):
        metrics = RunMetrics(total_service_time=6.0, total_blocked_time=2.0)
        assert metrics.blocking_ratio == pytest.approx(0.25)

    def test_blocking_ratio_idle(self):
        assert RunMetrics().blocking_ratio == 0.0

    def test_effective_concurrency_zero_makespan(self):
        assert RunMetrics(total_service_time=5.0).effective_concurrency == 0.0

    def test_blocking_ratio_all_blocked(self):
        metrics = RunMetrics(total_blocked_time=4.0)
        assert metrics.blocking_ratio == pytest.approx(1.0)

    def test_throughput_with_no_commits(self):
        assert RunMetrics(makespan=5.0).throughput == 0.0

    def test_summary_fields(self):
        metrics = RunMetrics(
            makespan=2.0,
            committed=1,
            aborted=2,
            restarts=3,
            scheduler=SchedulerStats(ad_edges=4, cd_edges=5, nd_pairs=6),
        )
        summary = metrics.summary()
        for token in ("makespan=2.00", "committed=1", "aborted=2",
                      "restarts=3", "AD=4", "CD=5", "ND=6"):
            assert token in summary


class TestRegistryExport:
    def test_counters_and_gauges(self):
        metrics = RunMetrics(
            makespan=10.0,
            committed=4,
            aborted=1,
            restarts=2,
            total_service_time=20.0,
            scheduler=SchedulerStats(
                ad_edges=3, cd_edges=7, blocked_time_events=5,
                condition_evaluations=40,
            ),
        )
        document = metrics.to_registry().to_json()
        counters = document["counters"]
        assert counters['txns{status="committed"}'] == 4
        assert counters['txns{status="aborted"}'] == 1
        assert counters["restarts"] == 2
        assert counters["scheduler_ad_edges"] == 3
        assert counters["scheduler_blocked_time_events"] == 5
        assert counters["scheduler_condition_evaluations"] == 40
        gauges = document["gauges"]
        assert gauges["makespan"] == 10.0
        assert gauges["throughput"] == pytest.approx(0.4)
        assert gauges["effective_concurrency"] == pytest.approx(2.0)

    def test_blocked_durations_feed_histogram(self):
        metrics = RunMetrics(blocked_durations=[0.05, 0.2, 3.0, 100.0])
        document = metrics.to_registry().to_json()
        histogram = document["histograms"]["blocked_time"]
        assert histogram["count"] == 4
        assert histogram["buckets"]["0.1"] == 1
        assert histogram["buckets"]["+Inf"] == 4

    def test_empty_run_exports_cleanly(self):
        document = RunMetrics().to_registry().to_json()
        assert document["counters"]['txns{status="committed"}'] == 0
        assert document["gauges"]["throughput"] == 0.0
        assert document["histograms"]["blocked_time"]["count"] == 0

    def test_renders_prometheus_text(self):
        text = RunMetrics(committed=2, makespan=4.0).to_registry().render_prometheus()
        assert '# TYPE repro_txns counter' in text
        assert 'repro_txns_total{status="committed"} 2' in text
        assert "# TYPE repro_blocked_time histogram" in text


class TestHotPathCounterExport:
    def test_optimization_counters_export_as_scheduler_counters(self):
        metrics = RunMetrics(
            scheduler=SchedulerStats(
                shadow_replays_avoided=9,
                shadow_full_replays=2,
                context_reuses=4,
                nd_fast_path_hits=17,
            )
        )
        counters = metrics.to_registry().to_json()["counters"]
        assert counters["scheduler_shadow_replays_avoided"] == 9
        assert counters["scheduler_shadow_full_replays"] == 2
        assert counters["scheduler_context_reuses"] == 4
        assert counters["scheduler_nd_fast_path_hits"] == 17

    def test_seed_counters_slice(self):
        stats = SchedulerStats(ad_edges=2, shadow_replays_avoided=5)
        seed = stats.seed_counters()
        assert seed["ad_edges"] == 2
        assert "shadow_replays_avoided" not in seed
        assert set(seed) == set(SchedulerStats.SEED_FIELDS)

    def test_execution_cache_publishes_into_run_registry(self):
        from repro.perf.cache import ExecutionCache

        cache = ExecutionCache()
        metrics = RunMetrics(execution_cache=cache)
        counters = metrics.to_registry().to_json()["counters"]
        assert "execution_cache_hits" in counters
        assert "execution_cache_misses" in counters

    def test_simulated_run_reports_cache_traffic(self):
        from repro.adts.registry import make_adt
        from repro.cc.simulator import SimulationConfig, simulate
        from repro.cc.workload import WorkloadConfig, generate
        from repro.core.methodology import derive

        adt = make_adt("Account")
        table = derive(adt).final_table
        workload = generate(
            adt,
            "obj",
            WorkloadConfig(
                transactions=4,
                operations_per_transaction=3,
                operation_mix={"Deposit": 1.0},
                seed=3,
            ),
        )
        config = SimulationConfig(
            adt=adt, table=table, object_name="obj", workload=workload
        )
        metrics = simulate(config)
        assert metrics.execution_cache is not None
        counters = metrics.to_registry().to_json()["counters"]
        total_lookups = (
            counters["execution_cache_hits"] + counters["execution_cache_misses"]
        )
        assert total_lookups > 0, "runtime traffic must flow through the cache"
        assert counters["scheduler_shadow_full_replays"] >= 0
