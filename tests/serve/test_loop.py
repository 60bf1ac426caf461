"""The serving loop's behavioural contract: batching, retries, latency.

Covers the engine itself (the parity and adaptive suites cover its
correctness anchors): batched admission beats the single-request
front-end on sim-time goodput, at-least-once retry re-enters scheduler
aborts without retrying voluntary ones, latency phases land in the
recorder, and the traced run renders a byte-stable dashboard serving
section over both backends.
"""

import pytest

from repro.adts.registry import make_adt
from repro.cc.scheduler import TableDrivenScheduler
from repro.core.methodology import derive
from repro.dist.cluster import Cluster, ClusterFrontend
from repro.obs.analysis import render_dashboard
from repro.obs.tracers import RecordingTracer
from repro.serve import (
    AdaptiveController,
    ClusterBackend,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    generate,
    serve,
)


@pytest.fixture(scope="module")
def account():
    adt = make_adt("Account")
    return adt, derive(adt).final_table


@pytest.fixture(scope="module")
def qstack():
    adt = make_adt("QStack")
    return adt, derive(adt).final_table


def scheduler_backend(fixture, workload, policy="blocking", tracer=None):
    adt, table = fixture
    backend = SchedulerBackend(TableDrivenScheduler(policy=policy, tracer=tracer))
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    return backend


CONTENDED = ServeConfig(
    sessions=6,
    requests_per_session=6,
    operations_per_request=3,
    mode="open",
    mean_interarrival=0.05,
    objects=1,
    operation_mix={"Deposit": 1.0},
    seed=1991,
)


class TestBatching:
    def test_batched_goodput_beats_serial(self, account):
        adt, _ = account
        workload = generate(adt, CONTENDED)
        serial = ServingLoop(
            scheduler_backend(account, workload), workload, max_inflight=1
        ).run()
        batched = ServingLoop(
            scheduler_backend(account, workload), workload, max_inflight=16
        ).run()
        assert serial.committed == batched.committed == serial.requests
        assert batched.goodput_per_time() >= 3 * serial.goodput_per_time()

    def test_serve_helper_runs_ready_mode(self, account):
        adt, _ = account
        workload = generate(adt, CONTENDED)
        result = serve(
            scheduler_backend(account, workload), workload, max_inflight=8
        )
        assert result.committed == result.requests
        assert result.forced_wakes == 0

    def test_latency_phases_are_recorded(self, account):
        adt, _ = account
        workload = generate(adt, CONTENDED)
        result = ServingLoop(
            scheduler_backend(account, workload), workload, max_inflight=8
        ).run()
        e2e = result.latency.merged("serve.e2e")
        assert e2e.count == result.requests
        assert result.latency.merged("serve.queue_wait").count == result.requests
        assert result.latency.merged("serve.service").count > 0


RETRY_CONFIG = ServeConfig(
    sessions=6,
    requests_per_session=4,
    operations_per_request=4,
    mode="open",
    mean_interarrival=0.2,
    objects=2,
    zipf_s=1.5,
    operation_mix={"Pop": 2.0, "Push": 1.0},
    seed=1991,
)


class TestRetryAborts:
    def test_scheduler_aborts_are_retried(self, qstack):
        adt, _ = qstack
        workload = generate(adt, RETRY_CONFIG)
        plain = ServingLoop(
            scheduler_backend(qstack, workload, policy="optimistic"),
            workload,
            max_inflight=8,
        ).run()
        retried = ServingLoop(
            scheduler_backend(qstack, workload, policy="optimistic"),
            workload,
            max_inflight=8,
            retry_aborts=True,
        ).run()
        assert plain.retries == 0
        assert retried.retries > 0
        assert retried.committed >= plain.committed
        # Every admitted request reaches exactly one terminal outcome.
        assert (
            retried.committed
            + retried.aborted
            + retried.shed
            + retried.deadline_exceeded
            + retried.retries_exhausted
            == retried.requests
        )
        assert len(retried.outcomes) == retried.requests

    def test_voluntary_aborts_are_never_retried(self, account):
        adt, _ = account
        config = ServeConfig(
            sessions=3,
            requests_per_session=3,
            abort_probability=1.0,
            seed=7,
        )
        workload = generate(adt, config)
        result = ServingLoop(
            scheduler_backend(account, workload),
            workload,
            max_inflight=4,
            retry_aborts=True,
        ).run()
        assert result.committed == 0
        assert result.aborted == result.requests
        assert result.retries == 0


class TestDashboardSection:
    def traced_events(self, fixture, controller=None):
        adt, _ = fixture
        tracer = RecordingTracer()
        workload = generate(
            adt,
            ServeConfig(
                sessions=4,
                requests_per_session=4,
                objects=2,
                zipf_s=1.0,
                mean_interarrival=0.3,
                seed=11,
            ),
        )
        ServingLoop(
            scheduler_backend(fixture, workload, tracer=tracer),
            workload,
            max_inflight=6,
            controller=controller,
        ).run()
        return tracer.events

    def test_serving_section_renders_and_is_byte_stable(self, account):
        events = self.traced_events(account)
        dashboard = render_dashboard(events)
        assert "== serving ==" in dashboard
        assert "sustained throughput" in dashboard
        again = render_dashboard(self.traced_events(account))
        assert dashboard == again

    def test_policy_timeline_appears_with_a_controller(self, qstack):
        controller = AdaptiveController(
            check_every=2, confirm=1, min_dwell=1, min_requests=4
        )
        events = self.traced_events(qstack, controller=controller)
        dashboard = render_dashboard(events)
        assert "== serving ==" in dashboard
        if any(type(event).__name__ == "PolicySwitched" for event in events):
            assert "policy switches" in dashboard

    def test_cluster_serving_section_uses_root_spans(self, account):
        adt, table = account
        tracer = RecordingTracer()
        cluster = Cluster(
            adt, table, shards=2, policy="blocking", tracer=tracer
        )
        backend = ClusterBackend(ClusterFrontend(cluster))
        config = ServeConfig(
            sessions=4,
            requests_per_session=3,
            mode="closed",
            objects=2,
            seed=5,
        )
        workload = generate(
            adt, config, object_names=tuple(cluster.shard_names)
        )
        result = ServingLoop(backend, workload, max_inflight=6).run()
        dashboard = render_dashboard(tracer.events)
        assert "== serving ==" in dashboard
        assert f"committed={result.committed}" in dashboard
