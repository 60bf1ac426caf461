"""Deadline budgets and the capped, jittered retry policy.

The policy objects themselves (shape, caps, stream isolation) plus the
loop-level deadline contract: expired requests terminate as
``deadline_exceeded`` — shed, never silently retried — and deadlines
propagated through the cluster's bus envelopes expire messages and RPC
attempts instead of burning the full retry schedule.
"""

import random

import pytest

from repro.adts.registry import make_adt
from repro.cc.scheduler import TableDrivenScheduler
from repro.core.methodology import derive
from repro.dist.bus import SimBus
from repro.dist.cluster import Cluster, ClusterFrontend
from repro.errors import SchedulerError
from repro.serve import (
    ClusterBackend,
    DeadlinePolicy,
    RetryPolicy,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    generate,
)


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(base=1.0, max_backoff=8.0, jitter=0.0)
        rng = policy.stream()
        delays = [policy.backoff(n, rng, tick=1.0) for n in range(1, 8)]
        assert delays[:4] == [1.0, 2.0, 4.0, 8.0]
        # The exponential term saturates at max_backoff.
        assert delays[4:] == [8.0, 8.0, 8.0]

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(base=1.0, max_backoff=8.0, jitter=0.5, seed=42)
        one = [policy.backoff(n, policy.stream(), 1.0) for n in (1,)]
        two = [policy.backoff(n, policy.stream(), 1.0) for n in (1,)]
        assert one == two  # same seed, same stream, same draw
        assert 1.0 <= one[0] <= 1.5  # jitter adds at most jitter*base
        other = RetryPolicy(base=1.0, max_backoff=8.0, jitter=0.5, seed=43)
        assert other.backoff(1, other.stream(), 1.0) != one[0]

    def test_stream_is_the_dedicated_serve_retry_stream(self):
        policy = RetryPolicy(seed=7)
        expected = random.Random("serve:retry:7").random()
        assert policy.stream().random() == expected

    def test_base_defaults_to_the_loop_tick(self):
        policy = RetryPolicy(jitter=0.0)
        assert policy.backoff(1, policy.stream(), tick=0.25) == 0.25

    def test_validation(self):
        with pytest.raises(SchedulerError):
            RetryPolicy(max_backoff=0.0)
        with pytest.raises(SchedulerError):
            RetryPolicy(jitter=-0.1)


class TestDeadlinePolicy:
    def test_deadline_is_arrival_plus_budget(self):
        assert DeadlinePolicy(budget=3.0).deadline_of(2.0) == 5.0

    def test_budget_must_be_positive(self):
        with pytest.raises(SchedulerError):
            DeadlinePolicy(budget=0.0)


@pytest.fixture(scope="module")
def account():
    adt = make_adt("Account")
    return adt, derive(adt).final_table


CONTENDED = ServeConfig(
    sessions=4,
    requests_per_session=4,
    operations_per_request=3,
    mode="open",
    mean_interarrival=0.1,
    objects=1,
    operation_mix={"Deposit": 1.0},
    seed=1991,
)


def scheduler_backend(fixture, workload, policy="blocking"):
    adt, table = fixture
    backend = SchedulerBackend(TableDrivenScheduler(policy=policy))
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    return backend


class TestLoopDeadlines:
    def test_generous_budget_changes_nothing(self, account):
        adt, _ = account
        workload = generate(adt, CONTENDED)
        plain = ServingLoop(
            scheduler_backend(account, workload), workload, max_inflight=4
        ).run()
        budgeted = ServingLoop(
            scheduler_backend(account, workload),
            workload,
            max_inflight=4,
            deadline=DeadlinePolicy(budget=1e9),
        ).run()
        assert budgeted.committed == plain.committed
        assert budgeted.deadline_exceeded == 0

    def test_tight_budget_sheds_as_deadline_exceeded(self, account):
        adt, _ = account
        workload = generate(adt, CONTENDED)
        result = ServingLoop(
            scheduler_backend(account, workload),
            workload,
            max_inflight=1,  # serialize so the backlog outlives budgets
            deadline=DeadlinePolicy(budget=0.05),
        ).run()
        assert result.deadline_exceeded > 0
        assert (
            result.committed
            + result.aborted
            + result.shed
            + result.deadline_exceeded
            + result.retries_exhausted
            == result.requests
        )
        # Every deadline death is a terminal outcome, never a retry.
        expired = [
            rid
            for rid, outcome in result.outcomes
            if outcome == "deadline_exceeded"
        ]
        assert len(expired) == result.deadline_exceeded


def echo_endpoint(bus, name="server"):
    served = []

    def handler(message):
        served.append(message.kind)
        bus.send(
            name, message.src, f"{message.kind}-reply", message.gtxn,
            {}, request_id=message.request_id,
        )

    bus.register_endpoint(name, handler)
    return served


class TestBusDeadlines:
    def test_expired_rpc_counts_rpc_expired_not_timeout(self):
        # No endpoint: every attempt would time out, but the deadline
        # clips the waits and abandons the exchange at the budget.
        bus = SimBus(timeout=4.0, retries=3)
        reply = bus.rpc("client", "server", "ping", 1, {}, deadline=5.0)
        assert reply is None
        assert bus.stats.rpc_expired == 1
        assert bus.stats.rpc_timeouts == 0
        assert bus.now <= 5.0 + 1e-9

    def test_expired_messages_are_dropped_in_transit(self):
        bus = SimBus(base_latency=2.0)
        served = echo_endpoint(bus)
        # Stale mail: delivers at 2.0, dead at 1.0 -> dropped in flight.
        bus.send("client", "server", "stale", 1, {}, deadline=1.0)
        # A live RPC pumps the queue past the stale message.
        reply = bus.rpc("client", "server", "ping", 2, {})
        assert reply is not None
        assert served == ["ping"]
        assert bus.stats.messages_expired == 1

    def test_zero_deadline_means_no_deadline(self):
        bus = SimBus(base_latency=2.0)
        served = echo_endpoint(bus)
        bus.send("client", "server", "mail", 1, {})
        reply = bus.rpc("client", "server", "ping", 2, {})
        assert reply is not None
        assert served == ["mail", "ping"]
        assert bus.stats.messages_expired == 0

    def test_cluster_deadline_exceeded_never_commits(self, account):
        adt, table = account
        cluster = Cluster(adt, table, shards=2, policy="blocking")
        backend = ClusterBackend(ClusterFrontend(cluster))
        workload = generate(
            adt,
            ServeConfig(
                sessions=3,
                requests_per_session=3,
                mode="open",
                mean_interarrival=0.2,
                objects=2,
                seed=5,
            ),
            object_names=tuple(cluster.shard_names),
        )
        loop = ServingLoop(
            backend,
            workload,
            max_inflight=2,
            deadline=DeadlinePolicy(budget=0.5),
        )
        result = loop.run()
        assert result.deadline_exceeded > 0
        # No transaction begun for an expired request is committed.
        for rid, outcome in sorted(loop.outcomes.items()):
            if outcome != "deadline_exceeded":
                continue
            for gtxn in loop.request_txns.get(rid, ()):
                assert cluster.gstatus.get(gtxn) != "COMMITTED"
