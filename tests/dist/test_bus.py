"""SimBus determinism, message faults, and the empty-plan contract."""

from repro.dist import DistStats, SimBus, SimCrash
from repro.robust import FaultPlan, FaultSpec


def echo_endpoint(bus, name="server"):
    """Register an endpoint that echoes every request back as a reply."""
    served = []

    def handler(message):
        served.append((message.kind, message.gtxn, dict(message.payload)))
        bus.send(
            name, message.src, f"{message.kind}-reply", message.gtxn,
            {"echo": message.payload.get("value")},
            request_id=message.request_id,
        )

    bus.register_endpoint(name, handler)
    return served


def script(bus):
    """A fixed RPC script; returns the observable outcomes."""
    replies = []
    for gtxn in range(8):
        reply = bus.rpc("client", "server", "ping", gtxn, {"value": gtxn})
        replies.append(None if reply is None else reply.payload["echo"])
    return replies


class TestFaultFreeBus:
    def test_rpc_round_trip_without_advancing_time(self):
        bus = SimBus()
        served = echo_endpoint(bus)
        assert script(bus) == list(range(8))
        assert [gtxn for _kind, gtxn, _p in served] == list(range(8))
        # Fault-free messages carry zero latency: sim-time never moves,
        # which is the precondition of one-shard transcript parity.
        assert bus.now == 0.0
        assert bus.stats.rpc_retries == 0
        assert bus.stats.rpc_timeouts == 0

    def test_empty_plan_is_bit_identical_to_no_plan(self):
        bare = SimBus()
        echo_endpoint(bare)
        bare_replies = script(bare)

        plan = FaultPlan(1991, FaultSpec())
        guarded = SimBus(plan=plan)
        echo_endpoint(guarded)
        assert script(guarded) == bare_replies
        assert guarded.stats.as_tuple() == bare.stats.as_tuple()
        assert plan.stats.faults_injected == 0

    def test_crash_downs_endpoint_and_purges_inbound(self):
        bus = SimBus(timeout=1.0, retries=1)

        def handler(message):
            raise SimCrash("server")

        bus.register_endpoint("server", handler)
        assert bus.rpc("client", "server", "ping", 0) is None
        assert bus.down() == {"server"}
        # Mail queued for a down endpoint is dropped at delivery.
        before = bus.stats.messages_dropped
        assert bus.rpc("client", "server", "ping", 1) is None
        assert bus.stats.messages_dropped > before
        bus.revive("server")
        assert bus.down() == set()


class TestMessageFaults:
    def test_drop_storm_times_out_with_capped_retries(self):
        plan = FaultPlan(7, FaultSpec(msg_drop_rate=1.0))
        bus = SimBus(plan=plan, timeout=1.0, retries=2)
        echo_endpoint(bus)
        assert bus.rpc("client", "server", "ping", 0) is None
        assert bus.stats.messages_dropped == 3  # initial send + 2 retries
        assert bus.stats.rpc_retries == 2
        assert bus.stats.rpc_timeouts == 1

    def test_duplicates_are_enqueued_twice(self):
        plan = FaultPlan(7, FaultSpec(msg_duplicate_rate=1.0))
        bus = SimBus(plan=plan)
        served = echo_endpoint(bus)
        replies = script(bus)
        assert replies == list(range(8))
        assert bus.stats.messages_duplicated > 0
        # Duplicated requests reach the handler twice (dedup is the
        # receiver's job); the duplicate replies surface as stale.
        assert len(served) > 8
        assert bus.stats.stale_replies > 0

    def test_same_seed_same_storm(self):
        outcomes = []
        for _ in range(2):
            plan = FaultPlan(23, FaultSpec.message_storm(0.2))
            bus = SimBus(plan=plan, timeout=1.0, retries=2)
            echo_endpoint(bus)
            outcomes.append(
                (
                    script(bus),
                    bus.stats.as_tuple(),
                    [(r.kind, r.detail) for r in plan.records],
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_different_seed_different_storm(self):
        def storm(seed):
            plan = FaultPlan(seed, FaultSpec.message_storm(0.3))
            bus = SimBus(plan=plan, timeout=1.0, retries=2)
            echo_endpoint(bus)
            script(bus)
            return [(r.kind, r.detail) for r in plan.records]

        assert storm(1) != storm(2)

    def test_partition_drops_both_directions_until_heal(self):
        plan = FaultPlan(5, FaultSpec(partition_rate=1.0, partition_duration=2.0))
        bus = SimBus(plan=plan, timeout=1.0, retries=0)
        echo_endpoint(bus)
        bus.partition_links.append(frozenset(("client", "server")))
        assert bus.rpc("client", "server", "ping", 0) is None
        assert bus.stats.partitions_opened == 1
        assert bus.stats.partition_drops >= 1
        # Rate 1.0 reopens the partition on every send until the
        # max_partitions cap (4); past the cap and the heal point,
        # traffic flows again.
        reply = None
        for _attempt in range(6):
            bus.now += 10.0
            reply = bus.rpc("client", "server", "ping", 1, {"value": 41})
            if reply is not None:
                break
        assert reply is not None and reply.payload["echo"] == 41
        assert bus.stats.partitions_opened == 4  # the cap held


class TestDistStats:
    def test_publish_exports_dist_counters(self):
        from repro.obs.registry import MetricsRegistry, publish_counters

        stats = DistStats(messages_sent=5, prepares_sent=2, votes_yes=2)
        registry = MetricsRegistry()
        publish_counters(registry, "dist", stats)
        rendered = registry.render_json()
        assert '"dist_messages_sent": 5' in rendered
        assert '"dist_prepares_sent": 2' in rendered
        assert '"dist_votes_yes": 2' in rendered

    def test_as_tuple_is_sorted_and_complete(self):
        stats = DistStats()
        names = [name for name, _ in stats.as_tuple()]
        assert names == sorted(names)
        assert "one_phase_commits" in names
