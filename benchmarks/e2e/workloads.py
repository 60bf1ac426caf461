"""The four served workloads of the end-to-end benchmark.

Every workload is served through the public :class:`repro.serve.ServingLoop`
over a public backend (:class:`~repro.serve.SchedulerBackend` or
:class:`~repro.serve.ClusterBackend`).  Its inputs come from
:func:`repro.serve.generate` and a seed; the stack under test receives
only the generated :class:`~repro.serve.ServeWorkload`.

A run serves many independent inputs of a fixed size, each once, on a
freshly built stack.  Wall cost per operation grows with the length of
the objects' histories, so the size of one input is part of a workload's
definition; the time budget sets only how many inputs a run serves.
Many inputs are what keep a run's numbers steady from one ``--seed`` to
the next: on the contended workloads one input's wall time per operation
depends on a handful of deadlock-victim aborts, and varies by 14-19 %
between inputs, more than the machine's noise on one serving.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.adts.registry import make_adt
from repro.core.methodology import derive
from repro.cc.scheduler import TableDrivenScheduler
from repro.dist.cluster import Cluster, ClusterFrontend
from repro.serve import (
    BreakerConfig,
    ClusterBackend,
    DeadlinePolicy,
    RetryPolicy,
    SchedulerBackend,
    ServeConfig,
    ShedConfig,
    generate,
)

__all__ = [
    "WORKLOADS",
    "Workload",
    "Stack",
    "build_stack",
    "input_seed",
    "loop_options",
]

#: Seconds of serving, at a workload's ``rate``, that one subprocess does.
BATCH_SECONDS = 6.0


#: Every workload blocks on conflicts: the paper's tables decide what
#: waits, and deadlock victims exercise the abort path.
POLICY = "blocking"


@dataclass(frozen=True)
class Workload:
    """One served workload: its inputs, its stack and why it is here."""

    name: str
    why: str
    adt: str
    #: :class:`~repro.serve.ServeConfig` fields other than ``seed``.
    serve: dict
    #: ``ServingLoop`` keyword arguments other than the seeded policies.
    loop: dict
    #: Inputs served per second of the time budget: about what the
    #: machine named in the README serves, gates included, in its usual
    #: (not its fastest) state.
    rate: float
    #: ``Cluster`` keyword arguments; ``None`` serves a bare scheduler.
    cluster: dict | None = None
    #: Serve with the deadline, breaker and shedding hardening.
    hardened: bool = False

    @property
    def open_loop(self) -> bool:
        return self.serve["mode"] == "open"

    def inputs(self, seconds: float) -> int:
        """Inputs a run with a budget of ``seconds`` serves (at least one).

        The count depends on the budget alone, never on how fast the
        machine runs, so one seed always serves the same inputs.
        """
        return max(1, round(seconds * self.rate))

    @property
    def batch(self) -> int:
        """Inputs served per subprocess."""
        return max(1, math.ceil(BATCH_SECONDS * self.rate))


#: One cluster input: 96 requests in a closed loop.  Every operation
#: costs several messages, so inputs stay short and many.
_CLUSTER_INPUT = dict(
    sessions=8,
    requests_per_session=12,
    operations_per_request=2,
    mode="closed",
    mean_think_time=1.0,
    objects=4,
    zipf_s=0.8,
)

WORKLOADS: tuple[Workload, ...] = (
    Workload(
        name="sched_wide",
        why=(
            "Account over 64 uniform objects on a bare scheduler: low "
            "contention, so certification, shadow states and the cache "
            "dominate; no dist layer runs"
        ),
        adt="Account",
        serve=dict(
            sessions=8,
            requests_per_session=100,
            operations_per_request=3,
            mode="open",
            # 8 sessions x 3 ops / 4.0 = 6 offered ops per sim unit.
            mean_interarrival=4.0,
            objects=64,
            operation_mix={"Deposit": 3.0, "Withdraw": 1.0, "Balance": 1.0},
        ),
        loop=dict(max_inflight=16),
        rate=3.2,
    ),
    Workload(
        name="sched_hot",
        why=(
            "QStack over 4 Zipf-1.2 objects with deadline, breaker and "
            "shedding on: blocking, deadlock victims retried, shadow "
            "replays and abort replay of long logs"
        ),
        adt="QStack",
        serve=dict(
            sessions=8,
            requests_per_session=50,
            operations_per_request=3,
            mode="open",
            # At 48 the hot object runs into deadlock-victim storms: on
            # some seeds the breaker trips and sheds over half of the
            # requests, so the run measures shedding, not serving.  At
            # 96 no seed tried sheds or expires a request.
            mean_interarrival=96.0,
            objects=4,
            zipf_s=1.2,
            operation_mix={"Push": 2.0, "Pop": 2.0, "Top": 1.0, "Size": 1.0},
        ),
        loop=dict(max_inflight=12),
        rate=4.4,
        hardened=True,
    ),
    Workload(
        name="cluster_2pc",
        why=(
            "Account on 4 shards behind the 2PC frontend, closed loop: "
            "every operation crosses frontend, coordinator, bus and "
            "participant node; global deadlocks are retried"
        ),
        adt="Account",
        serve=_CLUSTER_INPUT,
        loop=dict(max_inflight=8),
        rate=6.8,
        cluster=dict(shards=4, replicas=1),
    ),
    Workload(
        name="cluster_replicated",
        why=(
            "the cluster_2pc inputs with 3 replicas per shard: adds log "
            "shipping, backup apply and heartbeats, so the pair isolates "
            "the cost of replication"
        ),
        adt="Account",
        serve=_CLUSTER_INPUT,
        loop=dict(max_inflight=8),
        rate=3.6,
        cluster=dict(shards=4, replicas=3),
    ),
)


def input_seed(seed: int, index: int) -> int:
    """The generator seed of input ``index`` of a run seeded ``seed``."""
    return seed * 1000 + index


@dataclass
class Stack:
    """One built stack and the input it serves."""

    workload: object  # repro.serve.ServeWorkload
    backend: object
    #: The bare scheduler (``sched_*``) or the cluster (``cluster_*``).
    scheduler: TableDrivenScheduler | None
    cluster: Cluster | None
    setup_seconds: float

    def schedulers(self) -> list:
        """The schedulers that serve requests (primaries on a cluster)."""
        if self.cluster is None:
            return [self.scheduler]
        return [node.sched for node in self.cluster.nodes]


def build_stack(
    spec: Workload, seed: int, scale: float = 1.0, derive_span=nullcontext
) -> Stack:
    """Generate one input and build the stack that serves it.

    ``setup_seconds`` times ``derive``, backend construction and object
    registration; generating the input is excluded.  ``derive_span`` is a
    context-manager factory wrapped around the derivation (the traced
    run records it as a span).
    """
    adt = make_adt(spec.adt)
    per_session = max(1, round(spec.serve["requests_per_session"] * scale))
    config = ServeConfig(
        **{**spec.serve, "requests_per_session": per_session}, seed=seed
    )
    workload = scheduler = cluster = None
    if spec.cluster is None:
        # The bare scheduler registers the objects the input names.
        workload = generate(adt, config)
    started = time.perf_counter()
    with derive_span():
        table = derive(adt).final_table
    if spec.cluster is None:
        scheduler = TableDrivenScheduler(policy=POLICY)
        backend = SchedulerBackend(scheduler)
        for name in workload.object_names:
            backend.register_object(name, adt, table)
    else:
        cluster = Cluster(adt, table, policy=POLICY, **spec.cluster)
        backend = ClusterBackend(ClusterFrontend(cluster))
    setup_seconds = time.perf_counter() - started
    if workload is None:
        # Zipf rank follows the shard list: shard0 is the hottest key.
        workload = generate(adt, config, object_names=tuple(cluster.shard_names))
    return Stack(
        workload=workload,
        backend=backend,
        scheduler=scheduler,
        cluster=cluster,
        setup_seconds=setup_seconds,
    )


def loop_options(spec: Workload, seed: int) -> dict:
    """``ServingLoop`` keyword arguments for one input seeded ``seed``."""
    # At-least-once: a scheduler-aborted request re-enters the queue, so a
    # deadlock victim costs a retry rather than a failed request.  The
    # victim is the youngest transaction of the cycle, and a retry is a new
    # transaction, so one request can lose several times in a row: with
    # the loop's default of 8 retries a cluster input ran out, and with 4
    # a sched_hot input did.
    options = {
        **spec.loop,
        "retry_aborts": True,
        "max_retries": 32,
        "retry_policy": RetryPolicy(seed=seed),
    }
    if spec.hardened:
        options.update(
            deadline=DeadlinePolicy(budget=96.0),
            # The default breaker trips on deadlock-victim aborts alone.
            breakers=BreakerConfig(
                window=32, failure_threshold=16, min_requests=16
            ),
            shedding=ShedConfig(queue_limit=24),
        )
    return options
