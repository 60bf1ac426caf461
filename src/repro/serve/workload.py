"""Seeded serving workloads: session populations, Zipf keys, bursts.

The harness workloads (:mod:`repro.cc.workload`) script a fixed set of
transactions; a serving front-end needs *request streams* shaped like
production load instead.  This module generates them deterministically
from a single seed:

* a population of **sessions**, each producing a stream of requests —
  **open loop** (Poisson arrivals: requests keep coming whether or not
  earlier ones finished) or **closed loop** (a session thinks for an
  exponential pause after each completion before issuing the next);
* **Zipfian object selection** — each operation picks its target object
  with probability ∝ 1/rank^s, so a skew ``s > 0`` concentrates load on
  hot keys while ``s = 0`` spreads it uniformly;
* a **diurnal burst envelope** — a sinusoidal modulation of the open-loop
  arrival rate, so benches see sustained peaks and troughs rather than a
  flat rate;
* per-ADT **operation mixes**, exactly as in the harness generator.

Every random draw comes from per-session ``random.Random`` streams keyed
``serve:<seed>:<session>``, so streams are byte-stable across runs and
platforms and independent of how many other sessions exist —
:meth:`ServeWorkload.fingerprint` hashes the full request stream and the
determinism property suite pins it.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from repro.cc.workload import Step
from repro.errors import WorkloadError
from repro.spec.adt import ADTSpec

__all__ = [
    "BurstEnvelope",
    "Request",
    "ServeConfig",
    "ServeWorkload",
    "generate",
    "zipf_weights",
]


@dataclass(frozen=True)
class BurstEnvelope:
    """Sinusoidal arrival-rate modulation (a compressed diurnal cycle).

    The instantaneous open-loop arrival rate is multiplied by
    ``1 + amplitude * sin(2*pi*t / period)``; ``period <= 0`` disables
    the envelope (flat rate).  ``amplitude`` must stay below 1 so the
    rate never reaches zero.
    """

    period: float = 0.0
    amplitude: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude < 1.0:
            raise WorkloadError("burst amplitude must be within [0, 1)")

    def rate_multiplier(self, t: float) -> float:
        if self.period <= 0.0:
            return 1.0
        return 1.0 + self.amplitude * math.sin(2.0 * math.pi * t / self.period)


@dataclass(frozen=True)
class Request:
    """One serving request: a short transaction issued by a session.

    ``arrival`` is the absolute issue time (open loop); ``think_time``
    is the pause after the session's previous completion (closed loop —
    the serving loop computes the actual issue times).  ``steps`` are
    executed in order under one transaction, then the request commits
    (or voluntarily aborts, when ``voluntary_abort`` is set).
    """

    request_id: int
    session: int
    arrival: float
    think_time: float
    steps: tuple[Step, ...]
    voluntary_abort: bool = False

    def primary_object(self) -> str:
        """The first step's target (the dashboard's per-request label)."""
        return self.steps[0].object_name if self.steps else ""


@dataclass(frozen=True)
class ServeConfig:
    """Parameters of the serving-workload generator.

    Attributes:
        sessions: Number of concurrent client sessions.
        requests_per_session: Requests each session issues.
        operations_per_request: Steps per request (one transaction).
        mode: ``"open"`` (Poisson arrivals) or ``"closed"`` (think time).
        mean_interarrival: Per-session mean between open-loop arrivals.
        mean_think_time: Closed-loop mean pause after each completion.
        objects: Number of shared objects load spreads over.
        zipf_s: Zipf skew exponent for object selection (0 = uniform).
        operation_mix: Relative weights per operation name (default:
            uniform over the ADT's operations).
        abort_probability: Chance a request voluntarily aborts at the end.
        burst: Open-loop arrival-rate envelope.
        seed: The single seed every stream derives from.
    """

    sessions: int = 8
    requests_per_session: int = 8
    operations_per_request: int = 2
    mode: str = "open"
    mean_interarrival: float = 1.0
    mean_think_time: float = 1.0
    objects: int = 1
    zipf_s: float = 0.0
    operation_mix: dict[str, float] = field(default_factory=dict)
    abort_probability: float = 0.0
    burst: BurstEnvelope = BurstEnvelope()
    seed: int = 1991

    def __post_init__(self) -> None:
        if self.mode not in ("open", "closed"):
            raise WorkloadError(f"unknown serving mode {self.mode!r}")
        if self.sessions < 1 or self.requests_per_session < 1:
            raise WorkloadError("need at least one session and one request")
        if self.operations_per_request < 1:
            raise WorkloadError("need at least one operation per request")
        if self.objects < 1:
            raise WorkloadError("need at least one object")
        if not 0.0 <= self.abort_probability <= 1.0:
            raise WorkloadError("abort_probability must be within [0, 1]")
        if self.mean_interarrival <= 0 or self.mean_think_time <= 0:
            raise WorkloadError("mean times must be positive")
        if self.zipf_s < 0:
            raise WorkloadError("zipf_s must be non-negative")


@dataclass(frozen=True)
class ServeWorkload:
    """A fully materialised request stream ready for the serving loop."""

    requests: tuple[Request, ...]
    mode: str
    object_names: tuple[str, ...]
    description: str = ""

    def total_operations(self) -> int:
        return sum(len(request.steps) for request in self.requests)

    def fingerprint(self) -> str:
        """A stable digest of the complete stream (determinism gate)."""
        digest = hashlib.sha256()
        digest.update(self.mode.encode())
        digest.update(repr(self.object_names).encode())
        for request in self.requests:
            digest.update(repr(request).encode())
        return digest.hexdigest()


def zipf_weights(count: int, s: float) -> list[float]:
    """Zipf selection weights ∝ 1/rank^s over ``count`` ranks (1-based)."""
    return [1.0 / (rank ** s) for rank in range(1, count + 1)]


def generate(
    adt: ADTSpec,
    config: ServeConfig,
    object_names: tuple[str, ...] | None = None,
) -> ServeWorkload:
    """Materialise a serving workload over one ADT's shared objects.

    ``object_names`` overrides the generated names (the sharded benches
    pass the cluster's shard names so steps route to real shards); the
    default is the harness's ``"obj"`` for one object, ``obj0..objN``
    otherwise.  Zipf rank follows list order: the first name is the
    hottest key.
    """
    if object_names is None:
        object_names = (
            ("obj",)
            if config.objects == 1
            else tuple(f"obj{i}" for i in range(config.objects))
        )
    elif len(object_names) != config.objects:
        raise WorkloadError(
            f"{len(object_names)} object names for {config.objects} objects"
        )
    mix = config.operation_mix or {
        name: 1.0 for name in adt.operation_names()
    }
    unknown = set(mix) - set(adt.operation_names())
    if unknown:
        raise WorkloadError(f"operation mix names unknown operations: {unknown}")
    operations = list(mix)
    op_weights = [mix[name] for name in operations]
    key_weights = zipf_weights(len(object_names), config.zipf_s)
    names = list(object_names)

    requests: list[Request] = []
    request_id = 0
    for session in range(config.sessions):
        rng = random.Random(f"serve:{config.seed}:{session}")
        clock = 0.0
        for _ in range(config.requests_per_session):
            if config.mode == "open":
                rate = (
                    1.0 / config.mean_interarrival
                ) * config.burst.rate_multiplier(clock)
                clock += rng.expovariate(rate)
                arrival, think = clock, 0.0
            else:
                arrival = 0.0
                think = rng.expovariate(1.0 / config.mean_think_time)
            steps = tuple(
                Step(
                    object_name=rng.choices(names, key_weights)[0],
                    invocation=rng.choice(
                        adt.invocations_of(
                            rng.choices(operations, op_weights)[0]
                        )
                    ),
                    service_time=1.0,
                )
                for _ in range(config.operations_per_request)
            )
            requests.append(
                Request(
                    request_id=request_id,
                    session=session,
                    arrival=arrival,
                    think_time=think,
                    steps=steps,
                    voluntary_abort=rng.random() < config.abort_probability,
                )
            )
            request_id += 1
    if config.mode == "open":
        # Issue order across sessions: by arrival, ties by generation
        # order.  Ids are re-assigned so admission order == id order.
        requests.sort(key=lambda r: (r.arrival, r.request_id))
        requests = [
            Request(
                request_id=index,
                session=r.session,
                arrival=r.arrival,
                think_time=r.think_time,
                steps=r.steps,
                voluntary_abort=r.voluntary_abort,
            )
            for index, r in enumerate(requests)
        ]
    return ServeWorkload(
        requests=tuple(requests),
        mode=config.mode,
        object_names=object_names,
        description=(
            f"{config.sessions} sessions x {config.requests_per_session} "
            f"requests ({config.mode} loop, zipf={config.zipf_s}, "
            f"seed {config.seed})"
        ),
    )
