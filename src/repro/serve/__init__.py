"""repro.serve: a batched, adaptive serving front-end.

The serving layer turns the one-transaction-at-a-time harness into a
high-throughput front door over the table-driven scheduler (PR 2) and
the sharded cluster (PR 5):

* :mod:`repro.serve.workload` — seeded session populations: open /
  closed loops, Zipfian hot keys, diurnal bursts; byte-stable streams.
* :mod:`repro.serve.backend` — one protocol over the bare scheduler and
  the cluster's 2PC front-end.
* :mod:`repro.serve.loop` — the event-driven batched engine: many
  in-flight transactions per tick, ready-callback wakeups instead of
  busy-retry, per-phase latency recording.  (Busy-retry round-robin is
  :func:`repro.cc.harness.play`, the reference drivers' turn loop.)
* :mod:`repro.serve.adaptive` — per-object policy switching driven by
  PR 6 conflict telemetry, applied at safe epoch boundaries.
* :mod:`repro.serve.deadline` — per-request deadline budgets and the
  capped-exponential retry policy with seeded jitter.
* :mod:`repro.serve.breaker` — deterministic per-object circuit
  breakers (closed → open → half-open).
* :mod:`repro.serve.shed` — the bounded arrival queue and the serving
  degradation ladder.
* :mod:`repro.serve.chaos` — the byte-stable serving chaos campaign:
  overload plus message faults and crashes, certified by the global
  audit.
"""

from repro.serve.adaptive import AdaptiveController, PolicySwitch
from repro.serve.backend import ClusterBackend, SchedulerBackend
from repro.serve.breaker import (
    BreakerBoard,
    BreakerConfig,
    BreakerTransition,
    CircuitBreaker,
)
from repro.serve.chaos import SERVING_MIXES, run_serving_chaos
from repro.serve.deadline import DeadlinePolicy, RetryPolicy
from repro.serve.loop import ServeResult, ServingLoop, serve
from repro.serve.shed import (
    LEVEL_NAMES,
    DegradationLadder,
    LadderStep,
    ShedConfig,
)
from repro.serve.workload import (
    BurstEnvelope,
    Request,
    ServeConfig,
    ServeWorkload,
    generate,
    zipf_weights,
)

__all__ = [
    "AdaptiveController",
    "PolicySwitch",
    "ClusterBackend",
    "SchedulerBackend",
    "BreakerBoard",
    "BreakerConfig",
    "BreakerTransition",
    "CircuitBreaker",
    "DeadlinePolicy",
    "RetryPolicy",
    "DegradationLadder",
    "LadderStep",
    "LEVEL_NAMES",
    "ShedConfig",
    "SERVING_MIXES",
    "run_serving_chaos",
    "ServeResult",
    "ServingLoop",
    "serve",
    "BurstEnvelope",
    "Request",
    "ServeConfig",
    "ServeWorkload",
    "generate",
    "zipf_weights",
]
