"""Serving-layer benchmark: batched throughput and adaptive policy gates.

Measures the :mod:`repro.serve` front-end over the bare scheduler and the
sharded cluster and writes ``BENCH_serving.json`` (same schema as the
other ``BENCH_*`` baselines).  Every gated number is **sim-time**
throughput — committed operations per sim-time unit — which is
deterministic and machine-independent: batching one tick's worth of
independent transactions is what the serving loop buys, and wall-clock
cannot see that in single-threaded Python.

Configurations (all seeded, byte-stable):

* ``account_serial`` / ``account_batched`` — the same contended
  single-object Account workload served with ``max_inflight=1`` (the
  single-request harness discipline) and ``max_inflight=32``.  Gate:
  batched sim-throughput >= ``--min-batch-speedup`` (default 3x) serial.
* ``account_uniform_open`` / ``account_zipf_open`` /
  ``account_zipf_closed`` / ``account_burst_open`` — open vs closed
  loops, uniform vs Zipfian hot keys, and a diurnal burst envelope over
  eight objects.
* ``qstack_static_{optimistic,blocking,queued}`` / ``qstack_adaptive``
  — a contended hot-key QStack mix served at-least-once
  (``retry_aborts``: scheduler aborts re-enter the queue with backoff,
  so an optimistic abort storm costs duration instead of shedding
  silently).  The adaptive run starts every object serialized
  (``queued``) and lets the controller extract concurrency per object
  from the live conflict telemetry.  Gate: adaptive goodput >= the best
  static policy.
* ``dist_1shard`` / ``dist_4shard`` — the same loop over the cluster's
  2PC front-end; each run is globally audited.
* ``qstack_overload_nominal`` / ``qstack_overload_faults`` — the fully
  hardened loop (deadline budgets, circuit breakers, degradation
  ladder, capped-exponential retry) at nominal load, and at 2x load
  under a seeded fault storm.  Gate: committed work under overload +
  faults >= ``--min-degraded-goodput`` (default 0.5) of nominal, the
  served history stays serializable, and no shed or expired request
  appears committed (``no_resurrection``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.adts.registry import make_adt  # noqa: E402
from repro.cc.scheduler import TableDrivenScheduler  # noqa: E402
from repro.cc.serializability import is_serializable  # noqa: E402
from repro.core.methodology import derive as derive_table  # noqa: E402
from repro.dist.audit import audit_global  # noqa: E402
from repro.dist.cluster import Cluster, ClusterFrontend  # noqa: E402
from repro.robust import FaultPlan, FaultSpec  # noqa: E402
from repro.serve import (  # noqa: E402
    AdaptiveController,
    BreakerConfig,
    BurstEnvelope,
    ClusterBackend,
    DeadlinePolicy,
    RetryPolicy,
    SchedulerBackend,
    ServeConfig,
    ServingLoop,
    ShedConfig,
    generate,
)

#: The contended Account stream behind the batching gate: one object,
#: commutative Deposits (nothing blocks, nothing aborts), arrivals far
#: faster than a serial server drains them — the served-concurrency
#: ceiling is exactly ``max_inflight``.
BATCH_GATE_CONFIG = ServeConfig(
    sessions=8,
    requests_per_session=8,
    operations_per_request=3,
    mode="open",
    mean_interarrival=0.05,
    objects=1,
    operation_mix={"Deposit": 1.0},
    seed=1991,
)

#: The contended hot-key mix behind the adaptive gate: Pop-heavy QStack
#: traffic, Zipf 1.5 over four objects, served at-least-once.  Under
#: these economics no static policy is safe — optimistic melts into a
#: retry storm on the hot object, blanket serialization starves the
#: cold ones.
ADAPTIVE_GATE_CONFIG = ServeConfig(
    sessions=8,
    requests_per_session=6,
    operations_per_request=4,
    mode="open",
    mean_interarrival=0.2,
    objects=4,
    zipf_s=1.5,
    operation_mix={"Pop": 2.0, "Push": 1.0},
    seed=1991,
)

ADAPTIVE_INFLIGHT = 12

#: Open/closed/burst coverage over eight Account objects.
MIX_BASE = dict(
    sessions=8,
    requests_per_session=8,
    operations_per_request=2,
    objects=8,
    seed=1991,
)

STATIC_POLICIES = ("optimistic", "blocking", "queued")

CONFIG_NAMES = (
    "account_serial",
    "account_batched",
    "account_uniform_open",
    "account_zipf_open",
    "account_zipf_closed",
    "account_burst_open",
    "qstack_static_optimistic",
    "qstack_static_blocking",
    "qstack_static_queued",
    "qstack_adaptive",
    "dist_1shard",
    "dist_4shard",
    "qstack_overload_nominal",
    "qstack_overload_faults",
)


def _controller() -> AdaptiveController:
    return AdaptiveController(
        check_every=8, confirm=2, min_dwell=4, min_requests=8
    )


def _entry(result, *, kind: str, adt: str, policy: str, mode: str,
           max_inflight: int, retry_aborts: bool, extra: dict | None = None,
           wall_seconds: float | None = None) -> dict:
    e2e = result.latency.merged("serve.e2e")
    entry = {
        "kind": kind,
        "adt": adt,
        "policy": policy,
        "mode": mode,
        "max_inflight": max_inflight,
        "retry_aborts": retry_aborts,
        "requests": result.requests,
        "committed": result.committed,
        "aborted": result.aborted,
        "shed": result.shed,
        "deadline_exceeded": result.deadline_exceeded,
        "retries_exhausted": result.retries_exhausted,
        "breaker_transitions": len(result.breaker_transitions),
        "degradation_steps": len(result.degradation_steps),
        "retries": result.retries,
        "goodput_ops": result.goodput_ops,
        "ops_issued": result.ops_issued,
        "sim_duration": round(result.sim_duration, 4),
        "sim_throughput": round(result.goodput_per_time(), 4),
        "p50_e2e": round(e2e.p50, 4),
        "p99_e2e": round(e2e.p99, 4),
        "forced_wakes": result.forced_wakes,
        "policy_switches": [
            [switch.object_name, switch.old, switch.new]
            for switch in result.policy_switches
        ],
        "wall_seconds": round(
            result.wall_seconds if wall_seconds is None else wall_seconds, 6
        ),
    }
    if extra:
        entry.update(extra)
    return entry


def _scheduler_run(adt_name: str, config: ServeConfig, policy: str,
                   max_inflight: int, *, retry_aborts: bool = False,
                   controller: AdaptiveController | None = None):
    adt = make_adt(adt_name)
    table = derive_table(adt).final_table
    workload = generate(adt, config)
    scheduler = TableDrivenScheduler(policy=policy)
    backend = SchedulerBackend(scheduler)
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    result = ServingLoop(
        backend,
        workload,
        max_inflight=max_inflight,
        retry_aborts=retry_aborts,
        # The jitter stream is keyed to the workload seed, like every
        # other random draw in the benchmark.
        retry_policy=RetryPolicy(seed=config.seed),
        controller=controller,
    ).run()
    serializable = is_serializable(scheduler)
    return result, serializable


def _cluster_run(adt_name: str, shards: int):
    adt = make_adt(adt_name)
    table = derive_table(adt).final_table
    cluster = Cluster(adt, table, shards=shards, policy="blocking")
    backend = ClusterBackend(ClusterFrontend(cluster))
    config = ServeConfig(
        sessions=8,
        requests_per_session=6,
        operations_per_request=2,
        mode="closed",
        objects=shards,
        zipf_s=0.8,
        seed=1991,
    )
    workload = generate(adt, config, object_names=tuple(cluster.shard_names))
    result = ServingLoop(backend, workload, max_inflight=16).run()
    audit = audit_global(cluster)
    return result, audit.passed


#: The overload-hardening configuration: a skewed QStack workload under
#: a blocking scheduler, served by the fully hardened loop.  ``load``
#: scales the offered arrival rate; the ``faults`` variant adds a
#: seeded scheduler-level storm.
def _overload_config(load: float) -> ServeConfig:
    return ServeConfig(
        sessions=6,
        requests_per_session=5,
        operations_per_request=2,
        mode="open",
        mean_interarrival=2.0 / load,
        objects=2,
        zipf_s=0.9,
        seed=1991,
    )


def _overload_run(load: float, with_faults: bool):
    adt = make_adt("QStack")
    table = derive_table(adt).final_table
    scheduler = TableDrivenScheduler(policy="blocking")
    backend = SchedulerBackend(scheduler)
    workload = generate(adt, _overload_config(load))
    for name in workload.object_names:
        backend.register_object(name, adt, table)
    plan = None
    if with_faults:
        plan = FaultPlan(1991, FaultSpec(
            spurious_abort_rate=0.05,
            op_failure_rate=0.05,
            commit_delay_rate=0.05,
        ))
    loop = ServingLoop(
        backend,
        workload,
        max_inflight=8,
        retry_aborts=True,
        max_retries=4,
        deadline=DeadlinePolicy(budget=96.0),
        retry_policy=RetryPolicy(seed=1991),
        breakers=BreakerConfig(),
        shedding=ShedConfig(queue_limit=24),
        fault_plan=plan,
    )
    result = loop.run()
    # No resurrection: a transaction begun for a request the loop shed,
    # expired or retired must never be committed.
    no_resurrection = True
    for rid, outcome in loop.outcomes.items():
        if outcome in ("shed", "deadline_exceeded", "retries_exhausted"):
            for txn in loop.request_txns.get(rid, ()):
                if scheduler.transaction(txn).status.name == "COMMITTED":
                    no_resurrection = False
    return result, is_serializable(scheduler), no_resurrection


def measure_serving(config_names=CONFIG_NAMES) -> dict:
    """The BENCH_serving.json payload for the named configs."""
    results: dict[str, dict] = {}
    adaptive_adt = "QStack"

    for name in config_names:
        if name in ("account_serial", "account_batched"):
            inflight = 1 if name == "account_serial" else 32
            result, serializable = _scheduler_run(
                "Account", BATCH_GATE_CONFIG, "blocking", inflight
            )
            results[name] = _entry(
                result, kind="scheduler", adt="Account", policy="blocking",
                mode="open", max_inflight=inflight, retry_aborts=False,
                extra={"serializable": serializable},
            )
        elif name == "account_uniform_open":
            config = ServeConfig(mode="open", mean_interarrival=0.5, **MIX_BASE)
            result, serializable = _scheduler_run(
                "Account", config, "blocking", 16
            )
            results[name] = _entry(
                result, kind="scheduler", adt="Account", policy="blocking",
                mode="open", max_inflight=16, retry_aborts=False,
                extra={"serializable": serializable},
            )
        elif name == "account_zipf_open":
            config = ServeConfig(
                mode="open", mean_interarrival=0.5, zipf_s=1.2, **MIX_BASE
            )
            result, serializable = _scheduler_run(
                "Account", config, "blocking", 16
            )
            results[name] = _entry(
                result, kind="scheduler", adt="Account", policy="blocking",
                mode="open", max_inflight=16, retry_aborts=False,
                extra={"serializable": serializable},
            )
        elif name == "account_zipf_closed":
            config = ServeConfig(
                mode="closed", mean_think_time=1.0, zipf_s=1.2, **MIX_BASE
            )
            result, serializable = _scheduler_run(
                "Account", config, "blocking", 16
            )
            results[name] = _entry(
                result, kind="scheduler", adt="Account", policy="blocking",
                mode="closed", max_inflight=16, retry_aborts=False,
                extra={"serializable": serializable},
            )
        elif name == "account_burst_open":
            config = ServeConfig(
                mode="open",
                mean_interarrival=0.5,
                zipf_s=1.2,
                burst=BurstEnvelope(period=16.0, amplitude=0.6),
                **MIX_BASE,
            )
            result, serializable = _scheduler_run(
                "Account", config, "blocking", 16
            )
            results[name] = _entry(
                result, kind="scheduler", adt="Account", policy="blocking",
                mode="open", max_inflight=16, retry_aborts=False,
                extra={"serializable": serializable},
            )
        elif name.startswith("qstack_static_"):
            policy = name[len("qstack_static_"):]
            result, serializable = _scheduler_run(
                adaptive_adt, ADAPTIVE_GATE_CONFIG, policy,
                ADAPTIVE_INFLIGHT, retry_aborts=True,
            )
            results[name] = _entry(
                result, kind="scheduler", adt=adaptive_adt, policy=policy,
                mode="open", max_inflight=ADAPTIVE_INFLIGHT, retry_aborts=True,
                extra={"serializable": serializable},
            )
        elif name == "qstack_adaptive":
            result, serializable = _scheduler_run(
                adaptive_adt, ADAPTIVE_GATE_CONFIG, "queued",
                ADAPTIVE_INFLIGHT, retry_aborts=True, controller=_controller(),
            )
            results[name] = _entry(
                result, kind="scheduler", adt=adaptive_adt, policy="adaptive",
                mode="open", max_inflight=ADAPTIVE_INFLIGHT, retry_aborts=True,
                extra={"serializable": serializable},
            )
        elif name in ("dist_1shard", "dist_4shard"):
            shards = 1 if name == "dist_1shard" else 4
            result, audit_passed = _cluster_run("Account", shards)
            results[name] = _entry(
                result, kind="cluster", adt="Account", policy="blocking",
                mode="closed", max_inflight=16, retry_aborts=False,
                extra={"shards": shards, "audit_passed": audit_passed},
            )
        elif name in ("qstack_overload_nominal", "qstack_overload_faults"):
            with_faults = name == "qstack_overload_faults"
            load = 2.0 if with_faults else 1.0
            result, serializable, no_resurrection = _overload_run(
                load, with_faults
            )
            results[name] = _entry(
                result, kind="scheduler", adt="QStack", policy="blocking",
                mode="open", max_inflight=8, retry_aborts=True,
                extra={
                    "serializable": serializable,
                    "no_resurrection": no_resurrection,
                    "load": load,
                    "faulty": with_faults,
                },
            )
        else:
            raise SystemExit(f"unknown config {name!r}")

    return {
        "benchmark": "serving",
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "results": results,
    }


def check_thresholds(
    payload: dict,
    min_batch_speedup: float = 3.0,
    min_degraded_goodput: float = 0.5,
) -> list[str]:
    """Threshold violations in a measured payload (empty = all good)."""
    failures: list[str] = []
    results = payload["results"]
    for name, entry in results.items():
        if entry["committed"] <= 0:
            failures.append(
                f"{name}: nothing committed — the workload is silently "
                f"dead and measures nothing"
            )
        if entry.get("forced_wakes", 0):
            failures.append(
                f"{name}: {entry['forced_wakes']} forced wakes — the "
                f"ready-callback path stalled"
            )
        if entry.get("serializable") is False:
            failures.append(f"{name}: served history is not serializable")
        if entry.get("audit_passed") is False:
            failures.append(f"{name}: global audit failed")
        if entry.get("no_resurrection") is False:
            failures.append(
                f"{name}: a shed or expired request appears committed"
            )
    serial = results.get("account_serial")
    batched = results.get("account_batched")
    if serial and batched:
        speedup = (
            batched["sim_throughput"] / serial["sim_throughput"]
            if serial["sim_throughput"]
            else 0.0
        )
        if speedup < min_batch_speedup:
            failures.append(
                f"account_batched: sim-throughput speedup {speedup:.2f}x "
                f"below required {min_batch_speedup}x over account_serial"
            )
    adaptive = results.get("qstack_adaptive")
    statics = [
        results[f"qstack_static_{policy}"]
        for policy in STATIC_POLICIES
        if f"qstack_static_{policy}" in results
    ]
    if adaptive and statics:
        best = max(entry["sim_throughput"] for entry in statics)
        if adaptive["sim_throughput"] < best:
            failures.append(
                f"qstack_adaptive: goodput {adaptive['sim_throughput']} "
                f"below best static {best}"
            )
    nominal = results.get("qstack_overload_nominal")
    stressed = results.get("qstack_overload_faults")
    if nominal and stressed:
        # Graceful degradation is measured in committed work, not
        # work-per-sim-time: fault stalls legitimately stretch the
        # clock, and the gate is about how much offered work still
        # lands under 2x load plus faults.
        floor = min_degraded_goodput * nominal["goodput_ops"]
        if stressed["goodput_ops"] < floor:
            failures.append(
                f"qstack_overload_faults: goodput {stressed['goodput_ops']} "
                f"ops under 2x overload + faults is below "
                f"{min_degraded_goodput:.0%} of nominal "
                f"({nominal['goodput_ops']} ops)"
            )
    return failures


def write_baseline(payload: dict, out: str | Path) -> Path:
    path = Path(out)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default="BENCH_serving.json",
        help="where to write the baseline JSON (default: BENCH_serving.json)",
    )
    parser.add_argument(
        "--configs", nargs="*", default=list(CONFIG_NAMES),
        choices=list(CONFIG_NAMES),
        help="serving configs to measure (default: all)",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=3.0,
        help="required batched-vs-serial sim-throughput ratio (default 3.0, "
             "the PR's acceptance bar)",
    )
    parser.add_argument(
        "--min-degraded-goodput", type=float, default=0.5,
        help="required committed-work fraction of nominal under 2x "
             "overload plus faults (default 0.5)",
    )
    args = parser.parse_args(argv)

    payload = measure_serving(args.configs)
    path = write_baseline(payload, args.out)
    for name, entry in payload["results"].items():
        print(
            f"{name:26} committed={entry['committed']:>3} "
            f"aborted={entry['aborted']:>3} "
            f"goodput/t={entry['sim_throughput']:>7.3f} "
            f"p99={entry['p99_e2e']:>7.2f}"
        )
    print(f"wrote {path}")

    failures = check_thresholds(
        payload, args.min_batch_speedup, args.min_degraded_goodput
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
