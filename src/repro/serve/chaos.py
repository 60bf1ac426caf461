"""Serving chaos campaigns: overload plus faults against the hardened loop.

:func:`run_serving_chaos` sweeps **backend (bare scheduler / cluster
shard counts) × seed** through the campaign kernel
(:func:`repro.robust.chaos.sweep_matrix`), one group per ADT × backend ×
seed.  Each group runs the fully hardened
:class:`~repro.serve.loop.ServingLoop` — deadline budgets, circuit
breakers, the degradation ladder, at-least-once retry — under each of
three mixes:

* ``nominal`` — the baseline arrival rate, no faults: the goodput
  reference every degradation gate is measured against, and the proof
  that the hardening machinery is free when nothing goes wrong.
* ``overload`` — double the offered load (halved mean interarrival),
  still fault-free: the ladder and the queue bound carry the excess.
* ``overload_faults`` — double load **plus** a seeded
  :class:`~repro.robust.faults.FaultPlan`: scheduler-level faults
  (spurious aborts, transient op failures, commit delays) on the bare
  scheduler, message storms and node/coordinator crashes on the
  cluster, served over at-least-once through
  :meth:`~repro.dist.cluster.ClusterFrontend.tick_boundary`.

Two certifications per group, folded into the report's ``passed`` gate:

1. **Graceful degradation** — committed work (``goodput_ops``) under
   ``overload_faults`` stays at or above ``goodput_floor`` (default
   50%) of the ``nominal`` run's.
2. **No resurrection** — no request the loop shed, expired or
   retired ever appears committed: every transaction begun for such a
   request is checked against the backend's committed history, the
   cluster history is audited with
   :func:`~repro.dist.audit.audit_global`, and the bare scheduler's
   committed portion must stay serializable
   (:func:`~repro.cc.serializability.is_serializable`).

Everything is seeded and clock-free, so the report is **byte-stable**:
the same matrix produces identical JSON byte-for-byte (asserted by the
CI ``serving-chaos-smoke`` job, which runs the campaign twice under two
hash seeds and compares).  Each cell embeds a SHA-256 digest of its
outcome map, so sub-field drift between two runs is loud.
"""

from __future__ import annotations

from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.dist.audit import audit_global
from repro.dist.cluster import Cluster, ClusterFrontend
from repro.robust.chaos import digest, spec_dict, sweep_matrix
from repro.robust.faults import FaultPlan, FaultSpec

from repro.serve.backend import ClusterBackend, SchedulerBackend
from repro.serve.breaker import BreakerConfig
from repro.serve.deadline import DeadlinePolicy, RetryPolicy
from repro.serve.loop import ServingLoop
from repro.serve.shed import ShedConfig
from repro.serve.workload import ServeConfig, generate

__all__ = ["SERVING_MIXES", "run_serving_chaos"]

#: Terminal outcomes that must never appear in a committed history.
_SHED_OUTCOMES = ("shed", "deadline_exceeded", "retries_exhausted")


def SERVING_MIXES(intensity: float = 0.05) -> dict[str, dict]:
    """The standard load mixes: nominal, overload, overload + faults.

    A factory (matching :func:`repro.dist.chaos.DEFAULT_MIXES`) so every
    campaign gets fresh spec instances.  ``load`` scales the offered
    arrival rate; the fault specs are per-backend because the bare
    scheduler has no bus to storm.
    """
    return {
        "nominal": {"load": 1.0, "scheduler": None, "cluster": None},
        "overload": {"load": 2.0, "scheduler": None, "cluster": None},
        "overload_faults": {
            "load": 2.0,
            "scheduler": FaultSpec(
                spurious_abort_rate=intensity,
                op_failure_rate=intensity,
                commit_delay_rate=intensity,
            ),
            # The dist_storm mix with shorter, rarer partitions: a
            # 5.0-unit partition stalls 2PC for longer than a serving
            # deadline budget tolerates, which would measure the fault
            # plan, not the hardening.
            "cluster": FaultSpec(
                msg_drop_rate=intensity,
                msg_duplicate_rate=intensity,
                msg_delay_rate=intensity,
                msg_reorder_rate=intensity,
                partition_rate=intensity / 4,
                crash_rate=intensity / 2,
                partition_duration=2.0,
                max_partitions=2,
            ),
        },
    }


def _fault_summary(plan: FaultPlan | None) -> dict | None:
    """Counts only — the full record list would swamp the report."""
    if plan is None:
        return None
    return {
        "seed": plan.seed,
        "faults_injected": plan.stats.faults_injected,
        "faults_by_kind": dict(plan.stats.faults_by_kind),
    }


def _workload(adt, load: float, seed: int, objects: int, object_names=None):
    config = ServeConfig(
        sessions=6,
        requests_per_session=5,
        operations_per_request=2,
        mode="open",
        mean_interarrival=2.0 / load,
        objects=objects,
        zipf_s=0.9,
        seed=seed,
    )
    return generate(adt, config, object_names=object_names)


def _hardened_loop(backend, workload, seed: int, fault_plan=None) -> ServingLoop:
    """One fully hardened serving loop (every PR 9 feature on)."""
    return ServingLoop(
        backend,
        workload,
        max_inflight=8,
        retry_aborts=True,
        max_retries=4,
        deadline=DeadlinePolicy(budget=96.0),
        retry_policy=RetryPolicy(seed=seed),
        breakers=BreakerConfig(),
        shedding=ShedConfig(queue_limit=24),
        fault_plan=fault_plan,
    )


def _certify_no_resurrection(loop: ServingLoop, committed_txn) -> list[str]:
    """Shed/expired/retired requests must not appear committed anywhere."""
    violations = []
    for rid, outcome in sorted(loop.outcomes.items()):
        if outcome not in _SHED_OUTCOMES:
            continue
        for txn in loop.request_txns.get(rid, ()):
            if committed_txn(txn):
                violations.append(
                    f"request {rid} ({outcome}) committed as txn {txn}"
                )
    return violations


def _result_cell(loop: ServingLoop, result) -> dict:
    """The deterministic (wall-clock-free) slice of one serving run."""
    return {
        "requests": result.requests,
        "committed": result.committed,
        "aborted": result.aborted,
        "shed": result.shed,
        "deadline_exceeded": result.deadline_exceeded,
        "retries_exhausted": result.retries_exhausted,
        "retries": result.retries,
        "goodput_ops": result.goodput_ops,
        "sim_duration": result.sim_duration,
        "goodput_per_time": result.goodput_per_time(),
        "forced_wakes": result.forced_wakes,
        "breaker_transitions": len(result.breaker_transitions),
        "degradation_steps": len(result.degradation_steps),
        "outcomes_digest": digest(tuple(sorted(loop.outcomes.items()))),
    }


def _scheduler_cell(adt, table, mix: dict, seed: int) -> tuple[dict, bool]:
    scheduler = TableDrivenScheduler(policy="optimistic")
    backend = SchedulerBackend(scheduler)
    for name in ("obj0", "obj1"):
        backend.register_object(name, adt, table)
    workload = _workload(
        adt, mix["load"], seed, objects=2, object_names=("obj0", "obj1")
    )
    spec = mix["scheduler"]
    plan = None if spec is None else FaultPlan(seed, spec)
    loop = _hardened_loop(backend, workload, seed, fault_plan=plan)
    result = loop.run()

    def committed_txn(txn: int) -> bool:
        return scheduler.transaction(txn).status.name == "COMMITTED"

    violations = _certify_no_resurrection(loop, committed_txn)
    serializable = is_serializable(scheduler)
    cell = _result_cell(loop, result)
    cell["audit"] = {
        "serializable": serializable,
        "violations": violations,
    }
    cell["faults"] = _fault_summary(plan)
    return cell, serializable and not violations


def _cluster_cell(
    adt, table, shards: int, mix: dict, seed: int, replicas: int
) -> tuple[dict, bool]:
    spec = mix["cluster"]
    plan = None if spec is None else FaultPlan(seed, spec)
    cluster = Cluster(
        adt, table, shards=shards, policy="blocking", fault_plan=plan,
        replicas=replicas,
    )
    backend = ClusterBackend(ClusterFrontend(cluster))
    workload = _workload(
        adt, mix["load"], seed, objects=shards,
        object_names=tuple(cluster.shard_names),
    )
    loop = _hardened_loop(backend, workload, seed)
    result = loop.run()

    def committed_txn(txn: int) -> bool:
        return cluster.gstatus.get(txn) == "COMMITTED"

    violations = _certify_no_resurrection(loop, committed_txn)
    audit = audit_global(cluster)
    cell = _result_cell(loop, result)
    cell["audit"] = audit.to_dict()
    cell["audit"]["violations"] += violations
    cell["faults"] = _fault_summary(plan)
    cell["dist"] = cluster.stats.to_dict()
    return cell, audit.passed and not violations


def run_serving_chaos(
    adts: dict[str, tuple],
    shard_counts: tuple[int, ...] = (1,),
    seeds: tuple[int, ...] = (1991,),
    intensity: float = 0.05,
    goodput_floor: float = 0.5,
    replicas: int = 1,
) -> dict:
    """Run the serving chaos matrix; returns the JSON-ready report.

    ``adts`` maps ADT name to ``(adt, table)``.  Backends are the bare
    scheduler plus one cluster per entry in ``shard_counts``; each runs
    all three :func:`SERVING_MIXES` per seed.  The report's ``passed``
    field gates CI: every audit clean, every shed/expired request absent
    from every committed history, and every ``overload_faults`` cell's
    committed work at or above ``goodput_floor`` of its ``nominal``
    sibling.

    ``replicas > 1`` backs each cluster shard with a replica group
    (:mod:`repro.dist.replication`): the serving loop then rides
    through crash-driven primary failover on the existing at-least-once
    retry and breaker machinery, with no serving-layer changes — the
    promoted backup takes over the deposed primary's address.  The
    degradation ladder's per-object policy switches are decision-logged
    (``kind="policy"``), so backups replay them and stay convergent.
    """
    mixes = SERVING_MIXES(intensity)
    backends = ["scheduler"] + [f"cluster{n}" for n in shard_counts]

    def group(adt, table, backend: str, seed: int) -> tuple[dict, bool]:
        runs = {
            name: (
                _scheduler_cell(adt, table, mixes[name], seed)
                if backend == "scheduler"
                else _cluster_cell(
                    adt, table, int(backend[len("cluster"):]), mixes[name],
                    seed, replicas,
                )
            )
            for name in sorted(mixes)
        }
        # Gate on completed work, not work-per-sim-time: the fault
        # plan's stalls (partitions, crash recovery) legitimately
        # stretch the clock, and a per-time ratio would grade the plan's
        # stall budget rather than how much offered work the hardened
        # loop still lands.
        nominal = runs["nominal"][0]["goodput_ops"]
        stormy = runs["overload_faults"][0]["goodput_ops"]
        ratio = stormy / nominal if nominal else 0.0
        degraded_ok = ratio >= goodput_floor
        passed = degraded_ok and all(ok for _, ok in runs.values())
        return {
            "cells": {name: cell for name, (cell, _) in runs.items()},
            "goodput_ratio": ratio,
            "degraded_ok": degraded_ok,
            "passed": passed,
        }, passed

    groups, passed = sweep_matrix(
        adts, {"backend": backends, "seed": seeds}, group
    )
    return {
        "matrix": {
            "adts": sorted(adts),
            "backends": backends,
            "mixes": {
                name: {
                    "load": mixes[name]["load"],
                    "scheduler": spec_dict(mixes[name]["scheduler"]),
                    "cluster": spec_dict(mixes[name]["cluster"]),
                }
                for name in sorted(mixes)
            },
            "seeds": list(seeds),
            "intensity": intensity,
            "goodput_floor": goodput_floor,
            "replicas": replicas,
        },
        "groups": groups,
        "passed": passed,
    }
