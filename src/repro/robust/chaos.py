"""Chaos campaigns: fault storms + crash sweeps over an ADT/seed matrix.

The ``chaos`` CLI subcommand and the CI ``chaos-smoke`` job both bottom
out here.  This module is also the campaign kernel every chaos campaign
shares:

* :func:`sweep_matrix` is the one matrix loop — one cell per sorted ADT
  name × point of the campaign's axes, and the campaign verdict is the
  AND of every cell's verdict;
* :func:`campaign_workload` is the one workload builder;
* :func:`digest` and :func:`spec_dict` render transcripts and fault
  specs, and :func:`render_report` serialises a report.

:func:`run_chaos` sweeps (ADT × policy × seed) cells and, per cell,
(a) runs the exhaustive crash-point sweep
(:func:`repro.robust.crash.crash_sweep`) and (b) drives the workload
under a seeded fault storm with the invariant monitor attached,
verifying the run completes with a serializable committed history.  It
can embed the distributed, serving and replication campaigns, which
sweep their own axes through the same kernel.  The result is a plain
JSON-ready report; everything feeding it is seeded and clock-free, so
the same matrix and spec produce a **byte-identical** report
(``render_report`` serialises with sorted keys) — chaos results are
diffable artifacts, not flaky dashboards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json

from repro.cc.harness import drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.cc.workload import WorkloadConfig, generate
from repro.robust.crash import crash_sweep
from repro.robust.decision_log import DecisionLog
from repro.robust.faults import FaultPlan, FaultSpec, RobustStats
from repro.robust.monitor import MonitoredScheduler

__all__ = [
    "campaign_workload",
    "digest",
    "render_report",
    "run_chaos",
    "spec_dict",
    "sweep_matrix",
]


def digest(payload) -> str:
    """SHA-256 of ``repr(payload)``: a byte-stable fingerprint for reports."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def spec_dict(spec: FaultSpec | None) -> dict | None:
    """A fault spec as a JSON-ready dict (``None`` when no plan runs)."""
    return None if spec is None else dataclasses.asdict(spec)


def sweep_matrix(
    adts: dict[str, tuple], axes: dict, cell
) -> tuple[list, bool]:
    """Run ``cell`` over every ADT × axis point; returns ``(cells, passed)``.

    ``adts`` maps ADT name to ``(adt, table)`` and is walked in sorted
    name order; ``axes`` maps axis name to its values, and the points
    are their :func:`itertools.product`, first axis outermost.
    ``cell(adt, table, **point)`` returns ``(fields, passed)``; each
    report cell is ``{"adt": name, **point, **fields}`` and the matrix
    passes only if every cell does.
    """
    cells = []
    passed = True
    for name in sorted(adts):
        adt, table = adts[name]
        for values in itertools.product(*axes.values()):
            point = dict(zip(axes, values))
            fields, cell_passed = cell(adt, table, **point)
            cells.append({"adt": name, **point, **fields})
            passed = passed and cell_passed
    return cells, passed


def campaign_workload(adt, transactions: int, operations: int, seed: int):
    """The seeded single-object workload every campaign cell drives."""
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=transactions,
            operations_per_transaction=operations,
            seed=seed,
        ),
    )


def _storm_cell(
    adt, table, workload, policy: str, seed: int, spec: FaultSpec,
    check_interval: int,
) -> dict:
    """One fault-storm run under the monitor; returns its report cell."""
    stats = RobustStats()
    plan = FaultPlan(seed, spec, stats=stats)
    monitored = MonitoredScheduler(
        TableDrivenScheduler(policy=policy),
        log=DecisionLog(),
        check_interval=check_interval,
        robust_stats=stats,
    )
    final = {"scheduler": monitored}

    def remember(_index, scheduler):
        # The fault plan may crash-swap the scheduler mid-run; the cell
        # audits whichever instance finished the workload.
        final["scheduler"] = scheduler
        return None

    transcript = drive(
        monitored, adt, table, workload, checkpoint=remember, fault_plan=plan
    )
    survivor = final["scheduler"]
    return {
        "serializable": is_serializable(survivor),
        "degraded": bool(getattr(survivor, "degraded", False)),
        "committed": list(transcript.committed()),
        "final_state": transcript.final_state,
        "faults": plan.report(),
        "robust": dataclasses.asdict(stats),
    }


def run_chaos(
    adts: dict[str, tuple],
    policies: tuple[str, ...] = ("optimistic", "blocking"),
    seeds: tuple[int, ...] = (1991,),
    transactions: int = 6,
    operations: int = 3,
    spec: FaultSpec | None = None,
    check_interval: int = 4,
    crash_sweep_enabled: bool = True,
    distributed: bool = False,
    shard_counts: tuple[int, ...] = (1, 2),
    serving: bool = False,
    replication: bool = False,
) -> dict:
    """Run the full chaos matrix and return the JSON-ready report.

    ``adts`` maps ADT name to ``(adt, table)`` — callers derive the
    tables (the CLI via :func:`repro.core.methodology.derive`).  The
    report's ``"passed"`` field is the CI gate: every sweep transcript
    identical and every storm serializable.

    ``distributed=True`` additionally runs the sharded campaign
    (:func:`repro.dist.chaos.run_dist_chaos`) over ``shard_counts`` —
    message storms over the simulated bus plus the distributed
    crash-point sweep — and embeds its report under ``"distributed"``.

    ``serving=True`` additionally runs the serving campaign
    (:func:`repro.serve.chaos.run_serving_chaos`) — overload plus
    faults against the hardened serving loop, at the storm's
    ``spurious_abort_rate``, with the graceful-degradation goodput gate
    and the no-resurrection certification — and embeds its report under
    ``"serving"``.

    ``replication=True`` additionally runs the replicated-failover
    campaign (:func:`repro.dist.chaos.run_replication_chaos`) — primary
    kills mid-2PC, partition-then-heal false suspicion, dueling-primary
    fencing, and backup-crash storms over replica groups — and embeds
    its report under ``"replication"``.

    Every embedded campaign's verdict is folded into ``"passed"``.
    """
    # Imported here: repro.dist and repro.serve build on this module.
    from repro.dist.chaos import run_dist_chaos, run_replication_chaos
    from repro.serve.chaos import run_serving_chaos

    spec = spec if spec is not None else FaultSpec.storm()

    def cell(adt, table, policy: str, seed: int) -> tuple[dict, bool]:
        workload = campaign_workload(adt, transactions, operations, seed)
        fields: dict = {}
        swept = True
        if crash_sweep_enabled:
            sweep = crash_sweep(adt, table, workload, policy=policy)
            fields["crash_sweep"] = sweep.to_dict()
            swept = sweep.passed
        storm = _storm_cell(
            adt, table, workload, policy, seed, spec, check_interval
        )
        fields["fault_storm"] = storm
        return fields, swept and storm["serializable"]

    cells, passed = sweep_matrix(
        adts, {"policy": policies, "seed": seeds}, cell
    )
    report = {
        "matrix": {
            "adts": sorted(adts),
            "policies": list(policies),
            "seeds": list(seeds),
            "transactions": transactions,
            "operations": operations,
        },
        "spec": {
            "spurious_abort_rate": spec.spurious_abort_rate,
            "op_failure_rate": spec.op_failure_rate,
            "commit_delay_rate": spec.commit_delay_rate,
            "cache_poison_rate": spec.cache_poison_rate,
            "crash_rate": spec.crash_rate,
            "max_faults": spec.max_faults,
            "max_crashes": spec.max_crashes,
        },
        "cells": cells,
    }
    if distributed:
        report["distributed"] = run_dist_chaos(
            adts,
            shard_counts=shard_counts,
            seeds=seeds,
            policy=policies[0],
            transactions=transactions,
            operations=operations,
            crash_sweep_enabled=crash_sweep_enabled,
        )
        report["matrix"]["shard_counts"] = list(shard_counts)
    if serving:
        report["serving"] = run_serving_chaos(
            adts,
            shard_counts=tuple(n for n in shard_counts if n > 0) or (1,),
            seeds=seeds,
            intensity=spec.spurious_abort_rate,
        )
    if replication:
        report["replication"] = run_replication_chaos(
            adts,
            # A count of 1 is dropped beside larger ones (the default
            # shard counts are 1 2); left alone it reaches
            # run_replication_chaos, which rejects it.
            shard_counts=tuple(n for n in shard_counts if n > 1)
            or shard_counts,
            seeds=seeds,
        )
    for section in ("distributed", "serving", "replication"):
        if section in report:
            passed = passed and report[section]["passed"]
    report["passed"] = passed
    return report


def render_report(report: dict) -> str:
    """Byte-stable serialisation of a chaos report (sorted keys)."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"
