"""Sharded multi-node simulation over the table-driven scheduler stack.

The paper's compatibility tables are purely per-object, which makes
object-sharded distribution the natural scaling unit: each simulated
node runs one existing :class:`~repro.cc.scheduler.TableDrivenScheduler`
over its shard of objects, and the cross-object AD/CD dependencies the
scheduler records locally are exactly the constraints the commit
protocol must carry across nodes.  The pieces:

* :class:`~repro.dist.bus.SimBus` — a deterministic, seeded message bus
  with injectable message faults (drop, duplicate, reorder, bounded
  delay, bidirectional partition) via the extended
  :class:`~repro.robust.faults.FaultPlan`.
* :class:`~repro.dist.node.ParticipantNode` — one scheduler per shard
  behind duplicate-safe idempotent handlers, logging protocol decisions
  into the shared :class:`~repro.robust.decision_log.DecisionLog`.
* :class:`~repro.dist.coordinator.Coordinator` — presumed-abort
  two-phase commit with dependency piggybacking: participants ship their
  local AD/CD predecessor sets in PREPARE votes and only vote yes once
  every predecessor has resolved.
* :class:`~repro.dist.cluster.Cluster` / :func:`~repro.dist.cluster.run_distributed`
  — the deterministic closed-loop driver (the harness's round-robin
  turn loop over the bus); a one-shard run is transcript-identical to
  the bare scheduler harness.
* :mod:`~repro.dist.audit` — stitches per-node histories into one global
  :class:`~repro.cc.serializability.RunHistory` and re-checks it with the
  one witness search.
* :mod:`~repro.dist.crash` / :mod:`~repro.dist.chaos` — the exhaustive
  distributed crash-point sweep and the distributed chaos campaign.
"""

from repro.dist.audit import GlobalAudit, audit_global, history_of_cluster, stitch_edges
from repro.dist.bus import Message, SimBus, SimCrash
from repro.dist.chaos import run_dist_chaos
from repro.dist.cluster import (
    Cluster,
    DistTranscript,
    run_distributed,
    shard_workload,
)
from repro.dist.coordinator import Coordinator
from repro.dist.crash import (
    CrashSchedule,
    DistCrashPointResult,
    dist_crash_sweep,
)
from repro.dist.node import ParticipantNode
from repro.dist.stats import DistStats

__all__ = [
    "Cluster",
    "Coordinator",
    "CrashSchedule",
    "DistCrashPointResult",
    "DistStats",
    "DistTranscript",
    "GlobalAudit",
    "Message",
    "ParticipantNode",
    "SimBus",
    "SimCrash",
    "audit_global",
    "dist_crash_sweep",
    "history_of_cluster",
    "run_dist_chaos",
    "run_distributed",
    "shard_workload",
    "stitch_edges",
]
