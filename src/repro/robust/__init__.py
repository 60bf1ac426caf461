"""Robustness layer: fault injection, crash recovery, invariant monitoring.

Three pillars over the deterministic scheduler stack (see
``docs/ROBUSTNESS.md``):

* :mod:`repro.robust.faults` — seeded, reproducible fault plans consulted
  at named fault points by the harness and simulator;
* :mod:`repro.robust.decision_log` — a write-ahead record of every
  scheduler decision, and crash recovery by verified replay;
* :mod:`repro.robust.monitor` — live invariant auditing with a
  degradation ladder (quarantine the fast paths, then fall back to the
  bit-parity reference scheduler);
* :mod:`repro.robust.crash` / :mod:`repro.robust.chaos` — the
  crash-point sweep and the chaos campaign drivers built on them.
"""

from repro.robust.chaos import render_report, run_chaos
from repro.robust.crash import (
    CrashPointResult,
    CrashSweepResult,
    baseline_run,
    crash_sweep,
)
from repro.robust.decision_log import (
    Decision,
    DecisionLog,
    LoggingScheduler,
    recover,
)
from repro.robust.faults import (
    FAULT_KINDS,
    MESSAGE_FAULT_KINDS,
    FaultPlan,
    FaultRecord,
    FaultSpec,
    RobustStats,
)
from repro.robust.monitor import INVARIANTS, MonitoredScheduler

__all__ = [
    "FAULT_KINDS",
    "INVARIANTS",
    "MESSAGE_FAULT_KINDS",
    "CrashPointResult",
    "CrashSweepResult",
    "Decision",
    "DecisionLog",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "LoggingScheduler",
    "MonitoredScheduler",
    "RobustStats",
    "baseline_run",
    "crash_sweep",
    "recover",
    "render_report",
    "run_chaos",
]
