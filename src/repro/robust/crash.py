"""Crash-point sweep: prove recovery at *every* decision point.

The strongest recovery claim the decision log supports is not "a crashed
run can continue" but "a crashed-and-recovered run is *indistinguishable*
from one that never crashed".  The sweep proves it exhaustively for a
workload: first an uncrashed baseline run records its full
:class:`~repro.cc.harness.Transcript` and counts its decision points
(every ``request`` / ``try_commit`` / voluntary ``abort``); then, for
each decision point ``k``, a fresh run is killed immediately before
decision ``k`` — the scheduler is discarded and rebuilt from the
decision log by verified replay — and driven to completion.  Each
recovered run must produce a transcript **bit-identical** to the
baseline (operation decisions, dependency edges, final state, statuses
and the seed-comparable counters) and a committed history that passes
the serializability checker.

Because the harness and schedulers are deterministic, a sweep is a pure
function of ``(adt, table, workload, policy)``; its report is therefore
byte-stable and diffable across commits, which is what the ``chaos``
CLI and the CI ``chaos-smoke`` job rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cc.harness import Transcript, drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.robust.decision_log import LoggingScheduler

__all__ = ["CrashPointResult", "CrashSweepResult", "baseline_run", "crash_sweep"]


@dataclass(frozen=True)
class CrashPointResult:
    """Outcome of crashing at one decision point and recovering."""

    #: The decision point the crash preceded (0-based).
    index: int
    #: Decision-log records available to the recovery.
    log_records: int
    #: Continuation transcript equals the uncrashed baseline, bit for bit.
    transcript_identical: bool
    #: The recovered run's committed history admits a serial witness.
    serializable: bool

    @property
    def passed(self) -> bool:
        return self.transcript_identical and self.serializable

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "log_records": self.log_records,
            "transcript_identical": self.transcript_identical,
            "serializable": self.serializable,
        }


@dataclass(frozen=True)
class CrashSweepResult:
    """One sweep's per-point verdicts, scheduler or protocol.

    ``header`` holds the report keys ahead of ``passed``: ``policy`` and
    ``decision_points`` for :func:`crash_sweep`, ``points_reached`` for
    :func:`repro.dist.crash.dist_crash_sweep`.  Each result has a
    ``passed`` verdict and a ``to_dict`` rendering.
    """

    header: dict
    results: tuple

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    @property
    def failures(self) -> tuple:
        return tuple(result for result in self.results if not result.passed)

    def to_dict(self) -> dict:
        return {
            **self.header,
            "passed": self.passed,
            "failures": [result.to_dict() for result in self.failures],
        }


def baseline_run(
    adt,
    table,
    workload,
    policy: str = "optimistic",
    object_name: str = "obj",
    concurrency: int | None = None,
) -> tuple[Transcript, int]:
    """The uncrashed reference: ``(transcript, decision point count)``."""
    count = 0

    def tally(index, _scheduler):
        nonlocal count
        count = index + 1
        return None

    transcript = drive(
        TableDrivenScheduler(policy=policy),
        adt,
        table,
        workload,
        object_name=object_name,
        concurrency=concurrency,
        checkpoint=tally,
    )
    return transcript, count


def crash_sweep(
    adt,
    table,
    workload,
    policy: str = "optimistic",
    object_name: str = "obj",
    concurrency: int | None = None,
    crash_points: list[int] | None = None,
) -> CrashSweepResult:
    """Crash before every decision point (or just ``crash_points``) and
    verify each recovered continuation against the uncrashed baseline."""
    baseline, decisions = baseline_run(
        adt,
        table,
        workload,
        policy=policy,
        object_name=object_name,
        concurrency=concurrency,
    )
    points = (
        list(range(decisions))
        if crash_points is None
        else [point for point in crash_points if 0 <= point < decisions]
    )
    results = []
    for point in points:
        final = {}
        records_at_crash = 0

        def crash_at(index, scheduler, _point=point):
            nonlocal records_at_crash
            final["scheduler"] = scheduler
            if index != _point:
                return None
            # The crash: the live scheduler is abandoned wholesale and a
            # replacement is rebuilt from the decision log by verified
            # replay.  Nothing of the old instance is reused.
            records_at_crash = len(scheduler.log)
            reborn = scheduler.reincarnate()
            final["scheduler"] = reborn
            return reborn

        transcript = drive(
            LoggingScheduler(TableDrivenScheduler(policy=policy)),
            adt,
            table,
            workload,
            object_name=object_name,
            concurrency=concurrency,
            checkpoint=crash_at,
        )
        results.append(
            CrashPointResult(
                index=point,
                log_records=records_at_crash,
                transcript_identical=transcript == baseline,
                serializable=is_serializable(final["scheduler"]),
            )
        )
    return CrashSweepResult(
        header={"policy": policy, "decision_points": decisions},
        results=tuple(results),
    )
