"""Trace analysis: timelines, firing histograms, trace-only verification.

A JSONL trace produced by the instrumented scheduler stack is a complete
account of a run.  This module reconstructs three things from it:

* a **per-transaction timeline** — every event touching one transaction,
  in order (:func:`transaction_timeline`);
* a **per-table-entry firing histogram** — how often each
  ``(invoked, executing)`` compatibility-table entry produced each
  dependency, under which condition and evidence source
  (:func:`firing_histogram`); this is the paper's "more potential for
  concurrency" claim made countable per refined entry;
* the **serializability verdict, from the trace alone**
  (:func:`find_serialization_from_trace`): committed transactions'
  operation logs, return values, commit order and dependency edges are
  all in the trace, so the same replay argument
  :mod:`repro.cc.serializability` applies to the live scheduler can be
  re-run offline — the cross-check that the trace is faithful.
"""

from __future__ import annotations

import ast
from collections import Counter as TallyCounter
from dataclasses import dataclass, field
from itertools import permutations
from typing import Any, Iterable, Mapping, Sequence

from repro.obs.events import (
    CascadeAborted,
    CommitWaited,
    DeadlockResolved,
    DependencyRecorded,
    ObjectRegistered,
    OpBlocked,
    OpGranted,
    RunCompleted,
    TraceEvent,
    TxnAborted,
    TxnBegun,
    TxnCommitted,
)
from repro.obs.tracers import read_trace

__all__ = [
    "read_trace",
    "parse_literal",
    "EntryFiring",
    "firing_histogram",
    "transaction_timeline",
    "render_event",
    "TraceSummary",
    "summarize",
    "TracedOperation",
    "TracedRun",
    "reconstruct_run",
    "find_serialization_from_trace",
    "serializable_from_trace",
    "registry_from_trace",
    "render_dashboard",
]


def parse_literal(text: str):
    """Parse a recorded ``repr`` back into a Python value.

    Abstract states and invocation arguments are plain literals (tuples,
    strings, numbers) except for the set-based ADTs, whose states are
    ``frozenset({...})`` — handled by a restricted eval that exposes
    nothing but the two set constructors.
    """
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return eval(  # noqa: S307 - constructors only, no builtins
            text, {"__builtins__": {}, "frozenset": frozenset, "set": set}
        )


# ---------------------------------------------------------------------------
# Firing histogram
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EntryFiring:
    """One cell of the firing histogram: a decision signature and its count."""

    object_name: str
    invoked: str
    executing: str
    dependency: str
    condition: str
    source: str
    entry: str
    count: int


def firing_histogram(events: Iterable[TraceEvent]) -> list[EntryFiring]:
    """Count :class:`DependencyRecorded` events per decision signature.

    Sorted most-frequent first, then by operation pair for stability.
    """
    tally: TallyCounter = TallyCounter()
    entries: dict[tuple, str] = {}
    for event in events:
        if not isinstance(event, DependencyRecorded):
            continue
        key = (
            event.object_name,
            event.invoked,
            event.executing,
            event.dependency,
            event.condition,
            event.source,
        )
        tally[key] += 1
        entries[key] = event.entry
    return sorted(
        (
            EntryFiring(*key, entry=entries[key], count=count)
            for key, count in tally.items()
        ),
        key=lambda firing: (-firing.count, firing.invoked, firing.executing,
                            firing.dependency, firing.condition),
    )


# ---------------------------------------------------------------------------
# Timelines
# ---------------------------------------------------------------------------

def _touches(event: TraceEvent, txn: int) -> bool:
    if getattr(event, "txn", None) == txn:
        return True
    if isinstance(event, DependencyRecorded) and event.other_txn == txn:
        return True
    if isinstance(event, DeadlockResolved):
        return event.victim == txn or txn in event.cycle
    if isinstance(event, CascadeAborted) and event.root == txn:
        return True
    if isinstance(event, (OpBlocked, CommitWaited)):
        blocked_on = getattr(event, "blocked_on", getattr(event, "waiting_on", ()))
        if txn in blocked_on:
            return True
    return False


def transaction_timeline(
    events: Sequence[TraceEvent], txn: int
) -> list[TraceEvent]:
    """Every event involving ``txn``, in trace order."""
    return [event for event in events if _touches(event, txn)]


def render_event(event: TraceEvent) -> str:
    """One human-readable line per event, for the ``trace`` CLI."""
    payload = event.to_dict()
    payload.pop("type")
    time_stamp = payload.pop("time")
    detail = " ".join(f"{key}={value!r}" for key, value in payload.items())
    return f"t={time_stamp:<8.2f} {event.type:20} {detail}"


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------

@dataclass
class TraceSummary:
    """Aggregate view of one trace."""

    events: int = 0
    by_type: dict[str, int] = field(default_factory=dict)
    transactions: int = 0
    committed: int = 0
    aborted: int = 0
    deadlocks: int = 0
    cascades: int = 0
    dependencies_by_kind: dict[str, int] = field(default_factory=dict)
    firings: list[EntryFiring] = field(default_factory=list)

    def render(self, top: int = 10) -> str:
        lines = [
            f"events={self.events} transactions={self.transactions} "
            f"committed={self.committed} aborted={self.aborted} "
            f"deadlocks={self.deadlocks} cascades={self.cascades}",
            "dependencies: " + (
                " ".join(
                    f"{kind}={count}"
                    for kind, count in sorted(self.dependencies_by_kind.items())
                ) or "none"
            ),
        ]
        if self.firings:
            lines.append(f"top table-entry firings (of {len(self.firings)}):")
            for firing in self.firings[:top]:
                condition = firing.condition or "<fallback: strongest>"
                lines.append(
                    f"  {firing.count:5}x ({firing.invoked}, {firing.executing}) "
                    f"-> {firing.dependency} [{firing.source}] {condition}"
                )
        return "\n".join(lines)


def summarize(events: Sequence[TraceEvent]) -> TraceSummary:
    """Compute the :class:`TraceSummary` of a trace."""
    summary = TraceSummary(events=len(events))
    for event in events:
        summary.by_type[event.type] = summary.by_type.get(event.type, 0) + 1
        if isinstance(event, TxnBegun):
            summary.transactions += 1
        elif isinstance(event, TxnCommitted):
            summary.committed += 1
        elif isinstance(event, TxnAborted):
            summary.aborted += 1
        elif isinstance(event, CascadeAborted):
            summary.cascades += 1
            summary.aborted += 1
        elif isinstance(event, DeadlockResolved):
            summary.deadlocks += 1
        elif isinstance(event, DependencyRecorded):
            summary.dependencies_by_kind[event.dependency] = (
                summary.dependencies_by_kind.get(event.dependency, 0) + 1
            )
    summary.firings = firing_histogram(events)
    return summary


# ---------------------------------------------------------------------------
# Trace-based serializability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TracedOperation:
    """One granted operation reconstructed from the trace."""

    object_name: str
    operation: str
    args: tuple
    outcome: str | None
    result: Any
    sequence: int


@dataclass
class TracedRun:
    """Everything replay needs, reconstructed from a trace."""

    #: object name -> (adt name, parsed initial state)
    objects: dict[str, tuple[str, Any]] = field(default_factory=dict)
    #: txn -> granted operations in execution order
    operations: dict[int, list[TracedOperation]] = field(default_factory=dict)
    #: committed txn -> commit sequence stamp
    commit_sequence: dict[int, int] = field(default_factory=dict)
    #: (later, earlier) dependency edges recorded during the run
    edges: set[tuple[int, int]] = field(default_factory=set)
    #: object name -> rendered final abstract state (when recorded)
    final_states: dict[str, str] = field(default_factory=dict)

    @property
    def committed(self) -> list[int]:
        """Committed transactions in commit order."""
        return sorted(self.commit_sequence, key=self.commit_sequence.__getitem__)


def reconstruct_run(events: Iterable[TraceEvent]) -> TracedRun:
    """Fold a trace into the replayable :class:`TracedRun` form."""
    run = TracedRun()
    for event in events:
        if isinstance(event, ObjectRegistered):
            run.objects[event.object_name] = (
                event.adt, parse_literal(event.initial_state)
            )
        elif isinstance(event, OpGranted):
            run.operations.setdefault(event.txn, []).append(
                TracedOperation(
                    object_name=event.object_name,
                    operation=event.operation,
                    args=tuple(parse_literal(event.args)),
                    outcome=event.outcome,
                    result=parse_literal(event.result),
                    sequence=event.sequence,
                )
            )
        elif isinstance(event, TxnCommitted):
            run.commit_sequence[event.txn] = event.commit_sequence
        elif isinstance(event, DependencyRecorded):
            run.edges.add((event.txn, event.other_txn))
        elif isinstance(event, RunCompleted):
            run.final_states = dict(event.final_states)
    for operations in run.operations.values():
        operations.sort(key=lambda op: op.sequence)
    return run


def _resolve_adts(
    run: TracedRun, adts: Mapping[str, Any] | None
) -> dict[str, Any]:
    """Object name -> ADT spec, from the caller or the built-in registry."""
    from repro.adts.registry import make_adt

    resolved = {}
    for object_name, (adt_name, _) in run.objects.items():
        if adts is not None and object_name in adts:
            resolved[object_name] = adts[object_name]
        else:
            resolved[object_name] = make_adt(adt_name)
    return resolved


def _replay(run: TracedRun, adts: dict[str, Any], order: Sequence[int]) -> bool:
    """Whether serial execution in ``order`` reproduces the trace.

    Mirrors :func:`repro.cc.serializability.replay_serial`: every recorded
    return value must be reproduced, and — when the trace recorded final
    states — the replayed final states must match them.
    """
    from repro.spec.adt import execute_invocation, render_state
    from repro.spec.operation import Invocation
    from repro.spec.returnvalue import ReturnValue

    states = {name: initial for name, (_, initial) in run.objects.items()}
    for txn in order:
        for op in run.operations.get(txn, []):
            execution = execute_invocation(
                adts[op.object_name],
                states[op.object_name],
                Invocation(op.operation, op.args),
            )
            recorded = ReturnValue(outcome=op.outcome, result=op.result)
            if execution.returned != recorded:
                return False
            states[op.object_name] = execution.post_state
    for object_name, final_repr in run.final_states.items():
        if object_name not in states:
            continue
        # Canonical on both sides: traces recorded before states were
        # rendered canonically hold set elements in hash order.
        expected = render_state(parse_literal(final_repr))
        if render_state(states[object_name]) != expected:
            return False
    return True


def _topological(run: TracedRun) -> list[int] | None:
    """Committed transactions ordered so edges point backwards."""
    members = set(run.commit_sequence)
    preds: dict[int, set[int]] = {txn: set() for txn in members}
    for later, earlier in run.edges:
        if later in members and earlier in members:
            preds[later].add(earlier)

    def first_stamp(txn: int) -> int:
        operations = run.operations.get(txn, [])
        return operations[0].sequence if operations else 0

    order: list[int] = []
    remaining = set(members)
    while remaining:
        ready = sorted(
            (txn for txn in remaining if not (preds[txn] & remaining)),
            key=first_stamp,
        )
        if not ready:
            return None
        order.append(ready[0])
        remaining.discard(ready[0])
    return order


def find_serialization_from_trace(
    events: Iterable[TraceEvent],
    adts: Mapping[str, Any] | None = None,
    brute_force_limit: int = 6,
) -> list[int] | None:
    """A serial order of the committed transactions explaining the trace.

    Candidate orders, exactly as in
    :func:`repro.cc.serializability.find_serialization`: the recorded
    commit order, the topological order over the recorded dependency
    edges, then brute force for small populations.  ``adts`` optionally
    maps object names to specs; unmapped objects are resolved through the
    built-in ADT registry by the name recorded at registration.
    """
    run = reconstruct_run(events)
    committed = run.committed
    if not committed:
        return []
    resolved = _resolve_adts(run, adts)
    if _replay(run, resolved, committed):
        return committed
    topological = _topological(run)
    if topological is not None and _replay(run, resolved, topological):
        return topological
    if len(committed) <= brute_force_limit:
        for permutation in permutations(committed):
            candidate = list(permutation)
            if _replay(run, resolved, candidate):
                return candidate
    return None


def serializable_from_trace(
    events: Iterable[TraceEvent],
    adts: Mapping[str, Any] | None = None,
    brute_force_limit: int = 6,
) -> bool:
    """Whether the committed portion of the traced run is serializable."""
    return (
        find_serialization_from_trace(events, adts, brute_force_limit)
        is not None
    )


# ---------------------------------------------------------------------------
# Metrics from a trace
# ---------------------------------------------------------------------------

#: Default histogram bounds for blocked-interval durations (sim-time units).
BLOCKED_BOUNDS = (0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0)


def registry_from_trace(events: Sequence[TraceEvent], registry=None):
    """Populate a metrics registry from a trace.

    Counters per event type and per dependency kind, plus a histogram of
    blocked-interval durations (from each transaction's ``OpBlocked`` to
    its next grant or abort, in sim-time).  Returns the registry.
    """
    from repro.obs.registry import MetricsRegistry

    registry = registry if registry is not None else MetricsRegistry()
    blocked = registry.histogram(
        "blocked_interval_seconds",
        bounds=BLOCKED_BOUNDS,
        help="Duration of operation-blocked intervals (sim-time).",
    )
    blocked_since: dict[int, float] = {}
    for event in events:
        registry.counter(
            "events", help="Trace events by type.", labels={"type": event.type}
        ).inc()
        if isinstance(event, DependencyRecorded):
            registry.counter(
                "dependencies",
                help="Recorded dependencies by kind and evidence source.",
                labels={"kind": event.dependency, "source": event.source},
            ).inc()
        if isinstance(event, OpBlocked):
            blocked_since.setdefault(event.txn, event.time)
        elif isinstance(event, (OpGranted, TxnAborted)):
            txn = event.txn
            if txn in blocked_since:
                blocked.observe(event.time - blocked_since.pop(txn))
    return registry


# ---------------------------------------------------------------------------
# Dashboard (the `report` CLI)
# ---------------------------------------------------------------------------

def _slow_txns_from_spans(forest, top: int) -> list[str]:
    """Top-``top`` slowest transactions with their critical paths."""
    from repro.obs.spans import render_critical_path

    rows = []
    for gtxn, roots in forest.roots_by_gtxn().items():
        for root in roots:
            rows.append((root.duration, gtxn, root))
    rows.sort(key=lambda row: (-row[0], row[1], row[2].event.span_id))
    lines = []
    for duration, gtxn, root in rows[:top]:
        lines.append(
            f"  gtxn={gtxn:<4} {root.event.status:<10} {duration:8.2f}  "
            f"{render_critical_path(root)}"
        )
    return lines


def _slow_txns_from_events(events: Sequence[TraceEvent], top: int) -> list[str]:
    """Span-less fallback: TxnBegun -> resolution durations."""
    begun: dict[int, float] = {}
    rows: list[tuple[float, int, str]] = []
    for event in events:
        if isinstance(event, TxnBegun):
            begun[event.txn] = event.time
        elif isinstance(event, (TxnCommitted, TxnAborted)):
            if event.txn in begun:
                status = (
                    "COMMITTED" if isinstance(event, TxnCommitted) else "ABORTED"
                )
                rows.append((event.time - begun.pop(event.txn), event.txn, status))
    rows.sort(key=lambda row: (-row[0], row[1]))
    return [
        f"  txn={txn:<4} {status:<10} {duration:8.2f}"
        for duration, txn, status in rows[:top]
    ]


def _serving_section(events: Sequence[TraceEvent]) -> list[str]:
    """The serving-layer rows: throughput, phases, policy timeline.

    Rendered only when the trace carries serving events.  Request
    completions come from ``TxnCommitted``/``TxnAborted`` when the trace
    has no spans (bare-scheduler serving) and from root ``txn`` spans
    otherwise (cluster serving, where local txn ids must not be mistaken
    for gtxns).  Formatting is fixed, so identical traces render
    byte-identical sections.
    """
    from repro.obs.events import (
        BreakerStateChanged,
        CascadeAborted,
        CommitWaited,
        DeadlineExceeded,
        DegradationStep,
        PolicySwitched,
        RequestAdmitted,
        RequestArrived,
        RequestShed,
        SpanRecorded,
        TxnAborted,
        TxnCommitted,
    )
    from repro.obs.latency import Histogram

    arrivals: dict[int, RequestArrived] = {}
    admissions: dict[int, RequestAdmitted] = {}
    request_of: dict[int, int] = {}
    first_wait: dict[int, float] = {}
    switches: list[PolicySwitched] = []
    shed_reasons: dict[str, int] = {}
    shed_requests: set[int] = set()
    expired = 0
    breaker_moves: list[BreakerStateChanged] = []
    ladder_moves: list[DegradationStep] = []
    local_resolutions: dict[int, tuple[float, str]] = {}
    span_resolutions: dict[int, tuple[float, str]] = {}
    for event in events:
        if isinstance(event, RequestArrived):
            arrivals.setdefault(event.request_id, event)
        elif isinstance(event, RequestAdmitted):
            # Last admission wins: under at-least-once serving a retried
            # request is re-admitted as a fresh transaction, and the
            # final attempt's outcome is the request's outcome.
            admissions[event.request_id] = event
            request_of.setdefault(event.txn, event.request_id)
        elif isinstance(event, CommitWaited):
            first_wait.setdefault(event.txn, event.time)
        elif isinstance(event, PolicySwitched):
            switches.append(event)
        elif isinstance(event, RequestShed):
            shed_reasons[event.reason] = shed_reasons.get(event.reason, 0) + 1
            shed_requests.add(event.request_id)
        elif isinstance(event, DeadlineExceeded):
            expired += 1
            shed_requests.add(event.request_id)
        elif isinstance(event, BreakerStateChanged):
            breaker_moves.append(event)
        elif isinstance(event, DegradationStep):
            ladder_moves.append(event)
        elif isinstance(event, (TxnCommitted, TxnAborted, CascadeAborted)):
            outcome = "committed" if isinstance(event, TxnCommitted) else "aborted"
            local_resolutions.setdefault(event.txn, (event.time, outcome))
        elif isinstance(event, SpanRecorded):
            if event.name == "txn" and not event.parent_span_id:
                outcome = (
                    "committed" if event.status == "COMMITTED" else "aborted"
                )
                span_resolutions.setdefault(event.gtxn, (event.end, outcome))
    if not arrivals and not switches:
        return []
    resolutions = span_resolutions if span_resolutions else local_resolutions

    phases = {
        name: {"committed": Histogram(), "aborted": Histogram()}
        for name in ("queue_wait", "service", "commit_wait", "e2e")
    }
    committed = aborted = 0
    committed_ops = 0
    first_arrival: float | None = None
    last_finish: float | None = None
    for request_id, admitted in sorted(admissions.items()):
        arrived = arrivals.get(request_id)
        if arrived is None:
            continue
        if first_arrival is None or arrived.time < first_arrival:
            first_arrival = arrived.time
        resolution = resolutions.get(admitted.txn)
        if resolution is None:
            continue
        finish, outcome = resolution
        if outcome == "committed":
            committed += 1
            committed_ops += arrived.operations
        else:
            aborted += 1
        if last_finish is None or finish > last_finish:
            last_finish = finish
        phases["queue_wait"][outcome].observe(admitted.time - arrived.time)
        phases["service"][outcome].observe(finish - admitted.time)
        phases["e2e"][outcome].observe(finish - arrived.time)
        waited = first_wait.get(admitted.txn)
        if waited is not None:
            phases["commit_wait"][outcome].observe(finish - waited)

    lines = ["== serving =="]
    duration = (
        last_finish - first_arrival
        if first_arrival is not None and last_finish is not None
        else 0.0
    )
    lines.append(
        f"  requests: arrived={len(arrivals)} admitted={len(admissions)} "
        f"committed={committed} aborted={aborted}"
    )
    if shed_reasons or expired:
        reasons = " ".join(
            f"{reason}={count}"
            for reason, count in sorted(shed_reasons.items())
        )
        lines.append(
            f"  shed: total={len(shed_requests)} "
            f"deadline_exceeded={expired}"
            + (f" ({reasons})" if reasons else "")
        )
    if duration > 0:
        lines.append(
            f"  sustained throughput: {committed_ops / duration:.2f} "
            f"committed ops/time ({committed_ops} ops over {duration:.2f})"
        )
    rows = [
        (phase, outcome, histogram)
        for phase in ("queue_wait", "service", "commit_wait", "e2e")
        for outcome, histogram in sorted(phases[phase].items())
        if histogram.count
    ]
    if rows:
        lines.append(f"  {'phase':<12} {'outcome':<10} summary")
        for phase, outcome, histogram in rows:
            lines.append(f"  {phase:<12} {outcome:<10} {histogram.summary()}")
    if switches:
        lines.append("  policy switches:")
        for event in switches:
            lines.append(
                f"    t={event.time:8.2f} {event.object_name:<16} "
                f"{event.old:>10} -> {event.new:<10} "
                f"(conflict={event.conflict_rate:.2f} "
                f"abort={event.abort_rate:.2f} {event.reason})"
            )
    else:
        lines.append("  policy switches: (none)")
    if breaker_moves:
        lines.append("  breaker transitions:")
        for event in breaker_moves:
            lines.append(
                f"    t={event.time:8.2f} {event.object_name:<16} "
                f"{event.old:>9} -> {event.new:<9} "
                f"(failure_rate={event.failure_rate:.2f})"
            )
    if ladder_moves:
        lines.append("  degradation timeline:")
        for event in ladder_moves:
            lines.append(
                f"    t={event.time:8.2f} level {event.previous} -> "
                f"{event.level} (backlog={event.backlog} {event.reason})"
            )
    return lines


def _replication_section(events: Sequence[TraceEvent]) -> list[str]:
    """The replica-group rows: view changes, shipping lag, fencing.

    Rendered only when the trace carries replication events
    (:mod:`repro.dist.replication`).  The view-change timeline is the
    failover story of the run; per-primary lag histograms come from the
    ``lag`` each :class:`LogShipped` batch observed (how far the backup
    trailed when the batch was cut); fenced counts show the deposed
    primaries' stale messages being rejected.  Formatting is fixed, so
    identical traces render byte-identical sections.
    """
    from repro.obs.events import (
        LogShipped,
        PrimaryFenced,
        ReplicaReadServed,
        ViewChanged,
    )
    from repro.obs.latency import Histogram

    ships: dict[str, Histogram] = {}
    shipped_records: dict[str, int] = {}
    views: list[ViewChanged] = []
    fenced: dict[tuple[str, str], int] = {}
    reads: dict[str, int] = {}
    read_watermarks = Histogram()
    for event in events:
        if isinstance(event, LogShipped):
            ships.setdefault(event.primary, Histogram()).observe(event.lag)
            shipped_records[event.primary] = (
                shipped_records.get(event.primary, 0) + event.count
            )
        elif isinstance(event, ViewChanged):
            views.append(event)
        elif isinstance(event, PrimaryFenced):
            key = (event.node, event.kind)
            fenced[key] = fenced.get(key, 0) + 1
        elif isinstance(event, ReplicaReadServed):
            reads[event.backup] = reads.get(event.backup, 0) + 1
            read_watermarks.observe(float(event.watermark))
    if not ships and not views and not fenced and not reads:
        return []

    lines = ["== replication =="]
    if views:
        lines.append("  view-change timeline:")
        for event in views:
            in_doubt = (
                f" in_doubt={sorted(event.in_doubt)}" if event.in_doubt else ""
            )
            lines.append(
                f"    t={event.time:8.2f} {event.shard:<16} "
                f"{event.primary} -> {event.promoted} "
                f"(epoch {event.epoch}, log={event.log_records}{in_doubt})"
            )
    else:
        lines.append("  view changes: (none)")
    if ships:
        lines.append(f"  {'primary':<16} {'shipped':>8} lag")
        for primary in sorted(ships):
            lines.append(
                f"  {primary:<16} {shipped_records[primary]:>8} "
                f"{ships[primary].summary()}"
            )
    if fenced:
        lines.append("  fenced messages:")
        for (node, kind), count in sorted(fenced.items()):
            lines.append(f"    {node:<16} {kind:<12} {count:>4}x")
    if reads:
        served = " ".join(
            f"{backup}={count}" for backup, count in sorted(reads.items())
        )
        lines.append(
            f"  replica reads: {served} "
            f"(watermark {read_watermarks.summary()})"
        )
    return lines


def render_dashboard(
    events: Sequence[TraceEvent], top: int = 10, window: int = 32
) -> str:
    """The deterministic text dashboard behind ``repro ... report``.

    Sections: trace summary, slowest transactions with critical paths
    (span-based when the trace has spans, event-based otherwise),
    per-object latency, per-node span latency, the serving layer
    (throughput, per-phase latency, policy-switch timeline — only when
    the trace carries serving events), the replication layer
    (view-change timeline, shipping lag, fenced messages — only when
    the trace carries replication events), and the per-object conflict
    profile with a contention heatmap.  Formatting is fixed
    (``%.2f``, sorted keys), so identical traces render byte-identical
    dashboards.
    """
    from repro.obs.conflict import profiles_from_trace
    from repro.obs.latency import latency_from_trace
    from repro.obs.spans import build_span_trees

    summary = summarize(events)
    recorder = latency_from_trace(events)
    forest = build_span_trees(events)
    profiles = profiles_from_trace(events, window=window)

    lines = ["== trace summary ==", summary.render(top=5)]

    lines.append("")
    lines.append(f"== slowest transactions (top {top}) ==")
    slow = (
        _slow_txns_from_spans(forest, top)
        if forest.trees
        else _slow_txns_from_events(events, top)
    )
    lines.extend(slow or ["  (no resolved transactions)"])
    if forest.orphans or forest.duplicates:
        lines.append(
            f"  !! span anomalies: orphans={len(forest.orphans)} "
            f"duplicates={len(forest.duplicates)}"
        )

    lines.append("")
    lines.append("== per-object latency ==")
    object_rows = [
        (metric, key, histogram)
        for metric, key, histogram in recorder.rows()
        if metric in ("op_grant", "blocked")
    ]
    if object_rows:
        lines.append(f"  {'metric':<10} {'object':<16} summary")
        for metric, key, histogram in object_rows:
            lines.append(f"  {metric:<10} {key:<16} {histogram.summary()}")
    else:
        lines.append("  (no operation latency recorded)")
    e2e = recorder.merged("txn")
    if e2e.count:
        lines.append(f"  end-to-end txn: {e2e.summary()}")

    span_rows = [
        (metric, key, histogram)
        for metric, key, histogram in recorder.rows()
        if metric.startswith("span.")
    ]
    if span_rows:
        lines.append("")
        lines.append("== per-node span latency ==")
        lines.append(f"  {'span':<16} {'node':<14} summary")
        for metric, key, histogram in span_rows:
            lines.append(
                f"  {metric[len('span.'):]:<16} {key:<14} {histogram.summary()}"
            )

    serving = _serving_section(events)
    if serving:
        lines.append("")
        lines.extend(serving)

    replication = _replication_section(events)
    if replication:
        lines.append("")
        lines.extend(replication)

    lines.append("")
    lines.append(f"== conflict profile (window={window}) ==")
    if profiles:
        lines.append(
            f"  {'object':<16} {'req':>6} {'grant':>6} {'block':>6} "
            f"{'abort':>6} {'rate':>6}  mode"
        )
        for name, profile in profiles.items():
            total = profile.total
            lines.append(
                f"  {name:<16} {total.requests:>6} {total.grants:>6} "
                f"{total.blocks:>6} {total.aborts:>6} "
                f"{profile.conflict_rate:>6.2f}  {profile.recommend()}"
            )
        heat = "".join(profile.heat_char() for profile in profiles.values())
        lines.append(f"  heatmap [{heat}]  ({' '.join(profiles)})")
    else:
        lines.append("  (no operations traced)")

    return "\n".join(lines) + "\n"
