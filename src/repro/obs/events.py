"""Typed, immutable trace events of the scheduler stack.

Every decision the table-driven concurrency-control stack takes —
operation granted, operation blocked, dependency recorded (with the exact
table entry and the evaluated condition that produced it), commit, abort,
cascade, deadlock resolution, derivation-stage timing — is representable
as one frozen dataclass here.  Events carry only JSON-friendly primitives
(strings, numbers, tuples), so a trace serialises losslessly to JSONL and
back without importing the scheduler: the analysis layer reconstructs
invocations and states from the ``repr`` strings recorded at emission
time.

The event vocabulary deliberately mirrors the observables of the paper's
Section-5 refinement claims: a :class:`DependencyRecorded` event names the
``(invoked, executing)`` operation pair, the full compatibility-table
entry, the condition that held, and which evidence source (table entry,
locality intersection, or shadow-return certification) was decisive — so
"the refined table extracted more concurrency" is inspectable per
decision, not only in post-hoc aggregates.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from typing import Any, ClassVar

__all__ = [
    "TraceEvent",
    "RunStarted",
    "ObjectRegistered",
    "TxnBegun",
    "OpRequested",
    "OpGranted",
    "OpBlocked",
    "DependencyRecorded",
    "CommitWaited",
    "TxnCommitted",
    "TxnAborted",
    "CascadeAborted",
    "DeadlockResolved",
    "StageTimed",
    "RunCompleted",
    "FaultInjected",
    "CrashInduced",
    "RecoveryStarted",
    "RecoveryCompleted",
    "InvariantViolated",
    "DegradedMode",
    "RestartsExhausted",
    "MessageSent",
    "MessageDropped",
    "PartitionOpened",
    "TwoPCVoted",
    "TwoPCDecided",
    "NodeCrashed",
    "NodeRecovered",
    "LogShipped",
    "ViewChanged",
    "PrimaryFenced",
    "ReplicaReadServed",
    "SpanRecorded",
    "RequestArrived",
    "RequestAdmitted",
    "PolicySwitched",
    "RequestShed",
    "DeadlineExceeded",
    "BreakerStateChanged",
    "DegradationStep",
    "event_from_dict",
    "event_type_names",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base of all trace events: a timestamp plus a registered type tag."""

    #: Class-level type tag used in serialised form; set per subclass.
    type: ClassVar[str] = "event"

    time: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation: ``{"type": ..., **fields}``."""
        cls = type(self)
        keys = cls.__dict__.get("_dict_keys")
        if keys is None:
            # Cache the key tuple and a C-level attribute reader per
            # subclass; dataclasses.fields re-derives its metadata on
            # every call, which dominates hot tracing.
            names = tuple(field.name for field in fields(self))
            keys = ("type",) + names
            cls._dict_keys = keys
            cls._dict_values = operator.attrgetter(*names)
        values = cls._dict_values(self)
        if len(keys) == 2:  # attrgetter of one name returns a bare value
            values = (values,)
        return dict(zip(keys, (self.type,) + values))


_EVENT_TYPES: dict[str, type[TraceEvent]] = {}


def _register(cls: type[TraceEvent]) -> type[TraceEvent]:
    _EVENT_TYPES[cls.type] = cls
    return cls


@_register
@dataclass(frozen=True)
class RunStarted(TraceEvent):
    """A simulated run began under the given scheduling policy."""

    type: ClassVar[str] = "run_started"
    policy: str = ""
    seed: int | None = None


@_register
@dataclass(frozen=True)
class ObjectRegistered(TraceEvent):
    """A shared object joined the run.

    ``initial_state`` is the object's abstract initial state rendered by
    :func:`repro.spec.adt.render_state` (the reference scheduler, kept
    verbatim, renders it by ``repr``); trace-based replay parses it back
    with :func:`repro.obs.analysis.parse_literal`.
    """

    type: ClassVar[str] = "object_registered"
    object_name: str = ""
    adt: str = ""
    initial_state: str = ""


@_register
@dataclass(frozen=True)
class TxnBegun(TraceEvent):
    """A transaction entered the system."""

    type: ClassVar[str] = "txn_begun"
    txn: int = -1


@_register
@dataclass(frozen=True)
class OpRequested(TraceEvent):
    """A transaction asked to run an operation on a shared object."""

    type: ClassVar[str] = "op_requested"
    txn: int = -1
    object_name: str = ""
    operation: str = ""
    args: str = "()"


@_register
@dataclass(frozen=True)
class OpGranted(TraceEvent):
    """The operation executed; ``sequence`` is the global execution stamp."""

    type: ClassVar[str] = "op_granted"
    txn: int = -1
    object_name: str = ""
    operation: str = ""
    args: str = "()"
    outcome: str | None = None
    result: str = "None"
    sequence: int = 0


@_register
@dataclass(frozen=True)
class OpBlocked(TraceEvent):
    """Blocking policy: an AD verdict stalled the requester."""

    type: ClassVar[str] = "op_blocked"
    txn: int = -1
    object_name: str = ""
    operation: str = ""
    args: str = "()"
    blocked_on: tuple[int, ...] = ()


@_register
@dataclass(frozen=True)
class DependencyRecorded(TraceEvent):
    """An AD/CD edge was recorded between two transactions.

    ``entry`` is the full compatibility-table entry consulted for the
    decisive operation pair, ``condition`` the (rendered) condition that
    held during resolution (empty when the entry fell back to its
    strongest dependency), and ``source`` names the decisive evidence:
    ``"table"`` (the resolved entry), ``"locality"`` (the live Section-4.3
    locality intersection escalated the verdict) or ``"shadow-return"``
    (the replay certification escalated to AD).
    """

    type: ClassVar[str] = "dependency_recorded"
    txn: int = -1
    other_txn: int = -1
    object_name: str = ""
    invoked: str = ""
    executing: str = ""
    dependency: str = "ND"
    entry: str = ""
    condition: str = ""
    source: str = "table"


@_register
@dataclass(frozen=True)
class CommitWaited(TraceEvent):
    """A commit attempt stalled on unresolved predecessors."""

    type: ClassVar[str] = "commit_waited"
    txn: int = -1
    waiting_on: tuple[int, ...] = ()


@_register
@dataclass(frozen=True)
class TxnCommitted(TraceEvent):
    """A transaction committed; ``commit_sequence`` is the commit stamp."""

    type: ClassVar[str] = "txn_committed"
    txn: int = -1
    commit_sequence: int = 0


@_register
@dataclass(frozen=True)
class TxnAborted(TraceEvent):
    """A transaction aborted; ``reason`` names the trigger."""

    type: ClassVar[str] = "txn_aborted"
    txn: int = -1
    #: "requested" (voluntary), "dependency-cycle", "deadlock-victim",
    #: "ad-predecessor-aborted" or "replay-invalidated".
    reason: str = "requested"


@_register
@dataclass(frozen=True)
class CascadeAborted(TraceEvent):
    """A transaction was dragged down by an AD cascade from ``root``."""

    type: ClassVar[str] = "cascade_aborted"
    txn: int = -1
    root: int = -1


@_register
@dataclass(frozen=True)
class DeadlockResolved(TraceEvent):
    """A wait-for cycle was found and broken by aborting ``victim``."""

    type: ClassVar[str] = "deadlock_resolved"
    victim: int = -1
    cycle: tuple[int, ...] = ()


@_register
@dataclass(frozen=True)
class StageTimed(TraceEvent):
    """One derivation-pipeline stage finished (methodology profiling)."""

    type: ClassVar[str] = "stage_timed"
    adt: str = ""
    stage: str = ""
    seconds: float = 0.0
    table_entries: int = 0
    conditional_entries: int = 0


@_register
@dataclass(frozen=True)
class RunCompleted(TraceEvent):
    """A simulated run finished.

    ``final_states`` pairs each object name with its final abstract state
    rendered by :func:`repro.spec.adt.render_state`.
    """

    type: ClassVar[str] = "run_completed"
    committed: int = 0
    aborted: int = 0
    final_states: tuple[tuple[str, str], ...] = ()


@_register
@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """A deterministic fault plan fired at a named fault point.

    ``kind`` is the fault-point name (``spurious_abort``, ``op_failure``,
    ``commit_delay``, ``cache_poison``, ``crash``), ``txn`` the affected
    transaction (``-1`` for scheduler-wide faults like crashes and cache
    poisoning) and ``detail`` a short free-form qualifier.
    """

    type: ClassVar[str] = "fault_injected"
    kind: str = ""
    txn: int = -1
    detail: str = ""


@_register
@dataclass(frozen=True)
class CrashInduced(TraceEvent):
    """The scheduler process was killed by the fault plan.

    Everything not reconstructible from the durable decision log is lost;
    a :class:`RecoveryStarted`/:class:`RecoveryCompleted` pair follows
    when a decision log is attached.
    """

    type: ClassVar[str] = "crash_induced"
    #: Decision-log records available to the recovery that follows.
    log_records: int = 0


@_register
@dataclass(frozen=True)
class RecoveryStarted(TraceEvent):
    """Crash recovery began: the decision log is about to be replayed."""

    type: ClassVar[str] = "recovery_started"
    log_records: int = 0


@_register
@dataclass(frozen=True)
class RecoveryCompleted(TraceEvent):
    """Crash recovery finished; the rebuilt scheduler is live again.

    ``replayed`` counts the decision-log records replayed and verified;
    ``verified`` is ``False`` only when outcome verification was skipped.
    """

    type: ClassVar[str] = "recovery_completed"
    replayed: int = 0
    verified: bool = True


@_register
@dataclass(frozen=True)
class InvariantViolated(TraceEvent):
    """A monitored invariant failed its periodic check.

    ``invariant`` names the check (``acyclicity``, ``serializability``,
    ``shadow_freshness``); ``detail`` describes the violation.
    """

    type: ClassVar[str] = "invariant_violated"
    invariant: str = ""
    detail: str = ""


@_register
@dataclass(frozen=True)
class DegradedMode(TraceEvent):
    """The monitor fell back to bit-parity reference execution.

    Emitted after fast-path quarantine failed to clear the violation;
    ``reason`` names the invariant that kept failing.
    """

    type: ClassVar[str] = "degraded_mode"
    reason: str = ""


@_register
@dataclass(frozen=True)
class RestartsExhausted(TraceEvent):
    """A restarted program hit its restart ceiling and finished aborted.

    Makes the simulator's livelock-avoidance observable: without this
    event (and the matching ``RunMetrics.restarts_exhausted`` counter) a
    program silently stopped being retried.
    """

    type: ClassVar[str] = "restarts_exhausted"
    txn: int = -1
    restarts: int = 0


@_register
@dataclass(frozen=True)
class MessageSent(TraceEvent):
    """The distributed bus accepted a message for delivery.

    ``kind`` is the protocol message kind (``op``, ``prepare``, ``vote``,
    ``decide`` …); ``deliver_at`` the scheduled sim-time delivery.
    """

    type: ClassVar[str] = "message_sent"
    src: str = ""
    dst: str = ""
    kind: str = ""
    gtxn: int = -1
    deliver_at: float = 0.0


@_register
@dataclass(frozen=True)
class MessageDropped(TraceEvent):
    """A bus message was lost: a fault, a partition, or a dead endpoint."""

    type: ClassVar[str] = "message_dropped"
    src: str = ""
    dst: str = ""
    kind: str = ""
    gtxn: int = -1
    #: ``fault`` (msg_drop fired), ``partition``, or ``endpoint-down``.
    reason: str = ""


@_register
@dataclass(frozen=True)
class PartitionOpened(TraceEvent):
    """A bidirectional network partition opened between two endpoints."""

    type: ClassVar[str] = "partition_opened"
    a: str = ""
    b: str = ""
    heals_at: float = 0.0


@_register
@dataclass(frozen=True)
class TwoPCVoted(TraceEvent):
    """A participant answered a PREPARE.

    ``vote`` is ``yes`` (with the shipped AD/CD predecessor gtxn sets in
    ``ad``/``cd``), ``wait`` (an unresolved commit-dependency holds the
    vote back) or ``no``.
    """

    type: ClassVar[str] = "twopc_voted"
    node: str = ""
    gtxn: int = -1
    vote: str = ""
    ad: tuple = ()
    cd: tuple = ()


@_register
@dataclass(frozen=True)
class TwoPCDecided(TraceEvent):
    """The coordinator reached a global decision for a transaction.

    ``decision`` is ``commit`` (durably logged before any COMMIT is sent
    — presumed abort means only commits are logged) or ``abort``;
    ``participants`` the nodes the decision is shipped to.
    """

    type: ClassVar[str] = "twopc_decided"
    gtxn: int = -1
    decision: str = ""
    participants: tuple = ()
    one_phase: bool = False


@_register
@dataclass(frozen=True)
class NodeCrashed(TraceEvent):
    """A simulated node (or the coordinator) lost its volatile state."""

    type: ClassVar[str] = "node_crashed"
    node: str = ""
    log_records: int = 0


@_register
@dataclass(frozen=True)
class NodeRecovered(TraceEvent):
    """A crashed node finished log replay and in-doubt resolution.

    ``in_doubt`` counts the prepared-but-undecided transactions the
    termination protocol had to resolve with the coordinator.
    """

    type: ClassVar[str] = "node_recovered"
    node: str = ""
    replayed: int = 0
    in_doubt: int = 0


@_register
@dataclass(frozen=True)
class LogShipped(TraceEvent):
    """A primary shipped a batch of DecisionLog records to a backup.

    ``lag`` is the backup's replication lag *before* this batch: the
    batch's first index minus the backup's applied watermark as the
    manager last read it, at the previous cluster turn boundary.
    """

    type: ClassVar[str] = "log_shipped"
    primary: str = ""
    backup: str = ""
    #: Index of the first record in the batch; the batch spans
    #: ``[from_index, from_index + count)`` of the primary's log.
    from_index: int = 0
    count: int = 0
    lag: int = 0


@_register
@dataclass(frozen=True)
class ViewChanged(TraceEvent):
    """A replica group entered a new epoch, promoting a backup.

    ``promoted`` is the backup instance that assumed the primary role
    (and the primary's bus name); ``log_records`` the length of the log
    it was promoted with — the most-caught-up-backup certificate.
    """

    type: ClassVar[str] = "view_changed"
    shard: str = ""
    primary: str = ""
    promoted: str = ""
    epoch: int = 0
    log_records: int = 0
    #: Prepared-but-undecided gtxns the promoted primary must resolve.
    in_doubt: int = 0


@_register
@dataclass(frozen=True)
class PrimaryFenced(TraceEvent):
    """A stale-epoch message was rejected instead of applied.

    Emitted by the receiving group member when a message stamped with an
    older epoch arrives — a deposed primary's in-flight traffic (2PC
    PREPARE/decide legs included) bouncing off the fence.
    """

    type: ClassVar[str] = "primary_fenced"
    node: str = ""
    src: str = ""
    kind: str = ""
    gtxn: int = -1
    message_epoch: int = 0
    current_epoch: int = 0


@_register
@dataclass(frozen=True)
class ReplicaReadServed(TraceEvent):
    """A backup answered a snapshot observer read at its watermark."""

    type: ClassVar[str] = "replica_read_served"
    backup: str = ""
    shard: str = ""
    operation: str = ""
    #: The backup's applied-record watermark the read was served at.
    watermark: int = 0


@_register
@dataclass(frozen=True)
class SpanRecorded(TraceEvent):
    """One closed causal-tracing span (see :mod:`repro.obs.spans`).

    Spans are emitted once, at close: ``start``/``end`` bound the
    interval in sim-time (``time`` equals ``end``), ``trace_id`` groups
    every span of one global transaction (``g<gtxn>``), and
    ``parent_span_id`` stitches the cross-node tree — an empty parent
    marks a root.  ``node`` is the emitting actor (``driver``, ``coord``,
    ``node0``…); ``detail`` qualifies the span (for 2PC phase spans, the
    participant the RPC targeted).
    """

    type: ClassVar[str] = "span"
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""
    name: str = ""
    node: str = ""
    gtxn: int = -1
    start: float = 0.0
    end: float = 0.0
    status: str = "ok"
    detail: str = ""


@_register
@dataclass(frozen=True)
class RequestArrived(TraceEvent):
    """A serving-layer request entered the front-end queue.

    ``time`` is the request's generated arrival (open loop) or issue
    time (closed loop); admission may happen later when the in-flight
    cap is full — the gap is the request's queue-wait phase.
    """

    type: ClassVar[str] = "request_arrived"
    request_id: int = -1
    session: int = -1
    object_name: str = ""
    operations: int = 0


@_register
@dataclass(frozen=True)
class RequestAdmitted(TraceEvent):
    """A queued request was admitted: a transaction now runs it."""

    type: ClassVar[str] = "request_admitted"
    request_id: int = -1
    txn: int = -1


@_register
@dataclass(frozen=True)
class PolicySwitched(TraceEvent):
    """The adaptive controller changed one object's concurrency policy.

    Emitted at the safe epoch boundary where the switch was applied (no
    active transaction had executed on the object).  ``conflict_rate``
    and ``abort_rate`` are the lifetime rates that drove the decision;
    ``reason`` names the recommendation source.
    """

    type: ClassVar[str] = "policy_switched"
    object_name: str = ""
    old: str = ""
    new: str = ""
    conflict_rate: float = 0.0
    abort_rate: float = 0.0
    reason: str = "recommendation"


@_register
@dataclass(frozen=True)
class RequestShed(TraceEvent):
    """The serving layer refused or dropped a request without running it.

    ``reason`` names the shed site: ``overload`` (bounded-queue
    oldest-first drop or the degradation ladder's reject rung),
    ``breaker`` (the request's object had a tripped circuit breaker) or
    ``retries_exhausted`` (an at-least-once request used up its retry
    budget).  A shed request never commits — the chaos campaign and the
    property suite certify that.
    """

    type: ClassVar[str] = "request_shed"
    request_id: int = -1
    reason: str = ""
    object_name: str = ""


@_register
@dataclass(frozen=True)
class DeadlineExceeded(TraceEvent):
    """A request ran out of its deadline budget and was shed.

    ``txn`` is the aborted in-flight transaction (``-1`` when the
    deadline expired before admission or in the retry queue).  A
    deadline-exceeded request is *never* silently retried.
    """

    type: ClassVar[str] = "deadline_exceeded"
    request_id: int = -1
    txn: int = -1
    deadline: float = 0.0


@_register
@dataclass(frozen=True)
class BreakerStateChanged(TraceEvent):
    """A per-object circuit breaker moved between states.

    The deterministic state machine is closed -> open -> half-open ->
    (closed | open); ``failure_rate`` is the windowed failure fraction
    that drove the transition (0.0 on cooldown-driven moves).
    """

    type: ClassVar[str] = "breaker_state_changed"
    object_name: str = ""
    old: str = ""
    new: str = ""
    failure_rate: float = 0.0


@_register
@dataclass(frozen=True)
class DegradationStep(TraceEvent):
    """The serving degradation ladder moved to a new level.

    Levels: 0 full service, 1 shed over-deadline work, 2 force queued
    discipline on hot objects, 3 reject at admission.  ``backlog`` is
    the due-but-unadmitted queue depth that drove the step.
    """

    type: ClassVar[str] = "degradation_step"
    level: int = 0
    previous: int = 0
    backlog: int = 0
    reason: str = ""


def event_type_names() -> list[str]:
    """All registered event type tags, sorted."""
    return sorted(_EVENT_TYPES)


def _coerce(value: Any) -> Any:
    """JSON gives back lists where events carry tuples; restore tuples."""
    if isinstance(value, list):
        return tuple(_coerce(item) for item in value)
    return value


def event_from_dict(payload: dict[str, Any]) -> TraceEvent:
    """Reconstruct an event from its :meth:`TraceEvent.to_dict` form."""
    data = dict(payload)
    type_tag = data.pop("type", None)
    if type_tag not in _EVENT_TYPES:
        raise ValueError(f"unknown trace event type {type_tag!r}")
    cls = _EVENT_TYPES[type_tag]
    known = {field.name for field in fields(cls)}
    kwargs = {key: _coerce(value) for key, value in data.items() if key in known}
    return cls(**kwargs)
