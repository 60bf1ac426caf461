"""A deterministic simulated message bus with injectable message faults.

The bus is the only channel between the coordinator and the participant
nodes.  It is seeded and clock-free in the same sense as the rest of the
stack: sim-time only advances when a message carries latency (a fault)
or an RPC waits out a timeout, so a fault-free one-shard run makes the
exact same scheduler calls in the exact same order as the bare harness.
Replica groups do not ship their logs over it: a primary's backups
apply its decision log directly (:mod:`repro.dist.replication`), so
every message, heartbeats and observer reads included, takes the fault
consult below.

Per sent message the bus consults the :class:`~repro.robust.faults.FaultPlan`
message-level fault points, in a fixed order:

1. ``partition`` — may open a bidirectional partition on a seeded-chosen
   link for ``partition_duration`` sim-time; messages crossing an open
   partition (either direction) are dropped until it heals.
2. ``msg_drop`` — the message is silently lost.
3. ``msg_delay`` — bounded seeded extra latency.
4. ``msg_reorder`` — small seeded jitter that pushes the message past
   later sends (the queue is ordered by ``(deliver_at, seq)``).
5. ``msg_duplicate`` — the message is enqueued twice.

An empty message-fault plan draws nothing from any stream, so the bus is
bit-identical to a fault-free bus (the PR 4 contract extended to
messages).

RPC discipline: :meth:`SimBus.rpc` sends a request carrying a unique
``request_id``, then *pumps* delivery — handlers run synchronously, in
delivery order — until the matching reply arrives or the attempt's
deadline passes; timeouts retry with capped exponential backoff, reusing
the same ``request_id`` so receivers can deduplicate.  A handler that
raises :class:`SimCrash` kills its endpoint: the endpoint is marked
down, its queued inbound messages are lost, and the in-flight RPC times
out — the cluster revives the endpoint from its durable log at the next
turn boundary.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field

from repro.obs.events import MessageDropped, MessageSent, PartitionOpened
from repro.obs.spans import _NO_CONTEXT, SpanEmitter
from repro.obs.tracers import NULL_TRACER

from repro.dist.stats import DistStats

__all__ = ["Message", "SimBus", "SimCrash"]


class SimCrash(Exception):
    """A simulated process crash of one endpoint (node or coordinator)."""

    def __init__(self, actor: str) -> None:
        super().__init__(f"simulated crash of {actor}")
        self.actor = actor


@dataclass
class Message:
    """One bus message; ``payload`` carries in-memory protocol values."""

    src: str
    dst: str
    kind: str
    gtxn: int = -1
    request_id: str = ""
    payload: dict = field(default_factory=dict)
    deliver_at: float = 0.0
    seq: int = 0
    #: Causal-tracing context ``(trace_id, span_id)`` of the sender's
    #: span; observability only — protocol logic never reads it.
    span: tuple = _NO_CONTEXT
    #: Absolute sim-time deadline of the serving request this message
    #: works for; ``0.0`` = none.  A deadline-carrying message that
    #: would deliver past its deadline is dropped (``expired``) — the
    #: receiver's work could no longer help the request anyway.
    deadline: float = 0.0


class SimBus:
    """Deterministic message bus: seeded faults, pumped synchronous RPC."""

    def __init__(
        self,
        plan=None,
        stats: DistStats | None = None,
        tracer=NULL_TRACER,
        base_latency: float = 0.0,
        timeout: float = 4.0,
        retries: int = 3,
        backoff_cap: float = 32.0,
    ) -> None:
        self.plan = plan
        self.stats = stats if stats is not None else DistStats()
        self.tracer = tracer
        self.base_latency = base_latency
        self.timeout = timeout
        self.retries = retries
        self.backoff_cap = backoff_cap
        self.now: float = 0.0
        #: Optional always-on RPC round-trip hook: ``latency(kind, dt)``.
        self.latency = None
        #: Optional epoch-stamping hook installed by the replication
        #: manager: ``epoch_stamp(dst) -> int | None``.  A non-``None``
        #: result is stamped into the payload as ``"_epoch"`` so group
        #: members can fence messages sent under a deposed view.
        #: Re-evaluated per send, so each RPC retry carries the epoch
        #: current at that attempt.
        self.epoch_stamp = None
        self._spans = SpanEmitter("bus", tracer, clock=lambda: self.now)
        self._queue: list[tuple[float, int, Message]] = []
        self._handlers: dict[str, object] = {}
        self._down: set[str] = set()
        self._partitions: dict[frozenset, float] = {}
        self.partition_links: list[frozenset] = []
        self._seq = itertools.count()
        self._requests = itertools.count()
        self._pumping = False

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    def register_endpoint(self, name: str, handler) -> None:
        """Attach ``handler(message)`` as the endpoint ``name``."""
        self._handlers[name] = handler

    def down(self) -> set[str]:
        """Endpoints currently crashed (awaiting revival)."""
        return set(self._down)

    def crash(self, actor: str) -> None:
        """Kill ``actor``: mark it down and lose its queued inbound mail."""
        self._down.add(actor)
        self._queue = [
            entry for entry in self._queue if entry[2].dst != actor
        ]
        heapq.heapify(self._queue)

    def revive(self, actor: str) -> None:
        self._down.discard(actor)

    def open_partition(self, link: frozenset, duration: float) -> None:
        """Cut ``link`` in both directions for ``duration`` sim-time."""
        heals_at = self.now + duration
        self._partitions[link] = heals_at
        self.stats.partitions_opened += 1
        if self.tracer:
            a, b = sorted(link)
            self.tracer.emit(
                PartitionOpened(time=self.now, a=a, b=b, heals_at=heals_at)
            )

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        kind: str,
        gtxn: int = -1,
        payload: dict | None = None,
        request_id: str = "",
        span: tuple = _NO_CONTEXT,
        deadline: float = 0.0,
    ) -> None:
        """Enqueue one message, consulting the message fault points."""
        plan = self.plan
        extra_latency = 0.0
        duplicate = False
        if self.epoch_stamp is not None:
            epoch = self.epoch_stamp(dst)
            if epoch is not None:
                payload = dict(payload) if payload else {}
                payload["_epoch"] = epoch
        if plan:
            opened = plan.partition(len(self.partition_links))
            if opened is not None:
                pick, duration = opened
                self.open_partition(self.partition_links[pick], duration)
        if self._partitions:
            link = frozenset((src, dst))
            heals_at = self._partitions.get(link)
            if heals_at is not None:
                if self.now < heals_at:
                    self.stats.partition_drops += 1
                    self._drop(src, dst, kind, gtxn, "partition")
                    return
                del self._partitions[link]
        if plan:
            detail = f"{src}->{dst}:{kind}"
            if plan.msg_drop(detail):
                self.stats.messages_dropped += 1
                self._drop(src, dst, kind, gtxn, "fault")
                return
            delay = plan.msg_delay(detail)
            if delay is not None:
                self.stats.messages_delayed += 1
                extra_latency += delay
            jitter = plan.msg_reorder(detail)
            if jitter is not None:
                self.stats.messages_reordered += 1
                extra_latency += jitter
            duplicate = plan.msg_duplicate(detail)
        deliver_at = self.now + self.base_latency + extra_latency
        message = Message(
            src=src,
            dst=dst,
            kind=kind,
            gtxn=gtxn,
            request_id=request_id,
            payload=payload if payload is not None else {},
            deliver_at=deliver_at,
            seq=next(self._seq),
            span=span,
            deadline=deadline,
        )
        heapq.heappush(self._queue, (message.deliver_at, message.seq, message))
        self.stats.messages_sent += 1
        if self.tracer:
            self.tracer.emit(
                MessageSent(
                    time=self.now, src=src, dst=dst, kind=kind, gtxn=gtxn,
                    deliver_at=deliver_at,
                )
            )
        if duplicate:
            self.stats.messages_duplicated += 1
            twin = Message(
                src=src,
                dst=dst,
                kind=kind,
                gtxn=gtxn,
                request_id=request_id,
                payload=message.payload,
                deliver_at=deliver_at,
                seq=next(self._seq),
                span=span,
                deadline=deadline,
            )
            heapq.heappush(self._queue, (twin.deliver_at, twin.seq, twin))

    def _drop(
        self, src: str, dst: str, kind: str, gtxn: int, reason: str
    ) -> None:
        if self.tracer:
            self.tracer.emit(
                MessageDropped(
                    time=self.now, src=src, dst=dst, kind=kind, gtxn=gtxn,
                    reason=reason,
                )
            )

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------

    def rpc(
        self,
        caller: str,
        dst: str,
        kind: str,
        gtxn: int = -1,
        payload: dict | None = None,
        timeout: float | None = None,
        retries: int | None = None,
        span: tuple = _NO_CONTEXT,
        deadline: float | None = None,
    ) -> Message | None:
        """Synchronous request/reply with timeout and capped backoff.

        Every attempt reuses the same ``request_id`` (receivers dedupe on
        it); the per-attempt deadline grows exponentially up to
        ``backoff_cap``.  Returns the reply message, or ``None`` after
        the final attempt timed out.  ``span`` (a causal-tracing context)
        rides in every attempt's envelope; retried attempts additionally
        record an ``rpc-retry`` child span.

        ``deadline`` (absolute sim-time) bounds the whole exchange: no
        attempt starts at or past it, every attempt's wait is clipped to
        it, and it rides in the envelope so stale work is dropped at
        delivery.  An exchange abandoned that way counts ``rpc_expired``
        rather than ``rpc_timeouts``.
        """
        timeout = self.timeout if timeout is None else timeout
        retries = self.retries if retries is None else retries
        request_id = f"{caller}#{next(self._requests)}"
        started = self.now
        expired = False
        for attempt in range(retries + 1):
            if deadline is not None and self.now >= deadline:
                expired = True
                break
            retry_span = None
            if attempt:
                self.stats.rpc_retries += 1
                retry_span = self._spans.child(
                    span, "rpc-retry", gtxn, detail=f"{dst}:{kind}"
                )
            self.send(
                caller, dst, kind, gtxn, payload,
                request_id=request_id, span=span,
                deadline=deadline if deadline is not None else 0.0,
            )
            wait = min(timeout * (2 ** attempt), self.backoff_cap)
            if deadline is not None:
                wait = min(wait, max(deadline - self.now, 0.0))
            reply = self._pump(caller, request_id, self.now + wait)
            if retry_span is not None:
                retry_span.finish("ok" if reply is not None else "timeout")
            if reply is not None:
                if self.latency is not None:
                    self.latency(kind, self.now - started)
                return reply
        if expired:
            self.stats.rpc_expired += 1
        else:
            self.stats.rpc_timeouts += 1
        if self.latency is not None:
            self.latency(f"{kind}-timeout", self.now - started)
        return None

    def _pump(
        self, caller: str, request_id: str, deadline: float
    ) -> Message | None:
        """Deliver due messages in order until the awaited reply or timeout."""
        if self._pumping:
            raise RuntimeError("SimBus.rpc is not reentrant")
        self._pumping = True
        try:
            while self._queue and self._queue[0][0] <= deadline:
                deliver_at, _seq, message = heapq.heappop(self._queue)
                self.now = max(self.now, deliver_at)
                if message.deadline and self.now > message.deadline:
                    self.stats.messages_expired += 1
                    self._drop(
                        message.src, message.dst, message.kind, message.gtxn,
                        "expired",
                    )
                    continue
                if message.dst in self._down:
                    self.stats.messages_dropped += 1
                    self._drop(
                        message.src, message.dst, message.kind, message.gtxn,
                        "endpoint-down",
                    )
                    continue
                if message.dst == caller:
                    if message.request_id == request_id:
                        self.stats.messages_delivered += 1
                        return message
                    # A reply to an earlier (retried or abandoned) request.
                    self.stats.stale_replies += 1
                    continue
                handler = self._handlers.get(message.dst)
                if handler is None:
                    self.stats.messages_dropped += 1
                    self._drop(
                        message.src, message.dst, message.kind, message.gtxn,
                        "no-endpoint",
                    )
                    continue
                self.stats.messages_delivered += 1
                try:
                    handler(message)
                except SimCrash as crash:
                    self.stats.node_crashes += 1
                    self.crash(crash.actor)
            self.now = max(self.now, deadline)
            return None
        finally:
            self._pumping = False
