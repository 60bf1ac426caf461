"""A participant node: one scheduler per shard behind idempotent handlers.

Each node owns a :class:`~repro.cc.scheduler.TableDrivenScheduler`
wrapped in a :class:`~repro.robust.decision_log.LoggingScheduler`, so
every scheduler decision is write-ahead logged; the node additionally
appends ``2pc-`` *protocol records* to the same
:class:`~repro.robust.decision_log.DecisionLog`:

``2pc-attach``
    The gtxn ↔ local-txn mapping, written right after the local
    ``begin`` a global transaction's first operation triggered.
``2pc-prepared``
    A yes vote: the transaction is prepared, with the AD/CD predecessor
    gtxn sets that were shipped in the vote (the dependency
    piggybacking).  Logged *before* the vote is sent — a prepared
    participant that crashes is in doubt until the termination protocol
    asks the coordinator.
``2pc-decided``
    The received (or queried) global decision, closing the in-doubt
    window.

Scheduler replay skips protocol records (see
:func:`~repro.robust.decision_log.replay_into`); :meth:`ParticipantNode.recover`
replays the scheduler, then re-reads the protocol records to rebuild the
mapping and the in-doubt set.

Idempotency: operation requests carry a per-node ``op_seq`` and are
deduplicated against the recovered transaction's executed-record count,
so a retried (or duplicated, or replayed-after-crash) request never
double-applies; PREPARE re-votes from the prepared cache (``no`` once a
presumed abort was applied to the leg); COMMIT/ABORT on an
already-resolved transaction acks without touching the scheduler.
"""

from __future__ import annotations

import json

from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.transaction import TransactionStatus
from repro.errors import SchedulerError
from repro.obs.events import PrimaryFenced, TwoPCVoted
from repro.obs.spans import _NO_CONTEXT, SpanEmitter
from repro.obs.tracers import NULL_TRACER
from repro.robust.decision_log import Decision, DecisionLog, LoggingScheduler

from repro.dist.stats import DistStats

__all__ = ["ParticipantNode"]


class ParticipantNode:
    """One simulated node: a logged scheduler plus the 2PC participant."""

    def __init__(
        self,
        name: str,
        policy: str = "optimistic",
        tracer=NULL_TRACER,
        stats: DistStats | None = None,
    ) -> None:
        self.name = name
        self.tracer = tracer
        self.stats = stats if stats is not None else DistStats()
        self.log = DecisionLog()
        self.sched = LoggingScheduler(
            TableDrivenScheduler(policy=policy, tracer=tracer), log=self.log
        )
        self.bus = None  # wired by the cluster
        #: ``cluster.crash_point`` hook; ``None`` disables crash points.
        self.crash_hook = None
        self._spans = SpanEmitter(name, tracer, clock=self._now)
        self.ltxn_of: dict[int, int] = {}
        self.gtxn_of: dict[int, int] = {}
        #: gtxn -> {"ad": [...], "cd": [...], "decided": ""|"commit"|"abort"}
        self.prepared: dict[int, dict] = {}
        #: The node's :class:`~repro.dist.replication.ReplicaGroup` when
        #: the cluster runs with ``replicas > 1``; ``None`` otherwise.
        self.group = None
        #: Distinguishes successive holders of the same bus name across
        #: view changes (the single-primary-per-epoch certificate).
        self.incarnation = 0

    def _now(self) -> float:
        return self.bus.now if self.bus is not None else 0.0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def register_object(self, name, adt, table, initial_state=None):
        return self.sched.register_object(name, adt, table, initial_state)

    def _crash_point(self, label: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(self.name, label)

    def _map(self, gtxn: int, create: bool = False) -> int | None:
        ltxn = self.ltxn_of.get(gtxn)
        if ltxn is not None or not create:
            return ltxn
        ltxn = self.sched.begin()
        self.ltxn_of[gtxn] = ltxn
        self.gtxn_of[ltxn] = gtxn
        self._crash_point("attach:pre-log")
        self.log.append(
            Decision(
                kind="2pc-attach", txn=ltxn, extra=json.dumps({"gtxn": gtxn})
            )
        )
        self._crash_point("attach:post-log")
        return ltxn

    def _gmap(self, ltxns) -> tuple[int, ...]:
        """Local txn ids -> sorted gtxn ids (unmapped ids are dropped)."""
        return tuple(
            sorted(
                self.gtxn_of[ltxn] for ltxn in ltxns if ltxn in self.gtxn_of
            )
        )

    def _others_aborted(self, before: set[int], skip: int) -> tuple[int, ...]:
        """Gtxns whose local txn died during the handling of one message."""
        after = self.sched.active_transactions()
        return self._gmap(t for t in before - after if t != skip)

    # ------------------------------------------------------------------
    # Message handling
    # ------------------------------------------------------------------

    def handle(self, message) -> None:
        """Dispatch one bus message and send the reply."""
        # Scheduler events carry the node's logical clock; slave it to the
        # bus sim-clock so one run's trace is monotone per node.  The
        # scheduler never branches on `now` (it only stamps events), so
        # this cannot perturb decisions.
        self.sched.now = self.bus.now
        if message.kind == "ping":
            self.bus.send(
                self.name, message.src, "ping-reply", message.gtxn,
                {"pong": True}, request_id=message.request_id,
            )
            return
        if message.kind == "query-reply":
            # A late or duplicated answer to a termination query whose
            # RPC already returned; nothing waits for it any more.
            self.stats.stale_replies += 1
            return
        if message.kind == "replicate-ack":
            # Watermark advance from a backup; fire-and-forget.
            if self.group is not None:
                self.group.note_ack(
                    message.payload["backup"], message.payload["acked"]
                )
            return
        if self.group is not None and self._fence(message):
            return
        handlers = {
            "op": self._handle_op,
            "commit-one": self._handle_commit_one,
            "prepare": self._handle_prepare,
            "decide": self._handle_decide,
            "abort": self._handle_abort,
        }
        handler = handlers.get(message.kind)
        if handler is None:
            raise SchedulerError(
                f"node {self.name}: unknown message kind {message.kind!r}"
            )
        reply = handler(message)
        if self.group is not None:
            # Ship before reply: the replicate messages take lower bus
            # sequence numbers than the reply, so every backup applies
            # this handler's log records before the outcome is
            # externalized — a promoted backup can never miss a record
            # whose effect the coordinator already observed.
            self.group.ship()
        self.bus.send(
            self.name,
            message.src,
            f"{message.kind}-reply",
            message.gtxn,
            reply,
            request_id=message.request_id,
        )

    def _fence(self, message) -> bool:
        """Reject a message stamped by a deposed view.  True if fenced."""
        epoch = message.payload.get("_epoch") if message.payload else None
        if epoch is None or epoch >= self.group.epoch:
            self.group.note_serve(self.incarnation)
            return False
        self.stats.fenced_messages += 1
        if self.tracer:
            self.tracer.emit(
                PrimaryFenced(
                    time=self.bus.now,
                    node=self.name,
                    src=message.src,
                    kind=message.kind,
                    gtxn=message.gtxn,
                    message_epoch=epoch,
                    current_epoch=self.group.epoch,
                )
            )
        key = "vote" if message.kind == "prepare" else "outcome"
        self.bus.send(
            self.name,
            message.src,
            f"{message.kind}-reply",
            message.gtxn,
            {key: "fenced", "others_aborted": ()},
            request_id=message.request_id,
        )
        return True

    def _handle_op(self, message) -> dict:
        gtxn = message.gtxn
        ltxn = self._map(gtxn, create=True)
        txn = self.sched.transaction(ltxn)
        if txn.status is not TransactionStatus.ACTIVE:
            return {
                "outcome": "aborted" if txn.is_aborted else "unexpected",
                "others_aborted": (),
            }
        op_seq = message.payload["op_seq"]
        if op_seq < len(txn.records):
            # Duplicate of an already-executed operation (retry after a
            # lost reply or a crash past the log append): answer from the
            # durable record instead of re-executing.
            record = txn.records[op_seq]
            return {
                "outcome": "executed",
                "returned": record.returned,
                "blocked_on": (),
                "dependencies": (),
                "others_aborted": (),
                "duplicate": True,
            }
        before = self.sched.active_transactions()
        # Span only on this fresh path — the dedupe path above answers
        # from the durable record, so duplicated messages never produce
        # extra scheduler spans.
        span = self._spans.child(
            message.span, "sched.op", gtxn,
            detail=message.payload["object_name"],
        )
        outcome = "crashed"
        try:
            self._crash_point("op:pre-apply")
            decision = self.sched.request(
                ltxn, message.payload["object_name"],
                message.payload["invocation"],
            )
            self._crash_point("op:post-apply")
            if decision.executed:
                outcome = "executed"
            elif decision.aborted:
                outcome = "aborted"
            else:
                outcome = "blocked"
        finally:
            span.finish(outcome)
        return {
            "outcome": outcome,
            "returned": decision.returned,
            "blocked_on": self._gmap(decision.blocked_on),
            "dependencies": tuple(
                (self.gtxn_of[ltxn_dep], dep)
                for ltxn_dep, dep in decision.dependencies
                if ltxn_dep in self.gtxn_of
            ),
            "others_aborted": self._others_aborted(before, ltxn),
        }

    def _handle_commit_one(self, message) -> dict:
        """The one-phase optimization: sole participant, direct commit."""
        ltxn = self._map(message.gtxn, create=True)
        txn = self.sched.transaction(ltxn)
        if txn.is_committed:
            return {"outcome": "committed", "others_aborted": ()}
        if txn.is_aborted:
            return {"outcome": "must-abort", "others_aborted": ()}
        before = self.sched.active_transactions()
        span = self._spans.child(message.span, "sched.commit", message.gtxn)
        outcome = "crashed"
        try:
            self._crash_point("commit:pre-apply")
            decision = self.sched.try_commit(ltxn)
            self._crash_point("commit:post-apply")
            if decision.committed:
                outcome = "committed"
            elif decision.must_abort:
                outcome = "must-abort"
            else:
                outcome = "waiting"
        finally:
            span.finish(outcome)
        return {
            "outcome": outcome,
            "waiting_on": self._gmap(decision.waiting_on),
            "others_aborted": self._others_aborted(before, ltxn),
        }

    def _handle_prepare(self, message) -> dict:
        gtxn = message.gtxn
        ltxn = self._map(gtxn, create=True)
        entry = self.prepared.get(gtxn)
        if entry is not None:
            # Idempotent re-vote from the durable prepared cache (no
            # span: duplicated PREPAREs do no fresh work).  A leg the
            # termination protocol already rolled back under presumed
            # abort must never turn that into a yes.
            if entry["decided"] == "abort":
                return self._vote(gtxn, "no")
            return self._vote(
                gtxn, "yes", ad=tuple(entry["ad"]), cd=tuple(entry["cd"])
            )
        span = self._spans.child(message.span, "sched.prepare", gtxn)
        reply = None
        try:
            reply = self._prepare_fresh(gtxn, ltxn)
            return reply
        finally:
            span.finish(reply["vote"] if reply is not None else "crashed")

    def _prepare_fresh(self, gtxn: int, ltxn: int) -> dict:
        txn = self.sched.transaction(ltxn)
        if txn.is_aborted:
            return self._vote(gtxn, "no")
        if txn.is_committed:
            return self._vote(gtxn, "yes")
        ad, cd = self.sched.dependency_sets(ltxn)
        unresolved = [
            t for t in ad | cd if self.sched.transaction(t).is_active
        ]
        if unresolved:
            # The piggybacking rule: no yes vote while a transaction this
            # one is commit-dependent on is still unresolved locally.
            return self._vote(
                gtxn, "wait", waiting_on=self._gmap(unresolved)
            )
        if any(self.sched.transaction(t).is_aborted for t in ad):
            # An abort-dependency predecessor aborted: this transaction
            # must abort (the cascade rule), so vote no after aborting.
            before = self.sched.active_transactions()
            self.sched.abort(ltxn, reason="ad-pred-aborted")
            return self._vote(
                gtxn, "no", others=self._others_aborted(before, ltxn)
            )
        ad_g = [int(g) for g in self._gmap(ad)]
        cd_g = [int(g) for g in self._gmap(cd)]
        self._crash_point("prepare:pre-log")
        self.log.append(
            Decision(
                kind="2pc-prepared",
                txn=ltxn,
                extra=json.dumps({"gtxn": gtxn, "ad": ad_g, "cd": cd_g}),
            )
        )
        self.prepared[gtxn] = {"ad": ad_g, "cd": cd_g, "decided": ""}
        self._crash_point("prepare:post-log")
        return self._vote(gtxn, "yes", ad=tuple(ad_g), cd=tuple(cd_g))

    def _vote(
        self,
        gtxn: int,
        vote: str,
        ad: tuple = (),
        cd: tuple = (),
        waiting_on: tuple = (),
        others: tuple = (),
    ) -> dict:
        if vote == "yes":
            self.stats.votes_yes += 1
        elif vote == "wait":
            self.stats.votes_wait += 1
        else:
            self.stats.votes_no += 1
        if self.tracer:
            self.tracer.emit(
                TwoPCVoted(
                    time=self.bus.now if self.bus else 0.0,
                    node=self.name, gtxn=gtxn, vote=vote, ad=ad, cd=cd,
                )
            )
        return {
            "vote": vote,
            "ad": ad,
            "cd": cd,
            "waiting_on": waiting_on,
            "others_aborted": others,
        }

    def _handle_decide(self, message) -> dict:
        return self.apply_decision(
            message.gtxn, message.payload["decision"], span=message.span
        )

    def apply_decision(
        self, gtxn: int, decision: str, span: tuple = _NO_CONTEXT
    ) -> dict:
        """Apply a global decision (from a DECIDE or a termination query)."""
        if self.bus is not None:
            self.sched.now = self.bus.now
        ltxn = self._map(gtxn)
        others: tuple[int, ...] = ()
        if ltxn is not None:
            txn = self.sched.transaction(ltxn)
            if txn.is_active:
                before = self.sched.active_transactions()
                # Fresh application only; an already-decided (duplicated
                # DECIDE) transaction acks above without a span.
                apply_span = self._spans.child(
                    span, "sched.decide", gtxn, detail=decision
                )
                status = "crashed"
                try:
                    self._crash_point("decide:pre-apply")
                    if decision == "commit":
                        outcome = self.sched.try_commit(ltxn)
                        if not outcome.committed:
                            raise SchedulerError(
                                f"node {self.name}: global commit of gtxn "
                                f"{gtxn} could not commit locally "
                                f"(txn {ltxn})"
                            )
                    else:
                        self.sched.abort(ltxn, reason="2pc-abort")
                    self._crash_point("decide:post-apply")
                    status = decision
                finally:
                    apply_span.finish(status)
                others = self._others_aborted(before, ltxn)
        entry = self.prepared.get(gtxn)
        if entry is not None and not entry["decided"]:
            entry["decided"] = decision
            self._crash_point("decided:pre-log")
            self.log.append(
                Decision(
                    kind="2pc-decided",
                    txn=ltxn if ltxn is not None else -1,
                    extra=json.dumps({"gtxn": gtxn, "decision": decision}),
                )
            )
            self._crash_point("decided:post-log")
        return {"outcome": "ack", "others_aborted": others}

    def _handle_abort(self, message) -> dict:
        """A coordinator-relayed abort (voluntary or fault-injected)."""
        ltxn = self._map(message.gtxn, create=True)
        txn = self.sched.transaction(ltxn)
        if not txn.is_active:
            return {"outcome": "aborted", "others_aborted": ()}
        before = self.sched.active_transactions()
        span = self._spans.child(message.span, "sched.abort", message.gtxn)
        status = "crashed"
        try:
            self._crash_point("abort:pre-apply")
            self.sched.abort(
                ltxn, reason=message.payload.get("reason", "requested")
            )
            self._crash_point("abort:post-apply")
            status = "aborted"
        finally:
            span.finish(status)
        return {
            "outcome": "aborted",
            "others_aborted": self._others_aborted(before, ltxn),
        }

    # ------------------------------------------------------------------
    # Introspection / recovery
    # ------------------------------------------------------------------

    def in_doubt(self) -> list[int]:
        """Gtxns prepared here whose global decision is still unknown."""
        pending = []
        for gtxn in sorted(self.prepared):
            entry = self.prepared[gtxn]
            if entry["decided"]:
                continue
            ltxn = self.ltxn_of.get(gtxn)
            if ltxn is not None and self.sched.transaction(ltxn).is_active:
                pending.append(gtxn)
        return pending

    def unresolved(self) -> list[int]:
        """Gtxns whose local transaction is still active (any phase)."""
        return sorted(
            self.gtxn_of[ltxn]
            for ltxn in self.sched.active_transactions()
            if ltxn in self.gtxn_of
        )

    def recover(self) -> int:
        """Rebuild the node from its durable log after a crash.

        The scheduler is reincarnated by verified replay (protocol
        records are skipped), then the protocol records are re-read to
        rebuild the gtxn mapping and the prepared/in-doubt state.  Local
        transactions whose ``begin`` was logged but whose ``2pc-attach``
        was lost to the crash are orphans: no retry can ever reach them
        (the retried first operation begins a fresh local transaction),
        so they are aborted here.  Returns the number of replayed
        records.
        """
        replayed = len(self.log.records)
        self.sched = self.sched.reincarnate()
        if self.bus is not None:
            self.sched.now = self.bus.now
        self.rebuild_protocol_state()
        return replayed

    def rebuild_protocol_state(self) -> None:
        """Re-read the protocol records against the current scheduler.

        Shared by crash recovery and backup promotion: the scheduler
        already holds the replayed (or replicated) state; this pass
        rebuilds the gtxn mapping and the prepared/in-doubt cache from
        the ``2pc-`` records and aborts orphaned local transactions.
        """
        self.ltxn_of = {}
        self.gtxn_of = {}
        self.prepared = {}
        for record in self.log.records:
            if not record.kind.startswith("2pc-"):
                continue
            data = json.loads(record.extra) if record.extra else {}
            gtxn = data.get("gtxn", -1)
            if record.kind == "2pc-attach":
                self.ltxn_of[gtxn] = record.txn
                self.gtxn_of[record.txn] = gtxn
            elif record.kind == "2pc-prepared":
                self.prepared[gtxn] = {
                    "ad": list(data.get("ad", [])),
                    "cd": list(data.get("cd", [])),
                    "decided": "",
                }
            elif record.kind == "2pc-decided":
                entry = self.prepared.get(gtxn)
                if entry is None:
                    entry = {"ad": [], "cd": [], "decided": ""}
                    self.prepared[gtxn] = entry
                entry["decided"] = data.get("decision", "")
        for ltxn in sorted(self.sched.active_transactions()):
            if ltxn not in self.gtxn_of:
                self.sched.abort(ltxn, reason="orphaned-by-crash")
                self.stats.orphans_aborted += 1
