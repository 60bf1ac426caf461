"""Crash recovery via a durable decision log.

The schedulers in this repository are deterministic: the same sequence
of ``register_object`` / ``begin`` / ``request`` / ``try_commit`` /
``abort`` calls always produces the same grants, the same dependency
edges, the same object logs and the same counters.  That turns crash
recovery into log replay: record every call with its observed outcome
(the **decision log**), and a crashed scheduler is reconstructed —
dependency graph, per-object operation logs, shadow/flat-table caches
and statistics, all of it — by replaying the log into a fresh instance
and *verifying* each replayed outcome against the recorded one.  A
mismatch means the log is corrupt (or determinism was lost) and raises
:class:`~repro.errors.RecoveryError` instead of silently diverging.

Three pieces:

* :class:`DecisionLog` — the append-only record.  In memory it keeps
  live object references (ADT specs, tables) so replay needs no
  re-derivation; attached to a JSONL stream it additionally persists a
  durable, self-describing form that :meth:`DecisionLog.load` restores
  with a resolver for the non-serialisable objects.
* :class:`LoggingScheduler` — a transparent wrapper that appends one
  record per completed call and forwards everything else.  Crashing
  between calls loses nothing that was not already re-derivable; a call
  in flight at the crash is equivalent to the crash having struck just
  before it (its effects die with the process).
* :func:`recover` — rebuild a scheduler from the log by verified
  replay, one :func:`apply_record` per record.  It builds the default
  :class:`~repro.cc.scheduler.TableDrivenScheduler`, or any scheduler
  exposing the same surface (the degradation path recovers into a
  :class:`~repro.cc.reference.ReferenceScheduler`).  Verification always
  runs: crash recovery, degradation and every backup replica (seeded,
  state-transferred or fed shipped records) replay the same way.
"""

from __future__ import annotations

import ast
import json
import os
import tempfile
from dataclasses import dataclass, field
from typing import IO, Callable

from repro.errors import RecoveryError
from repro.spec.adt import render_state
from repro.spec.operation import Invocation

__all__ = [
    "Decision",
    "DecisionLog",
    "LoggingScheduler",
    "apply_record",
    "recover",
]


@dataclass(frozen=True)
class Decision:
    """One appended record: a completed scheduler call and its outcome.

    ``kind`` is one of ``register``, ``begin``, ``request``, ``commit``,
    ``abort``, ``policy`` (a per-object discipline switch — replayed so
    recovered schedulers and backup replicas re-decide subsequent
    requests under the same discipline the original run used) — or a
    ``2pc-``-prefixed protocol kind appended by the distributed layer
    (:mod:`repro.dist`), which scheduler replay skips.
    Only the fields meaningful for the kind are populated; everything is
    a JSON-friendly primitive so a record serialises to one JSONL line
    via :meth:`to_dict`.
    """

    kind: str
    txn: int = -1
    object_name: str = ""
    operation: str = ""
    args: tuple = ()
    #: request: ``executed``/``blocked``/``aborted``;
    #: commit: ``committed``/``waiting``/``must-abort``.
    outcome: str = ""
    #: ``repr`` of the returned value of an executed request (verified on
    #: replay) or of the registered object's initial state.
    returned: str = ""
    reason: str = ""
    adt: str = ""
    #: Sorted blocker set of a ``blocked`` request or ``waiting`` commit.
    #: Verified on replay: a matching outcome alone cannot certify the
    #: wait graph, and a divergent graph picks divergent deadlock
    #: victims — silently, since victim aborts happen inside the call.
    blocked_on: tuple = ()
    #: JSON payload of a ``2pc-`` protocol record (gtxn mapping, shipped
    #: dependency sets, logged decisions); empty for scheduler records.
    extra: str = ""

    def to_dict(self) -> dict:
        payload = {"kind": self.kind}
        if self.txn >= 0:
            payload["txn"] = self.txn
        for name in ("object_name", "operation", "outcome", "returned",
                     "reason", "adt", "extra"):
            value = getattr(self, name)
            if value:
                payload[name] = value
        if self.args:
            payload["args"] = repr(self.args)
        if self.blocked_on:
            payload["blocked_on"] = list(self.blocked_on)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Decision":
        args = payload.get("args", "")
        return cls(
            kind=payload["kind"],
            txn=payload.get("txn", -1),
            object_name=payload.get("object_name", ""),
            operation=payload.get("operation", ""),
            args=ast.literal_eval(args) if args else (),
            outcome=payload.get("outcome", ""),
            returned=payload.get("returned", ""),
            reason=payload.get("reason", ""),
            adt=payload.get("adt", ""),
            blocked_on=tuple(payload.get("blocked_on", ())),
            extra=payload.get("extra", ""),
        )


@dataclass
class _RegisteredSource:
    """Live objects needed to replay one ``register`` record."""

    adt: object
    table: object
    initial_state: object


class DecisionLog:
    """Append-only record of scheduler decisions, optionally JSONL-durable.

    ``policy`` is captured from the first wrapped scheduler so
    :func:`recover` can rebuild one without extra arguments.  Attach a
    stream with :meth:`attach_jsonl` (or pass ``stream=``) and every
    subsequent append is flushed as one JSON line — the durable form a
    crashed process leaves behind.
    """

    def __init__(self, stream: IO[str] | None = None) -> None:
        self.records: list[Decision] = []
        self.policy: str = ""
        #: Torn final lines tolerated by :meth:`load` (crash mid-append).
        self.torn_tail_records: int = 0
        self._sources: dict[str, _RegisteredSource] = {}
        self._stream: IO[str] | None = stream

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------

    def append(self, decision: Decision) -> None:
        self.records.append(decision)
        if self._stream is not None:
            json.dump(decision.to_dict(), self._stream, ensure_ascii=False)
            self._stream.write("\n")
            self._stream.flush()

    def note_register(
        self, name: str, adt, table, initial_state, state_repr: str
    ) -> None:
        """Record a registration, keeping live replay sources in memory."""
        self._sources[name] = _RegisteredSource(
            adt=adt, table=table, initial_state=initial_state
        )
        self.append(
            Decision(
                kind="register",
                object_name=name,
                adt=getattr(adt, "name", type(adt).__name__),
                returned=state_repr,
            )
        )

    def source_of(self, name: str) -> _RegisteredSource:
        try:
            return self._sources[name]
        except KeyError:
            raise RecoveryError(
                f"decision log has no replay source for object {name!r}; "
                "load it with a resolver"
            ) from None

    def fork(self) -> "DecisionLog":
        """An independent in-memory copy: a backup's seed log.

        The copy shares the (immutable) :class:`Decision` records and
        replay sources but has its own record list and no stream, so a
        replica group can seed backups from the primary's log and let
        each side append independently afterwards.
        """
        forked = DecisionLog()
        forked.records = list(self.records)
        forked.policy = self.policy
        forked._sources = dict(self._sources)
        return forked

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------

    def attach_jsonl(self, stream: IO[str]) -> None:
        """Start streaming records to ``stream``, after writing a header
        and the records appended so far (so late attachment still yields a
        complete durable log)."""
        self._stream = stream
        json.dump({"kind": "header", "policy": self.policy}, stream)
        stream.write("\n")
        for decision in self.records:
            json.dump(decision.to_dict(), stream, ensure_ascii=False)
            stream.write("\n")
        stream.flush()

    def dump_jsonl(self, path: str) -> None:
        """Atomically write the complete log to ``path``.

        The header and records are written to a temp file in the target
        directory, flushed and fsynced, then moved into place with
        ``os.replace`` — so a crash mid-dump leaves either the previous
        durable copy or the new one, never a half-written file.
        """
        directory = os.path.dirname(os.path.abspath(path))
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                previous, self._stream = self._stream, None
                try:
                    self.attach_jsonl(stream)
                finally:
                    self._stream = previous
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise

    @classmethod
    def load(
        cls,
        path: str,
        resolve: Callable[[str, str, str], tuple] | None = None,
    ) -> "DecisionLog":
        """Restore a durable log written by :meth:`dump_jsonl`.

        ``resolve(object_name, adt_name, initial_state_repr)`` must return
        ``(adt, table, initial_state)`` for every registered object — the
        live objects a JSONL file cannot carry.  Without a resolver the
        log still loads for inspection, but :func:`recover` will refuse to
        replay registrations.

        A torn tail — a final line that is not valid JSON **and** is not
        newline-terminated, the signature of a crash mid-append — is
        tolerated: the partial record is discarded and counted in
        ``torn_tail_records``.  A non-JSON line anywhere else (including
        a newline-terminated garbage tail) still raises
        :class:`~repro.errors.RecoveryError`: that is corruption, not a
        torn append.
        """
        log = cls()
        with open(path, "r", encoding="utf-8") as stream:
            text = stream.read()
        terminated = text.endswith("\n")
        lines = text.split("\n")
        if lines and lines[-1] == "":
            lines.pop()
        for number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                payload = json.loads(stripped)
            except json.JSONDecodeError as error:
                if number == len(lines) and not terminated:
                    log.torn_tail_records += 1
                    break
                raise RecoveryError(
                    f"decision log line {number} is not JSON: {error}"
                ) from None
            if payload.get("kind") == "header":
                log.policy = payload.get("policy", "")
                continue
            decision = Decision.from_dict(payload)
            log.records.append(decision)
            if decision.kind == "register" and resolve is not None:
                adt, table, initial = resolve(
                    decision.object_name, decision.adt, decision.returned
                )
                log._sources[decision.object_name] = _RegisteredSource(
                    adt=adt, table=table, initial_state=initial
                )
        return log


class LoggingScheduler:
    """Transparent write-ahead wrapper over any scheduler surface.

    Logs one :class:`Decision` per completed ``register_object`` /
    ``begin`` / ``request`` / ``try_commit`` / ``abort`` call and forwards
    everything else (``transaction``, ``stats``, ``dependency_graph``,
    ``object`` …) untouched, so drivers written against the bare
    scheduler work unchanged against the wrapped one.
    """

    def __init__(self, inner, log: DecisionLog | None = None) -> None:
        self.inner = inner
        self.log = log if log is not None else DecisionLog()
        if not self.log.policy:
            self.log.policy = inner.policy

    # -- logged surface -------------------------------------------------

    def register_object(self, name, adt, table, initial_state=None):
        shared = self.inner.register_object(name, adt, table, initial_state)
        self.log.note_register(
            name,
            adt,
            table,
            shared.initial_state,
            render_state(shared.initial_state),
        )
        return shared

    def begin(self):
        txn = self.inner.begin()
        self.log.append(Decision(kind="begin", txn=txn))
        return txn

    def request(self, txn, object_name, invocation):
        decision = self.inner.request(txn, object_name, invocation)
        outcome, returned, blocked_on = _request_outcome(decision)
        self.log.append(
            Decision(
                kind="request",
                txn=txn,
                object_name=object_name,
                operation=invocation.operation,
                args=tuple(invocation.args),
                outcome=outcome,
                returned=returned,
                blocked_on=blocked_on,
            )
        )
        return decision

    def try_commit(self, txn):
        decision = self.inner.try_commit(txn)
        outcome, blocked_on = _commit_outcome(decision)
        self.log.append(
            Decision(
                kind="commit", txn=txn, outcome=outcome, blocked_on=blocked_on
            )
        )
        return decision

    def abort(self, txn, reason="requested"):
        extra = self.inner.abort(txn, reason=reason)
        self.log.append(Decision(kind="abort", txn=txn, reason=reason))
        return extra

    def set_object_policy(self, name, policy):
        # A per-object discipline switch changes every subsequent
        # scheduling decision on the object; left unlogged it would
        # make verified replay diverge (recovery and backup replicas
        # would replay under the base policy).  Log it like any other
        # decision.  The inner call validates the safe boundary first,
        # so a rejected switch appends nothing.
        self.inner.set_object_policy(name, policy)
        self.log.append(
            Decision(kind="policy", object_name=name, outcome=policy)
        )

    # -- crash/recovery -------------------------------------------------

    def reincarnate(self, scheduler_factory=None) -> "LoggingScheduler":
        """A fresh wrapper around a scheduler recovered from this log.

        Models the crash of the underlying scheduler process: the old
        inner instance is discarded, a new one is rebuilt by verified
        replay, and the (durable) log keeps accumulating subsequent
        decisions.
        """
        recovered = recover(
            self.log,
            policy=self.inner.policy,
            scheduler_factory=scheduler_factory,
        )
        recovered.tracer = self.inner.tracer
        recovered.now = self.inner.now
        return LoggingScheduler(recovered, log=self.log)

    # -- passthrough ----------------------------------------------------

    @property
    def now(self):
        return self.inner.now

    @now.setter
    def now(self, value):
        self.inner.now = value

    def __getattr__(self, name):
        if name == "inner":  # not yet set during construction/unpickling
            raise AttributeError(name)
        return getattr(self.inner, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoggingScheduler over {self.inner!r} ({len(self.log)} records)>"


def _request_outcome(decision) -> tuple[str, str, tuple]:
    """A request decision as its logged ``(outcome, returned, blocked_on)``."""
    if decision.executed:
        return "executed", repr(decision.returned), ()
    if decision.aborted:
        return "aborted", "", ()
    return "blocked", "", tuple(sorted(decision.blocked_on))


def _commit_outcome(decision) -> tuple[str, tuple]:
    """A commit decision as its logged ``(outcome, blocked_on)``."""
    if decision.committed:
        return "committed", ()
    if decision.must_abort:
        return "must-abort", ()
    return "waiting", tuple(sorted(decision.waiting_on))


def apply_record(
    scheduler, log: DecisionLog, record: Decision, index: int
) -> None:
    """Apply one decision record to ``scheduler``, verifying its outcome.

    The single-record body of :func:`recover`, exposed so a backup
    replica can apply shipped records incrementally as they arrive
    (:mod:`repro.dist.replication`) with the same verification the
    crash-recovery path runs.  ``log`` supplies the replay sources for
    ``register`` records; ``index`` only labels errors.
    """
    if record.kind == "register":
        source = log.source_of(record.object_name)
        scheduler.register_object(
            record.object_name,
            source.adt,
            source.table,
            source.initial_state,
        )
    elif record.kind == "begin":
        txn = scheduler.begin()
        if txn != record.txn:
            raise RecoveryError(
                f"replay record {index}: begin produced transaction "
                f"{txn}, log recorded {record.txn}"
            )
    elif record.kind == "request":
        outcome, returned, blocked_on = _request_outcome(
            scheduler.request(
                record.txn,
                record.object_name,
                Invocation(operation=record.operation, args=record.args),
            )
        )
        if outcome != record.outcome or (
            outcome == "executed" and returned != record.returned
        ):
            raise RecoveryError(
                f"replay record {index}: request {record.operation} by "
                f"txn {record.txn} produced {outcome}/{returned!r}, log "
                f"recorded {record.outcome}/{record.returned!r}"
            )
        if (
            outcome == "blocked"
            and record.blocked_on
            and blocked_on != tuple(record.blocked_on)
        ):
            # Same outcome, different wait graph: the histories have
            # already diverged (deadlock victims are chosen from this
            # graph, inside the call and unlogged).
            raise RecoveryError(
                f"replay record {index}: request {record.operation}"
                f" by txn {record.txn} blocked on {blocked_on}, log"
                f" recorded {tuple(record.blocked_on)}"
            )
    elif record.kind == "commit":
        outcome, waiting_on = _commit_outcome(
            scheduler.try_commit(record.txn)
        )
        if outcome != record.outcome:
            raise RecoveryError(
                f"replay record {index}: commit of txn {record.txn} "
                f"produced {outcome}, log recorded {record.outcome}"
            )
        if (
            outcome == "waiting"
            and record.blocked_on
            and waiting_on != tuple(record.blocked_on)
        ):
            raise RecoveryError(
                f"replay record {index}: commit of txn {record.txn} "
                f"waited on {waiting_on}, log recorded "
                f"{tuple(record.blocked_on)}"
            )
    elif record.kind == "abort":
        scheduler.abort(record.txn, reason=record.reason)
    elif record.kind == "policy":
        switch = getattr(scheduler, "set_object_policy", None)
        if switch is not None:
            switch(record.object_name, record.outcome)
        # A target without per-object disciplines (the degradation
        # path's ReferenceScheduler) runs everything under its single
        # conservative policy; the switch is meaningless there.
    elif record.kind.startswith("2pc-"):
        # Commit-protocol records of the distributed layer: they carry
        # no scheduler call, so scheduler replay skips them.  The
        # distributed recovery path re-reads them itself to rebuild
        # gtxn mappings and in-doubt state (see repro.dist.node).
        pass
    else:
        raise RecoveryError(
            f"replay record {index}: unknown decision kind {record.kind!r}"
        )


def recover(
    log: DecisionLog,
    policy: str | None = None,
    scheduler_factory=None,
):
    """Reconstruct a scheduler from ``log`` by verified replay.

    With no ``scheduler_factory`` a fresh
    :class:`~repro.cc.scheduler.TableDrivenScheduler` under the log's
    recorded policy is built; the factory hook lets the degradation path
    recover into a :class:`~repro.cc.reference.ReferenceScheduler`
    instead.  The replay is *silent*: the new scheduler carries a null
    tracer while replaying (recovery must not re-emit the crashed run's
    events); attach a tracer to the returned scheduler afterwards if the
    run is being traced.
    """
    if scheduler_factory is not None:
        scheduler = scheduler_factory()
    else:
        from repro.cc.scheduler import TableDrivenScheduler

        chosen = policy or log.policy or "optimistic"
        scheduler = TableDrivenScheduler(policy=chosen)
    for index, record in enumerate(log.records):
        apply_record(scheduler, log, record, index)
    return scheduler
