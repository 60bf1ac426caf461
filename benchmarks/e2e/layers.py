"""Per-layer spans recorded from outside the program.

The traced run wraps the public methods in :data:`TIMED` at class level,
so every call records a span: its name, ``perf_counter_ns`` start and
end, the span that was open when it started (its parent) and the
transaction of the serve-loop call it belongs to.  Spans stay in memory
and are written out only when asked, after the run.

Wrappers are installed before any stack is built, because
``SimBus.register_endpoint`` captures bound handlers at construction, and
:meth:`SpanRecorder.installed` restores every class attribute on exit.

A span's *self time* is its duration minus the time its direct children
cover.  Calls nest on one thread, so the self times of every span under a
``ServingLoop.run`` span add up to that span's duration exactly, less
the benchmark's own speed probes (``trace.probe`` spans), which are not
the program's time.  The set-up derivation is one ``core.derive`` span
around the benchmark's own ``derive`` call; everything under it is
set-up and counts as ``core``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from repro.cc.objects import SharedObject
from repro.cc.scheduler import TableDrivenScheduler
from repro.dist.bus import SimBus
from repro.dist.cluster import ClusterFrontend
from repro.dist.coordinator import Coordinator
from repro.dist.node import ParticipantNode
from repro.dist.replication import BackupReplica, ReplicaGroup, ReplicationManager
from repro.perf.cache import ExecutionCache
from repro.perf.shadow import ShadowStateIndex
from repro.serve import ServingLoop

__all__ = [
    "DERIVE",
    "LAYERS",
    "PROBE",
    "ROOT",
    "TIMED",
    "SpanRecorder",
    "span_totals",
]

#: ``(layer, class, method)`` for every public method the traced run times.
TIMED = (
    ("serve", ServingLoop, "run"),
    ("dist.frontend", ClusterFrontend, "request"),
    ("dist.frontend", ClusterFrontend, "try_commit"),
    ("dist.frontend", ClusterFrontend, "abort"),
    ("dist.frontend", ClusterFrontend, "tick_boundary"),
    ("dist.coordinator", Coordinator, "do_operation"),
    ("dist.coordinator", Coordinator, "do_commit"),
    ("dist.coordinator", Coordinator, "do_abort"),
    ("dist.bus", SimBus, "rpc"),
    ("dist.bus", SimBus, "send"),
    ("dist.node", ParticipantNode, "handle"),
    ("dist.replication", ReplicaGroup, "ship"),
    ("dist.replication", BackupReplica, "handle"),
    ("dist.replication", ReplicationManager, "boundary"),
    ("cc.scheduler", TableDrivenScheduler, "request"),
    ("cc.scheduler", TableDrivenScheduler, "try_commit"),
    ("cc.scheduler", TableDrivenScheduler, "abort"),
    ("cc.objects", SharedObject, "execute"),
    ("cc.objects", SharedObject, "preview_with_trace"),
    ("cc.objects", SharedObject, "remove_transactions"),
    ("cc.objects", SharedObject, "forget"),
    ("perf.shadow", ShadowStateIndex, "shadow_state"),
    ("perf.shadow", ShadowStateIndex, "note_execute"),
    ("perf.cache", ExecutionCache, "get_or_execute"),
)

#: The span of one serving run, of one set-up derivation, and of one of
#: the benchmark's speed probes.
ROOT = "serve.run"
DERIVE = "core.derive"
PROBE = "trace.probe"

#: Layers in stack order, top to bottom; ``core`` is set-up only.
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TIMED)) + ("core",)

_REPLICATION = "dist.replication."


class SpanRecorder:
    """In-memory spans of one traced batch."""

    def __init__(self) -> None:
        #: ``[name, start_ns, end_ns, parent index, txn]`` in start order,
        #: so a parent always precedes its children.
        self.spans: list[list] = []
        self._open: list[int] = []
        #: Transaction of the serve-loop call in progress (-1 outside one);
        #: set by the benchmark's backend proxy.
        self.txn = -1

    def _start(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.txn])
        self._open.append(index)
        return index

    def _finish(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` block as one span."""
        index = self._start(name)
        try:
            yield
        finally:
            self._finish(index)

    def _timed(self, name: str, function):
        start, finish = self._start, self._finish

        def timed(*args, **kwargs):
            index = start(name)
            try:
                return function(*args, **kwargs)
            finally:
                finish(index)

        return timed

    @contextmanager
    def installed(self):
        """Wrap every method in :data:`TIMED`; restore them all on exit."""
        originals = [(cls, attr, cls.__dict__[attr]) for _, cls, attr in TIMED]
        try:
            for layer, cls, attr in TIMED:
                timed = self._timed(f"{layer}.{attr}", cls.__dict__[attr])
                setattr(cls, attr, timed)
            yield self
        finally:
            for cls, attr, original in originals:
                setattr(cls, attr, original)

    def write(self, path, annotate) -> None:
        """Write the spans as JSON lines.

        ``annotate(index, txn)`` returns the fields that identify the
        request served by span ``index``, recorded during a serve-loop
        call for transaction ``txn``.
        """
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, txn) in enumerate(self.spans):
                record = {
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    "parent": parent,
                    **annotate(index, txn),
                }
                out.write(json.dumps(record) + "\n")


def span_totals(spans: list[list]) -> dict:
    """Per-name call counts and self nanoseconds, plus root totals.

    Only spans under a ``serve.run`` root count per name.  Returns
    ``calls`` and ``self_ns`` dicts, ``run_ns`` (all ``serve.run``
    spans, less the probes under them), ``derive_ns`` and
    ``derive_calls`` (all ``core.derive`` spans, inclusive), and
    ``replication_ns``: the inclusive time of outermost
    ``dist.replication`` spans, which also counts the node and scheduler
    code that backup apply runs through.
    """
    child_ns = [0] * len(spans)
    in_run = [False] * len(spans)
    in_repl = [False] * len(spans)
    run_ns = derive_ns = derive_calls = replication_ns = 0
    for index, (name, start, end, parent, _txn) in enumerate(spans):
        duration = end - start
        if parent >= 0:
            child_ns[parent] += duration
            in_run[index] = in_run[parent]
            in_repl[index] = in_repl[parent] or spans[parent][0].startswith(
                _REPLICATION
            )
            if name == PROBE and in_run[index]:
                run_ns -= duration
        elif name == ROOT:
            in_run[index] = True
            run_ns += duration
        elif name == DERIVE:
            derive_ns += duration
            derive_calls += 1
        if in_run[index] and name.startswith(_REPLICATION) and not in_repl[index]:
            replication_ns += duration
    calls: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for index, (name, start, end, _parent, _txn) in enumerate(spans):
        if in_run[index]:
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + end - start - child_ns[index]
    return {
        "calls": calls,
        "self_ns": self_ns,
        "run_ns": run_ns,
        "derive_ns": derive_ns,
        "derive_calls": derive_calls,
        "replication_ns": replication_ns,
    }
