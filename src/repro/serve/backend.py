"""Uniform serving-loop surface over the scheduler and the cluster.

The serving loop speaks one small protocol — ``begin`` / ``status`` /
``request`` / ``try_commit`` / ``abort`` plus the adaptive-policy
introspection (``conflict_profiles`` / ``set_object_policy`` /
``object_active_txns``) and the ready-callback hook
(``add_resolution_listener``).  These adapters implement it over the
bare :class:`~repro.cc.scheduler.TableDrivenScheduler` and over a
:class:`~repro.dist.cluster.ClusterFrontend` (the batched 2PC submission
path), so every loop feature — batching, ready-callbacks, adaptive
switching, latency phases — works identically against one shard or
many.

The backends take a *pre-built* scheduler, so the serving layer runs on
the scheduler's compiled hot path (integer conflict matrices and codegen
executors; see ``docs/PERFORMANCE.md``, "Compiled dispatch").
"""

from __future__ import annotations

__all__ = ["SchedulerBackend", "ClusterBackend"]


class SchedulerBackend:
    """The serving protocol over one bare table-driven scheduler."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler

    # -- setup ---------------------------------------------------------

    def register_object(self, name, adt, table, initial_state=None):
        return self.scheduler.register_object(name, adt, table, initial_state)

    def set_now(self, now: float) -> None:
        self.scheduler.now = now

    def emit(self, event) -> None:
        if self.scheduler.tracer:
            self.scheduler.tracer.emit(event)

    # -- transaction lifecycle ----------------------------------------

    def begin(self) -> int:
        return self.scheduler.begin()

    def status(self, txn: int) -> str:
        return self.scheduler.transaction(txn).status.name

    def request(self, txn: int, object_name: str, invocation, deadline=None):
        # A bare scheduler call is instantaneous in sim-time; deadlines
        # only matter where messages travel, so the budget is ignored.
        return self.scheduler.request(txn, object_name, invocation)

    def try_commit(self, txn: int, deadline=None):
        return self.scheduler.try_commit(txn)

    def abort(self, txn: int, reason: str = "voluntary"):
        return self.scheduler.abort(txn, reason=reason)

    # -- overload / fault hardening -----------------------------------

    has_faults = False

    def tick_boundary(self) -> None:
        """Nothing to revive or flush on a bare scheduler."""

    def finalize(self) -> None:
        """Nothing to settle on a bare scheduler."""

    # -- adaptive policy / ready callbacks ----------------------------

    def conflict_profiles(self):
        return self.scheduler.conflict_profiles()

    def object_policy(self, name: str) -> str:
        return self.scheduler.object_policy(name)

    def set_object_policy(self, name: str, policy: str) -> None:
        self.scheduler.set_object_policy(name, policy)

    def object_active_txns(self, name: str):
        return self.scheduler.object_active_txns(name)

    def add_resolution_listener(self, listener) -> None:
        self.scheduler.add_resolution_listener(listener)


class ClusterBackend:
    """The serving protocol over a sharded cluster's 2PC front-end.

    Wraps a :class:`~repro.dist.cluster.ClusterFrontend`; policy
    introspection routes to the owning node's scheduler per shard (each
    object lives on exactly one node), so adaptive switching works
    per-shard without any cross-node coordination — the safe-boundary
    check is local to the owner.
    """

    def __init__(self, frontend) -> None:
        self.frontend = frontend
        self.cluster = frontend.cluster

    def set_now(self, now: float) -> None:
        # Float the bus clock up to the serving clock (never backwards),
        # so spans, e2e latency and trace events share one timeline; RPC
        # latencies still advance the bus on top.
        bus = self.cluster.bus
        bus.now = max(bus.now, now)

    def emit(self, event) -> None:
        if self.cluster.tracer:
            self.cluster.tracer.emit(event)

    # -- transaction lifecycle ----------------------------------------

    def begin(self) -> int:
        return self.frontend.begin()

    def status(self, gtxn: int) -> str:
        return self.frontend.status(gtxn)

    def request(self, gtxn: int, object_name: str, invocation, deadline=None):
        return self.frontend.request(
            gtxn, object_name, invocation, deadline=deadline
        )

    def try_commit(self, gtxn: int, deadline=None):
        return self.frontend.try_commit(gtxn, deadline=deadline)

    def abort(self, gtxn: int, reason: str = "voluntary"):
        return self.frontend.abort(gtxn, reason=reason)

    # -- overload / fault hardening -----------------------------------

    @property
    def has_faults(self) -> bool:
        return (
            self.cluster.plan is not None
            or self.cluster.crash_schedule is not None
        )

    def tick_boundary(self) -> None:
        self.frontend.tick_boundary()

    def finalize(self) -> None:
        if self.has_faults:
            self.frontend.finalize()

    # -- adaptive policy / ready callbacks ----------------------------

    def _owner_sched(self, name: str):
        node_name = self.cluster.owner[name]
        for node in self.cluster.nodes:
            if node.name == node_name:
                return node.sched
        raise KeyError(name)

    def conflict_profiles(self):
        profiles = {}
        for node in self.cluster.nodes:
            profiles.update(node.sched.conflict_profiles())
        return {name: profiles[name] for name in sorted(profiles)}

    def object_policy(self, name: str) -> str:
        return self._owner_sched(name).object_policy(name)

    def set_object_policy(self, name: str, policy: str) -> None:
        self._owner_sched(name).set_object_policy(name, policy)

    def object_active_txns(self, name: str):
        return self._owner_sched(name).object_active_txns(name)

    def add_resolution_listener(self, listener) -> None:
        self.frontend.add_resolution_listener(listener)
