"""The inter-transaction dependency graph (Section 2.1 semantics).

Edges always point from the *later* transaction to the *earlier* one (the
one whose operation executed first), labelled with the strongest
dependency recorded between the two:

* ``later --AD--> earlier``: later observed earlier's effects; it may
  commit only after earlier commits, and must abort if earlier aborts.
* ``later --CD--> earlier``: later may commit only after earlier commits
  *or aborts* (commit ordering), but can never be forced to abort.

Because edges follow execution order, the graph is acyclic by
construction; :meth:`DependencyGraph.add` still verifies this so that a
faulty scheduler fails loudly rather than deadlocking silently.

Edges are never removed, so a query that scanned every recorded edge
would cost more the longer a run gets.  Per-transaction out- and
in-maps index the edges instead: predecessors, dependents and
reachability read only the edges incident to the transactions they
visit.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.dependency import Dependency
from repro.cc.transaction import TxnId
from repro.errors import DependencyCycleError

__all__ = ["DependencyGraph"]


class DependencyGraph:
    """Directed multigraph of AD/CD dependencies between transactions."""

    def __init__(self) -> None:
        #: (later, earlier) -> strongest dependency recorded for the pair
        self._edges: dict[tuple[TxnId, TxnId], Dependency] = {}
        #: later -> {earlier: dependency} and earlier -> {later:
        #: dependency}: the same edges, indexed by endpoint, each inner
        #: map in the pair's first-insertion order.
        self._out: dict[TxnId, dict[TxnId, Dependency]] = {}
        self._in: dict[TxnId, dict[TxnId, Dependency]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add(self, later: TxnId, earlier: TxnId, dependency: Dependency) -> None:
        """Record a dependency of ``later`` on ``earlier``.

        ND edges are ignored; repeated edges keep the strongest label.
        Self-dependencies never arise (a transaction's own operations
        cannot conflict with it) and are rejected.
        """
        if dependency is Dependency.ND:
            return
        if later == earlier:
            raise DependencyCycleError(
                f"transaction {later} cannot depend on itself"
            )
        if self._reachable(earlier, later):
            raise DependencyCycleError(
                f"adding {later}->{earlier} would close a dependency cycle"
            )
        key = (later, earlier)
        strongest = max(self._edges.get(key, Dependency.ND), dependency)
        self._edges[key] = strongest
        self._out.setdefault(later, {})[earlier] = strongest
        self._in.setdefault(earlier, {})[later] = strongest

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def dependency(self, later: TxnId, earlier: TxnId) -> Dependency:
        """The recorded dependency of ``later`` on ``earlier`` (ND if none)."""
        return self._edges.get((later, earlier), Dependency.ND)

    def predecessors(self, txn: TxnId) -> dict[TxnId, Dependency]:
        """Transactions ``txn`` depends on, with the dependency kind."""
        return dict(self._out.get(txn, {}))

    def dependents(self, txn: TxnId) -> dict[TxnId, Dependency]:
        """Transactions that depend on ``txn``, with the dependency kind."""
        return dict(self._in.get(txn, {}))

    def abort_dependents(self, txn: TxnId) -> set[TxnId]:
        """Direct AD-dependents of ``txn`` (one cascade step)."""
        return {
            later
            for later, dependency in self._in.get(txn, {}).items()
            if dependency is Dependency.AD
        }

    def abort_cascade(self, roots: Iterable[TxnId]) -> set[TxnId]:
        """Transitive closure of AD-dependents of ``roots``.

        These are the transactions that must abort when the roots abort —
        failure atomicity propagated along abort-dependencies.  The roots
        themselves are not included.
        """
        cascade: set[TxnId] = set()
        frontier = list(roots)
        while frontier:
            txn = frontier.pop()
            for dependent in self.abort_dependents(txn):
                if dependent not in cascade:
                    cascade.add(dependent)
                    frontier.append(dependent)
        return cascade

    def edges(self) -> dict[tuple[TxnId, TxnId], Dependency]:
        """A copy of all recorded edges."""
        return dict(self._edges)

    def depends_transitively(self, later: TxnId, earlier: TxnId) -> bool:
        """Whether ``later`` reaches ``earlier`` along dependency edges."""
        return self._reachable(later, earlier)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _reachable(self, start: TxnId, goal: TxnId) -> bool:
        """Whether ``goal`` is reachable from ``start`` along edges."""
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for earlier in self._out.get(node, ()):
                if earlier not in seen:
                    seen.add(earlier)
                    frontier.append(earlier)
        return False
