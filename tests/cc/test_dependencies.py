"""Unit tests for the inter-transaction dependency graph."""

import random

import pytest

from repro.cc.dependencies import DependencyGraph
from repro.core.dependency import Dependency
from repro.errors import DependencyCycleError


@pytest.fixture
def graph() -> DependencyGraph:
    return DependencyGraph()


class TestEdges:
    def test_nd_edges_ignored(self, graph):
        graph.add(1, 0, Dependency.ND)
        assert graph.dependency(1, 0) is Dependency.ND
        assert graph.edges() == {}

    def test_strongest_label_kept(self, graph):
        graph.add(1, 0, Dependency.CD)
        graph.add(1, 0, Dependency.AD)
        graph.add(1, 0, Dependency.CD)
        assert graph.dependency(1, 0) is Dependency.AD

    def test_self_dependency_rejected(self, graph):
        with pytest.raises(DependencyCycleError):
            graph.add(1, 1, Dependency.AD)

    def test_cycle_rejected(self, graph):
        graph.add(1, 0, Dependency.CD)
        with pytest.raises(DependencyCycleError):
            graph.add(0, 1, Dependency.CD)

    def test_transitive_cycle_rejected(self, graph):
        graph.add(1, 0, Dependency.CD)
        graph.add(2, 1, Dependency.CD)
        with pytest.raises(DependencyCycleError):
            graph.add(0, 2, Dependency.AD)


class TestQueries:
    def test_predecessors_and_dependents(self, graph):
        graph.add(2, 0, Dependency.AD)
        graph.add(2, 1, Dependency.CD)
        assert graph.predecessors(2) == {0: Dependency.AD, 1: Dependency.CD}
        assert graph.dependents(0) == {2: Dependency.AD}

    def test_abort_dependents_filters_cd(self, graph):
        graph.add(2, 0, Dependency.AD)
        graph.add(3, 0, Dependency.CD)
        assert graph.abort_dependents(0) == {2}


class TestCascade:
    def test_transitive_cascade(self, graph):
        graph.add(1, 0, Dependency.AD)
        graph.add(2, 1, Dependency.AD)
        graph.add(3, 2, Dependency.CD)  # CD does not cascade
        assert graph.abort_cascade([0]) == {1, 2}

    def test_cascade_excludes_roots(self, graph):
        graph.add(1, 0, Dependency.AD)
        assert 0 not in graph.abort_cascade([0])

    def test_cascade_of_independent_txn_is_empty(self, graph):
        graph.add(1, 0, Dependency.CD)
        assert graph.abort_cascade([0]) == set()

    def test_multiple_roots(self, graph):
        graph.add(2, 0, Dependency.AD)
        graph.add(3, 1, Dependency.AD)
        assert graph.abort_cascade([0, 1]) == {2, 3}


class EdgeScanGraph:
    """Reference model: every query scans every recorded edge.

    :class:`DependencyGraph` is shared by the compiled scheduler and the
    reference oracle, so the scheduler parity suites cannot catch a bug
    in its endpoint index; this model can.
    """

    def __init__(self) -> None:
        self.edges: dict = {}

    def add(self, later, earlier, dependency) -> None:
        if dependency is Dependency.ND:
            return
        if later == earlier or self.reachable(earlier, later):
            raise DependencyCycleError(f"{later}->{earlier}")
        key = (later, earlier)
        self.edges[key] = max(self.edges.get(key, Dependency.ND), dependency)

    def predecessors(self, txn) -> dict:
        return {e: d for (l, e), d in self.edges.items() if l == txn}

    def dependents(self, txn) -> dict:
        return {l: d for (l, e), d in self.edges.items() if e == txn}

    def reachable(self, start, goal) -> bool:
        seen, frontier = {start}, [start]
        while frontier:
            node = frontier.pop()
            if node == goal:
                return True
            for (later, earlier) in self.edges:
                if later == node and earlier not in seen:
                    seen.add(earlier)
                    frontier.append(earlier)
        return False

    def abort_cascade(self, roots) -> set:
        cascade, frontier = set(), list(roots)
        while frontier:
            txn = frontier.pop()
            for later, dependency in self.dependents(txn).items():
                if dependency is Dependency.AD and later not in cascade:
                    cascade.add(later)
                    frontier.append(later)
        return cascade


class TestIndexAgainstEdgeScan:
    """Random ``add`` sequences, with repeated edges, CD->AD upgrades and
    rejected cycles, answer every query as the edge-scan model does."""

    TXNS = range(7)
    KINDS = (Dependency.ND, Dependency.CD, Dependency.CD, Dependency.AD)

    def check(self, graph, model) -> None:
        assert list(graph.edges().items()) == list(model.edges.items())
        for txn in self.TXNS:
            assert list(graph.predecessors(txn).items()) == list(
                model.predecessors(txn).items()
            )
            assert list(graph.dependents(txn).items()) == list(
                model.dependents(txn).items()
            )
            assert graph.abort_cascade([txn]) == model.abort_cascade([txn])
            for other in self.TXNS:
                assert graph.depends_transitively(
                    txn, other
                ) == model.reachable(txn, other)
        assert graph.abort_cascade([0, 3]) == model.abort_cascade([0, 3])

    @pytest.mark.parametrize("seed", range(40))
    def test_random_add_sequences_match_the_model(self, seed):
        rng = random.Random(seed)
        graph, model = DependencyGraph(), EdgeScanGraph()
        upgrades = rejected = 0
        for _ in range(40):
            if model.edges and rng.random() < 0.4:
                # Repeat a recorded pair, as often an upgrade as not.
                later, earlier = rng.choice(list(model.edges))
                dependency = rng.choice((Dependency.CD, Dependency.AD))
            else:
                later, earlier = rng.choice(self.TXNS), rng.choice(self.TXNS)
                dependency = rng.choice(self.KINDS)
            before = model.edges.get((later, earlier))
            try:
                model.add(later, earlier, dependency)
            except DependencyCycleError:
                rejected += 1
                with pytest.raises(DependencyCycleError):
                    graph.add(later, earlier, dependency)
            else:
                graph.add(later, earlier, dependency)
                upgrades += (
                    before is Dependency.CD and dependency is Dependency.AD
                )
            self.check(graph, model)
        assert rejected > 0 and upgrades > 0

    def test_upgrade_reaches_both_endpoint_views(self, graph):
        graph.add(1, 0, Dependency.CD)
        graph.add(2, 0, Dependency.CD)
        graph.add(1, 0, Dependency.AD)
        assert graph.predecessors(1) == {0: Dependency.AD}
        assert list(graph.dependents(0).items()) == [
            (1, Dependency.AD), (2, Dependency.CD),
        ]
        assert graph.abort_cascade([0]) == {1}
