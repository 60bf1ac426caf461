"""Grant in place: a blocking grant keeps its staged admission run.

A blocking grant runs the requested operation once, on the live graph
under an undo journal, and the grant keeps that run; a blocked request
undoes it.  The pre-state a condition context needs is read before the
run, and only when a condition can ask.  A ``forget`` drops the folded
entries' journals; the baseline is read on first use, with the log
undone.

These tests count the operation runs on the object (``SharedObject._run``),
the ``adt.abstract_state`` reads and the ``ObjectGraph`` constructions,
and check that a staged run and a fold never hand out a stale state.
"""

import re

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.objects import SharedObject
from repro.cc.scheduler import TableDrivenScheduler
from repro.core.methodology import derive
from repro.graph.object_graph import ObjectGraph
from repro.spec.operation import Invocation


def count_runs(monkeypatch, shared) -> list:
    """Record every graph ``shared`` runs an operation on."""
    graphs = []
    run = shared._run

    def counting(graph, invocation):
        graphs.append(graph)
        return run(graph, invocation)

    monkeypatch.setattr(shared, "_run", counting)
    return graphs


def count_state_reads(monkeypatch, adt) -> list:
    """Record every graph ``adt.abstract_state`` is read from."""
    graphs = []
    read = adt.abstract_state

    def counting(graph):
        graphs.append(graph)
        return read(graph)

    monkeypatch.setattr(adt, "abstract_state", counting)
    return graphs


def count_graph_constructions(monkeypatch) -> list:
    """Record every ``ObjectGraph`` constructed from now on."""
    built = []
    init = ObjectGraph.__init__

    def counting(graph, *args, **kwargs):
        built.append(graph)
        init(graph, *args, **kwargs)

    monkeypatch.setattr(ObjectGraph, "__init__", counting)
    return built


def fingerprint(graph: ObjectGraph) -> tuple:
    """Vertex order, values, ordering edges, references and allocator."""
    return (
        [(vid, v.value, v.label) for vid, v in graph._vertices.items()],
        sorted(graph.ordering_edges()),
        sorted(graph._references.items()),
        graph._allocator._next,
    )


@pytest.fixture
def account():
    """A blocking scheduler over one Account holding 10."""
    adt = AccountSpec(max_balance=100)
    scheduler = TableDrivenScheduler(policy="blocking")
    scheduler.register_object("acct", adt, derive(adt).final_table, 10)
    return scheduler, adt, scheduler.object("acct")


class TestBlockingGrantExecutesOnce:
    def test_one_run_and_no_state_read_without_a_condition(
        self, monkeypatch, account
    ):
        scheduler, adt, shared = account
        peer, txn = scheduler.begin(), scheduler.begin()
        assert scheduler.request(peer, "acct", Invocation("Deposit", (5,))).executed
        pre_grant = shared.graph
        evaluations = scheduler.stats.condition_evaluations
        runs = count_runs(monkeypatch, shared)
        reads = count_state_reads(monkeypatch, adt)

        # Deposit after Deposit is an unconditional ND cell, so no
        # condition context is built.
        decision = scheduler.request(txn, "acct", Invocation("Deposit", (3,)))

        assert decision.executed and decision.dependencies == ()
        assert scheduler.stats.condition_evaluations == evaluations
        assert len(runs) == 1
        assert [g for g in reads if g is pre_grant] == []
        assert shared.graph is runs[0]
        assert shared.state() == 18

    def test_a_condition_reads_the_pre_state_once(self, monkeypatch):
        adt = QStackSpec()
        scheduler = TableDrivenScheduler(policy="blocking")
        scheduler.register_object("qs", adt, derive(adt).final_table, ("a", "b"))
        shared = scheduler.object("qs")
        peer, txn = scheduler.begin(), scheduler.begin()
        assert scheduler.request(peer, "qs", Invocation("Push", ("c",))).executed
        pre_grant = shared.graph
        evaluations = scheduler.stats.condition_evaluations
        runs = count_runs(monkeypatch, shared)
        reads = count_state_reads(monkeypatch, adt)

        # Deq after Push is conditional on f = b: the condition context
        # needs the pre-state graph.
        decision = scheduler.request(txn, "qs", Invocation("Deq"))

        assert decision.executed and decision.returned.result == "a"
        assert scheduler.stats.condition_evaluations > evaluations
        assert len(runs) == 1
        assert len([g for g in reads if g is pre_grant]) == 1
        assert shared.state() == ("b", "c")

    def test_an_outcome_condition_reads_no_pre_state(
        self, monkeypatch, account
    ):
        scheduler, adt, shared = account
        peer, txn = scheduler.begin(), scheduler.begin()
        assert scheduler.request(peer, "acct", Invocation("Withdraw", (20,))).executed
        pre_grant = shared.graph
        evaluations = scheduler.stats.condition_evaluations
        reads = count_state_reads(monkeypatch, adt)

        # Balance after Withdraw is conditional on the Withdraw's outcome
        # only: the cell is evaluated, but it reads no pre-state graph.
        decision = scheduler.request(txn, "acct", Invocation("Balance"))

        assert decision.executed and decision.dependencies == ()
        assert decision.returned.result == 10
        assert scheduler.stats.condition_evaluations > evaluations
        assert [g for g in reads if g is pre_grant] == []

    def test_a_retried_request_previews_afresh(self, monkeypatch, account):
        scheduler, _adt, shared = account
        peer, txn = scheduler.begin(), scheduler.begin()
        assert scheduler.request(peer, "acct", Invocation("Deposit", (5,))).executed
        # Balance after an active Deposit is an AD: the request blocks.
        balance = Invocation("Balance")
        assert not scheduler.request(txn, "acct", balance).executed
        live = shared.graph
        assert scheduler.try_commit(peer).committed
        runs = count_runs(monkeypatch, shared)

        decision = scheduler.request(txn, "acct", balance)

        assert decision.executed and decision.returned.result == 15
        # The retry previews afresh and keeps that run.
        assert len(runs) == 1 and shared.graph is runs[0]
        assert shared.graph is live

    def test_a_blocking_grant_constructs_no_object_graph(
        self, monkeypatch, account
    ):
        scheduler, _adt, shared = account
        txn = scheduler.begin()
        built = count_graph_constructions(monkeypatch)

        decision = scheduler.request(txn, "acct", Invocation("Deposit", (5,)))

        assert decision.executed and shared.state() == 15
        assert built == []

    def test_a_blocked_request_leaves_the_live_graph_unchanged(self, account):
        scheduler, _adt, shared = account
        peer, txn = scheduler.begin(), scheduler.begin()
        assert scheduler.request(peer, "acct", Invocation("Deposit", (5,))).executed
        live = shared.graph
        before = fingerprint(live)

        # Balance after an active Deposit is an AD: the request blocks.
        assert not scheduler.request(txn, "acct", Invocation("Balance")).executed

        assert shared.graph is live
        assert fingerprint(live) == before
        assert shared.state() == 15


class TestLazyBaseline:
    def test_whole_log_forget_reads_no_state_until_asked(self, monkeypatch):
        adt = QStackSpec()
        shared = SharedObject("qs", adt, initial_state=("a",))
        shared.execute(0, Invocation("Push", ("b",)))
        reads = count_state_reads(monkeypatch, adt)

        assert shared.forget(lambda txn: txn == 0) == 1
        assert reads == []
        assert shared.baseline == ("a", "b")
        assert len(reads) == 1
        assert shared.baseline == ("a", "b")
        assert len(reads) == 1

    def test_a_partial_forget_runs_no_operation(self, monkeypatch):
        adt = QStackSpec()
        shared = SharedObject("qs", adt, initial_state=("a",))
        shared.execute(0, Invocation("Push", ("b",)))
        shared.execute(1, Invocation("Push", ("c",)))
        runs = count_runs(monkeypatch, shared)
        reads = count_state_reads(monkeypatch, adt)

        assert shared.forget(lambda txn: txn == 0) == 1
        assert runs == [] and reads == []
        assert shared.baseline == ("a", "b")
        assert runs == [] and len(reads) == 1
        assert shared.state() == ("a", "b", "c")


class TestAdoptionSafety:
    @pytest.fixture
    def shared(self) -> SharedObject:
        return SharedObject("qs", QStackSpec(), initial_state=("a",))

    def test_previewing_one_invocation_and_executing_another_runs_in_place(
        self, monkeypatch, shared
    ):
        runs = count_runs(monkeypatch, shared)
        live = shared.graph
        shared.preview_with_trace(Invocation("Push", ("b",)))
        applied = shared.execute(0, Invocation("Push", ("c",)))
        assert runs == [runs[0], live]
        assert shared.graph is live
        assert applied.returned.outcome == "ok"
        assert shared.state() == ("a", "c")

    def test_a_rollback_between_preview_and_execute_adopts_nothing(
        self, shared
    ):
        shared.execute(0, Invocation("Push", ("b",)))
        pop = Invocation("Pop")
        assert shared.preview(pop).result == "b"
        assert shared.remove_transactions({0}) == set()
        # Reusing the earlier preview's run would hand out txn 0's 'b'.
        assert shared.execute(1, pop).returned.result == "a"
        assert shared.state() == ()

    def test_a_second_execute_never_adopts_the_same_preview(self, shared):
        push = Invocation("Push", ("b",))
        shared.preview(push)
        shared.execute(0, push)
        shared.execute(1, push)
        assert shared.state() == ("a", "b", "b")

    def test_a_fold_then_an_in_place_execute_keeps_the_fold_time_state(
        self, shared
    ):
        shared.execute(0, Invocation("Push", ("b",)))
        assert shared.forget(lambda txn: txn == 0) == 1
        # No preview: runs in place, on top of the folded entry.
        shared.execute(1, Invocation("Push", ("c",)))
        assert shared.remove_transactions({1}) == set()
        assert shared.baseline == ("a", "b")
        assert shared.state() == ("a", "b")

    def test_a_fold_then_an_adopted_execute_keeps_the_fold_time_state(
        self, shared
    ):
        shared.execute(0, Invocation("Push", ("b",)))
        assert shared.forget(lambda txn: txn == 0) == 1
        push = Invocation("Push", ("c",))
        shared.preview(push)
        shared.execute(1, push)
        assert shared.state() == ("a", "b", "c")
        assert shared.remove_transactions({1}) == set()
        assert shared.baseline == ("a", "b")
        assert shared.state() == ("a", "b")

    def test_a_partial_fold_after_a_whole_log_fold(self, shared):
        shared.execute(0, Invocation("Push", ("b",)))
        shared.forget(lambda txn: txn == 0)
        shared.execute(1, Invocation("Push", ("c",)))
        shared.execute(2, Invocation("Push", ("d",)))
        assert shared.forget(lambda txn: txn == 1) == 1
        assert shared.baseline == ("a", "b", "c")
        shared.remove_transactions({2})
        assert shared.state() == ("a", "b", "c")


class TestPreStateGraphsOnlyForReferencePredicates:
    """Account's table has outcome conditions only, so a whole simulated
    run builds no pre-state graph under either policy."""

    @pytest.mark.parametrize("policy", ["blocking", "optimistic"])
    def test_account_simulation_builds_no_pre_state_graph(
        self, monkeypatch, capsys, policy
    ):
        from repro.__main__ import main
        from repro.cc import scheduler as scheduler_module

        built = []
        get = scheduler_module._PreGraph.get

        def counting(holder):
            if holder.graph is None:
                built.append(holder.pre_state)
            return get(holder)

        monkeypatch.setattr(scheduler_module._PreGraph, "get", counting)
        assert main([
            "simulate", "Account", "--seed", "3", "--transactions", "24",
            "--policy", policy, "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert "serializable: True" in out
        # Conditional cells were resolved, all without a graph.
        evaluations = re.search(
            r'"scheduler_condition_evaluations": (\d+)', out
        )
        assert int(evaluations.group(1)) > 0
        assert built == []
