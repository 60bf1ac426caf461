"""EvidenceBase: matrix, successor index, replay memo, pairwise parity."""

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.perf import evidence as evidence_module
from repro.perf.evidence import EvidenceBase
from repro.semantics.commutativity import commute_in_state
from repro.semantics.history import HistoryEvent, event_alphabet, replay
from repro.semantics.recoverability import recoverable_in_state
from repro.spec.adt import execute_invocation, post_state_of
from repro.spec.enumeration import reachable_states

ADT = QStackSpec(capacity=2, domain=("a", "b"))
EVIDENCE = EvidenceBase(ADT)


class TestMatrix:
    def test_matrix_covers_state_invocation_product(self, monkeypatch):
        # Every (state, invocation) pair is served from the eagerly built
        # matrix: none of them executes again.
        def unexpected(*args):
            raise AssertionError(f"executed outside the matrix: {args}")

        monkeypatch.setattr(evidence_module, "execute_invocation", unexpected)
        for state in ADT.state_list():
            for invocation in ADT.invocations():
                EVIDENCE.execute(state, invocation)

    def test_matrix_matches_direct_execution(self):
        for state in EVIDENCE.states():
            for invocation in ADT.invocations():
                memoized = EVIDENCE.execute(state, invocation)
                fresh = execute_invocation(ADT, state, invocation)
                assert memoized.post_state == fresh.post_state
                assert memoized.returned == fresh.returned

    def test_successor_is_post_state(self):
        state = EVIDENCE.states()[0]
        invocation = ADT.invocations()[0]
        assert (
            EVIDENCE.successor(state, invocation)
            == execute_invocation(ADT, state, invocation).post_state
        )

    def test_execute_grows_lazily_past_enumerated_fragment(self):
        evidence = EvidenceBase(ADT, bounds=ADT.default_bounds)
        off_matrix = ("a", "a")  # reachable, and we ask from it explicitly
        invocation = ADT.invocations()[0]
        memoized = evidence.execute(off_matrix, invocation)
        fresh = execute_invocation(ADT, off_matrix, invocation)
        assert memoized.post_state == fresh.post_state
        assert memoized.returned == fresh.returned
        assert evidence.execute(off_matrix, invocation) is memoized

    def test_by_operation_covers_requested_operations(self):
        subset = EvidenceBase(ADT, operations=["Push", "Pop"])
        assert set(subset.by_operation) == {"Push", "Pop"}


class TestReplay:
    def test_replay_matches_history_semantics(self):
        alphabet = sorted(event_alphabet(ADT), key=lambda e: e.render())
        start = ADT.initial_state()
        for first in alphabet:
            for second in alphabet:
                history = (first, second)
                assert EVIDENCE.replay(history, start) == replay(
                    ADT, history, start
                )

    def test_replay_memoizes_prefixes(self):
        execution = EVIDENCE.execute(ADT.initial_state(), ADT.invocations()[0])
        event = HistoryEvent(execution.invocation, execution.returned)
        EVIDENCE.replay((event, event, event), ADT.initial_state())
        # The memo now answers the prefix without recomputation.
        assert ((event,), ADT.initial_state()) in EVIDENCE._replay_memo

    def test_event_alphabet_matches_history_module(self):
        assert EVIDENCE.event_alphabet() == event_alphabet(ADT)
        assert event_alphabet(ADT, evidence=EVIDENCE) == event_alphabet(ADT)


class TestPairwiseParity:
    def test_commute_in_state_parity(self):
        invocations = ADT.invocations()
        for state in EVIDENCE.states():
            for first in invocations:
                for second in invocations:
                    assert EVIDENCE.commute_in_state(
                        state, first, second
                    ) == commute_in_state(ADT, state, first, second)

    def test_commute_in_state_via_evidence_parameter(self):
        state = EVIDENCE.states()[0]
        first, second = ADT.invocations()[:2]
        assert commute_in_state(
            ADT, state, first, second, evidence=EVIDENCE
        ) == commute_in_state(ADT, state, first, second)

    def test_recoverable_in_state_parity(self):
        adt = AccountSpec(max_balance=2, amounts=(1,))
        evidence = EvidenceBase(adt)
        for state in evidence.states():
            for second in adt.invocations():
                for first in adt.invocations():
                    assert recoverable_in_state(
                        adt, state, second, first, evidence=evidence
                    ) == recoverable_in_state(adt, state, second, first)


class TestEnumerationFastPath:
    def test_post_state_of_matches_full_execution(self):
        for state in ADT.state_list():
            for invocation in ADT.invocations():
                assert (
                    post_state_of(ADT, state, invocation)
                    == execute_invocation(ADT, state, invocation).post_state
                )

    def test_reachable_states_unchanged_by_fast_path(self):
        adt = AccountSpec(max_balance=3, amounts=(1,))
        assert reachable_states(adt) == set(range(4))
        assert reachable_states(ADT, max_steps=1) == {
            (),
            ("a",),
            ("b",),
        }
