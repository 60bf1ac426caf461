"""Commutativity — the traditional conflict notion (Section 3).

Three formulations, all decided by bounded enumeration:

* :func:`commute_in_state` / :func:`forward_commute_invocations` — the
  direct state-machine reading on invocations: both execution orders give
  the same final state and each operation the same return value.  ("Two
  operations do not commute if either type of dependency may result if
  they execute concurrently.")
* :func:`forward_commute_events` — Weihl's *forward commutativity* on
  events (operations with results), the notion applicable with
  intentions-list recovery.
* :func:`backward_commute_events` — Weihl's *backward commutativity*,
  applicable with log-based (undo) recovery: whenever the events can occur
  in one order they can be reordered with the same effect.

The operation-level tables accept a prebuilt
:class:`~repro.perf.evidence.EvidenceBase` (``evidence=``); standalone
calls run behind a temporary execution cache
(:func:`~repro.perf.cache.ensure_execution_cache`), inside a derivation
they join its cache.  Forward commutativity is symmetric in
its two events, so the forward/invocation tables decide each unordered
operation pair once and mirror it; backward commutativity is *not*
symmetric, so the backward table decides both orientations of each
unordered pair in one pass over the shared replays.
"""

from __future__ import annotations

from typing import Callable

from repro.perf.cache import ensure_execution_cache
from repro.perf.evidence import EvidenceBase
from repro.semantics.history import HistoryEvent, event_alphabet, replay
from repro.spec.adt import ADTSpec, AbstractState, EnumerationBounds, execute_invocation
from repro.spec.operation import Invocation

__all__ = [
    "commute_in_state",
    "forward_commute_invocations",
    "forward_commute_events",
    "backward_commute_events",
    "events_by_operation",
    "commutativity_table",
    "forward_commutativity_table",
    "backward_commutativity_table",
]


def commute_in_state(
    adt: ADTSpec,
    state: AbstractState,
    first: Invocation,
    second: Invocation,
    evidence: EvidenceBase | None = None,
) -> bool:
    """Whether two invocations commute when started in ``state``.

    Requires state equivalence *and* per-invocation return equality across
    the two orders — return inequality is exactly what creates an
    observable difference for the invoking transactions.

    With ``evidence`` the four executions are matrix lookups; in
    particular the shared first leg (``first`` in ``state``) is computed
    once across every partner ``second`` of a table loop.
    """
    if evidence is not None:
        return evidence.commute_in_state(state, first, second)
    x_then_y_first = execute_invocation(adt, state, first)
    x_then_y_second = execute_invocation(adt, x_then_y_first.post_state, second)
    y_then_x_second = execute_invocation(adt, state, second)
    y_then_x_first = execute_invocation(adt, y_then_x_second.post_state, first)
    return (
        x_then_y_second.post_state == y_then_x_first.post_state
        and x_then_y_first.returned == y_then_x_first.returned
        and x_then_y_second.returned == y_then_x_second.returned
    )


def forward_commute_invocations(
    adt: ADTSpec,
    first: Invocation,
    second: Invocation,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> bool:
    """Whether two invocations commute in *every* enumerated state."""
    if evidence is not None:
        return all(
            evidence.commute_in_state(state, first, second)
            for state in evidence.states()
        )
    return all(
        commute_in_state(adt, state, first, second)
        for state in adt.states(bounds or adt.default_bounds)
    )


def forward_commute_events(
    adt: ADTSpec,
    first: HistoryEvent,
    second: HistoryEvent,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> bool:
    """Weihl's forward commutativity on events.

    For every state in which *each* event is individually legal, both
    orders of the pair must be legal and reach the same state.  Symmetric
    in ``first`` and ``second`` by construction.
    """
    if evidence is not None:
        states = evidence.states()
        replay_from = evidence.replay
    else:
        states = adt.states(bounds or adt.default_bounds)
        replay_from = lambda history, start: replay(adt, history, start)  # noqa: E731
    for state in states:
        first_alone = replay_from((first,), state)
        second_alone = replay_from((second,), state)
        if first_alone is None or second_alone is None:
            continue
        forward = replay_from((first, second), state)
        backward = replay_from((second, first), state)
        if forward is None or backward is None or forward != backward:
            return False
    return True


def backward_commute_events(
    adt: ADTSpec,
    first: HistoryEvent,
    second: HistoryEvent,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> bool:
    """Weihl's backward commutativity on events.

    For every state in which ``first . second`` is legal, the reversed
    order must be legal and reach the same state.  *Not* symmetric: one
    order may be legal in states where the other never is.
    """
    if evidence is not None:
        states = evidence.states()
        replay_from = evidence.replay
    else:
        states = adt.states(bounds or adt.default_bounds)
        replay_from = lambda history, start: replay(adt, history, start)  # noqa: E731
    for state in states:
        forward = replay_from((first, second), state)
        if forward is None:
            continue
        backward = replay_from((second, first), state)
        if backward is None or backward != forward:
            return False
    return True


# ---------------------------------------------------------------------------
# Operation-level tables
# ---------------------------------------------------------------------------

def events_by_operation(
    adt: ADTSpec,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> dict[str, list[HistoryEvent]]:
    """The bounded event alphabet, grouped by operation name.

    The shared grouping the three operation-level tables quantify over
    (sorted for reproducible iteration order).
    """
    if evidence is not None:
        alphabet = evidence.event_alphabet()
    else:
        alphabet = event_alphabet(adt, bounds)
    grouped: dict[str, list[HistoryEvent]] = {}
    for event in sorted(alphabet, key=lambda e: (e.invocation.operation, e.render())):
        grouped.setdefault(event.invocation.operation, []).append(event)
    return grouped


def _forward_pair(
    adt: ADTSpec,
    events: dict[str, list[HistoryEvent]],
    first_name: str,
    second_name: str,
    bounds: EnumerationBounds | None,
    evidence: EvidenceBase | None,
) -> tuple[bool, bool]:
    """Forward commutativity of one unordered operation pair.

    Event-level forward commutativity is symmetric, so the two table
    orientations carry the same verdict.
    """
    value = all(
        forward_commute_events(adt, first, second, bounds, evidence=evidence)
        for first in events.get(first_name, [])
        for second in events.get(second_name, [])
    )
    return value, value


def _backward_pair(
    adt: ADTSpec,
    events: dict[str, list[HistoryEvent]],
    first_name: str,
    second_name: str,
    bounds: EnumerationBounds | None,
    evidence: EvidenceBase | None,
) -> tuple[bool, bool]:
    """Backward commutativity of one unordered operation pair.

    Backward commutativity is not symmetric at the event level, so both
    orientations are decided — in one pass over the event pairs, sharing
    the two replays each pair needs.  Returns the verdicts for table keys
    ``(second_name, first_name)`` and ``(first_name, second_name)``.
    """
    key_ba = True  # table[(second_name, first_name)]
    key_ab = True  # table[(first_name, second_name)]
    for first in events.get(first_name, []):
        for second in events.get(second_name, []):
            if key_ba and not backward_commute_events(
                adt, first, second, bounds, evidence=evidence
            ):
                key_ba = False
            if key_ab and not backward_commute_events(
                adt, second, first, bounds, evidence=evidence
            ):
                key_ab = False
            if not key_ba and not key_ab:
                return False, False
    return key_ba, key_ab


def _invocation_pair(
    adt: ADTSpec,
    events: dict[str, list[HistoryEvent]],
    first_name: str,
    second_name: str,
    bounds: EnumerationBounds | None,
    evidence: EvidenceBase | None,
) -> tuple[bool, bool]:
    """Invocation-level commutativity of one unordered operation pair
    (symmetric: both orders must agree on states and returns)."""
    value = all(
        forward_commute_invocations(adt, first, second, bounds, evidence=evidence)
        for first in adt.invocations_of(first_name, bounds)
        for second in adt.invocations_of(second_name, bounds)
    )
    return value, value


def _operation_pair_table(
    adt: ADTSpec,
    bounds: EnumerationBounds | None,
    evidence: EvidenceBase | None,
    pair_fn: Callable[..., tuple[bool, bool]],
) -> dict[tuple[str, str], bool]:
    """Shared driver of the three tables: decide each unordered operation
    pair once with ``pair_fn`` (both orientations for the asymmetric
    kinds) and assemble the ``(second, first)``-keyed table."""
    names = adt.operation_names()
    pairs = [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i, len(names))
    ]
    with ensure_execution_cache():
        if evidence is None:
            evidence = EvidenceBase(adt, bounds=bounds)
        events = events_by_operation(adt, bounds, evidence=evidence)
        results = [pair_fn(adt, events, a, b, bounds, evidence) for a, b in pairs]
    table: dict[tuple[str, str], bool] = {}
    for (a, b), (key_ba, key_ab) in zip(pairs, results):
        table[(b, a)] = key_ba
        table[(a, b)] = key_ab
    return table


def forward_commutativity_table(
    adt: ADTSpec,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> dict[tuple[str, str], bool]:
    """Weihl's forward commutativity, aggregated to the operation level.

    Two operations forward-commute when *every* pair of their events does;
    the notion applicable with intentions-list recovery.  Keyed
    ``(second, first)`` like all tables (symmetric by construction, so
    each unordered pair is decided once and mirrored).
    """
    return _operation_pair_table(adt, bounds, evidence, _forward_pair)


def backward_commutativity_table(
    adt: ADTSpec,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> dict[tuple[str, str], bool]:
    """Weihl's backward commutativity at the operation level.

    The notion applicable with log-based (undo) recovery: whenever the
    two events can occur consecutively, the reversed order is legal with
    the same effect.  Weaker than forward commutativity (e.g. two
    successful Withdrawals backward-commute — if both applied, funds
    sufficed for both — but do not forward-commute near the balance
    boundary).
    """
    return _operation_pair_table(adt, bounds, evidence, _backward_pair)


def commutativity_table(
    adt: ADTSpec,
    bounds: EnumerationBounds | None = None,
    evidence: EvidenceBase | None = None,
) -> dict[tuple[str, str], bool]:
    """Operation-level commutativity: all invocation pairs commute everywhere.

    The classical yes/no compatibility relation that the paper's ND entries
    generalise.  Keyed ``(second_operation, first_operation)`` (symmetric
    by construction, but keyed both ways for uniform lookups).
    """
    return _operation_pair_table(adt, bounds, evidence, _invocation_pair)
