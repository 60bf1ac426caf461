"""Canonical state rendering: traces must not depend on the hash seed.

``repr`` prints a ``frozenset`` in hash order, and string hashes vary
with ``PYTHONHASHSEED``, so a ``Set`` or ``Directory`` state once
rendered differently in two processes running the same seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs.analysis import (
    history_from_trace,
    parse_literal,
    serializable_from_trace,
)
from repro.obs.events import RunCompleted
from repro.obs.tracers import read_trace
from repro.spec.adt import render_state

SRC = Path(__file__).resolve().parents[2] / "src"


class TestRenderState:
    def test_set_elements_sorted(self):
        assert render_state(frozenset({"c", "a", "b"})) == (
            "frozenset({'a', 'b', 'c'})"
        )

    def test_nested_pairs_sorted(self):
        state = frozenset({("k2", "v"), ("k1", "w")})
        assert render_state(state) == "frozenset({('k1', 'w'), ('k2', 'v')})"

    @pytest.mark.parametrize(
        "state",
        [
            frozenset(),
            frozenset({"a"}),
            ("a",),
            (),
            ("a", "b"),
            (1, 2),
            3,
            frozenset({("k", 1), ("j", 2)}),
        ],
    )
    def test_parses_back_to_an_equal_state(self, state):
        assert parse_literal(render_state(state)) == state

    @pytest.mark.parametrize(
        "state", [frozenset(), frozenset({"a"}), ("a",), ("a", "b"), 3]
    )
    def test_equals_repr_without_multi_element_sets(self, state):
        assert render_state(state) == repr(state)


def _simulate(tmp_path: Path, adt: str, seed: int, hash_seed: int) -> bytes:
    trace = tmp_path / f"{adt}-{seed}-{hash_seed}.jsonl"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=str(SRC))
    subprocess.run(
        [
            sys.executable, "-m", "repro", "simulate", adt,
            "--seed", str(seed), "--trace", str(trace),
        ],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
    )
    return trace.read_bytes()


@pytest.mark.parametrize("adt,seed", [("Set", 1), ("Set", 2), ("Directory", 2)])
def test_traces_identical_across_hash_seeds(tmp_path, adt, seed):
    assert _simulate(tmp_path, adt, seed, 1) == _simulate(tmp_path, adt, seed, 2)


def test_verification_ignores_set_element_order(tmp_path):
    """A final state recorded in another element order still verifies."""
    _simulate(tmp_path, "Set", 1, 1)
    events = read_trace(str(tmp_path / "Set-1-1.jsonl"))
    final = next(event for event in events if isinstance(event, RunCompleted))
    name, text = final.final_states[0]
    state = parse_literal(text)
    assert len(state) >= 2, "needs a multi-element set to reorder"
    reordered = "frozenset({" + ", ".join(
        sorted((repr(element) for element in state), reverse=True)
    ) + "})"
    assert reordered != text
    events[events.index(final)] = RunCompleted(
        time=final.time,
        committed=final.committed,
        aborted=final.aborted,
        final_states=((name, reordered),),
    )
    assert history_from_trace(events).final_states[name] == state
    assert serializable_from_trace(events)
