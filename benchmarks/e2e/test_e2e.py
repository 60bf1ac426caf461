"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.  Every test
shrinks the inputs with ``--scale`` so the suite takes seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import run
from layers import LAYERS, TIMED

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
SCALE = 0.05
#: A budget that gives every workload enough calls at ``SCALE``.
SECONDS = "8"
NAMES = [spec.name for spec in run.WORKLOADS]


def _spec(workload: str, traced: bool = False, count: int = 3) -> dict:
    return {
        "workload": workload,
        "seed": 3,
        "scale": SCALE,
        "first": 0,
        "count": count,
        "traced": traced,
    }


def _sims(batch: dict) -> list[dict]:
    return [item["sim"] for item in batch["inputs"]]


def _command(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", str(SCALE),
         "--seconds", SECONDS, *args],
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", NAMES)
def test_two_runs_give_identical_sim_metrics_and_fingerprints(workload):
    first = run.serve_batch(_spec(workload))
    second = run.serve_batch(_spec(workload))
    assert [item["failures"] for item in first["inputs"]] == [[], [], []]
    assert _sims(first) == _sims(second)
    fingerprints = [sim["fingerprint"] for sim in _sims(first)]
    assert len(set(fingerprints)) == len(fingerprints)


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_keeps_sim_metrics_and_restores_every_wrapper(workload):
    originals = {(cls, attr): cls.__dict__[attr] for _, cls, attr in TIMED}
    traced = run.serve_batch(_spec(workload, traced=True))
    for (cls, attr), original in originals.items():
        assert cls.__dict__[attr] is original, f"{cls.__name__}.{attr}"
    untraced = run.serve_batch(_spec(workload))
    assert all(item["failures"] == [] for item in traced["inputs"])
    assert _sims(traced) == _sims(untraced)


@pytest.mark.parametrize("workload", NAMES)
def test_layer_self_times_sum_to_the_serve_loop_span(workload):
    layers = run.serve_batch(_spec(workload, traced=True))["layers"]
    # core is set-up, outside ServingLoop.run; every other layer's self
    # time lies inside it and together they cover it exactly.
    shares = [layers[f"{layer}.self_share"] for layer in LAYERS if layer != "core"]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert all(share >= 0.0 for share in shares)
    assert layers["serve.run.calls"] == 3


def test_an_input_that_serves_differently_again_fails_the_run():
    batch = run.serve_batch(_spec("sched_wide", count=1))
    again = json.loads(json.dumps(batch))
    state = {"batches": [batch], "errors": [], "again": again}
    assert run.summarize(state, SCALE)["correct"] is True
    again["inputs"][0]["sim"]["sim_duration"] += 1.0
    failures = run.summarize(state, SCALE)["failures"]
    assert any("served again" in failure for failure in failures)


def test_every_benchmark_metric_is_printed_with_its_unit(tmp_path):
    done = _command("--trace", "1", "--spans", str(tmp_path / "spans.jsonl"))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    for workload in NAMES:
        printed = {
            line.split()[1]: line.split()[3]
            for line in lines
            if line.startswith(f"{workload} ") and len(line.split()) >= 4
        }
        for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
            assert printed.get(metric["name"]) == metric["unit"], (
                workload, metric["name"]
            )
        assert (tmp_path / f"spans.{workload}.jsonl").stat().st_size > 0
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True
    for metric in BENCHMARK["per_layer"]:
        entry = final["metrics"][f"{NAMES[0]}/{metric['name']}"]
        assert entry["unit"] == metric["unit"]


def test_one_workload_reports_the_end_to_end_metrics():
    done = _command("--workload", "sched_wide", "--trace", "0")
    assert done.returncode == 0, done.stdout + done.stderr
    final = json.loads(done.stdout.splitlines()[-1])
    assert final["attempted"] >= 1 and final["failed"] == 0
    assert {
        name: entry["unit"] for name, entry in final["metrics"].items()
    } == {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert all(entry["value"] > 0 for entry in final["metrics"].values())


def test_a_misreported_commit_makes_the_command_fail():
    done = _command("--workload", "sched_wide", "--misreport-commit")
    assert done.returncode != 0
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is False
    assert "committed transactions" in done.stdout


def test_compare_pairs_wall_metrics_by_seed():
    # Seeds differ by far more than the bound; pairing removes that.
    parent = {seed: 100.0 * (1 + seed) for seed in range(10)}
    same = dict(parent)
    assert compare.verdict(parent, same, "higher", 0.1) == "no-worse"
    slower = {seed: value * 0.85 for seed, value in parent.items()}
    assert compare.verdict(parent, slower, "higher", 0.1) == "worse"
    faster = {seed: value * 1.2 for seed, value in parent.items()}
    assert compare.verdict(parent, faster, "higher", 0.1) == "improved"
    noisy = {seed: value * (0.8 if seed % 2 else 1.15) for seed, value in parent.items()}
    assert compare.verdict(parent, noisy, "lower", 0.1) == "unresolved"
    assert compare.verdict(parent, {42: 1.0}, "lower", 0.1) == "unresolved"


def test_compare_holds_sim_metrics_exact_on_every_seed():
    parent = {seed: 1.0 + seed for seed in range(10)}
    assert compare.verdict(parent, dict(parent), "higher", 0.1, exact=True) == "no-worse"
    one_worse = {**parent, 3: parent[3] * 0.999}
    assert compare.verdict(parent, one_worse, "higher", 0.1, exact=True) == "worse"
    one_better = {**parent, 3: parent[3] * 1.001}
    assert compare.verdict(parent, one_better, "higher", 0.1, exact=True) == "improved"


def _result(seed: int, workloads: dict) -> dict:
    return {
        "seed": seed,
        "workloads": {
            name: {
                "correct": True,
                "attempted": 100,
                "failed": 0,
                "metrics": {
                    metric["name"]: value for metric in BENCHMARK["end_to_end"]
                },
            }
            for name, value in workloads.items()
        },
    }


def test_compare_reports_a_missing_workload_instead_of_crashing(tmp_path, capsys):
    both = {"sched_wide": 1.0, "sched_hot": 1.0}
    files = {"parent": [], "change": []}
    for seed in range(3):
        for side, workloads in (("parent", both), ("change", {"sched_wide": 1.0})):
            path = tmp_path / f"{side}{seed}.json"
            path.write_text(json.dumps(_result(seed, workloads)))
            files[side].append(str(path))
    code = compare.main(["--parent", *files["parent"], "--change", *files["change"]])
    out = capsys.readouterr().out
    assert code == 1
    assert "sched_hot" in out and "missing from the change" in out
    # Result files of single workloads mixed in one set.
    mixed = [str(tmp_path / "parent0.json")]
    (tmp_path / "one.json").write_text(json.dumps(_result(1, {"sched_hot": 1.0})))
    mixed.append(str(tmp_path / "one.json"))
    assert compare.main(["--parent", *mixed, "--change", *mixed]) == 0
