"""The exhaustive distributed crash sweep: the PR's acceptance matrix.

Coordinator and participants are crashed at every protocol point a run
reaches — before/after each durable log append and before/after each
protocol send or scheduler application — each in its own fresh cluster
run.  After recovery and the termination protocol, every run must leave
no transaction in doubt, a serializable stitched global history, and
the AD/CD contract intact.
"""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.dist import Cluster, CrashSchedule, dist_crash_sweep
from repro.experiments import golden


def make_fixture(name):
    adt = (
        AccountSpec()
        if name == "Account"
        else QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)
    )
    return adt, derive(adt).final_table


def workload_for(adt, seed):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=4, operations_per_transaction=3, seed=seed,
            abort_probability=0.15,
        ),
    )


@pytest.mark.parametrize("adt_name", ["Account", "QStack"])
@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("seed", [7, 23, 47])
def test_every_protocol_point_survives_a_crash(adt_name, shards, seed):
    adt, table = make_fixture(adt_name)
    sweep = dist_crash_sweep(
        adt, table, workload_for(adt, seed), shards=shards, seed=seed
    )
    assert sweep.header["points_reached"] > 0
    assert sweep.passed, [
        (f.actor, f.label, f.audit.violations, f.regressions)
        for f in sweep.failures
    ]
    for result in sweep.results:
        assert result.audit.in_doubt == ()


def test_census_covers_both_sides_of_the_protocol():
    adt, table = make_fixture("Account")
    census = CrashSchedule(target=None)
    cluster = Cluster(adt, table, shards=2, crash_schedule=census)
    cluster.run(workload_for(adt, 23), seed=23)
    actors = {actor for actor, _label in census.points}
    labels = {label for _actor, label in census.points}
    assert "coord" in actors
    assert actors & {"node0", "node1"}
    # Participant points bracket log appends and scheduler applications;
    # coordinator points bracket sends and the decision-log write.
    assert {"attach:pre-log", "attach:post-log", "op:pre-apply",
            "op:post-apply", "prepare:pre-send"} <= labels
    assert any(label.startswith("decision:") for label in labels)


def test_max_points_caps_the_sweep():
    adt, table = make_fixture("Account")
    sweep = dist_crash_sweep(
        adt, table, workload_for(adt, 7), shards=2, seed=7, max_points=5
    )
    assert len(sweep.results) == 5
    assert sweep.passed
