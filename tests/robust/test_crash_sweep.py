"""Acceptance property: crash-and-recover at EVERY decision point.

For each seeded workload, the sweep kills the scheduler immediately
before each decision point, rebuilds it from the decision log by
verified replay, and requires the continuation transcript to be
bit-identical to the uncrashed baseline with a serializable committed
history.  Coverage: two ADTs x both policies x enough seeds that the
matrix exceeds ten distinct workloads.
"""

import pytest

from repro.adts.account import AccountSpec
from repro.adts.qstack import QStackSpec
from repro.experiments import golden
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.robust import baseline_run, crash_sweep

SEEDS = (11, 23, 47)
POLICIES = ("optimistic", "blocking")


@pytest.fixture(scope="module")
def subjects():
    account = AccountSpec()
    qstack = QStackSpec(operations=golden.QSTACK_WORKED_OPERATIONS)
    return {
        "Account": (account, derive(account).final_table),
        "QStack": (qstack, derive(qstack).final_table),
    }


def workload_for(adt, seed):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=5,
            operations_per_transaction=3,
            seed=seed,
            abort_probability=0.15,
        ),
    )


@pytest.mark.parametrize("adt_name", ["Account", "QStack"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", SEEDS)
def test_every_decision_point_recovers(subjects, adt_name, policy, seed):
    adt, table = subjects[adt_name]
    sweep = crash_sweep(adt, table, workload_for(adt, seed), policy=policy)
    assert sweep.header["decision_points"] > 0
    assert len(sweep.results) == sweep.header["decision_points"]
    assert sweep.passed, [result.to_dict() for result in sweep.failures]


def test_matrix_covers_at_least_ten_workloads():
    assert 2 * len(POLICIES) * len(SEEDS) >= 10


def test_sweep_report_is_byte_stable(subjects):
    import json

    adt, table = subjects["Account"]
    workload = workload_for(adt, SEEDS[0])
    first = crash_sweep(adt, table, workload, policy="optimistic")
    second = crash_sweep(adt, table, workload, policy="optimistic")
    assert json.dumps(first.to_dict(), sort_keys=True) == json.dumps(
        second.to_dict(), sort_keys=True
    )


def test_log_grows_with_the_crash_point(subjects):
    adt, table = subjects["Account"]
    sweep = crash_sweep(
        adt, table, workload_for(adt, SEEDS[0]), policy="optimistic"
    )
    records = [result.log_records for result in sweep.results]
    assert records == sorted(records)
    # Later crash points recover from strictly richer logs than point 0.
    assert records[-1] > records[0]


def test_restricted_points_filter(subjects):
    adt, table = subjects["Account"]
    workload = workload_for(adt, SEEDS[0])
    _, decisions = baseline_run(adt, table, workload)
    sweep = crash_sweep(
        adt, table, workload, crash_points=[0, decisions - 1, decisions + 99]
    )
    assert [result.index for result in sweep.results] == [0, decisions - 1]
    assert sweep.passed
