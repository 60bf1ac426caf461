"""Bounded recovery logs: the scheduler's fold invariants, after every call.

The scheduler folds each object's resolved log prefix into its recovery
baseline after every commit and rollback (``SharedObject.forget``), so:

* every object's log is empty or starts with an active transaction's
  entry — recovery replays only the active window;
* ``initial_state`` stays the registration state, the origin of every
  serial-replay check;
* no shadow state is kept for a resolved transaction, on any object
  (aborts clear only the objects they touched, so the untouched ones must
  hold none of the aborted transactions' states to begin with);
* the committed run stays serializable.
"""

import pytest

from repro.adts.registry import builtin_names, make_adt
from repro.cc.harness import drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.serializability import is_serializable
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive


def _check(scheduler, registration_state) -> None:
    shadow = scheduler.shadow_index()
    for name in scheduler.object_names():
        shared = scheduler.object(name)
        log = shared.log()
        assert not log or scheduler.transaction(log[0].txn).is_active, (
            f"{name}: log starts with resolved txn {log[0].txn}"
        )
        assert shared.initial_state == registration_state
        for txn in shadow.maintained(name):
            assert scheduler.transaction(txn).is_active, (
                f"{name}: shadow state kept for resolved txn {txn}"
            )


@pytest.mark.parametrize("adt_name", builtin_names())
@pytest.mark.parametrize("policy", ["optimistic", "blocking"])
def test_fold_invariants_hold_after_every_call(adt_name, policy):
    adt = make_adt(adt_name)
    registration_state = adt.initial_state()
    workload = generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=24,
            operations_per_transaction=3,
            abort_probability=0.3,
            seed=7,
        ),
    )
    checks = []

    def checkpoint(index, scheduler):
        _check(scheduler, registration_state)
        checks.append(index)
        return None

    scheduler = TableDrivenScheduler(policy=policy)
    transcript = drive(
        scheduler,
        adt,
        derive(adt).final_table,
        workload,
        concurrency=3,
        checkpoint=checkpoint,
    )
    _check(scheduler, registration_state)
    assert len(checks) > len(workload.programs)
    assert transcript.committed()
    assert is_serializable(scheduler)
    # Everything resolved, so everything folded.
    assert scheduler.object("obj").log() == []
    assert scheduler.object("obj").baseline == scheduler.object("obj").state()
