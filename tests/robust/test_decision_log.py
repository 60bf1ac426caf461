"""Decision-log recording, crash recovery by replay, and durability."""

import pytest

from repro.adts.account import AccountSpec
from repro.cc.harness import drive
from repro.cc.scheduler import TableDrivenScheduler
from repro.cc.workload import WorkloadConfig, generate
from repro.core.methodology import derive
from repro.errors import RecoveryError
from repro.robust import Decision, DecisionLog, LoggingScheduler, recover


@pytest.fixture(scope="module")
def adt():
    return AccountSpec()


@pytest.fixture(scope="module")
def table(adt):
    return derive(adt).final_table


@pytest.fixture(scope="module")
def workload(adt):
    return generate(
        adt,
        "obj",
        WorkloadConfig(
            transactions=6, operations_per_transaction=3, seed=17,
            abort_probability=0.2,
        ),
    )


def logged_run(adt, table, workload, policy="optimistic"):
    scheduler = LoggingScheduler(TableDrivenScheduler(policy=policy))
    transcript = drive(scheduler, adt, table, workload)
    return scheduler, transcript


class TestLoggingTransparency:
    @pytest.mark.parametrize("policy", ["optimistic", "blocking"])
    def test_wrapper_is_invisible_to_the_harness(
        self, adt, table, workload, policy
    ):
        plain = drive(
            TableDrivenScheduler(policy=policy), adt, table, workload
        )
        _, logged = logged_run(adt, table, workload, policy=policy)
        assert plain == logged

    def test_every_call_is_recorded(self, adt, table, workload):
        scheduler, transcript = logged_run(adt, table, workload)
        kinds = [record.kind for record in scheduler.log.records]
        assert kinds[0] == "register"
        assert kinds.count("begin") == len(workload.programs)
        assert kinds.count("request") == len(transcript.op_decisions)

    def test_policy_captured(self, adt, table, workload):
        scheduler, _ = logged_run(adt, table, workload, policy="blocking")
        assert scheduler.log.policy == "blocking"


class TestPolicySwitchRecords:
    """Per-object discipline switches are decisions too: un-logged, a
    recovered scheduler (or a backup replica applying the shipped log)
    would replay every subsequent request under the base policy and
    diverge."""

    def switched_run(self, adt, table, workload):
        from repro.spec.operation import Invocation

        scheduler, _ = logged_run(adt, table, workload)
        scheduler.set_object_policy("obj", "queued")
        # Post-switch activity that recovery must replay under the
        # switched discipline, not the base one.
        txn = scheduler.begin()
        scheduler.request(txn, "obj", Invocation("Deposit", (5,)))
        scheduler.try_commit(txn)
        return scheduler

    def test_switch_is_logged(self, adt, table, workload):
        scheduler = self.switched_run(adt, table, workload)
        switches = [
            record
            for record in scheduler.log.records
            if record.kind == "policy"
        ]
        assert [
            (record.object_name, record.outcome) for record in switches
        ] == [("obj", "queued")]

    def test_recovery_replays_the_switch(self, adt, table, workload):
        scheduler = self.switched_run(adt, table, workload)
        recovered = recover(scheduler.log)
        assert recovered.object_policy("obj") == "queued"

    def test_rejected_switch_logs_nothing(self, adt, table):
        from repro.errors import SchedulerError
        from repro.spec.operation import Invocation

        scheduler = LoggingScheduler(
            TableDrivenScheduler(policy="optimistic")
        )
        scheduler.register_object("obj", adt, table)
        txn = scheduler.begin()
        scheduler.request(txn, "obj", Invocation("Deposit", (5,)))
        records_before = len(scheduler.log.records)
        with pytest.raises(SchedulerError):
            scheduler.set_object_policy("obj", "queued")
        assert len(scheduler.log.records) == records_before

    def test_policy_record_round_trips_through_jsonl(
        self, adt, table, workload, tmp_path
    ):
        scheduler = self.switched_run(adt, table, workload)
        path = str(tmp_path / "switched.jsonl")
        scheduler.log.dump_jsonl(path)

        def resolve(_name, _adt_name, _state_repr):
            return adt, table, adt.initial_state()

        loaded = DecisionLog.load(path, resolve)
        recovered = recover(loaded)
        assert recovered.object_policy("obj") == "queued"


class TestRecovery:
    @pytest.mark.parametrize("policy", ["optimistic", "blocking"])
    def test_replay_rebuilds_identical_state(
        self, adt, table, workload, policy
    ):
        scheduler, _ = logged_run(adt, table, workload, policy=policy)
        recovered = recover(scheduler.log)
        assert recovered.policy == policy
        assert (
            recovered.object("obj").state()
            == scheduler.object("obj").state()
        )
        # The full counter state is rebuilt, not approximated.
        assert recovered.stats == scheduler.inner.stats
        assert (
            recovered.dependency_graph().edges()
            == scheduler.dependency_graph().edges()
        )
        for txn in range(len(workload.programs)):
            assert (
                recovered.transaction(txn).status
                is scheduler.transaction(txn).status
            )

    def test_divergent_log_raises_recovery_error(self, adt, table, workload):
        scheduler, _ = logged_run(adt, table, workload)
        log = scheduler.log
        # Corrupt one recorded outcome: replay must refuse, not diverge
        # silently.
        target = next(
            index
            for index, record in enumerate(log.records)
            if record.kind == "request" and record.outcome == "executed"
        )
        import dataclasses

        log.records[target] = dataclasses.replace(
            log.records[target], returned="ReturnValue(outcome='bogus')"
        )
        with pytest.raises(RecoveryError):
            recover(log)

    def test_unknown_kind_raises(self):
        log = DecisionLog()
        log.append(Decision(kind="meddle"))
        with pytest.raises(RecoveryError):
            recover(log)

    def test_divergent_blocked_set_raises_recovery_error(
        self, adt, table, workload
    ):
        # A "blocked" outcome alone cannot certify the wait graph — and
        # deadlock victims are chosen from that graph inside the call,
        # unlogged.  A blocker-set mismatch is taint, not a recovery.
        scheduler, _ = logged_run(adt, table, workload, policy="blocking")
        log = scheduler.log
        target = next(
            (
                index
                for index, record in enumerate(log.records)
                if record.kind == "request" and record.outcome == "blocked"
            ),
            None,
        )
        if target is None:
            pytest.skip("workload produced no blocked request")
        import dataclasses

        record = log.records[target]
        log.records[target] = dataclasses.replace(
            record, blocked_on=tuple(record.blocked_on) + (999,)
        )
        with pytest.raises(RecoveryError, match="blocked on"):
            recover(log)


class TestDurability:
    def test_jsonl_round_trip(self, adt, table, workload, tmp_path):
        scheduler, _ = logged_run(adt, table, workload, policy="blocking")
        path = tmp_path / "decisions.jsonl"
        scheduler.log.dump_jsonl(str(path))

        def resolve(_name, _adt_name, _state_repr):
            return adt, table, adt.initial_state()

        loaded = DecisionLog.load(str(path), resolve=resolve)
        assert loaded.policy == "blocking"
        assert loaded.records == scheduler.log.records
        recovered = recover(loaded)
        assert (
            recovered.object("obj").state()
            == scheduler.object("obj").state()
        )

    def test_streaming_attachment_replays_history(
        self, adt, table, workload, tmp_path
    ):
        scheduler, _ = logged_run(adt, table, workload)
        path = tmp_path / "late.jsonl"
        with open(path, "w", encoding="utf-8") as stream:
            scheduler.log.attach_jsonl(stream)
            # Appends after attachment stream through immediately.
            txn = scheduler.begin()
            scheduler.abort(txn)
        lines = path.read_text().strip().splitlines()
        # header + all prior records + begin + abort
        assert len(lines) == 1 + len(scheduler.log.records)

    def test_load_without_resolver_refuses_replay(
        self, adt, table, workload, tmp_path
    ):
        scheduler, _ = logged_run(adt, table, workload)
        path = tmp_path / "bare.jsonl"
        scheduler.log.dump_jsonl(str(path))
        loaded = DecisionLog.load(str(path))
        assert len(loaded.records) == len(scheduler.log.records)
        with pytest.raises(RecoveryError):
            recover(loaded)

    def test_corrupt_jsonl_raises(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"kind": "begin", "txn": 0}\nnot json\n')
        with pytest.raises(RecoveryError):
            DecisionLog.load(str(path))

    def test_dump_is_atomic_and_leaves_no_temp_files(
        self, adt, table, workload, tmp_path
    ):
        scheduler, _ = logged_run(adt, table, workload)
        path = tmp_path / "decisions.jsonl"
        # Pre-existing durable copy: a dump must replace it atomically.
        path.write_text("stale previous dump\n")
        scheduler.log.dump_jsonl(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["decisions.jsonl"]
        text = path.read_text()
        assert text.endswith("\n")
        assert "stale" not in text

    def test_dump_failure_keeps_the_previous_durable_copy(self, tmp_path):
        log = DecisionLog()
        log.append(Decision(kind="begin", txn=0))
        path = tmp_path / "decisions.jsonl"
        path.write_text("previous durable copy\n")
        # Sabotage serialisation mid-dump: the temp file must be cleaned
        # up and the previous durable copy left untouched.
        log.records.append(object())  # no .to_dict() -> AttributeError
        with pytest.raises(AttributeError):
            log.dump_jsonl(str(path))
        assert path.read_text() == "previous durable copy\n"
        assert [p.name for p in tmp_path.iterdir()] == ["decisions.jsonl"]


class TestTornTailTolerance:
    def dumped(self, adt, table, workload, tmp_path):
        scheduler, _ = logged_run(adt, table, workload)
        path = tmp_path / "decisions.jsonl"
        scheduler.log.dump_jsonl(str(path))
        return scheduler.log, path, path.read_bytes()

    def test_truncation_at_every_byte_of_the_last_record(
        self, adt, table, workload, tmp_path
    ):
        log, path, raw = self.dumped(adt, table, workload, tmp_path)
        total = len(log.records)
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        # Every cut inside the final record (the crash-mid-append
        # signature: partial line, no trailing newline) must load with
        # the tail discarded and counted — never raise.
        for cut in range(last_line_start + 1, len(raw) - 1):
            path.write_bytes(raw[:cut])
            loaded = DecisionLog.load(str(path))
            assert loaded.torn_tail_records == 1, f"cut at byte {cut}"
            assert len(loaded.records) == total - 1
            assert loaded.records == log.records[:-1]

    def test_truncation_at_the_record_boundary_is_clean(
        self, adt, table, workload, tmp_path
    ):
        log, path, raw = self.dumped(adt, table, workload, tmp_path)
        last_line_start = raw.rstrip(b"\n").rfind(b"\n") + 1
        # Cut exactly at the boundary: the file ends with the previous
        # record's newline — nothing is torn.
        path.write_bytes(raw[:last_line_start])
        loaded = DecisionLog.load(str(path))
        assert loaded.torn_tail_records == 0
        assert loaded.records == log.records[:-1]

    def test_missing_final_newline_alone_is_not_a_torn_tail(
        self, adt, table, workload, tmp_path
    ):
        log, path, raw = self.dumped(adt, table, workload, tmp_path)
        path.write_bytes(raw[:-1])  # complete record, newline lost
        loaded = DecisionLog.load(str(path))
        assert loaded.torn_tail_records == 0
        assert loaded.records == log.records

    def test_corruption_before_the_tail_still_raises(
        self, adt, table, workload, tmp_path
    ):
        _log, path, raw = self.dumped(adt, table, workload, tmp_path)
        lines = raw.split(b"\n")
        lines[2] = b"garbage mid-log"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(RecoveryError):
            DecisionLog.load(str(path))

    def test_newline_terminated_garbage_tail_still_raises(
        self, adt, table, workload, tmp_path
    ):
        _log, path, raw = self.dumped(adt, table, workload, tmp_path)
        path.write_bytes(raw + b"garbage\n")
        with pytest.raises(RecoveryError):
            DecisionLog.load(str(path))


class TestProtocolRecords:
    def test_extra_field_round_trips_through_jsonl(self, tmp_path):
        import json as json_module

        log = DecisionLog()
        extra = json_module.dumps({"gtxn": 3, "ad": [1], "cd": [2]})
        log.append(Decision(kind="2pc-prepared", txn=0, extra=extra))
        path = tmp_path / "protocol.jsonl"
        log.dump_jsonl(str(path))
        loaded = DecisionLog.load(str(path))
        assert loaded.records == log.records
        assert json_module.loads(loaded.records[0].extra)["gtxn"] == 3

    def test_protocol_records_are_skipped_by_scheduler_replay(
        self, adt, table, workload
    ):
        scheduler, _ = logged_run(adt, table, workload)
        plain = recover(scheduler.log)
        scheduler.log.append(
            Decision(kind="2pc-attach", txn=0, extra='{"gtxn": 0}')
        )
        scheduler.log.append(
            Decision(kind="2pc-commit", txn=0, extra='{"gtxn": 0}')
        )
        recovered = recover(scheduler.log)
        assert (
            recovered.object("obj").state() == plain.object("obj").state()
        )
        assert recovered.stats == plain.stats


class TestReincarnation:
    def test_reincarnate_continues_on_the_same_log(self, adt, table):
        scheduler = LoggingScheduler(TableDrivenScheduler())
        scheduler.register_object("obj", adt, table)
        t0 = scheduler.begin()
        deposit = adt.invocations_of("Deposit")[0]
        scheduler.request(t0, "obj", deposit)

        reborn = scheduler.reincarnate()
        assert reborn.log is scheduler.log
        assert reborn.object("obj").state() == scheduler.object("obj").state()
        # The recovered scheduler keeps serving the same transactions.
        assert reborn.try_commit(t0).committed
