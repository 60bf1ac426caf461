"""Tests for the ``python -m repro`` command-line interface."""

import re

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_adt_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["classify", "BTree"])


class TestCommands:
    def test_adts_lists_builtins(self, capsys):
        assert main(["adts"]) == 0
        out = capsys.readouterr().out
        for name in ("QStack", "Account", "Directory"):
            assert name in out

    def test_classify(self, capsys):
        assert main(["classify", "Account"]) == 0
        out = capsys.readouterr().out
        assert "Deposit" in out and "M" in out

    def test_characterize(self, capsys):
        assert main(["characterize", "Stack"]) == 0
        out = capsys.readouterr().out
        assert "obs/mod" in out and "Push" in out

    def test_derive_stage3(self, capsys):
        assert main(["derive", "Stack", "--stage", "3"]) == 0
        out = capsys.readouterr().out
        assert "(o1,o2)" in out and "AD" in out

    def test_derive_paper_mode(self, capsys):
        assert main(["derive", "QStack", "--paper", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "f ≠ b" in out

    def test_graph_ascii(self, capsys):
        assert main(["graph", "QStack"]) == 0
        out = capsys.readouterr().out
        assert "ref b" in out and "ref f" in out

    def test_graph_dot(self, capsys):
        assert main(["graph", "Set", "--dot"]) == 0
        assert "digraph" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "5", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "serializable: True" in out

    def test_experiments_subset(self, capsys):
        assert main(["experiments", "table03"]) == 0
        out = capsys.readouterr().out
        assert "table03" in out

    def test_experiments_unknown_id(self, capsys):
        assert main(["experiments", "nope"]) == 2


class TestChaosExitCode:
    """The chaos exit code is the CI contract: a failing embedded
    sub-campaign must fail the command even if the top-level ``passed``
    flag claims otherwise (regression guard on the verdict folding)."""

    def fake_report(self, **sections):
        report = {"cells": [], "passed": True}
        report.update(sections)
        return report

    def run_chaos_cli(self, monkeypatch, report):
        import repro.robust

        monkeypatch.setattr(
            repro.robust, "run_chaos", lambda *args, **kwargs: report
        )
        return main(["chaos", "Account", "--no-crash-sweep"])

    def test_passing_report_exits_zero(self, monkeypatch, capsys):
        assert self.run_chaos_cli(monkeypatch, self.fake_report()) == 0
        capsys.readouterr()

    def test_top_level_failure_exits_nonzero(self, monkeypatch, capsys):
        report = self.fake_report()
        report["passed"] = False
        assert self.run_chaos_cli(monkeypatch, report) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "section", ["distributed", "serving", "replication"]
    )
    def test_failing_subreport_exits_nonzero(
        self, monkeypatch, capsys, section
    ):
        # Top-level passed=True with a failing embedded verdict: the
        # folding bug this guards against.
        report = self.fake_report(**{section: {"passed": False}})
        assert self.run_chaos_cli(monkeypatch, report) == 1
        capsys.readouterr()

    def test_chaos_passed_folds_all_sections(self):
        from repro.__main__ import _chaos_passed

        assert _chaos_passed({"passed": True})
        assert not _chaos_passed({"passed": False})
        assert _chaos_passed(
            {
                "passed": True,
                "distributed": {"passed": True},
                "serving": {"passed": True},
                "replication": {"passed": True},
            }
        )
        for section in ("distributed", "serving", "replication"):
            assert not _chaos_passed(
                {"passed": True, section: {"passed": False}}
            )


class _UsageErrors:
    """``assert_usage_error(*flags)``: ``PREFIX + flags`` exits 2 with a
    one-line argparse error naming the first flag, and no traceback."""

    PREFIX: list[str] = []

    def assert_usage_error(self, capsys, *flags):
        with pytest.raises(SystemExit) as raised:
            main([*self.PREFIX, *flags])
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"argument {flags[0]}" in err


class TestChaosInputValidation(_UsageErrors):
    """Invalid campaign input is a usage error (exit 2), never exit 1 —
    exit 1 is reserved for a failed gate."""

    PREFIX = ["chaos", "Account", "--no-crash-sweep"]

    def test_zero_shards_rejected(self, capsys):
        self.assert_usage_error(capsys, "--shards", "0", "--dist")

    def test_zero_transactions_rejected(self, capsys):
        self.assert_usage_error(capsys, "--transactions", "0")

    def test_zero_operations_rejected(self, capsys):
        self.assert_usage_error(capsys, "--operations", "0")

    def test_intensity_outside_unit_interval_rejected(self, capsys):
        self.assert_usage_error(capsys, "--intensity", "2")

    def test_replication_on_one_shard_rejected(self, capsys):
        # Replication chaos cannot fail over on one shard; the run must
        # not silently switch to two.
        assert main([*self.PREFIX, "--replication", "--shards", "1"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "--replication" in err


class TestSimulateInputValidation(_UsageErrors):
    """Invalid simulate counts and rates are usage errors (exit 2), not
    tracebacks from deep inside the workload generator or the cluster."""

    PREFIX = ["simulate", "Account"]

    def test_zero_transactions_rejected(self, capsys):
        self.assert_usage_error(capsys, "--transactions", "0")

    def test_zero_operations_rejected(self, capsys):
        self.assert_usage_error(capsys, "--operations", "0")

    def test_zero_shards_rejected(self, capsys):
        self.assert_usage_error(capsys, "--shards", "0")

    @pytest.mark.parametrize("rate", ["2", "-1"])
    def test_fault_intensity_outside_unit_interval_rejected(self, capsys, rate):
        self.assert_usage_error(
            capsys, "--fault-intensity", rate, "--fault-plan", "1"
        )


class TestTablesCommand:
    def test_tables_generates_docs(self, tmp_path, capsys):
        assert main(["tables", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "qstack.md" in out
        generated = {path.name for path in tmp_path.iterdir()}
        assert "README.md" in generated
        assert "account.md" in generated
        content = (tmp_path / "qstack.md").read_text(encoding="utf-8")
        assert "Stage 5" in content and "f ≠ b" in content


class TestTraceCommands:
    def test_simulate_run_header(self, capsys):
        assert main([
            "simulate", "QStack", "--transactions", "6", "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "run: adt=QStack policy=blocking transactions=6 operations=3 seed=7"
        )
        assert "table=stage5" in out

    def test_simulate_writes_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--transactions", "6", "--seed", "7",
            "--trace", str(trace_path),
        ]) == 0
        out = capsys.readouterr().out
        assert f"trace: {trace_path}" in out
        from repro.obs.tracers import read_trace

        events = read_trace(str(trace_path))
        assert events[0].type == "run_started"
        assert events[-1].type == "run_completed"

    def test_simulate_metrics_json(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "4", "--seed", "2",
            "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        import json

        document = json.loads(out[out.index("{"):])
        assert 'txns{status="committed"}' in document["counters"]

    def test_simulate_metrics_prometheus(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "4", "--seed", "2",
            "--metrics-format", "prom",
        ]) == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_txns counter" in out
        assert "repro_makespan" in out

    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--transactions", "8", "--seed", "7",
            "--trace", str(path),
        ]) == 0
        return str(path)

    def test_trace_summary(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file]) == 0
        out = capsys.readouterr().out
        assert "events=" in out and "dependencies:" in out

    def test_trace_verify(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--verify"]) == 0
        out = capsys.readouterr().out
        assert "serializable (from trace): True" in out

    def test_trace_verify_fails_on_a_tampered_final_state(
        self, tmp_path, capsys
    ):
        # A final state no serial order reaches: the verdict is False,
        # and the exit code must say so for scripts and CI.
        import json

        path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--seed", "1", "--trace", str(path),
        ]) == 0
        lines = path.read_text().splitlines()
        for index, line in enumerate(lines):
            record = json.loads(line)
            if record["type"] == "run_completed":
                record["final_states"] = [
                    [name, "('z',)"] for name, _ in record["final_states"]
                ]
                lines[index] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["trace", str(path), "--verify"]) == 1
        assert "serializable (from trace): False" in capsys.readouterr().out

    def test_trace_verify_refuses_a_sharded_trace(self, tmp_path, capsys):
        # Node-local transaction ids collide across shards, so the
        # single-scheduler verifier cannot judge a cluster trace; the
        # run's own global audit is the verdict.
        path = tmp_path / "dist.jsonl"
        assert main([
            "simulate", "Account", "--shards", "2", "--seed", "1",
            "--trace", str(path),
        ]) == 0
        assert "audit: passed=True" in capsys.readouterr().out
        assert main(["trace", str(path), "--verify"]) == 2
        captured = capsys.readouterr()
        assert "serializable (from trace)" not in captured.out
        assert "simulate --shards" in captured.err

    def test_trace_timeline_refuses_a_sharded_trace(self, tmp_path, capsys):
        # Node-local txn 2 is a leg of a different global transaction on
        # each shard; a merged timeline would interleave the two.
        path = tmp_path / "dist.jsonl"
        assert main([
            "simulate", "Account", "--shards", "2", "--seed", "1",
            "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", str(path), "--timeline", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "sharded trace" in captured.err

    @pytest.mark.parametrize("seed", [1, 4])
    def test_trace_summary_of_a_sharded_trace_counts_global_txns(
        self, tmp_path, capsys, seed
    ):
        # The summary reports the run's own global outcome, and labels
        # the per-shard scheduler counts as node-local legs.
        path = tmp_path / "dist.jsonl"
        assert main([
            "simulate", "Account", "--shards", "2", "--seed", str(seed),
            "--trace", str(path),
        ]) == 0
        simulated = re.search(
            r"distributed: committed=(\d+/\d+)", capsys.readouterr().out
        ).group(1)
        assert main(["trace", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(f" global: committed={simulated}")
        assert lines[1].startswith("node-local legs: transactions=")

    def test_trace_timeline(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--timeline", "1"]) == 0
        out = capsys.readouterr().out
        assert "txn_begun" in out

    def test_trace_timeline_unknown_txn(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--timeline", "9999"]) == 1

    def test_trace_entries(self, trace_file, capsys):
        capsys.readouterr()
        assert main(["trace", trace_file, "--entries"]) == 0
        out = capsys.readouterr().out
        assert "->" in out  # at least one firing line

    def test_trace_missing_file(self, capsys):
        assert main(["trace", "/nonexistent/nope.jsonl"]) == 2
        assert "cannot read trace" in capsys.readouterr().err

    def test_trace_modes_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["trace", "x.jsonl", "--entries", "--timeline", "1"]
            )


class TestRobustCommands:
    def test_simulate_with_fault_plan(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "6", "--seed", "3",
            "--fault-plan", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "faults: injected=" in out
        assert "serializable: True" in out

    def test_fault_plan_counters_reach_metrics_json(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "6", "--seed", "3",
            "--fault-plan", "2", "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"robust_faults_injected"' in out
        assert '"robust_invariant_checks"' in out

    def test_simulate_fault_plan_is_reproducible(self, capsys):
        argv = [
            "simulate", "Account", "--transactions", "6", "--seed", "3",
            "--fault-plan", "11",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_simulate_restart_policy_flag(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "5", "--seed", "3",
            "--restart-policy", "exponential",
        ]) == 0
        assert "serializable: True" in capsys.readouterr().out

    def test_chaos_smoke(self, capsys):
        assert main([
            "chaos", "Account", "--policies", "optimistic",
            "--seeds", "3", "--transactions", "4", "--operations", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert '"passed": true' in out
        assert "chaos: cells=1" in out
        assert "passed=True" in out

    def test_chaos_report_file_is_byte_stable(self, tmp_path, capsys):
        def run(path):
            assert main([
                "chaos", "Account", "--policies", "optimistic",
                "--seeds", "3", "--transactions", "4", "--operations", "2",
                "--report", str(path),
            ]) == 0
            capsys.readouterr()
            return path.read_bytes()

        assert run(tmp_path / "a.json") == run(tmp_path / "b.json")

    def test_chaos_unknown_adt_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "BTree"])

    def test_unrecoverable_recovery_divergence_exits_cleanly(self, capsys):
        # Plan 4 at seed 1 poisons a decision that gets logged, then a
        # crash fault forces recovery replay over the tainted log.  The
        # resulting divergence must surface as a reported finding, not a
        # traceback.
        assert main([
            "simulate", "Account", "--seed", "1", "--fault-plan", "4",
        ]) == 1
        captured = capsys.readouterr()
        assert "unrecoverable:" in captured.err


class TestDistCommands:
    def test_simulate_with_shards_audits_globally(self, capsys):
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "shards=2" in out
        assert "distributed: committed=" in out
        assert "audit: passed=True" in out

    def test_simulate_shards_output_is_reproducible(self, capsys):
        argv = [
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "9", "--fault-plan", "9", "--fault-intensity", "0.2",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "faults: injected=" in first
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_simulate_shards_metrics_json(self, capsys):
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "7", "--metrics-format", "json",
        ]) == 0
        out = capsys.readouterr().out
        assert '"dist_messages_sent"' in out
        assert '"dist_prepares_sent"' in out

    def test_chaos_dist_flag_extends_the_campaign(self, capsys):
        assert main([
            "chaos", "Account", "--policies", "optimistic",
            "--seeds", "7", "--transactions", "4", "--operations", "2",
            "--dist", "--shards", "1", "2", "--no-crash-sweep",
        ]) == 0
        out = capsys.readouterr().out
        assert '"distributed"' in out
        assert "dist_cells=6" in out


class TestObservabilityCommands:
    def test_simulate_prints_latency_footer(self, capsys):
        assert main([
            "simulate", "Account", "--transactions", "5", "--seed", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency: p50=" in out
        assert "phases: service=" in out
        assert "commit_wait=" in out

    def test_simulate_shards_prints_e2e_and_rpc_latency(self, capsys):
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "5",
            "--seed", "7",
        ]) == 0
        out = capsys.readouterr().out
        assert "latency: e2e p50=" in out
        assert "rpc " in out and ":p50=" in out

    @pytest.fixture()
    def dist_trace_file(self, tmp_path):
        path = tmp_path / "dist.jsonl"
        assert main([
            "simulate", "Account", "--shards", "2", "--transactions", "8",
            "--seed", "7", "--fault-plan", "3", "--trace", str(path),
        ]) == 0
        return str(path)

    def test_report_renders_the_dashboard(self, dist_trace_file, capsys):
        assert main(["report", dist_trace_file]) == 0
        out = capsys.readouterr().out
        assert "== trace summary ==" in out
        assert "== slowest transactions" in out
        assert "== per-object latency ==" in out
        assert "== per-node span latency ==" in out
        assert "== conflict profile" in out
        assert "txn[driver]" in out  # critical paths are rendered

    def test_report_is_byte_stable(self, dist_trace_file, capsys):
        assert main(["report", dist_trace_file]) == 0
        first = capsys.readouterr().out
        assert main(["report", dist_trace_file]) == 0
        assert capsys.readouterr().out == first

    def test_report_top_and_window_flags(self, dist_trace_file, capsys):
        assert main([
            "report", dist_trace_file, "--top", "2", "--window", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "(top 2)" in out
        assert "(window=8)" in out

    def test_report_missing_file_exits_2(self, capsys):
        assert main(["report", "/nonexistent/trace.jsonl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_report_single_node_trace_works_too(self, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        assert main([
            "simulate", "QStack", "--transactions", "6", "--seed", "7",
            "--trace", str(path),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        assert "== trace summary ==" in capsys.readouterr().out
