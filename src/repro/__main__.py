"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``adts`` — list the built-in abstract data types.
* ``classify <ADT>`` — Table-1 style O/M/MO classification.
* ``characterize <ADT>`` — the Stage-2 (Table-9 style) questionnaire.
* ``derive <ADT>`` — run the five-stage pipeline and print the tables.
* ``graph <ADT>`` — render the object graph (Stage 1 / Figure 2).
* ``simulate <ADT>`` — run a seeded workload under the derived table
  (``--trace out.jsonl`` records a structured event trace,
  ``--metrics-format {json,prom}`` exports the run's metrics registry,
  ``--fault-plan SEED`` injects a reproducible fault storm under the
  decision log + invariant monitor).
* ``chaos <ADT...>`` — chaos campaign: exhaustive crash-point sweep and
  seeded fault storms over an ADT × policy × seed matrix, emitting a
  byte-stable JSON report.
* ``trace <file>`` — analyse a recorded trace: summary, per-transaction
  timeline, per-table-entry firing histogram.
* ``report <file>`` — observability dashboard from a recorded trace:
  cross-node span trees with critical paths, per-object latency
  quantiles, conflict heatmap.
* ``tables`` — generate per-ADT compatibility-table documentation.
* ``experiments [ids...]`` — run the paper-reproduction experiments.
"""

from __future__ import annotations

import argparse
import sys

from repro.adts.registry import builtin_names, make_adt
from repro.core.classification import classify_all_operations
from repro.errors import InvariantViolationError, RecoveryError
from repro.core.methodology import MethodologyOptions, derive
from repro.core.profile import characterize_all


def _cmd_adts(_args: argparse.Namespace) -> int:
    for name in builtin_names():
        adt = make_adt(name)
        operations = ", ".join(adt.operation_names())
        print(f"{name:12} operations: {operations}")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    adt = make_adt(args.adt)
    for name, op_class in classify_all_operations(adt).items():
        print(f"{name:12} {op_class.name}")
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    adt = make_adt(args.adt)
    header = ("Op", "obs/mod", "Cont/Str", "return", "Locality", "Refs")
    print("{:12} {:8} {:9} {:12} {:9} {}".format(*header))
    for profile in characterize_all(adt).values():
        print("{:12} {:8} {:9} {:12} {:9} {}".format(*profile.table9_row()))
    return 0


def _cmd_derive(args: argparse.Namespace) -> int:
    adt = make_adt(args.adt)
    options = MethodologyOptions(
        validate_conditions=not args.paper,
        use_cache=not args.no_cache,
        jobs=args.jobs,
    )
    result = derive(adt, options=options)
    stage_tables = dict(result.stage_tables())
    table = stage_tables[f"stage{args.stage}"]
    print(table.render_ascii())
    conditional = [
        (invoked, executing, entry)
        for invoked, executing, entry in table.cells()
        if entry.is_conditional
    ]
    if conditional:
        print()
        print("conditional entries:")
        for invoked, executing, entry in conditional:
            rendered = entry.render().replace("\n", "; ")
            print(f"  ({invoked}, {executing}): {rendered}")
    if result.notes and args.verbose:
        print()
        print("derivation notes:")
        for note in result.notes:
            print(f"  - {note}")
    if args.profile and result.profile is not None:
        print()
        print("derivation profile:")
        for line in result.profile.summary().splitlines():
            print(f"  {line}")
    if args.metrics_format and result.profile is not None:
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        result.profile.publish(registry)
        if args.metrics_format == "json":
            print(registry.render_json())
        else:
            print(registry.render_prometheus(), end="")
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    from repro.graph.render import render_ascii, render_dot

    adt = make_adt(args.adt)
    state = adt.initial_state()
    if args.adt in ("QStack", "Stack", "FifoQueue"):
        state = ("e1", "e2", "e3")
    graph = adt.build_graph(state)
    print(render_dot(graph) if args.dot else render_ascii(graph))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.cc.serializability import is_serializable
    from repro.cc.simulator import SimulationConfig, simulate_with_scheduler
    from repro.cc.workload import WorkloadConfig, generate
    from repro.obs.tracers import JsonlTracer

    adt = make_adt(args.adt)
    result = derive(adt)
    table = result.final_table
    if args.shards is not None:
        return _simulate_distributed(args, adt, table)
    workload = generate(
        adt,
        "shared",
        WorkloadConfig(
            transactions=args.transactions,
            operations_per_transaction=args.operations,
            seed=args.seed,
        ),
    )
    try:
        tracer = JsonlTracer(args.trace) if args.trace else None
    except OSError as error:
        print(f"cannot open trace file: {error}", file=sys.stderr)
        return 2
    fault_plan = None
    scheduler_wrapper = None
    if args.fault_plan is not None:
        from repro.robust import (
            DecisionLog,
            FaultPlan,
            FaultSpec,
            MonitoredScheduler,
            RobustStats,
        )

        stats = RobustStats()
        fault_plan = FaultPlan(
            args.fault_plan,
            FaultSpec.storm(args.fault_intensity),
            stats=stats,
        )
        # Chaos runs get the full robustness stack: a decision log (so
        # induced crashes recover) and the invariant monitor, sharing the
        # plan's counter sink.
        scheduler_wrapper = lambda scheduler: MonitoredScheduler(  # noqa: E731
            scheduler,
            log=DecisionLog(),
            check_interval=8,
            robust_stats=stats,
        )
    try:
        metrics, scheduler = simulate_with_scheduler(
            SimulationConfig(
                adt=adt,
                table=table,
                workload=workload,
                policy=args.policy,
                restart_aborted=True,
                restart_policy=args.restart_policy,
                tracer=tracer,
                fault_plan=fault_plan,
                scheduler_wrapper=scheduler_wrapper,
            )
        )
    except (InvariantViolationError, RecoveryError) as error:
        # A fault campaign can win: corruption that slips between two
        # audits taints the decision log beyond any recovery rung — the
        # monitor raises on a failed degraded replay, and a crash fault
        # landing on the tainted log surfaces the same taint as a
        # recovery divergence.  That is a *finding*, reproducible from
        # the same seed — report it as a failed run, not a crash.
        print(f"unrecoverable: {error}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.close()
    # One-line run header so a pasted summary is reproducible as-is.
    print(
        f"run: adt={args.adt} policy={args.policy} "
        f"transactions={args.transactions} operations={args.operations} "
        f"seed={args.seed} table={table.name}"
    )
    print(metrics.summary())
    print(metrics.latency_summary())
    if fault_plan is not None:
        stats = fault_plan.stats
        print(
            f"faults: injected={stats.faults_injected} "
            f"recoveries={stats.recoveries} "
            f"invariant_checks={stats.invariant_checks} "
            f"degradations={stats.degradations}"
        )
    print("serializable:", is_serializable(scheduler))
    if tracer is not None:
        print(f"trace: {args.trace} ({tracer.emitted} events)")
    if args.metrics_format:
        registry = metrics.to_registry()
        if args.metrics_format == "json":
            print(registry.render_json())
        else:
            print(registry.render_prometheus(), end="")
    return 0


def _simulate_distributed(args: argparse.Namespace, adt, table) -> int:
    """``simulate --shards N``: the workload over a sharded cluster."""
    from repro.cc.workload import WorkloadConfig, generate
    from repro.dist import Cluster, audit_global
    from repro.obs.registry import MetricsRegistry
    from repro.obs.tracers import JsonlTracer

    workload = generate(
        adt,
        "shared",
        WorkloadConfig(
            transactions=args.transactions,
            operations_per_transaction=args.operations,
            seed=args.seed,
        ),
    )
    try:
        tracer = JsonlTracer(args.trace) if args.trace else None
    except OSError as error:
        print(f"cannot open trace file: {error}", file=sys.stderr)
        return 2
    fault_plan = None
    if args.fault_plan is not None:
        from repro.robust import FaultPlan, FaultSpec, RobustStats

        fault_plan = FaultPlan(
            args.fault_plan,
            FaultSpec.dist_storm(args.fault_intensity),
            stats=RobustStats(),
        )
    from repro.obs.tracers import NULL_TRACER

    cluster = Cluster(
        adt,
        table,
        shards=args.shards,
        policy=args.policy,
        fault_plan=fault_plan,
        tracer=tracer if tracer is not None else NULL_TRACER,
    )
    try:
        transcript = cluster.run(workload, seed=args.seed)
    except (InvariantViolationError, RecoveryError) as error:
        print(f"unrecoverable: {error}", file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.close()
    audit = audit_global(cluster)
    committed = [g for g, status in transcript.statuses if status == "COMMITTED"]
    print(
        f"run: adt={args.adt} policy={args.policy} shards={args.shards} "
        f"transactions={args.transactions} operations={args.operations} "
        f"seed={args.seed} table={table.name}"
    )
    print(
        f"distributed: committed={len(committed)}/{len(transcript.statuses)} "
        f"messages={cluster.stats.messages_sent} "
        f"one_phase={cluster.stats.one_phase_commits} "
        f"prepares={cluster.stats.prepares_sent} "
        f"crashes={cluster.stats.node_crashes}"
    )
    e2e = cluster.latency.merged("e2e")
    rpc_bits = " ".join(
        f"{key}:p50={histogram.p50:.2f}/p99={histogram.p99:.2f}"
        for metric, key, histogram in cluster.latency.rows()
        if metric == "rpc"
    )
    print(
        f"latency: e2e {e2e.summary()}"
        + (f" | rpc {rpc_bits}" if rpc_bits else "")
    )
    if fault_plan is not None:
        stats = fault_plan.stats
        print(
            f"faults: injected={stats.faults_injected} "
            f"dropped={cluster.stats.messages_dropped} "
            f"partitions={cluster.stats.partitions_opened}"
        )
    print(
        "audit: passed={} serializable={} in_doubt={}".format(
            audit.passed, audit.serializable, list(audit.in_doubt)
        )
    )
    if tracer is not None:
        print(f"trace: {args.trace} ({tracer.emitted} events)")
    if args.metrics_format:
        registry = MetricsRegistry()
        cluster.stats.publish(registry)
        if args.metrics_format == "json":
            print(registry.render_json())
        else:
            print(registry.render_prometheus(), end="")
    return 0 if audit.passed else 1


def _chaos_passed(report: dict) -> bool:
    """The chaos exit-code gate: the top-level verdict AND every
    embedded sub-campaign verdict.

    ``run_chaos`` already folds the distributed/serving/replication
    verdicts into ``report["passed"]``, but the exit code is the CI
    contract — re-AND the embedded verdicts here so a regression in
    that folding (or a hand-assembled report) can never turn a failing
    sub-campaign into a zero exit.
    """
    passed = bool(report.get("passed"))
    for section in ("distributed", "serving", "replication"):
        embedded = report.get(section)
        if embedded is not None:
            passed = passed and bool(embedded.get("passed"))
    return passed


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.robust import FaultSpec, render_report, run_chaos

    adts = {}
    for name in args.adts:
        adt = make_adt(name)
        adts[name] = (adt, derive(adt).final_table)
    report = run_chaos(
        adts,
        policies=tuple(args.policies),
        seeds=tuple(args.seeds),
        transactions=args.transactions,
        operations=args.operations,
        spec=FaultSpec.storm(args.intensity),
        crash_sweep_enabled=not args.no_crash_sweep,
        distributed=args.dist,
        shard_counts=tuple(args.shards),
        serving=args.serve,
        replication=args.replication,
    )
    rendered = render_report(report)
    if args.report:
        try:
            with open(args.report, "w", encoding="utf-8") as stream:
                stream.write(rendered)
        except OSError as error:
            print(f"cannot write report: {error}", file=sys.stderr)
            return 2
        print(f"report: {args.report}")
    else:
        print(rendered, end="")
    sweeps = [cell.get("crash_sweep") for cell in report["cells"]]
    swept = sum(sweep["decision_points"] for sweep in sweeps if sweep)
    summary = (
        f"chaos: cells={len(report['cells'])} crash_points={swept} "
        f"passed={report['passed']}"
    )
    if args.dist:
        dist = report["distributed"]
        dist_swept = sum(
            sweep["points_reached"] for sweep in dist.get("crash_sweeps", ())
        )
        summary += (
            f" dist_cells={len(dist['cells'])} dist_crash_points={dist_swept}"
        )
    if args.serve:
        serving = report["serving"]
        worst = min(
            (group["goodput_ratio"] for group in serving["groups"]),
            default=0.0,
        )
        summary += (
            f" serving_groups={len(serving['groups'])} "
            f"worst_goodput_ratio={worst:.3f} "
            f"serving_passed={serving['passed']}"
        )
    if args.replication:
        replication = report["replication"]
        scenarios = [
            scenario
            for cell in replication["cells"]
            for scenario in cell["scenarios"].values()
        ]
        fenced = sum(s["fenced_messages"] for s in scenarios)
        views = sum(s["view_changes"] for s in scenarios)
        summary += (
            f" replication_cells={len(replication['cells'])} "
            f"view_changes={views} fenced={fenced} "
            f"replication_passed={replication['passed']}"
        )
    print(summary)
    return 0 if _chaos_passed(report) else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.analysis import (
        firing_histogram,
        render_event,
        summarize,
        transaction_timeline,
    )
    from repro.obs.tracers import read_trace

    try:
        events = read_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    if args.timeline is not None:
        timeline = transaction_timeline(events, args.timeline)
        if not timeline:
            print(f"no events involve transaction {args.timeline}")
            return 1
        for event in timeline:
            print(render_event(event))
        return 0
    if args.entries:
        firings = firing_histogram(events)
        if not firings:
            print("no dependencies were recorded in this trace")
            return 0
        for firing in firings:
            condition = firing.condition or "<fallback: strongest>"
            print(
                f"{firing.count:6}x {firing.object_name}: "
                f"({firing.invoked}, {firing.executing}) -> "
                f"{firing.dependency} [{firing.source}] {condition}"
                + (f"  entry: {firing.entry}" if firing.entry else "")
            )
        return 0
    summary = summarize(events)
    print(summary.render())
    if args.verify:
        from repro.obs.analysis import serializable_from_trace

        print("serializable (from trace):", serializable_from_trace(events))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.analysis import render_dashboard
    from repro.obs.tracers import read_trace

    try:
        events = read_trace(args.file)
    except (OSError, ValueError) as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 2
    print(render_dashboard(events, top=args.top, window=args.window), end="")
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.experiments.table_docs import generate_all

    written = generate_all(args.out)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments.report import render_text, run_all

    only = set(args.ids) if args.ids else None
    outcomes = run_all(only)
    if not outcomes:
        print(f"no experiments matched: {sorted(only or set())}")
        return 2
    print(render_text(outcomes))
    return 0 if all(outcome.matches for outcome in outcomes) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Extracting Concurrency from Objects: "
            "A Methodology' (SIGMOD 1991)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("adts", help="list the built-in ADTs").set_defaults(
        func=_cmd_adts
    )

    classify = sub.add_parser("classify", help="O/M/MO classification")
    classify.add_argument("adt", choices=builtin_names())
    classify.set_defaults(func=_cmd_classify)

    characterize = sub.add_parser(
        "characterize", help="Stage-2 (Table-9 style) characterisation"
    )
    characterize.add_argument("adt", choices=builtin_names())
    characterize.set_defaults(func=_cmd_characterize)

    derive_cmd = sub.add_parser("derive", help="derive the compatibility table")
    derive_cmd.add_argument("adt", choices=builtin_names())
    derive_cmd.add_argument(
        "--stage", type=int, default=5, choices=(3, 4, 5),
        help="pipeline stage whose table to print (default 5)",
    )
    derive_cmd.add_argument(
        "--paper", action="store_true",
        help="paper-fidelity mode (disable condition validation)",
    )
    derive_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the Stage-4/5 pair fan-out "
             "(1 = sequential, 0 = one per CPU; results are identical)",
    )
    derive_cmd.add_argument(
        "--no-cache", action="store_true",
        help="disable the shared execution cache (for benchmarking/audit)",
    )
    derive_cmd.add_argument(
        "--profile", action="store_true",
        help="print the per-stage wall-time and cache profile",
    )
    derive_cmd.add_argument(
        "--metrics-format", choices=("json", "prom"), default=None,
        help="export the derivation's metrics (cache hit rate, stage "
             "timings) as JSON or Prometheus text",
    )
    derive_cmd.add_argument("--verbose", action="store_true")
    derive_cmd.set_defaults(func=_cmd_derive)

    graph = sub.add_parser("graph", help="render the object graph")
    graph.add_argument("adt", choices=builtin_names())
    graph.add_argument("--dot", action="store_true", help="Graphviz output")
    graph.set_defaults(func=_cmd_graph)

    simulate = sub.add_parser("simulate", help="run a workload simulation")
    simulate.add_argument("adt", choices=builtin_names())
    simulate.add_argument("--policy", default="blocking",
                          choices=("optimistic", "blocking"))
    simulate.add_argument("--transactions", type=int, default=12)
    simulate.add_argument("--operations", type=int, default=3)
    simulate.add_argument("--seed", type=int, default=1991)
    simulate.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a structured JSONL event trace to FILE",
    )
    simulate.add_argument(
        "--metrics-format", choices=("json", "prom"), default=None,
        help="also export the run's metrics registry (JSON or Prometheus text)",
    )
    simulate.add_argument(
        "--fault-plan", type=int, metavar="SEED", default=None,
        help="inject a seeded fault storm (reproducible from the seed) and "
             "run under the decision log + invariant monitor",
    )
    simulate.add_argument(
        "--fault-intensity", type=float, default=0.05, metavar="RATE",
        help="per-consult fault rate of the storm (default 0.05)",
    )
    simulate.add_argument(
        "--restart-policy", choices=("linear", "exponential"),
        default="linear",
        help="backoff growth for restarted programs (default linear, "
             "the bit-parity behaviour)",
    )
    simulate.add_argument(
        "--shards", type=int, metavar="N", default=None,
        help="run the workload over an N-shard simulated cluster "
             "(one scheduler per node, dependency-aware 2PC, global "
             "serializability audit); with --fault-plan the storm is the "
             "distributed mix (message faults + node crashes)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    chaos = sub.add_parser(
        "chaos",
        help="chaos campaign: crash-point sweep + fault storms over a matrix",
    )
    chaos.add_argument(
        "adts", nargs="+", choices=builtin_names(),
        help="ADTs to sweep (each derives its own table)",
    )
    chaos.add_argument(
        "--policies", nargs="+", default=["optimistic", "blocking"],
        choices=("optimistic", "blocking"),
    )
    chaos.add_argument(
        "--seeds", nargs="+", type=int, default=[1991],
        help="workload seeds (one cell per ADT x policy x seed)",
    )
    chaos.add_argument("--transactions", type=int, default=6)
    chaos.add_argument("--operations", type=int, default=3)
    chaos.add_argument(
        "--intensity", type=float, default=0.05,
        help="fault-storm per-consult rate (default 0.05)",
    )
    chaos.add_argument(
        "--no-crash-sweep", action="store_true",
        help="skip the per-decision-point crash sweep (storms only)",
    )
    chaos.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the byte-stable JSON report to FILE instead of stdout",
    )
    chaos.add_argument(
        "--dist", action="store_true",
        help="also run the distributed campaign: message storms over "
             "sharded clusters plus the protocol crash-point sweep",
    )
    chaos.add_argument(
        "--shards", nargs="+", type=int, default=[1, 2], metavar="N",
        help="shard counts of the distributed campaign (default: 1 2)",
    )
    chaos.add_argument(
        "--serve", action="store_true",
        help="also run the serving campaign: overload plus faults "
             "against the hardened serving loop, gated on graceful "
             "degradation and no-resurrection certification",
    )
    chaos.add_argument(
        "--replication", action="store_true",
        help="also run the replicated-failover campaign: primary kills "
             "mid-2PC, partition-then-heal, dueling-primary fencing and "
             "backup-crash storms over replica groups, gated on zero "
             "committed-transaction loss and the global audit",
    )
    chaos.set_defaults(func=_cmd_chaos)

    trace = sub.add_parser(
        "trace", help="analyse a JSONL trace recorded with simulate --trace"
    )
    trace.add_argument("file", help="path to the .jsonl trace")
    trace_mode = trace.add_mutually_exclusive_group()
    trace_mode.add_argument(
        "--summary", action="store_true",
        help="aggregate summary (the default mode)",
    )
    trace_mode.add_argument(
        "--timeline", type=int, metavar="TXN", default=None,
        help="print every event involving one transaction",
    )
    trace_mode.add_argument(
        "--entries", action="store_true",
        help="full per-table-entry firing histogram",
    )
    trace.add_argument(
        "--verify", action="store_true",
        help="re-verify serializability from the trace alone (summary mode)",
    )
    trace.set_defaults(func=_cmd_trace)

    report = sub.add_parser(
        "report",
        help="observability dashboard from a JSONL trace: span trees, "
             "latency quantiles, conflict heatmap",
    )
    report.add_argument("file", help="path to the .jsonl trace")
    report.add_argument(
        "--top", type=int, default=10, metavar="N",
        help="number of slowest transactions to show (default 10)",
    )
    report.add_argument(
        "--window", type=int, default=32, metavar="W",
        help="conflict-profile window size in requests (default 32)",
    )
    report.set_defaults(func=_cmd_report)

    tables = sub.add_parser(
        "tables", help="generate per-ADT compatibility-table docs"
    )
    tables.add_argument("--out", default="docs/tables")
    tables.set_defaults(func=_cmd_tables)

    experiments = sub.add_parser(
        "experiments", help="run the paper-reproduction experiments"
    )
    experiments.add_argument("ids", nargs="*")
    experiments.set_defaults(func=_cmd_experiments)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a pager/head that closed early; not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
