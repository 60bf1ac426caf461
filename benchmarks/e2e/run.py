"""End-to-end benchmark: four served workloads, timed from outside.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --seed 1991 --out results.json
    python3 benchmarks/e2e/run.py --workload sched_hot --seed 7 --seconds 25
    python3 benchmarks/e2e/run.py --trace 1 --spans spans.jsonl

Each workload in ``workloads.py`` is served through the public
``ServingLoop`` over the public scheduler or cluster backend.  A run
serves a fixed number of independent inputs, generated from ``--seed``,
each once; ``--seconds`` sets how many (``Workload.inputs``), never the
machine's speed, so one seed always does the same work.  The inputs are
served in batches, each in a fresh ``python`` subprocess, so process-wide
caches and ``ru_maxrss`` start cold; batches of all selected workloads
are interleaved round-robin.  Wall times are reported in reference
seconds: each serving's times are scaled by how fast a small fixed
probe ran, interleaved with the serving every millisecond.

After the timed batches, the first input is served again in a fresh
subprocess, and its fingerprint and sim-time results must match.
``--trace 1`` serves only the first batch, then serves that whole batch
again, traced: its class-level wrappers (``layers.py``) split the serve
loop's wall time by layer, and it reports the per-layer metrics,
including the tracing overhead.

The command prints every metric by name with its unit, runs the
correctness gates, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``, where ``metrics`` are
the end-to-end metrics (``--trace 0``) or the per-layer ones
(``--trace 1``).  It exits 1 when any gate fails.

``--scale`` and ``--misreport-commit`` exist for the benchmark's tests:
the first shrinks every input, the second makes the backend proxy
report one commit as an abort, which the gates must catch.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from bisect import bisect_right
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.cc.scheduler import CommitDecision  # noqa: E402
from repro.cc.serializability import is_serializable  # noqa: E402
from repro.dist.audit import audit_global  # noqa: E402
from repro.dist.stats import DistStats  # noqa: E402
from repro.obs.latency import LatencyRecorder  # noqa: E402
from repro.serve import ServingLoop  # noqa: E402

from layers import DERIVE, LAYERS, PROBE, TIMED, SpanRecorder, span_totals  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_stack,
    input_seed,
    loop_options,
)

#: ``(name, unit, better)`` of every end-to-end metric.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("goodput_ops_s", "ops/s", "higher"),
    ("call_us_p50", "us", "lower"),
    ("call_us_p99", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_goodput", "ops/sim_unit", "higher"),
    ("sim_e2e_mean", "sim_unit", "lower"),
    ("sim_e2e_p99", "sim_unit", "lower"),
)

#: Scheduler counters reported as ``cc.scheduler.<field>``.
SCHEDULER_COUNTERS = (
    ("operations_blocked", "lower"),
    ("aborts", "lower"),
    ("deadlock_victims", "lower"),
    ("cascaded_aborts", "lower"),
    ("nd_fast_path_hits", "higher"),
    ("shadow_full_replays", "lower"),
    ("shadow_replays_avoided", "higher"),
    ("compiled_memo_hits", "higher"),
)

#: Cluster counters reported as ``dist.<field>``.
DIST_COUNTERS = (
    "prepares_sent",
    "votes_wait",
    "global_deadlocks",
    "messages_sent",
    "rpc_retries",
    "repl_records_shipped",
    "repl_records_applied",
    "heartbeats_sent",
)


def _per_layer_metrics() -> tuple:
    metrics = []
    for layer, _cls, attr in TIMED:
        metrics += [
            (f"{layer}.{attr}.calls", "count", "lower"),
            (f"{layer}.{attr}.self_ms", "ms", "lower"),
        ]
    metrics += [
        (f"{DERIVE}.calls", "count", "lower"),
        (f"{DERIVE}.self_ms", "ms", "lower"),
    ]
    metrics += [(f"{layer}.self_share", "fraction", "lower") for layer in LAYERS]
    metrics += [
        ("serve.retries", "count", "lower"),
        ("serve.shed", "count", "lower"),
        ("serve.commit_ratio", "fraction", "higher"),
        ("serve.queue_wait_p99", "sim_unit", "lower"),
        ("serve.commit_wait_p99", "sim_unit", "lower"),
    ]
    metrics += [(f"dist.{name}", "count", "lower") for name in DIST_COUNTERS]
    metrics += [("dist.replication.total_ms", "ms", "lower")]
    metrics += [
        (f"cc.scheduler.{name}", "count", better)
        for name, better in SCHEDULER_COUNTERS
    ]
    metrics += [
        ("cc.objects.log_len_max", "count", "lower"),
        ("cc.objects.log_len_sum", "count", "lower"),
        ("perf.cache.hit_rate", "fraction", "higher"),
        ("perf.cache.misses", "count", "lower"),
        ("core.derive_ms", "ms", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
    ]
    return tuple(metrics)


#: ``(name, unit, better)`` of every per-layer metric.
PER_LAYER_METRICS = _per_layer_metrics()

UNITS = {name: unit for name, unit, _ in E2E_METRICS + PER_LAYER_METRICS}

#: A run must make this many backend calls (times ``--scale``), so at
#: least 30 samples lie beyond the call-latency p99.
MIN_CALLS = 3000
#: Seconds one batch subprocess may take.
BATCH_TIMEOUT = 150

WORKLOADS_BY_NAME = {spec.name: spec for spec in WORKLOADS}


#: Nanoseconds :func:`probe_ns` takes on the reference machine (a 2-vCPU
#: Xeon virtual machine at 2.1 GHz, Python 3.11, in its fast state).
#: Wall times are reported in reference seconds.
PROBE_REF_NS = 24_000
#: During a serving, the backend proxy runs a probe after the first call
#: that ends this long after the previous probe.
PROBE_INTERVAL_NS = 1_000_000
#: Probes run just before and just after each set-up.
SETUP_PROBES = 20


def probe_ns() -> int:
    """Time a fixed, small piece of pure-Python work that runs no repository code.

    The machine's speed swings by 1.5x within milliseconds and by more
    between runs.  Probes interleaved with a serving sample its speed
    throughout; the serving's times are scaled by ``PROBE_REF_NS`` over
    the mean probe.  The work stays in a few cache lines and creates no
    objects the cyclic collector tracks, so it neither disturbs the
    serving nor depends on it.
    """
    started = time.perf_counter_ns()
    table: dict = {}
    for i in range(300):
        table[i & 63] = table.get(i & 63, 0) + i
    sorted(table.values())
    return time.perf_counter_ns() - started


def quantile(values, q: float) -> float:
    """Nearest-rank ``q``-quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])


class SampleRecorder(LatencyRecorder):
    """The serve loop's latency recorder, keeping the raw samples too.

    The log2 histograms report a bucket bound, exact only to a factor of
    two; the sim-time metrics need the samples.
    """

    KEPT = ("serve.e2e", "serve.queue_wait", "serve.commit_wait")

    def __init__(self) -> None:
        super().__init__()
        self.samples = {metric: [] for metric in self.KEPT}

    def observe(self, metric: str, key: str, value: float) -> None:
        super().observe(metric, key, value)
        kept = self.samples.get(metric)
        if kept is not None:
            kept.append(value)


class TimedBackend:
    """Pass-through serving backend taking one clock pair per call.

    Times every serve-loop call into the backend (``request``,
    ``try_commit``, ``abort``), and tells a span recorder which
    transaction the call serves.  Between calls it runs a speed probe
    every ``PROBE_INTERVAL_NS``; ``probed_ns`` is the time the probes
    took, which is not the serving's.  ``misreport_commit`` reports the
    first commit as an abort: a broken backend the gates must catch.
    """

    def __init__(self, backend, recorder=None, misreport_commit=False) -> None:
        self._backend = backend
        self._recorder = recorder
        self._misreport = misreport_commit
        self.call_ns: list[int] = []
        self.probes: list[int] = []
        self.probed_ns = 0
        self._probed_at = 0

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def _call(self, method, txn, *args, **kwargs):
        if self._recorder is not None:
            self._recorder.txn = txn
        started = time.perf_counter_ns()
        result = method(txn, *args, **kwargs)
        ended = time.perf_counter_ns()
        self.call_ns.append(ended - started)
        if self._recorder is not None:
            self._recorder.txn = -1
        if ended - self._probed_at >= PROBE_INTERVAL_NS:
            if self._recorder is not None:
                with self._recorder.span(PROBE):
                    self.probes.append(probe_ns())
            else:
                self.probes.append(probe_ns())
            self._probed_at = time.perf_counter_ns()
            self.probed_ns += self._probed_at - ended
        return result

    def request(self, txn, object_name, invocation, deadline=None):
        return self._call(
            self._backend.request, txn, object_name, invocation,
            deadline=deadline,
        )

    def try_commit(self, txn, deadline=None):
        decision = self._call(self._backend.try_commit, txn, deadline=deadline)
        if self._misreport and decision.committed:
            self._misreport = False
            return CommitDecision(committed=False, must_abort=True)
        return decision

    def abort(self, txn, reason="voluntary"):
        return self._call(self._backend.abort, txn, reason=reason)


# ----------------------------------------------------------------------
# One batch of inputs (runs in its own subprocess)
# ----------------------------------------------------------------------


def _gates(workload, stack, loop, result, label: str) -> list[str]:
    """Correctness gates and validity guards of one served input."""
    failures = []
    requests = len(stack.workload.requests)
    terminal = (
        result.committed + result.aborted + result.shed
        + result.deadline_exceeded + result.retries_exhausted
    )
    if terminal != requests or len(loop.outcomes) != requests:
        failures.append(
            f"{label}: {terminal} terminal outcomes for {requests} requests"
        )
    if result.committed <= 0:
        failures.append(f"{label}: nothing committed")
    if stack.cluster is None:
        def committed(txn):
            return stack.scheduler.transaction(txn).status.name == "COMMITTED"
    else:
        def committed(txn):
            return stack.cluster.gstatus.get(txn) == "COMMITTED"
    # Exactly one committed transaction per committed request, none for
    # any other outcome: no shed or expired request was resurrected, and
    # the loop's outcomes agree with the backend's state.
    for rid, outcome in loop.outcomes.items():
        count = sum(1 for txn in loop.request_txns.get(rid, ()) if committed(txn))
        if count != (outcome == "committed"):
            failures.append(
                f"{label}: request {rid} ended {outcome} with {count} "
                f"committed transactions"
            )
            break
    if stack.cluster is None:
        if not is_serializable(stack.scheduler):
            failures.append(f"{label}: served history is not serializable")
    else:
        if not audit_global(stack.cluster).passed:
            failures.append(f"{label}: global audit failed")
        if stack.cluster.replication is not None:
            violations = stack.cluster.replication.fencing_violations()
            if violations:
                failures.append(f"{label}: fencing violations {violations}")
    if workload.open_loop:
        # An open loop whose backlog keeps growing measures the queue,
        # not the system: the run must drain soon after the last arrival.
        last_arrival = max(request.arrival for request in stack.workload.requests)
        p99 = quantile(loop.recorder.samples["serve.e2e"], 0.99)
        if result.sim_duration - last_arrival > 4 * p99:
            failures.append(
                f"{label}: backlog; drained {result.sim_duration - last_arrival:.1f} "
                f"sim units after the last arrival, over 4 x p99 {p99:.1f}"
            )
    return failures


def _counters(stack, loop, result) -> dict:
    """Per-layer counters of one served input, read from public state."""
    schedulers = stack.schedulers()
    counters = {
        "serve.retries": result.retries,
        "serve.shed": result.shed,
        "serve.committed": result.committed,
        "serve.begun": sum(len(txns) for txns in loop.request_txns.values()),
    }
    dist = stack.cluster.stats if stack.cluster is not None else DistStats()
    for name in DIST_COUNTERS:
        counters[f"dist.{name}"] = getattr(dist, name)
    for name, _ in SCHEDULER_COUNTERS:
        counters[f"cc.scheduler.{name}"] = sum(
            getattr(scheduler.stats, name) for scheduler in schedulers
        )
    logs = [
        len(scheduler.object(name).log())
        for scheduler in schedulers
        for name in scheduler.object_names()
    ]
    counters["cc.objects.log_len_max"] = max(logs)
    counters["cc.objects.log_len_sum"] = sum(logs)
    caches = [scheduler.execution_cache.stats() for scheduler in schedulers]
    counters["perf.cache.hits"] = sum(stats.hits for stats in caches)
    counters["perf.cache.misses"] = sum(stats.misses for stats in caches)
    return counters


def _serve_input(workload, seed, spec, recorder, derive_span, label) -> dict:
    """Build one stack, serve its input, and reduce the serving to a record.

    Nothing of the stack outlives the call: earlier stacks kept alive
    would slow later inputs by growing the heap the cyclic GC scans.
    """
    gc.collect()
    first_span = len(recorder.spans) if recorder is not None else 0
    around_setup = [probe_ns() for _ in range(SETUP_PROBES)]
    stack = build_stack(workload, seed, spec["scale"], derive_span)
    around_setup += [probe_ns() for _ in range(SETUP_PROBES)]
    proxy = TimedBackend(
        stack.backend, recorder, spec.get("misreport_commit", False)
    )
    loop = ServingLoop(
        proxy,
        stack.workload,
        recorder=SampleRecorder(),
        **loop_options(workload, seed),
    )
    result = loop.run()
    # Reference nanoseconds per nanosecond of this serving.
    scale = PROBE_REF_NS / statistics.fmean(proxy.probes)
    e2e = loop.recorder.samples["serve.e2e"]
    record = {
        "slowdown": 1.0 / scale,
        "requests": len(stack.workload.requests),
        "committed": result.committed,
        # Times in reference seconds (and nanoseconds), probes excluded.
        "wall": (result.wall_seconds - proxy.probed_ns / 1e9) * scale,
        "setup": stack.setup_seconds * PROBE_REF_NS / statistics.fmean(around_setup),
        "call_ns": [ns * scale for ns in proxy.call_ns],
        "e2e": e2e,
        # Identical whenever this input is served, traced or not.
        "sim": {
            "fingerprint": stack.workload.fingerprint(),
            "goodput_ops": result.goodput_ops,
            "sim_duration": result.sim_duration,
            "e2e_sum": math.fsum(e2e),
            "e2e_p99": quantile(e2e, 0.99),
        },
        "failures": _gates(workload, stack, loop, result, label),
    }
    if recorder is not None:
        record["traced"] = {
            "counters": _counters(stack, loop, result),
            "waits": {
                name: loop.recorder.samples[f"serve.{name}"]
                for name in ("queue_wait", "commit_wait")
            },
            "first_span": first_span,
            "request_of": {
                txn: rid for rid, txns in loop.request_txns.items() for txn in txns
            },
        }
    return record


def serve_batch(spec: dict) -> dict:
    """Serve inputs ``first`` .. ``first + count - 1`` of one workload.

    ``spec`` holds ``workload``, ``seed``, ``scale``, ``first``,
    ``count``, ``traced`` and, optionally, ``spans`` (a path) and
    ``misreport_commit``.  Returns the batch's per-input records, its
    peak RSS and, when traced, its per-layer metrics.
    """
    workload = WORKLOADS_BY_NAME[spec["workload"]]
    recorder = SpanRecorder() if spec["traced"] else None
    derive_span = (
        (lambda: recorder.span(DERIVE)) if recorder is not None else nullcontext
    )
    indices = range(spec["first"], spec["first"] + spec["count"])
    with recorder.installed() if recorder is not None else nullcontext():
        inputs = [
            _serve_input(
                workload,
                input_seed(spec["seed"], index),
                spec,
                recorder,
                derive_span,
                f"input {index}",
            )
            for index in indices
        ]
    batch = {
        "inputs": inputs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        traced = [item.pop("traced") for item in inputs]
        batch["layers"] = _layer_metrics(recorder, traced)
        if spec.get("spans"):
            _write_spans(recorder, traced, indices, spec["spans"])
    return batch


def _sum_counters(counter_dicts) -> dict:
    total: dict = {}
    for counters in counter_dicts:
        for name, value in counters.items():
            if name == "cc.objects.log_len_max":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def _layer_metrics(recorder: SpanRecorder, traced) -> dict:
    """Per-layer metrics of a traced batch, but the tracing overhead.

    ``traced`` holds each input's counters and wait samples.
    """
    counters = _sum_counters(item["counters"] for item in traced)
    totals = span_totals(recorder.spans)
    run_ns = totals["run_ns"]
    metrics = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    for layer, _cls, attr in TIMED:
        name = f"{layer}.{attr}"
        self_ns = totals["self_ns"].get(name, 0)
        layer_ns[layer] += self_ns
        metrics[f"{name}.calls"] = totals["calls"].get(name, 0)
        metrics[f"{name}.self_ms"] = self_ns / 1e6
    layer_ns["core"] = totals["derive_ns"]
    metrics[f"{DERIVE}.calls"] = totals["derive_calls"]
    metrics[f"{DERIVE}.self_ms"] = totals["derive_ns"] / 1e6
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = layer_ns[layer] / run_ns
    for name in ("retries", "shed"):
        metrics[f"serve.{name}"] = counters[f"serve.{name}"]
    metrics["serve.commit_ratio"] = counters["serve.committed"] / counters["serve.begun"]
    for name in ("queue_wait", "commit_wait"):
        metrics[f"serve.{name}_p99"] = quantile(
            [value for item in traced for value in item["waits"][name]], 0.99
        )
    for name in DIST_COUNTERS:
        metrics[f"dist.{name}"] = counters[f"dist.{name}"]
    metrics["dist.replication.total_ms"] = totals["replication_ns"] / 1e6
    for name, _ in SCHEDULER_COUNTERS:
        metrics[f"cc.scheduler.{name}"] = counters[f"cc.scheduler.{name}"]
    metrics["cc.objects.log_len_max"] = counters["cc.objects.log_len_max"]
    metrics["cc.objects.log_len_sum"] = counters["cc.objects.log_len_sum"]
    lookups = counters["perf.cache.hits"] + counters["perf.cache.misses"]
    metrics["perf.cache.hit_rate"] = (
        counters["perf.cache.hits"] / lookups if lookups else 0.0
    )
    metrics["perf.cache.misses"] = counters["perf.cache.misses"]
    metrics["core.derive_ms"] = totals["derive_ns"] / totals["derive_calls"] / 1e6
    return metrics


def _write_spans(recorder: SpanRecorder, traced, indices, path: str) -> None:
    starts = [item["first_span"] for item in traced]

    def annotate(index: int, txn: int) -> dict:
        which = bisect_right(starts, index) - 1
        return {
            "input": indices[which],
            "request": traced[which]["request_of"].get(txn, -1),
        }

    recorder.write(path, annotate)


# ----------------------------------------------------------------------
# The run: batches in subprocesses, aggregation, reporting
# ----------------------------------------------------------------------


def _run_batch(spec: dict) -> dict:
    """Serve one batch in a fresh subprocess; its record or an error."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--batch", json.dumps(spec),
    ]
    # A fixed hash seed gives every subprocess the same dict and set
    # layouts, so an input served twice does the same work both times.
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(
            command,
            capture_output=True,
            text=True,
            timeout=BATCH_TIMEOUT,
            env=env,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"batch exceeded {BATCH_TIMEOUT} s"}
    if done.returncode != 0:
        tail = " ".join(done.stderr.strip().splitlines()[-1:])
        return {"error": f"batch exited {done.returncode}: {tail}"}
    return json.loads(done.stdout.strip().splitlines()[-1])


def _spans_path(spans: str | None, name: str, single: bool) -> str | None:
    if spans is None or single:
        return spans
    path = Path(spans)
    return str(path.with_name(f"{path.stem}.{name}{path.suffix}"))


def measure(names: list[str], args) -> dict:
    """Serve every named workload's inputs, batches interleaved round-robin.

    Then serve again, in a fresh subprocess each, the first input of
    every workload (``--trace 0``).  With ``--trace 1`` only the first
    batch is served, and then served again, traced.
    """
    runs = {}
    for name in names:
        workload = WORKLOADS_BY_NAME[name]
        count = workload.inputs(args.seconds)
        # Batches of equal size, none larger than ``workload.batch``.
        batches = math.ceil(count / workload.batch)
        bounds = [round(index * count / batches) for index in range(batches + 1)]
        plan = [(first, end - first) for first, end in zip(bounds, bounds[1:])]
        runs[name] = {
            "batches": [],
            "errors": [],
            "plan": plan[:1] if args.trace else plan,
            "again": None,
        }

    def spec(name: str, first: int, count: int, traced: bool) -> dict:
        return {
            "workload": name,
            "seed": args.seed,
            "scale": args.scale,
            "first": first,
            "count": count,
            "traced": traced,
            "misreport_commit": args.misreport_commit,
            "spans": _spans_path(args.spans, name, len(names) == 1) if traced else None,
        }

    rounds = max(len(state["plan"]) for state in runs.values())
    for index in range(rounds):
        for name, state in runs.items():
            if index < len(state["plan"]) and not state["errors"]:
                record = _run_batch(spec(name, *state["plan"][index], False))
                if "error" in record:
                    state["errors"].append(record["error"])
                else:
                    state["batches"].append(record)
    for name, state in runs.items():
        if state["errors"]:
            continue
        first, count = state["plan"][0]
        record = _run_batch(
            spec(name, first, count if args.trace else 1, bool(args.trace))
        )
        if "error" in record:
            state["errors"].append(record["error"])
        else:
            state["again"] = record
    return runs


def _goodput(inputs: list[dict]) -> float:
    """Committed operations per reference second of ``ServingLoop.run``."""
    ops = sum(item["sim"]["goodput_ops"] for item in inputs)
    return ops / sum(item["wall"] for item in inputs)


def summarize(state: dict, scale: float) -> dict:
    """A workload's metrics and gate failures from its batches."""
    inputs = [item for batch in state["batches"] for item in batch["inputs"]]
    again = state["again"]
    failures = list(state["errors"])
    for item in inputs + (again["inputs"] if again is not None else []):
        failures += item["failures"]
    summary = {
        "correct": False,
        "attempted": 0,
        "failed": 0,
        "metrics": {},
        "layers": {},
        "failures": failures,
        "inputs": len(inputs),
    }
    if state["errors"]:
        return summary
    served_again = again["inputs"]
    if any(
        item["sim"] != first["sim"] for item, first in zip(served_again, inputs)
    ):
        failures.append(
            "input fingerprints or sim-time results differ when an input "
            "is served again"
        )
    call_ns = [ns for item in inputs for ns in item["call_ns"]]
    minimum_calls = MIN_CALLS * scale
    if len(call_ns) < minimum_calls:
        failures.append(
            f"{len(call_ns)} backend calls, fewer than {minimum_calls:.0f}: "
            f"too few to support p99"
        )
    e2e = [value for item in inputs for value in item["e2e"]]
    requests = sum(item["requests"] for item in inputs)
    committed = sum(item["committed"] for item in inputs)
    goodput = _goodput(inputs)
    summary["metrics"] = {
        "setup_s": statistics.median(item["setup"] for item in inputs),
        "goodput_ops_s": goodput,
        "call_us_p50": quantile(call_ns, 0.50) / 1000.0,
        "call_us_p99": quantile(call_ns, 0.99) / 1000.0,
        "peak_rss_mb": statistics.median(
            batch["peak_rss_mb"] for batch in state["batches"]
        ),
        "sim_goodput": sum(item["sim"]["goodput_ops"] for item in inputs)
        / sum(item["sim"]["sim_duration"] for item in inputs),
        "sim_e2e_mean": statistics.fmean(e2e),
        "sim_e2e_p99": quantile(e2e, 0.99),
    }
    if "layers" in again:
        untraced = inputs[: len(served_again)]
        summary["layers"] = {
            **again["layers"],
            "trace.overhead_frac": 1.0 - _goodput(served_again) / _goodput(untraced),
        }
    summary.update(
        correct=not failures,
        attempted=requests,
        failed=requests - committed,
        failed_frac=(requests - committed) / requests,
        calls=len(call_ns),
        # How much slower than the reference the machine ran.
        slowdown=statistics.median(item["slowdown"] for item in inputs),
    )
    return summary


def _report(name: str, summary: dict, trace: bool) -> None:
    rows = [(metric, summary["metrics"].get(metric)) for metric, _, _ in E2E_METRICS]
    if trace:
        rows += [
            (metric, summary["layers"].get(metric))
            for metric, _, _ in PER_LAYER_METRICS
        ]
    for metric, value in rows:
        if value is not None:
            print(f"{name:19} {metric:42} {value:>16.6f} {UNITS[metric]}")
    if summary["metrics"]:
        print(
            f"{name:19} {'failed_frac':42} {summary['failed_frac']:>16.6f} "
            f"fraction ({summary['failed']} of {summary['attempted']} requests; "
            f"{summary['inputs']} inputs, {summary['calls']} calls)"
        )
    for failure in summary["failures"]:
        print(f"{name:19} FAIL {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS_BY_NAME),
        help="serve one workload (default: all four, interleaved)",
    )
    parser.add_argument(
        "--seed", type=int, default=1991,
        help="seed every input is generated from (default 1991)",
    )
    parser.add_argument(
        "--seconds", type=float, default=25.0,
        help="time budget per workload; sets how many inputs a run serves "
             "(default 25)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: serve the first batch again, traced, and report the "
             "per-layer metrics",
    )
    parser.add_argument(
        "--spans",
        help="with --trace 1, write the traced spans here as JSON lines "
             "(one file per workload when several run)",
    )
    parser.add_argument(
        "--out", help="write every workload's metrics and gates here as JSON"
    )
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument(
        "--misreport-commit", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument("--batch", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.batch is not None:
        print(json.dumps(serve_batch(json.loads(args.batch))))
        return 0
    if args.spans and not args.trace:
        parser.error("--spans needs --trace 1")
    if not 0.0 < args.scale <= 1.0:
        parser.error("--scale must be within (0, 1]")

    names = [args.workload] if args.workload else [spec.name for spec in WORKLOADS]
    runs = measure(names, args)
    summaries = {name: summarize(runs[name], args.scale) for name in names}
    for name in names:
        _report(name, summaries[name], bool(args.trace))
    if args.out:
        payload = {
            "seed": args.seed,
            "seconds": args.seconds,
            "scale": args.scale,
            "trace": args.trace,
            "host": {
                "platform": platform.platform(),
                "python": platform.python_version(),
                "cpus": len(os.sched_getaffinity(0)),
            },
            "workloads": summaries,
        }
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")

    single = len(names) == 1
    metrics = {}
    for name in names:
        reported = summaries[name]["layers" if args.trace else "metrics"]
        for metric, value in reported.items():
            key = metric if single else f"{name}/{metric}"
            metrics[key] = {"value": value, "unit": UNITS[metric]}
    correct = all(summary["correct"] for summary in summaries.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(s["attempted"] for s in summaries.values()),
                "failed": sum(s["failed"] for s in summaries.values()),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
