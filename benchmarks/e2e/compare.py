"""Compare two sets of end-to-end benchmark results: parent and change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --parent parent/*.json --change change/*.json
    python3 benchmarks/e2e/compare.py --parent runs/*.json --json summary.json

Each file is one ``run.py --out`` result; a set is typically ten runs,
each with another ``--seed``.  Runs are paired by seed: the parent's and
the change's run of one seed served the same inputs, so their difference
is the code's and the machine's, not the inputs'.  Seeds found on one
side only are left out.  For every (workload, end-to-end metric) in
``BENCHMARK.json`` the comparison prints both sides' medians and
quartiles, the quartiles of the per-seed change, and a verdict.

Sim-time metrics (:data:`EXACT`) depend only on the inputs and the code,
never on the machine, so they are judged seed by seed with no tolerance:

* ``worse``: some seed is worse;
* ``improved``: no seed is worse and some seed is better;
* ``no-worse``: every seed is equal.

Every other metric is judged on its per-seed change, as a share of the
parent's value and signed so that positive is worse, against the
metric's bound in ``BENCHMARK.json``:

* ``worse``: the median change is worse than the bound;
* ``improved``: at least nine tenths of the seeds are better, by a median
  larger than the changes' quartile spread;
* ``unresolved``: the changes' quartile spread is wider than the bound;
* ``no-worse`` otherwise.

A workload missing from the change is ``worse``; one missing from the
parent, or sharing no seed with it, is ``unresolved``.  Each workload
also gets a failed-share row: the change may not fail a larger share of
its requests than the parent, and every change run must have passed its
gates.  With ``--parent`` alone it summarizes one set.  The command exits
1 on any worse row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Metrics a change must match exactly on every seed unless it improves them.
EXACT = ("sim_goodput", "sim_e2e_mean", "sim_e2e_p99")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(path).read_text()) for path in paths]


def with_workload(runs: list[dict], workload: str) -> dict[int, dict]:
    """``seed -> summary`` of one workload over the runs that served it."""
    return {
        run["seed"]: run["workloads"][workload]
        for run in runs
        if workload in run["workloads"]
    }


def values_of(summaries: dict[int, dict], metric: str) -> dict[int, float]:
    """``seed -> value`` of one metric."""
    return {
        seed: summary["metrics"][metric]
        for seed, summary in summaries.items()
        if metric in summary["metrics"]
    }


def worsening(parent: float, change: float, better: str) -> float:
    """The change as a share of the parent's value; positive is worse."""
    sign = 1.0 if better == "lower" else -1.0
    return sign * (change - parent) / abs(parent)


def verdict(
    parent: dict[int, float],
    change: dict[int, float],
    better: str,
    bound: float,
    exact: bool = False,
) -> str:
    """One row's verdict; ``parent`` and ``change`` map seed -> value."""
    common = sorted(set(parent) & set(change))
    if not common:
        return "unresolved"
    changes = [worsening(parent[seed], change[seed], better) for seed in common]
    if exact:
        if any(delta > 0 for delta in changes):
            return "worse"
        return "improved" if any(delta < 0 for delta in changes) else "no-worse"
    q1, median, q3 = quartiles(changes)
    if median > bound:
        return "worse"
    better_seeds = sum(1 for delta in changes if delta < 0)
    if better_seeds >= 0.9 * len(changes) and -median > q3 - q1:
        return "improved"
    if q3 - q1 > bound:
        return "unresolved"
    return "no-worse"


def failed_share(summaries: dict[int, dict]) -> float:
    attempted = sum(summary["attempted"] for summary in summaries.values())
    failed = sum(summary["failed"] for summary in summaries.values())
    return failed / attempted if attempted else 1.0


def _cell(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.5g} [{q1:.5g}, {q3:.5g}]"


def _delta_cell(changes: list[float]) -> str:
    if not changes:
        return "no common seed"
    q1, median, q3 = quartiles(changes)
    return f"{median:+8.1%} [{q1:+.1%}, {q3:+.1%}]"


def summarize(runs: list[dict], benchmark: dict) -> dict:
    """Median, quartiles and spread of every metric of one set."""
    summary = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        summaries = with_workload(runs, workload)
        for metric in benchmark["end_to_end"]:
            values = list(values_of(summaries, metric["name"]).values())
            if not values:
                continue
            q1, median, q3 = quartiles(values)
            summary.setdefault(workload, {})[metric["name"]] = {
                "unit": metric["unit"],
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread(values),
                "runs": len(values),
            }
    return summary


def _compare_workload(workload: str, parent: dict, change: dict, benchmark) -> bool:
    """Print one workload's rows; whether any is worse."""
    if not change or not parent:
        missing = "change" if not change else "parent"
        print(f"{workload:19} {'(workload)':15} missing from the {missing}"
              f"{'':28}  {'worse' if not change else 'unresolved'}")
        return not change
    worse = False
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        p = values_of(parent, name)
        c = values_of(change, name)
        result = verdict(p, c, metric["better"], metric["bound"], name in EXACT)
        worse |= result == "worse"
        # (change - parent) / parent per seed, whichever way is better.
        changes = [worsening(p[seed], c[seed], "lower") for seed in set(p) & set(c)]
        print(
            f"{workload:19} {name:15} {_cell(list(p.values())):>34} "
            f"{_cell(list(c.values())):>34} "
            f"{_delta_cell(changes):>26}  {result}"
        )
    p_share, c_share = failed_share(parent), failed_share(change)
    gates_ok = all(summary["correct"] for summary in change.values())
    ok = c_share <= p_share and gates_ok
    print(
        f"{workload:19} {'failed_share':15} {p_share:>34.5g} "
        f"{c_share:>34.5g} {'':26}  "
        f"{'no-worse' if ok else 'worse'}"
        f"{'' if gates_ok else ' (a change run failed its gates)'}"
    )
    return worse or not ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files")
    parser.add_argument("--change", nargs="*", default=[], help="result files")
    parser.add_argument(
        "--json", help="with --parent alone: write the set's summary here"
    )
    args = parser.parse_args(argv)
    benchmark = json.loads(BENCHMARK.read_text())
    parent = load(args.parent)

    if not args.change:
        summary = summarize(parent, benchmark)
        for workload, metrics in summary.items():
            for name, row in metrics.items():
                print(
                    f"{workload:19} {name:15} {row['median']:12.5g} "
                    f"[{row['q1']:.5g}, {row['q3']:.5g}] spread "
                    f"{row['spread']:.3f} {row['unit']} ({row['runs']} runs)"
                )
        if args.json:
            Path(args.json).write_text(json.dumps(summary, indent=2) + "\n")
        return 0

    change = load(args.change)
    print(
        f"{'workload':19} {'metric':15} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'per-seed change [q1, q3]':>26}  verdict"
    )
    worse = False
    for workload in (w["name"] for w in benchmark["workloads"]):
        p = with_workload(parent, workload)
        c = with_workload(change, workload)
        if p or c:
            worse |= _compare_workload(workload, p, c, benchmark)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
