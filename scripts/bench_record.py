#!/usr/bin/env python3
"""Assemble a BENCH_*.json benchmark record from two checkouts' run records.

Benchmark a change in alternating pairs: check out the parent commit and
the change side by side, and for every seed run

    python3 perfbench/run.py --workload W --seed S --seconds 30 --trace 0

in both checkouts, in alternating order.  Each run leaves its record in
that checkout's `perfbench/.out/W-seedS-trace0.json`.  This script pairs
the records by workload and seed and writes, per workload, every
end-to-end metric that BENCHMARK.json lists: the value of each seed on
both sides, the medians and quartiles, the relative change of the median
and how many pairs the change wins, plus the failed and attempted
operation counts of every run.

Each metric gets a verdict.  The claimed one is met when the change wins
at least nine in ten pairs, its median is better than the parent's by
more than the distance between the parent's quartiles, and no more
operations fail than at the parent.  Every other metric is a regression
when the change's median is worse than the parent's by more than the
metric's bound in BENCHMARK.json, a share of the parent's median.  It is
unresolved when it is no regression but the runs of either side spread
wider than the bound (the distance between their quartiles, as a share
of the parent's median), unless every run of the change is better than
every run of the parent: such a spread cannot tell a change within the
bound from one beyond it.  Otherwise it is within bound.  The record's
own verdict sums them up and names every unresolved metric.

    python3 scripts/bench_record.py --parent ../parent --change . \\
        --title "what the change does" --claim "paper-oct sweep_ms" \\
        --out BENCH_21.json

Only the Python standard library is used.  A workload with no seed run
on both sides is left out; a seed run on one side only is an error, and
so is a run record of any size but "full" (`perfbench/selfcheck.py`
leaves tiny ones under the same names).
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys

RECORD = re.compile(r"(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json$")
# the order of the runs of each pair, as the module docstring asks for them
PAIRS = "alternating order: odd seeds run the parent first, even seeds the change first"


def read_records(checkout):
    """{workload: {seed: run record}} of the untraced runs of a checkout.
    A record of a run at any size but "full" is refused."""
    records = {}
    for path in glob.glob(os.path.join(checkout, "perfbench", ".out", "*-trace0.json")):
        match = RECORD.match(os.path.basename(path))
        if match:
            with open(path) as handle:
                record = json.load(handle)
            if record.get("size") != "full":
                raise SystemExit(f"{path} records a run of size {record.get('size')!r}, "
                                 "not 'full'; remove it or rerun it at full size")
            records.setdefault(match["workload"], {})[int(match["seed"])] = record
    return records


def host(env):
    """The machine and software of a run, from its record."""
    caches = env["cache_bytes"]
    return (f"{env['cpu_count']} CPUs, L2 {caches['L2'] / 2**20:g} MiB, "
            f"L3 {caches['L3'] / 2**20:g} MiB; Python {env['python']}, numpy {env['numpy']}, "
            f"{env['blas']['name']} {env['blas']['version']}")


def summary(parent, change, better):
    """The per-metric entry of a record: values, medians, quartiles,
    relative change of the median and the pairs the change wins."""
    def quartiles(values):
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return [round(q1, 6), round(q3, 6)]

    wins = sum(c < p if better == "lower" else c > p for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    return {
        "parent": [round(v, 6) for v in parent],
        "change": [round(v, 6) for v in change],
        "parent_median": round(parent_median, 6),
        "change_median": round(change_median, 6),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "relative_change": round(change_median / parent_median - 1.0, 4),
        "change_better_pairs": wins,
        "pairs": len(parent),
    }


def verdict(entry, metric, claimed, more_failures):
    """The verdict on one metric's summary: "claim met" or "claim not met"
    for the claimed metric, and for any other "regression" when its median
    is worse than the parent's by more than the metric's bound,
    "unresolved" when either side's quartiles lie further apart than the
    bound and some run of the change is no better than some run of the
    parent, else "within bound"."""
    sign = 1 if metric["better"] == "lower" else -1
    if claimed:
        q1, q3 = entry["parent_quartiles"]
        gain = sign * (entry["parent_median"] - entry["change_median"])
        met = (10 * entry["change_better_pairs"] >= 9 * entry["pairs"] and gain > q3 - q1
               and not more_failures)
        return "claim met" if met else "claim not met"
    worse = sign * (entry["change_median"] / entry["parent_median"] - 1.0)
    if worse > metric["bound"]:
        return "regression"
    spread = max(q3 - q1 for q1, q3 in (entry["parent_quartiles"], entry["change_quartiles"]))
    all_better = max(sign * v for v in entry["change"]) < min(sign * v for v in entry["parent"])
    if spread > metric["bound"] * entry["parent_median"] and not all_better:
        return "unresolved"
    return "within bound"


def workload_entry(parent_runs, change_runs, metrics, claimed=None):
    """The record of one workload; claimed names its metric the change
    claims to improve, if any."""
    seeds = sorted(parent_runs)
    failed = {"parent": [parent_runs[s]["failed"] for s in seeds],
              "change": [change_runs[s]["failed"] for s in seeds]}
    attempted = {"parent": [parent_runs[s]["attempted"] for s in seeds],
                 "change": [change_runs[s]["attempted"] for s in seeds]}
    # a larger share of the attempted operations failed
    more_failures = (sum(failed["change"]) * sum(attempted["parent"])
                     > sum(failed["parent"]) * sum(attempted["change"]))
    entry = {"seeds": seeds, "failed": failed, "attempted": attempted, "metrics": {}}
    for metric in metrics:
        parent = [parent_runs[s]["metrics"][metric["name"]] for s in seeds]
        change = [change_runs[s]["metrics"][metric["name"]] for s in seeds]
        result = summary(parent, change, metric["better"])
        result["verdict"] = verdict(result, metric, metric["name"] == claimed, more_failures)
        entry["metrics"][metric["name"]] = {"unit": metric["unit"], **result}
    return entry


def build(args):
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    parent, change = read_records(args.parent), read_records(args.change)
    claimed_workload, _, claimed_metric = args.claim.partition(" ")
    workloads = {}
    for workload in (w["name"] for w in benchmark["workloads"]):
        parent_runs, change_runs = parent.get(workload, {}), change.get(workload, {})
        if set(parent_runs) != set(change_runs):
            raise SystemExit(f"{workload}: seeds {sorted(parent_runs)} on the parent side, "
                             f"{sorted(change_runs)} on the change side")
        if parent_runs:
            workloads[workload] = workload_entry(
                parent_runs, change_runs, benchmark["end_to_end"],
                claimed_metric if workload == claimed_workload else None)
    if not workloads:
        raise SystemExit("no run records found in either checkout's perfbench/.out")
    if claimed_metric not in workloads.get(claimed_workload, {}).get("metrics", {}):
        raise SystemExit(f"claim {args.claim!r} is not '<workload> <metric>' of the run "
                         "records and BENCHMARK.json")
    claim = workloads[claimed_workload]["metrics"][claimed_metric]["verdict"]

    def named(verdict):
        return [f"{name} {metric}" for name, entry in workloads.items()
                for metric, result in entry["metrics"].items() if result["verdict"] == verdict]

    regressions, unresolved = named("regression"), named("unresolved")
    environments = [run["environment"] for runs in (parent, change)
                    for by_seed in runs.values() for run in by_seed.values()]
    threads = {env["thread_env"]["OPENBLAS_NUM_THREADS"] for env in environments}
    thread_text = ("default OpenBLAS threads" if threads == {None}
                   else f"OPENBLAS_NUM_THREADS {sorted(map(str, threads))}")
    record = {
        "change": args.title,
        "claim": args.claim,
        "benchmark": f"perfbench/run.py --seconds {benchmark['run_seconds']} --trace 0, "
                     + thread_text,
        "host": "; ".join(sorted({host(env) for env in environments})),
        "pairs": PAIRS,
        "verdict": f"{claim}; " + (f"regression on {', '.join(regressions)}" if regressions
                                   else "no other metric worse than its bound")
                   + (f"; unresolved: {', '.join(unresolved)}" if unresolved else ""),
        "workloads": workloads,
    }
    if args.note:
        record["notes"] = args.note
    return record


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--title", required=True, help="what the change does")
    parser.add_argument("--claim", required=True,
                        help="the workload and metric the change claims to improve")
    parser.add_argument("--note", action="append", help="a line for the record's notes")
    parser.add_argument("--out", help="file to write; stdout if not given")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    text = json.dumps(build(args), indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
