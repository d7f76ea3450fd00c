"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload desk-gate --seeds 1 2 3 4 5

Runs the benchmark command of BENCHMARK.json once per seed, one run at a
time, and prints for each end-to-end metric its median and the distance
between its first and third quartile as a share of the median, next to
the metric's bound.  Each run's result line is appended to
`perfbench/.out/spread-<workload>.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    cmd = [sys.executable if spec["command"][0] == "python3" else spec["command"][0]]
    cmd += spec["command"][1:]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    log = os.path.join(ROOT, "perfbench", ".out", f"spread-{args.workload}.jsonl")
    os.makedirs(os.path.dirname(log), exist_ok=True)
    for seed in args.seeds:
        done = subprocess.run(
            cmd + ["--workload", args.workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        with open(log, "a") as handle:
            handle.write(json.dumps({"seed": seed, **result}) + "\n")
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{done.stdout}", file=sys.stderr)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
        else:
            share = 0.0
        print(f"{metric['name']:16s} median {med:.6g} {metric['unit']:3s} "
              f"IQR/median {share:.4f}  bound {metric['bound']}  "
              f"(a third: {metric['bound'] / 3:.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
