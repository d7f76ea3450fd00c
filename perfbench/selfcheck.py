"""Smoke test of the benchmark itself, at tiny step counts.

    python3 perfbench/selfcheck.py

Runs every workload of BENCHMARK.json with tracing off and on, and checks
that the last stdout line is the result object with every end-to-end
(resp. per-layer) metric named there, with its unit, and that every output
check held.  Then it checks that the
benchmark refuses to run, printing no result, in a copy of the checkout
that holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(root, spec, workload, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", "7", "--seconds", "1",
                             "--trace", str(trace)]
    if root == ROOT:
        cmd += ["--size", "tiny"]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def check_metrics(spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(ROOT, spec, workload, trace)
            if done.returncode != 0:
                sys.exit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["attempted"] >= 1, result
            assert result["correct"] and result["failed"] == 0, done.stdout
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == expected, (workload, trace, got, expected)
            for name, metric in result["metrics"].items():
                assert isinstance(metric["value"], (int, float)), (name, metric)
            print(f"ok {workload} trace={trace}: {len(got)} metrics")


def check_refuses_without_sources(spec):
    bare = os.path.join(ROOT, "perfbench", ".work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
        done = run(bare, spec, spec["workloads"][0]["name"], 0)
        assert done.returncode != 0, done.stdout
        assert not done.stdout.strip(), done.stdout
        print(f"ok refuses to run without sources (exit {done.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_metrics(spec)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
