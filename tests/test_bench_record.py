"""`scripts/bench_record.py` assembles a record that CI's completeness check
accepts: one value per seed on both sides of every end-to-end metric."""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
_SPEC = importlib.util.spec_from_file_location(
    "bench_record", os.path.join(ROOT, "scripts", "bench_record.py"))
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)


def fake_checkout(path, runs):
    """A checkout holding BENCHMARK.json and one untraced run record per
    (workload, seed, metric values)."""
    out = path / "perfbench" / ".out"
    out.mkdir(parents=True)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    for workload, seed, values in runs:
        record = {"attempted": 30, "failed": 0, "metrics": values,
                  "environment": {"thread_env": {"OPENBLAS_NUM_THREADS": None}, "cpu_count": 2,
                                  "cache_bytes": {"L2": 2 << 20, "L3": 300 << 20},
                                  "python": "3.11.7", "numpy": "2.4.6",
                                  "blas": {"name": "scipy-openblas", "version": "0.3"}}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    return str(path)


def metrics(sweep_ms):
    return {"setup_s": 0.07, "sweep_ms": sweep_ms, "check_ms": 1.8, "peak_rss_mb": 47.0}


def test_pairs_records_by_workload_and_seed(tmp_path):
    parent = fake_checkout(tmp_path / "parent", [("paper-oct", s, metrics(2.5 + s / 100))
                                                 for s in (1, 2, 3)])
    change = fake_checkout(tmp_path / "change", [("paper-oct", 1, metrics(2.1)),
                                                 ("paper-oct", 2, metrics(2.6)),
                                                 ("paper-oct", 3, metrics(2.2))])
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--parent", parent, "--change", change, "--title", "t",
                              "--claim", "paper-oct sweep_ms", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == ["paper-oct"]
    assert "default OpenBLAS threads" in record["benchmark"]
    assert record["host"] == ("2 CPUs, L2 2 MiB, L3 300 MiB; Python 3.11.7, numpy 2.4.6, "
                              "scipy-openblas 0.3")
    entry = record["workloads"]["paper-oct"]
    assert entry["seeds"] == [1, 2, 3]
    assert entry["failed"] == {"parent": [0, 0, 0], "change": [0, 0, 0]}
    sweep = entry["metrics"]["sweep_ms"]
    assert sweep["parent"] == [2.51, 2.52, 2.53] and sweep["change"] == [2.1, 2.6, 2.2]
    assert sweep["parent_median"] == 2.52 and sweep["change_median"] == 2.2
    assert sweep["change_better_pairs"] == 2 and sweep["pairs"] == 3
    assert sweep["relative_change"] == round(2.2 / 2.52 - 1, 4)
    assert set(entry["metrics"]) == {"setup_s", "sweep_ms", "check_ms", "peak_rss_mb"}


def test_refuses_a_seed_run_on_one_side_only(tmp_path):
    parent = fake_checkout(tmp_path / "parent", [("desk-gate", 1, metrics(2.0)),
                                                 ("desk-gate", 2, metrics(2.0))])
    change = fake_checkout(tmp_path / "change", [("desk-gate", 1, metrics(2.0))])
    with pytest.raises(SystemExit, match="desk-gate: seeds"):
        bench_record.main(["--parent", parent, "--change", change, "--title", "t",
                           "--claim", "c"])
