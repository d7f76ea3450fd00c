"""`scripts/bench_record.py` assembles a record that its `check` mode, CI's
completeness check, accepts, one value per seed on both sides of every
end-to-end metric, and gives each metric its verdict; `check` refuses
every kind of incomplete record and accepts every committed one."""

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


def fake_checkout(path, runs, size="full"):
    """A checkout holding BENCHMARK.json and one untraced run record of
    `size` per (workload, seed, metric values)."""
    out = path / "perfbench" / ".out"
    out.mkdir(parents=True, exist_ok=True)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), path)
    for workload, seed, values in runs:
        record = {"size": size, "attempted": 30, "failed": 0, "metrics": values,
                  "environment": {"thread_env": {"OPENBLAS_NUM_THREADS": None}, "cpu_count": 2,
                                  "cache_bytes": {"L2": 2 << 20, "L3": 300 << 20},
                                  "python": "3.11.7", "numpy": "2.4.6",
                                  "blas": {"name": "scipy-openblas", "version": "0.3"}}}
        (out / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))
    return str(path)


def metrics(sweep_ms, check_ms=1.8):
    return {"setup_s": 0.07, "sweep_ms": sweep_ms, "check_ms": check_ms, "peak_rss_mb": 47.0}


def ten_pairs(tmp_path, parent_sweeps, change_sweeps, change_check_ms=1.8,
              parent_check_ms=1.8):
    """The record of ten desk-gate pairs claiming sweep_ms; a check_ms is
    one value for every run or one per run."""
    seeds = range(1, 11)

    def runs(sweeps, check_ms):
        checks = check_ms if isinstance(check_ms, list) else [check_ms] * 10
        return [("desk-gate", s, metrics(v, c)) for s, v, c in zip(seeds, sweeps, checks)]

    parent = fake_checkout(tmp_path / "parent", runs(parent_sweeps, parent_check_ms))
    change = fake_checkout(tmp_path / "change", runs(change_sweeps, change_check_ms))
    out = tmp_path / "BENCH.json"
    bench_record.main(["--parent", parent, "--change", change, "--title", "t",
                       "--claim", "desk-gate sweep_ms", "--out", str(out)])
    return json.loads(out.read_text())


PARENT_SWEEPS = [1.35, 1.36, 1.34, 1.37, 1.35, 1.33, 1.36, 1.35, 1.38, 1.34]


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


def test_refuses_a_run_record_not_of_full_size(tmp_path):
    runs = [("paper-oct", s, metrics(2.0)) for s in (1, 2)]
    parent = fake_checkout(tmp_path / "parent", runs)
    change = fake_checkout(tmp_path / "change", runs)
    fake_checkout(tmp_path / "change", [("paper-oct", 7, metrics(0.2))], size="tiny")
    with pytest.raises(SystemExit, match=r"paper-oct-seed7-trace0\.json records a run of size "
                                         r"'tiny', not 'full'"):
        bench_record.main(["--parent", parent, "--change", change, "--title", "t",
                           "--claim", "paper-oct sweep_ms"])


def test_claim_met_by_nine_wins_and_a_gap_beyond_the_parent_spread(tmp_path):
    change = [1.22, 1.21, 1.23, 1.22, 1.36, 1.20, 1.22, 1.21, 1.23, 1.22]
    record = ten_pairs(tmp_path, PARENT_SWEEPS, change)
    sweep = record["workloads"]["desk-gate"]["metrics"]["sweep_ms"]
    assert sweep["change_better_pairs"] == 9
    assert sweep["verdict"] == "claim met"
    assert record["workloads"]["desk-gate"]["metrics"]["check_ms"]["verdict"] == "within bound"
    assert record["verdict"] == "claim met; no other metric worse than its bound"


@pytest.mark.parametrize("change", [
    [1.22, 1.21, 1.23, 1.22, 1.36, 1.20, 1.22, 1.39, 1.23, 1.22],   # 8 wins of 10
    [p - 0.005 for p in PARENT_SWEEPS],   # 10 wins, gap inside the parent's quartiles
], ids=["eight-wins", "gap-inside-spread"])
def test_claim_not_met(tmp_path, change):
    record = ten_pairs(tmp_path, PARENT_SWEEPS, change)
    assert record["workloads"]["desk-gate"]["metrics"]["sweep_ms"]["verdict"] == "claim not met"
    assert record["verdict"] == "claim not met; no other metric worse than its bound"


def test_regression_beyond_the_bound(tmp_path):
    record = ten_pairs(tmp_path, PARENT_SWEEPS, [p - 0.1 for p in PARENT_SWEEPS],
                       change_check_ms=1.8 * 1.3)
    check = record["workloads"]["desk-gate"]["metrics"]["check_ms"]
    assert check["relative_change"] == 0.3 and check["verdict"] == "regression"
    assert record["verdict"] == "claim met; regression on desk-gate check_ms"


# check_ms runs whose quartiles lie 30 % of their median apart
NOISY_CHECKS = [1.4, 2.2, 1.5, 2.1, 1.8, 1.3, 2.3, 1.6, 2.0, 1.9]


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path):
    """check_ms's bound is 0.25 of the parent's median.  Its runs spread
    wider than that on both sides, so a median within the bound tells
    nothing: the metric is unresolved, not within bound."""
    change = [1.22, 1.21, 1.23, 1.22, 1.20, 1.20, 1.22, 1.21, 1.23, 1.22]
    record = ten_pairs(tmp_path, PARENT_SWEEPS, change, change_check_ms=NOISY_CHECKS[::-1],
                       parent_check_ms=NOISY_CHECKS)
    check = record["workloads"]["desk-gate"]["metrics"]["check_ms"]
    assert check["relative_change"] == 0.0 and check["verdict"] == "unresolved"
    assert record["verdict"] == ("claim met; no other metric worse than its bound; "
                                 "unresolved: desk-gate check_ms")


def test_a_noisy_metric_whose_change_runs_all_beat_the_parent_is_within_bound(tmp_path):
    change = [1.22, 1.21, 1.23, 1.22, 1.20, 1.20, 1.22, 1.21, 1.23, 1.22]
    faster = [v / 2 for v in NOISY_CHECKS]
    assert max(faster) < min(NOISY_CHECKS)
    record = ten_pairs(tmp_path, PARENT_SWEEPS, change, change_check_ms=faster,
                       parent_check_ms=NOISY_CHECKS)
    assert record["workloads"]["desk-gate"]["metrics"]["check_ms"]["verdict"] == "within bound"
    assert record["verdict"] == "claim met; no other metric worse than its bound"


def test_refuses_a_claim_on_no_recorded_metric(tmp_path):
    runs = [("desk-gate", 1, metrics(2.0)), ("desk-gate", 2, metrics(2.0))]
    parent = fake_checkout(tmp_path / "parent", runs)
    change = fake_checkout(tmp_path / "change", runs)
    with pytest.raises(SystemExit, match="claim 'paper-oct sweep_ms'"):
        bench_record.main(["--parent", parent, "--change", change, "--title", "t",
                           "--claim", "paper-oct sweep_ms"])


def checked(tmp_path, monkeypatch, capsys, record=None):
    """(exit status, output) of the `check` mode in a directory holding
    BENCHMARK.json and, if given, record as its one BENCH_*.json."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    if record is not None:
        (tmp_path / "BENCH_1.json").write_text(json.dumps(record))
    monkeypatch.chdir(tmp_path)
    status = bench_record.main(["check"])
    return status, capsys.readouterr().out


@pytest.fixture
def complete(tmp_path):
    """A record the script writes, of ten desk-gate pairs claiming sweep_ms."""
    return ten_pairs(tmp_path, PARENT_SWEEPS, [p - 0.1 for p in PARENT_SWEEPS])


def test_check_accepts_a_record_the_script_writes(tmp_path, monkeypatch, capsys, complete):
    assert checked(tmp_path, monkeypatch, capsys, complete) == (
        0, "1 benchmark records, 0 problems\n")


def test_check_accepts_every_committed_record(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    status = bench_record.main(["check"])
    out = capsys.readouterr().out
    assert status == 0, out
    assert out.endswith(" benchmark records, 0 problems\n") and not out.startswith("0 ")


def test_check_refuses_no_records(tmp_path, monkeypatch, capsys):
    assert checked(tmp_path, monkeypatch, capsys) == (
        1, "0 benchmark records, 1 problems\nno BENCH_*.json\n")


@pytest.mark.parametrize("key", ["change", "claim", "workloads"])
def test_check_refuses_a_record_without_a_key(tmp_path, monkeypatch, capsys, complete, key):
    del complete[key]
    status, out = checked(tmp_path, monkeypatch, capsys, complete)
    assert status == 1 and f"BENCH_1.json: no '{key}'\n" in out


@pytest.mark.parametrize("claim", ["desk-gate", "desk-gate sweep_ms extra",
                                   "paper-oct sweep_ms", "desk-gate wall_s"],
                         ids=["no-metric", "three-words", "workload-not-recorded",
                              "not-end-to-end"])
def test_check_refuses_a_claim_not_a_workload_and_metric(tmp_path, monkeypatch, capsys,
                                                         complete, claim):
    complete["claim"] = claim
    assert checked(tmp_path, monkeypatch, capsys, complete) == (
        1, f"1 benchmark records, 1 problems\nBENCH_1.json: claim {claim!r} is not "
           "'<workload> <metric>' of its workloads and BENCHMARK.json\n")


def test_check_refuses_failed_operations(tmp_path, monkeypatch, capsys, complete):
    complete["workloads"]["desk-gate"]["failed"]["change"][3] = 2
    assert checked(tmp_path, monkeypatch, capsys, complete) == (
        1, "1 benchmark records, 1 problems\n"
           "BENCH_1.json desk-gate: change failed [0, 0, 0, 2, 0, 0, 0, 0, 0, 0]\n")


@pytest.mark.parametrize("side", ["parent", "change"])
def test_check_refuses_a_side_with_fewer_values_than_seeds(tmp_path, monkeypatch, capsys,
                                                           complete, side):
    complete["workloads"]["desk-gate"]["metrics"]["check_ms"][side].pop()
    assert checked(tmp_path, monkeypatch, capsys, complete) == (
        1, f"1 benchmark records, 1 problems\n"
           f"BENCH_1.json desk-gate check_ms: {side} has 9 values, 10 seeds\n")
