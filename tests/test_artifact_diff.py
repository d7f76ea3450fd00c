"""`scripts/artifact_diff.py` on its short pipeline: a rerun compares
identical, a one-ulp edit of one cell is reported at its size relative to
its column's peak, and a file that disappears is refused."""

import importlib.util
import os
import shutil

import numpy as np
import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
_SPEC = importlib.util.spec_from_file_location(
    "artifact_diff", os.path.join(ROOT, "scripts", "artifact_diff.py"))
artifact_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(artifact_diff)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Two runs of the short pipeline, each into its own directory."""
    paths = [str(tmp_path_factory.mktemp("run")) for _ in range(2)]
    for path in paths:
        assert artifact_diff.run(path, short=True) == 0
    return paths


def test_rerun_compares_identical(runs, capsys):
    a, b = runs
    assert artifact_diff.main(["compare", a, b]) == 0
    report = capsys.readouterr().out.splitlines()
    assert len(report) == 29 and report[-1].startswith("28 files, 0 not identical")
    assert all(line.endswith(": identical") for line in report[:-1])
    assert artifact_diff.run(a, short=True) == 2   # refuses a directory with files


def test_one_ulp_edit_is_reported_at_its_relative_size(runs, tmp_path):
    a = runs[0]
    b = str(tmp_path / "b")
    shutil.copytree(a, b)
    path = os.path.join(b, "gate_p_field.csv")
    with open(path) as handle:
        lines = handle.read().splitlines()
    header = lines.index("t_au,e_au,t_s,e_v_per_m")
    column = np.array([float(line.split(",")[1]) for line in lines[header + 1:]])
    row = header + 1 + len(column) // 2
    cells = lines[row].split(",")
    value = float(cells[1])
    cells[1] = repr(float(np.nextafter(value, np.inf)))
    lines[row] = ",".join(cells)
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")

    code, report = artifact_diff.compare(a, b)
    assert code == 0
    size = (np.nextafter(value, np.inf) - value) / np.abs(column).max()
    assert 0 < size < artifact_diff.TOLERANCE
    assert (f"gate_p_field.csv: largest deviation relative to the column's peak: "
            f"t_au 0, e_au {size:.3g}, t_s 0, e_v_per_m 0") in report
    assert report[-1].startswith("28 files, 1 not identical, every column within")


def test_deleted_file_is_refused(runs, tmp_path, capsys):
    a = runs[0]
    b = str(tmp_path / "b")
    shutil.copytree(a, b)
    os.remove(os.path.join(b, "gate.json"))
    assert artifact_diff.main(["compare", a, b]) == 1
    report = capsys.readouterr().out.splitlines()
    assert f"gate.json: gone (only in {a})" in report
    assert report[-1].endswith("FAILED")
