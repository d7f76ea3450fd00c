import json

import numpy as np
import pytest

from iontrapsim import ControlField, OctTrace, TrapParams, solve_trap
from iontrapsim.errors import ValidationError
from iontrapsim.serialization import (
    _read_table,
    load_eigenbasis,
    load_field,
    load_gate,
    load_trace,
    save_eigenbasis,
    save_field,
    save_gate,
    save_spectrum,
    save_trace,
)


@pytest.fixture
def small_basis():
    return solve_trap(TrapParams(primitive_size=40, dynamical_size=6, computational_size=4))


def test_eigenbasis_roundtrip(tmp_path, small_basis):
    save_eigenbasis(small_basis, str(tmp_path), {"config_hash": "abc"})
    back = load_eigenbasis(str(tmp_path))
    assert back.params == small_basis.params
    assert np.array_equal(back.energies, small_basis.energies)
    assert np.array_equal(back.vectors, small_basis.vectors)
    assert np.array_equal(back.z_matrix, small_basis.z_matrix)
    assert np.array_equal(back.dipole, small_basis.dipole)


def test_eigenbasis_energy_count_checked(tmp_path, small_basis):
    save_eigenbasis(small_basis, str(tmp_path))
    path = tmp_path / "basis.json"
    payload = json.loads(path.read_text())
    payload["energies_au"].pop()
    path.write_text(json.dumps(payload))
    with pytest.raises(ValidationError, match="5 energies, not 6"):
        load_eigenbasis(str(tmp_path))


def test_gate_roundtrip(tmp_path, desk_gate):
    csv, js = str(tmp_path / "g.csv"), str(tmp_path / "g.json")
    save_gate(desk_gate, csv, js)
    back = load_gate(csv, js)
    assert np.array_equal(back.entries, desk_gate.entries)
    assert back.delta_t == desk_gate.delta_t
    assert back.k_substeps == desk_gate.k_substeps


def test_field_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    field = ControlField(rng.normal(scale=1e-13, size=257), dt=3.7e4)
    path = str(tmp_path / "f.csv")
    save_field(field, path, {"config_hash": "deadbeef"})
    back = load_field(path)
    assert np.array_equal(back.samples, field.samples)
    assert back.dt == pytest.approx(field.dt, rel=1e-12)


def test_trace_roundtrip(tmp_path):
    trace = OctTrace()
    for i in range(5):
        trace.append(i, 1.0 + i, 0.1 * i, 1e-20 * i)
    trace.status = "converged"
    path = str(tmp_path / "t.csv")
    save_trace(trace, path)
    back = load_trace(path)
    assert back.iterations == trace.iterations
    assert back.objectives == trace.objectives
    assert back.status == "converged"


@pytest.mark.parametrize("text", [
    "iteration,objective,fidelity,fluence_au\n0,1,0.5,0\n1.5,2,0.5,0\n",
    "iteration,objective,fidelity\n0,1,0.5\n",
])
def test_trace_needs_integer_iterations_and_four_columns(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match="needs 4 columns and integer iterations"):
        load_trace(str(path))


def test_meta_embedded(tmp_path):
    field = ControlField(np.zeros(4), dt=1.0)
    path = str(tmp_path / "f.csv")
    save_field(field, path, {"config_hash": "cafe01"})
    text = open(path).read()
    assert "# config_hash=cafe01" in text


def test_deterministic_bytes(tmp_path, small_basis):
    p1, p2 = str(tmp_path / "a"), str(tmp_path / "b")
    save_eigenbasis(small_basis, p1, {"config_hash": "x"})
    save_eigenbasis(small_basis, p2, {"config_hash": "x"})
    for name in ("basis.json", "vectors.csv", "z_matrix.csv", "dipole.csv"):
        assert open(f"{p1}/{name}", "rb").read() == open(f"{p2}/{name}", "rb").read()


def test_spectrum_file(tmp_path):
    from iontrapsim import spectrum

    field = ControlField(np.sin(np.linspace(0, 20 * np.pi, 401)), dt=1e4)
    spec = spectrum(field)
    path = str(tmp_path / "s.csv")
    save_spectrum(spec, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "frequency_hz,power"
    assert len(lines) == 1 + len(spec.power)


def test_read_table_pins_python_float(tmp_path):
    """Literal CSV text: meta, CRLF endings, a trailing blank line, integer
    index cells and the extremes of float64 all read as Python float reads
    them."""
    rows = [
        ["0", "-0", "5e-324", "1.7976931348623157e+308"],
        ["12", "0.10000000000000001", "-2.2250738585072014e-308", "-3"],
    ]
    text = "# config_hash=cafe01\r\n# status=converged\niteration,a,b,c\r\n"
    text += "".join(",".join(row) + "\r\n" for row in rows) + "\r\n"
    path = tmp_path / "t.csv"
    path.write_bytes(text.encode())

    header, data, meta = _read_table(str(path))
    assert header == ["iteration", "a", "b", "c"]
    assert meta == {"config_hash": "cafe01", "status": "converged"}
    expected = np.array([[float(cell) for cell in row] for row in rows])
    assert data.dtype == np.float64 and data.shape == (2, 4)
    assert data.tobytes() == expected.tobytes()
    assert np.signbit(data[0, 1])
    assert data[0, 2] == 5e-324 and data[0, 3] == np.finfo(float).max

    trace = load_trace(str(path))
    assert trace.iterations == [0, 12]
    assert all(type(i) is int for i in trace.iterations)
    assert trace.status == "converged"


def test_read_table_zero_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("# status=running\niteration,objective,fidelity,fluence_au\n")
    _, data, _ = _read_table(str(path))
    assert data.shape == (0, 4)
    trace = load_trace(str(path))
    assert len(trace) == 0 and trace.status == "running"


def test_write_read_write_is_byte_identical(tmp_path, small_basis, desk_gate):
    """Each artifact reloads to the arrays that write the same bytes again."""
    meta = {"config_hash": "abc", "tier": "desk"}
    rng = np.random.default_rng(7)
    field = ControlField(rng.normal(scale=1e-13, size=101), dt=8.268259847e4)
    trace = OctTrace()
    for i in range(4):
        trace.append(i, 1.0 / (i + 3), 0.1 * i, 1e-20 * i)
    trace.status = "converged"
    a, b = tmp_path / "a", tmp_path / "b"

    save_eigenbasis(small_basis, str(a), meta)
    save_eigenbasis(load_eigenbasis(str(a)), str(b), meta)
    save_gate(desk_gate, str(a / "g.csv"), str(a / "g.json"), meta)
    save_gate(load_gate(str(a / "g.csv"), str(a / "g.json")),
              str(b / "g.csv"), str(b / "g.json"), meta)
    save_field(field, str(a / "f.csv"), meta)
    save_field(load_field(str(a / "f.csv")), str(b / "f.csv"), meta)
    save_trace(trace, str(a / "t.csv"), meta)
    save_trace(load_trace(str(a / "t.csv")), str(b / "t.csv"), meta)

    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert len(names) == 8
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
