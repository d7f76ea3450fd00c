"""File formats for every artifact the pipeline produces.

All numeric CSV output uses 17 significant digits so reruns are
byte-identical.  Files are written atomically (temp file, then rename).
Each writer accepts a `meta` mapping that is embedded verbatim (JSON) or
as `# key=value` comment lines (CSV), used by the CLI for provenance
hashes.

Every loader reads its CSV files through one reader, `_read_table`, in
one pass: meta lines, a header, then rows parsed by Python's `float` into
one float64 array, so loaded values are bit-identical to what was
written.  Every cell must be a number and every row must have the
header's column count; a loader also checks the shape its artifact
needs.  A file that breaks either raises ValidationError, which the CLI
reports on one line with exit code 2.
"""

import csv
import json
import os
import tempfile
from dataclasses import asdict

import numpy as np

from .errors import ValidationError
from .gridsim import GateMatrix, Grid
from .oct import OctTrace
from .propagator import ControlField
from .trap import EigenBasis, TrapParams
from .units import FIELD_AU_V_PER_M, TIME_AU_S

FLOAT_FMT = "%.17g"


def _atomic_write(path, write_cb, mode="w"):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, mode, newline="") as handle:
            write_cb(handle)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _meta_lines(meta):
    return [f"# {key}={value}" for key, value in sorted((meta or {}).items())]


def _write_csv(path, header, rows, meta=None):
    def cb(handle):
        for line in _meta_lines(meta):
            handle.write(line + "\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([FLOAT_FMT % v if isinstance(v, float) else v for v in row])

    _atomic_write(path, cb)


def _read_table(path):
    """Read a CSV artifact in one pass: (header, data, meta).

    `# key=value` lines go to `meta`; the first other line is the header;
    blank lines are skipped.  Every data row must have one cell per header
    column and every cell must parse as a Python `float`, or this raises
    ValidationError naming the file and line.  `data` is a float64
    (rows, columns) array, (0, columns) when the file has no rows.
    """
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    meta, header, cells, numbers = {}, None, [], []
    for number, line in enumerate(lines, 1):
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key.strip()] = value
        elif not line.strip():
            continue
        elif header is None:
            header = line.split(",")
        else:
            row = line.split(",")
            if len(row) != len(header):
                raise ValidationError(
                    f"{path}, line {number}: {len(row)} cells, the header has {len(header)}"
                )
            cells.extend(row)
            numbers.append(number)
    if header is None:
        raise ValidationError(f"{path} has no header line")
    try:
        data = np.fromiter(map(float, cells), float, len(cells))
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                float(cell)
            except ValueError:
                raise ValidationError(
                    f"{path}, line {numbers[i // len(header)]}: {cell!r} is not a number"
                ) from None
    return header, data.reshape(len(numbers), len(header)), meta


def _matrix_rows(matrix):
    for i, row in enumerate(np.asarray(matrix)):
        yield [i] + [float(v) for v in row]


# --------------------------------------------------------------------- trap

def save_eigenbasis(basis: EigenBasis, outdir: str, meta=None) -> dict:
    """basis.json plus CSV matrices; returns the written paths."""
    paths = {
        "json": os.path.join(outdir, "basis.json"),
        "vectors": os.path.join(outdir, "vectors.csv"),
        "z_matrix": os.path.join(outdir, "z_matrix.csv"),
        "dipole": os.path.join(outdir, "dipole.csv"),
    }
    payload = {
        "params": asdict(basis.params),
        "omega_au": basis.omega,
        "energies_au": [float(e) for e in basis.energies],
    }
    payload.update(meta or {})

    def cb(handle):
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _atomic_write(paths["json"], cb)
    d = basis.n_states
    _write_csv(paths["vectors"], ["row"] + [f"state_{j}" for j in range(d)],
               _matrix_rows(basis.vectors), meta)
    for key in ("z_matrix", "dipole"):
        _write_csv(paths[key], ["row"] + [f"col_{j}" for j in range(d)],
                   _matrix_rows(getattr(basis, key)), meta)
    return paths


def load_eigenbasis(outdir: str) -> EigenBasis:
    with open(os.path.join(outdir, "basis.json")) as handle:
        payload = json.load(handle)
    params = TrapParams(**payload["params"])
    energies = np.array(payload["energies_au"])
    d = params.dynamical_size
    if energies.shape != (d,):
        raise ValidationError(
            f"{os.path.join(outdir, 'basis.json')} holds {energies.size} energies, not {d}"
        )

    def read_matrix(name, rows):
        path = os.path.join(outdir, f"{name}.csv")
        _, data, _ = _read_table(path)
        if data.shape != (rows, d + 1):
            raise ValidationError(
                f"{path} holds a {data.shape[0]}x{data.shape[1] - 1} matrix, "
                f"basis.json needs {rows}x{d}"
            )
        return np.ascontiguousarray(data[:, 1:])

    vectors = read_matrix("vectors", params.primitive_size)
    z_matrix = read_matrix("z_matrix", d)
    return EigenBasis(
        params=params,
        energies=energies,
        vectors=vectors,
        z_matrix=z_matrix,
        dipole=params.charge * z_matrix,
    )


# --------------------------------------------------------------------- gate

def save_gate(gate: GateMatrix, path_csv: str, path_json: str, meta=None):
    header = {
        "n": gate.n,
        "delta_t_au": gate.delta_t,
        "k_substeps": gate.k_substeps,
        "potential": gate.label,
        "unitarity_defect": gate.unitarity_defect(),
    }
    header.update(meta or {})

    def cb(handle):
        json.dump(header, handle, indent=2, sort_keys=True)
        handle.write("\n")

    _atomic_write(path_json, cb)
    rows = (
        [i, j, float(gate.entries[i, j].real), float(gate.entries[i, j].imag)]
        for i in range(gate.n)
        for j in range(gate.n)
    )
    _write_csv(path_csv, ["row", "col", "re", "im"], rows, meta)


def load_gate(path_csv: str, path_json: str) -> GateMatrix:
    with open(path_json) as handle:
        header = json.load(handle)
    n = int(header["n"])
    _, data, _ = _read_table(path_csv)
    index = data[:, :2].astype(int)
    if (
        data.shape != (n * n, 4)
        or (index != data[:, :2]).any()
        or (index < 0).any()
        or (index >= n).any()
        or (np.bincount(index[:, 0] * n + index[:, 1], minlength=n * n) != 1).any()
    ):
        raise ValidationError(
            f"gate file {path_csv} does not hold each (row, col) of a {n}x{n} matrix once"
        )
    entries = np.zeros((n, n), dtype=complex)
    entries[index[:, 0], index[:, 1]] = data[:, 2] + 1j * data[:, 3]
    return GateMatrix(
        entries, float(header["delta_t_au"]), int(header["k_substeps"]),
        label=header.get("potential", ""),
    )


# -------------------------------------------------------------------- field

def save_field(field: ControlField, path: str, meta=None):
    t = field.times()
    rows = (
        [float(ti), float(ei), float(ti * TIME_AU_S), float(ei * FIELD_AU_V_PER_M)]
        for ti, ei in zip(t, field.samples)
    )
    _write_csv(path, ["t_au", "e_au", "t_s", "e_v_per_m"], rows, meta)


def load_field(path: str) -> ControlField:
    _, data, _ = _read_table(path)
    if len(data) < 2 or data.shape[1] < 2:
        raise ValidationError(f"field file {path} has fewer than two (t_au, e_au) samples")
    t, e = data[:, 0], data[:, 1].copy()
    dts = np.diff(t)
    if np.abs(dts - dts[0]).max() > 1e-9 * abs(dts[0]):
        raise ValidationError(f"field file {path} is not uniformly sampled")
    return ControlField(e, float(dts[0]))


# -------------------------------------------------------------------- trace

def save_trace(trace: OctTrace, path: str, meta=None):
    all_meta = dict(meta or {})
    all_meta["status"] = trace.status
    rows = (
        [it, float(j), float(f), float(fl)]
        for it, j, f, fl in zip(
            trace.iterations, trace.objectives, trace.fidelities, trace.fluences
        )
    )
    _write_csv(path, ["iteration", "objective", "fidelity", "fluence_au"], rows, all_meta)


def load_trace(path: str) -> OctTrace:
    _, data, meta = _read_table(path)
    iterations = data[:, 0].astype(int)
    if data.shape[1] != 4 or (iterations != data[:, 0]).any():
        raise ValidationError(f"trace file {path} needs 4 columns and integer iterations")
    return OctTrace(
        iterations=iterations.tolist(),
        objectives=data[:, 1].tolist(),
        fidelities=data[:, 2].tolist(),
        fluences=data[:, 3].tolist(),
        status=meta.get("status", "loaded"),
    )


# ---------------------------------------------------------------- amplitudes

def save_amplitudes(q, path: str, meta=None):
    """Qubit amplitudes as (j, re, im, population)."""
    rows = (
        [j, float(c.real), float(c.imag), float(abs(c) ** 2)]
        for j, c in enumerate(q.c)
    )
    _write_csv(path, ["j", "re", "im", "population"], rows, meta)


# --------------------------------------------------------------- analysis IO

def save_spectrum(spec, path: str, meta=None):
    rows = ([float(f), float(p)] for f, p in zip(spec.frequencies_hz, spec.power))
    _write_csv(path, ["frequency_hz", "power"], rows, meta)


def save_positions(values, path: str, meta=None):
    rows = ([i, float(v)] for i, v in enumerate(values))
    _write_csv(path, ["pulse", "value_au"], rows, meta)


def save_fidelity_trace(values, path: str, meta=None):
    rows = ([i + 1, float(v)] for i, v in enumerate(values))
    _write_csv(path, ["pulse", "fidelity"], rows, meta)


def save_probability_snapshots(populations, grid: Grid, path: str, meta=None):
    """Rows (pulse l, grid index j, x_j, probability density)."""
    rows = (
        [l, j, float(grid.points[j]), float(p[j] / grid.delta_x)]
        for l, p in enumerate(populations)
        for j in range(grid.n)
    )
    _write_csv(path, ["pulse", "j", "x_au", "probability_density"], rows, meta)


def save_state_trajectory(times, populations, norms, path: str, meta=None):
    """Rows (t, population_0.., norm_or_trace)."""
    n = populations.shape[1]
    header = ["t_au"] + [f"pop_{j}" for j in range(n)] + ["norm_or_trace"]
    rows = (
        [float(t)] + [float(p) for p in pops] + [float(nv)]
        for t, pops, nv in zip(times, populations, norms)
    )
    _write_csv(path, header, rows, meta)
