"""File formats for every artifact the pipeline produces.

Every CSV artifact is written by one writer, `_write_csv`, from its
columns: `# key=value` meta lines (the CLI's provenance hashes), one
header line, then one row per line, integer columns as integers and every
other column with 17 significant digits, so reruns are byte-identical.
Lines end in LF.  `basis.json` and `gate.json` are written by
`_write_json`, with the meta mapping embedded in the payload.  An
eigenbasis is `basis.json` (parameters, energies) and `z_matrix.csv`:
the energies and the dipole are all the dynamics read, so the primitive
coefficients of the eigenstates are not written.  Every file is written
atomically (a temporary file in the same directory, then a rename) and
gets the mode a plain `open` gives under the umask.

Every loader reads its CSV files through one reader, `_read_table`, in
one pass: meta lines, a header, then rows parsed by Python's `float` into
one float64 array, so loaded values are bit-identical to what was
written.  Every cell must be a number and every row must have the
header's column count; a loader also checks the shape its artifact
needs, and `z_matrix.csv` must be exactly symmetric.  A file that breaks
either raises ValidationError, which the CLI reports on one line with
exit code 2.  The reader accepts CRLF endings too.
"""

import json
import os
from dataclasses import asdict

import numpy as np

from .errors import ValidationError
from .gridsim import GateMatrix, Grid, unitarity_defect
from .oct import OctTrace
from .propagator import ControlField
from .trap import EigenBasis, TrapParams
from .units import FIELD_AU_V_PER_M, TIME_AU_S

FLOAT_FMT = "%.17g"
BLOCK_ROWS = 1024   # rows formatted per write: bounds the text held at once


def _atomic_write(path, chunks):
    """Write the strings `chunks` to a new file beside `path`, created as a
    plain `open` creates it (its mode follows the umask), then rename it
    to `path`."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x", newline="") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path, payload):
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])


def _write_csv(path, header, columns, meta=None):
    """Row i holds element i of every column; a column of integer dtype is
    written with %d, any other with FLOAT_FMT."""
    columns = [np.asarray(column) for column in columns]
    line = ",".join("%d" if c.dtype.kind in "iu" else FLOAT_FMT for c in columns) + "\n"

    def chunks():
        for key, value in sorted((meta or {}).items()):
            yield f"# {key}={value}\n"
        yield ",".join(header) + "\n"
        for start in range(0, len(columns[0]), BLOCK_ROWS):
            rows = zip(*(c[start:start + BLOCK_ROWS].tolist() for c in columns))
            yield "".join(line % row for row in rows)

    _atomic_write(path, chunks())


def _read_table(path):
    """Read a CSV artifact in one pass: (header, data, meta).

    `# key=value` lines go to `meta`; the first other line is the header;
    blank lines are skipped.  Every data row must have one cell per header
    column and every cell must parse as a finite Python `float`, or this
    raises ValidationError naming the file and line.  `data` is a float64
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
    if not np.isfinite(data).all():
        i = int(np.argmin(np.isfinite(data)))
        raise ValidationError(f"{path}, line {numbers[i // len(header)]}: "
                              f"{cells[i]!r} is not finite")
    return header, data.reshape(len(numbers), len(header)), meta


# --------------------------------------------------------------------- trap

def save_eigenbasis(basis: EigenBasis, outdir: str, meta=None) -> dict:
    """basis.json plus the CSV matrix `z_matrix`; returns the written
    paths.  The dipole is not written: `EigenBasis` derives it as
    charge x z_matrix."""
    paths = {
        "json": os.path.join(outdir, "basis.json"),
        "z_matrix": os.path.join(outdir, "z_matrix.csv"),
    }
    payload = {
        "params": asdict(basis.params),
        "omega_au": basis.params.omega,
        "energies_au": [float(e) for e in basis.energies],
    }
    payload.update(meta or {})
    _write_json(paths["json"], payload)
    d = basis.n_states
    _write_csv(paths["z_matrix"], ["row"] + [f"col_{j}" for j in range(d)],
               [np.arange(d)] + list(basis.z_matrix.T), meta)
    return paths


def load_eigenbasis(outdir: str) -> EigenBasis:
    path_json = os.path.join(outdir, "basis.json")
    try:
        with open(path_json) as handle:
            payload = json.load(handle)
        params = TrapParams(**payload["params"])
        params.validate()
        energies = np.array(payload["energies_au"], dtype=float)
    except (ValueError, KeyError, TypeError) as err:
        raise ValidationError(f"{path_json} is not a basis sidecar: {err!r}") from None
    d = params.dynamical_size
    if energies.shape != (d,):
        raise ValidationError(f"{path_json} holds {energies.size} energies, not {d}")
    if not np.isfinite(energies).all():
        raise ValidationError(f"{path_json} holds a non-finite energy")

    path = os.path.join(outdir, "z_matrix.csv")
    _, data, _ = _read_table(path)
    if data.shape != (d, d + 1):
        raise ValidationError(
            f"{path} holds a {data.shape[0]}x{data.shape[1] - 1} matrix, "
            f"basis.json needs {d}x{d}"
        )
    z_matrix = np.ascontiguousarray(data[:, 1:])
    # the writer symmetrizes z exactly, and the dynamics assume it
    if not np.array_equal(z_matrix, z_matrix.T):
        raise ValidationError(f"{path} holds a matrix that is not exactly symmetric")
    return EigenBasis(params=params, energies=energies, z_matrix=z_matrix)


# --------------------------------------------------------------------- gate

def save_gate(gate: GateMatrix, path_csv: str, path_json: str, meta=None):
    header = {
        "n": gate.n,
        "delta_t_au": gate.delta_t,
        "k_substeps": gate.k_substeps,
        "potential": gate.label,
        "unitarity_defect": unitarity_defect(gate.entries),
    }
    header.update(meta or {})
    _write_json(path_json, header)
    entries = gate.entries.ravel()
    _write_csv(path_csv, ["row", "col", "re", "im"],
               [*np.divmod(np.arange(entries.size), gate.n), entries.real, entries.imag], meta)


def load_gate(path_csv: str, path_json: str) -> GateMatrix:
    try:
        with open(path_json) as handle:
            header = json.load(handle)
        n = int(header["n"])
        delta_t, k_substeps = float(header["delta_t_au"]), int(header["k_substeps"])
        label = header.get("potential", "")
    except (ValueError, KeyError, TypeError, AttributeError) as err:
        raise ValidationError(f"{path_json} is not a gate sidecar: {err!r}") from None
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
    return GateMatrix(entries, delta_t, k_substeps, label=label)


# -------------------------------------------------------------------- field

def save_field(field: ControlField, path: str, meta=None):
    t, e = field.times(), field.samples
    _write_csv(path, ["t_au", "e_au", "t_s", "e_v_per_m"],
               [t, e, t * TIME_AU_S, e * FIELD_AU_V_PER_M], meta)


def load_field(path: str) -> ControlField:
    _, data, _ = _read_table(path)
    if len(data) < 2 or data.shape[1] < 2:
        raise ValidationError(f"field file {path} has fewer than two (t_au, e_au) samples")
    t, e = data[:, 0], data[:, 1].copy()
    dts = np.diff(t)
    if not 0 < dts[0] < np.inf:
        raise ValidationError(f"field file {path} has times t_au that do not increase")
    if np.abs(dts - dts[0]).max() > 1e-9 * dts[0]:
        raise ValidationError(f"field file {path} is not uniformly sampled")
    return ControlField(e, float(dts[0]))


# -------------------------------------------------------------------- trace

def save_trace(trace: OctTrace, path: str, meta=None):
    all_meta = dict(meta or {})
    all_meta["status"] = trace.status
    _write_csv(path, ["iteration", "objective", "fidelity", "fluence_au"],
               [trace.iterations, trace.objectives, trace.fidelities, trace.fluences],
               all_meta)


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

def save_amplitudes(c: np.ndarray, path: str, meta=None):
    """Qubit amplitudes as (j, re, im, population)."""
    _write_csv(path, ["j", "re", "im", "population"],
               [np.arange(len(c)), c.real, c.imag, np.abs(c) ** 2], meta)


# --------------------------------------------------------------- analysis IO

def save_spectrum(spec, path: str, meta=None):
    _write_csv(path, ["frequency_hz", "power"], [spec.frequencies_hz, spec.power], meta)


def save_positions(values, path: str, meta=None):
    _write_csv(path, ["pulse", "value_au"], [np.arange(len(values)), values], meta)


def save_fidelity_trace(values, path: str, meta=None):
    _write_csv(path, ["pulse", "fidelity"], [np.arange(1, len(values) + 1), values], meta)


def save_probability_snapshots(populations, grid: Grid, path: str, meta=None):
    """Rows (pulse l, grid index j, x_j, probability density)."""
    pulse, j = np.divmod(np.arange(len(populations) * grid.n), grid.n)
    density = np.ravel(populations) / grid.delta_x
    _write_csv(path, ["pulse", "j", "x_au", "probability_density"],
               [pulse, j, grid.points[j], density], meta)


def save_state_trajectory(times, populations, norms, path: str, meta=None):
    """Rows (t, population_0.., norm_or_trace)."""
    n = populations.shape[1]
    header = ["t_au"] + [f"pop_{j}" for j in range(n)] + ["norm_or_trace"]
    _write_csv(path, header, [times, *populations.T, norms], meta)
