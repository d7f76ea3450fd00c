"""Mapping between grid wavefunctions and ion motional-state amplitudes.

Grid point j and motional eigenstate j share the index: c_j = psi(x_j) sqrt(dx),
so the qubit population |c_j|^2 equals the localization probability
|psi(x_j)|^2 dx.  Both sides are plain complex arrays of the grid's length.
"""

import numpy as np

from .errors import ValidationError
from .gridsim import Grid

NORM_TOL = 1e-10


def _check(values: np.ndarray, grid: Grid, total: float, what: str) -> None:
    if len(values) != grid.n:
        raise ValidationError(f"{what} has {len(values)} entries, the grid {grid.n}")
    if abs(total - 1.0) > NORM_TOL:
        raise ValidationError(f"{what} norm^2 = {total!r}, expected 1 within {NORM_TOL}")


def encode(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Qubit amplitudes c_j = psi(x_j) sqrt(dx) of a grid-normalized wavepacket."""
    psi = np.asarray(psi)
    _check(psi, grid, float(np.sum(np.abs(psi) ** 2) * grid.delta_x), "wavepacket")
    return (psi * np.sqrt(grid.delta_x)).astype(complex)


def decode(c: np.ndarray, grid: Grid) -> np.ndarray:
    """Localization probabilities |psi(x_j)|^2 = |c_j|^2 / dx."""
    c = np.asarray(c)
    _check(c, grid, float(np.sum(np.abs(c) ** 2)), "amplitudes")
    return np.abs(c) ** 2 / grid.delta_x
