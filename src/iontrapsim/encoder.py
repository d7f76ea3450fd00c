"""Mapping between grid wavefunctions and ion motional-state amplitudes.

Grid point j and motional eigenstate j share the index: c_j = psi(x_j) sqrt(dx),
so the qubit population |c_j|^2 equals the localization probability
|psi(x_j)|^2 dx.  Both sides are plain complex arrays of the grid's length.
"""

import numpy as np

from .errors import ValidationError
from .gridsim import Grid

NORM_TOL = 1e-10


def encode(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Qubit amplitudes c_j = psi(x_j) sqrt(dx) of a grid-normalized wavepacket."""
    psi = np.asarray(psi)
    if len(psi) != grid.n:
        raise ValidationError(f"wavepacket has {len(psi)} entries, the grid {grid.n}")
    total = float(np.sum(np.abs(psi) ** 2) * grid.delta_x)
    if not abs(total - 1.0) <= NORM_TOL:
        raise ValidationError(f"wavepacket norm^2 = {total!r}, expected 1 within {NORM_TOL}")
    return (psi * np.sqrt(grid.delta_x)).astype(complex)
