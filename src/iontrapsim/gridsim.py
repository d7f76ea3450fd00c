"""Simulated one-particle system on a spatial grid.

Provides the grid convention x_j = x_min + (j+1)*dx, Gaussian initial
packets, the elementary evolution operator built as a matrix from Strang
split-operator steps through the momentum grid, and exact harmonic
reference evolutions used as oracles.  A state on the grid is a plain
complex array psi(x_j), normalized so that sum |psi|^2 dx = 1.
"""

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, ValidationError

UNITARITY_FATAL = 1e-8
BOUNDARY_LEAK_WARN = 1e-6


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform spatial grid; x_min itself is excluded, x_max is the last point."""

    x_min: float
    x_max: float
    n: int
    delta_x: float = field(init=False)
    points: np.ndarray = field(init=False)

    def __post_init__(self):
        if not -np.inf < self.x_min < self.x_max < np.inf:
            raise ValidationError("x_min must be below x_max, both finite")
        if self.n < 2:
            raise ValidationError("need at least two grid points")
        dx = (self.x_max - self.x_min) / self.n
        pts = self.x_min + (np.arange(self.n) + 1) * dx
        pts.setflags(write=False)
        object.__setattr__(self, "delta_x", dx)
        object.__setattr__(self, "points", pts)

    @property
    def momenta(self) -> np.ndarray:
        """Discrete momentum grid in the standard DFT frequency layout."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.delta_x)


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Build a Grid; non-power-of-two sizes work but are flagged."""
    grid = Grid(x_min, x_max, n)
    if n & (n - 1):
        warnings.warn(f"grid size {n} is not a power of two", stacklevel=2)
    return grid


def harmonic_potential(x):
    return 0.5 * np.asarray(x) ** 2


@dataclass(frozen=True)
class SimSystem:
    """The simulated particle: mass and potential (both in a.u.)."""

    mass: float = 1.0
    potential: Callable[[np.ndarray], np.ndarray] = harmonic_potential
    label: str = "harmonic"

    def sample_potential(self, grid: Grid) -> np.ndarray:
        v = np.asarray(self.potential(grid.points), dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValidationError("potential is not finite on the grid")
        return v


def check_sigma(sigma: float) -> None:
    """The one check of a packet width, run by `gaussian_packet` and by
    `RunConfig.validate`."""
    if not 0 < sigma < np.inf:
        raise ValidationError("sigma must be positive and finite")


def check_substeps(k_substeps: int) -> None:
    """The one check of a substep count, run by `elementary_gate` and by
    `RunConfig.validate`."""
    if k_substeps < 1:
        raise ValidationError("k_substeps must be >= 1")


def gaussian_packet(grid: Grid, sigma: float, x0: float) -> np.ndarray:
    """Sample (sigma/pi)^(1/4) exp(-(x-x0)^2 / 2 sigma) on the grid points
    and renormalize; returns psi(x_j) as a complex array.

    Renormalization makes the discrete populations sum to one exactly,
    which the ion-state encoding requires.  Warns when the packet carries
    weight at the grid edge.
    """
    check_sigma(sigma)
    x = grid.points
    psi = (sigma / np.pi) ** 0.25 * np.exp(-((x - x0) ** 2) / (2.0 * sigma))
    psi = psi.astype(complex)
    n2 = np.sum(np.abs(psi) ** 2) * grid.delta_x
    if not n2 > 0:
        raise ValidationError("packet vanished on the grid")
    psi /= np.sqrt(n2)
    edge = max(abs(psi[0]) ** 2, abs(psi[-1]) ** 2) * grid.delta_x
    if edge > BOUNDARY_LEAK_WARN:
        warnings.warn(
            f"packet leaks off-grid: boundary population {edge:.2e}", stacklevel=2
        )
    return psi


def _split_factors(system: SimSystem, grid: Grid, dt_sub: float):
    v = system.sample_potential(grid)
    half_v = np.exp(-0.5j * v * dt_sub)
    kin = np.exp(-0.5j * grid.momenta**2 * dt_sub / system.mass)
    return half_v, kin


def _apply_split(columns: np.ndarray, half_v, kin, k_steps: int) -> np.ndarray:
    for _ in range(k_steps):
        columns = half_v[:, None] * columns
        columns = np.fft.ifft(kin[:, None] * np.fft.fft(columns, axis=0), axis=0)
        columns = half_v[:, None] * columns
    return columns


@dataclass(eq=False)
class GateMatrix:
    """The elementary evolution operator U_s(delta_t) as an N x N matrix."""

    entries: np.ndarray
    delta_t: float
    k_substeps: int
    label: str = ""

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def unitarity_defect(u: np.ndarray) -> float:
    """max |U^dag U - I| of a square matrix."""
    return float(np.abs(u.conj().T @ u - np.eye(len(u))).max())


def elementary_gate(system: SimSystem, grid: Grid, delta_t: float, k_substeps: int) -> GateMatrix:
    """Build U_s(delta_t) = (U_s(delta_t/K))^K column by column.

    Columns are the images of delta packets, so the matrix acts directly on
    the c_j amplitude convention.
    """
    check_substeps(k_substeps)
    if not abs(delta_t) < np.inf:
        raise ValidationError(f"delta_t must be finite, not {delta_t!r}")
    dt_sub = delta_t / k_substeps
    half_v, kin = _split_factors(system, grid, dt_sub)
    u = _apply_split(np.eye(grid.n, dtype=complex), half_v, kin, k_substeps)
    defect = unitarity_defect(u)
    if not defect <= UNITARITY_FATAL:
        raise NumericalError(f"gate unitarity defect {defect:.2e} exceeds {UNITARITY_FATAL}")
    return GateMatrix(u, delta_t, k_substeps, label=system.label)


def classic_propagate(psi0: np.ndarray, gate: GateMatrix, n_pulses: int) -> list[np.ndarray]:
    """Apply the gate n_pulses times; returns [psi0, psi1, ..., psi_Np]."""
    if gate.n != len(psi0):
        raise ValidationError("gate size does not match the state")
    out = [psi0]
    for _ in range(n_pulses):
        out.append(gate.entries @ out[-1])
    return out


def analytic_coherent_evolution(
    system: SimSystem, grid: Grid, sigma: float, x0: float, t: float
) -> np.ndarray:
    """Exact populations |psi(x_j,t)|^2 dx of a Gaussian in the harmonic
    default potential, normalized to sum to one on the grid.

    Center moves as x0 cos(t), squared-width parameter as
    s(t) = sigma cos^2 t + (1/sigma) sin^2 t (m = omega = hbar = 1).
    """
    v = system.sample_potential(grid)
    if not np.allclose(v, harmonic_potential(grid.points), atol=1e-12) or system.mass != 1.0:
        raise ValidationError("analytic evolution is defined for the harmonic default only")
    center = x0 * np.cos(t)
    s = sigma * np.cos(t) ** 2 + (1.0 / sigma) * np.sin(t) ** 2
    dens = np.exp(-((grid.points - center) ** 2) / s) / np.sqrt(np.pi * s)
    return dens / np.sum(dens)
