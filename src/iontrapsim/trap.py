"""Anharmonic ion-trap model.

The axial trapping potential is q*(k/2 z^2 + k'/24 z^4).  The stationary
states are obtained by diagonalizing the Hamiltonian in a basis of
harmonic-oscillator eigenfunctions of the quadratic part; the quartic
matrix elements are exact ladder-operator expressions, so no spatial
quadrature enters the chain.  The gate field drives the eigenstates only
through their energies and dipole couplings, so those are all a basis
keeps: the primitive coefficients of the eigenstates are dropped once
the position matrix is projected onto them.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError, ValidationError
from .units import AMU_IN_ME, angular_freq_au_to_hz


@dataclass(frozen=True)
class TrapParams:
    """Physical and basis-size parameters of the trap, in atomic units."""

    mass: float = 111 * AMU_IN_ME       # 111Cd+
    charge: float = 1.0
    k: float = 3.5828e-14               # quadratic force constant
    k_quart: float = 3.5828e-18         # quartic constant
    primitive_size: int = 50            # harmonic basis functions used
    dynamical_size: int = 32            # eigenstates kept for dynamics
    computational_size: int = 16        # qubit states

    def validate(self) -> None:
        if not (0 < self.computational_size <= self.dynamical_size <= self.primitive_size):
            raise ValidationError(
                "require 0 < computational_size <= dynamical_size <= primitive_size, "
                f"got N={self.computational_size}, D={self.dynamical_size}, "
                f"M={self.primitive_size}"
            )
        # omega = sqrt(q k / m) needs q k / m > 0
        if not (0 < self.k < np.inf and 0 < self.mass < np.inf and 0 < self.charge < np.inf):
            raise ValidationError("mass, charge and k must be positive and finite")
        if not 0 <= self.k_quart < np.inf:
            raise ValidationError("k_quart must be non-negative and finite")

    @property
    def omega(self) -> float:
        """Harmonic angular frequency sqrt(q*k/m) in a.u."""
        return float(np.sqrt(self.charge * self.k / self.mass))


@dataclass(eq=False)
class EigenBasis:
    """Trap eigenenergies and operator matrices on the dynamical subspace.

    Attributes
    ----------
    params : TrapParams
        The parameters the basis was built from.
    energies : (D,) array
        Eigenenergies in a.u., strictly ascending.
    z_matrix : (D, D) array
        Position matrix elements <j|z|k> in a.u.
    dipole : (D, D) array
        Dipole matrix mu_jk = q <j|z|k> in a.u., derived from z_matrix
        and params.charge, not passed in.

    All three arrays are read-only.
    """

    params: TrapParams
    energies: np.ndarray
    z_matrix: np.ndarray
    dipole: np.ndarray = field(init=False)

    def __post_init__(self):
        self.dipole = self.params.charge * self.z_matrix
        for arr in (self.energies, self.z_matrix, self.dipole):
            arr.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.params.dynamical_size

    @property
    def n_qubits(self) -> int:
        """Number of computational (qubit) states."""
        return self.params.computational_size


def ladder_position_matrix(size: int) -> np.ndarray:
    """Matrix of (a + a^dagger) on `size` harmonic-oscillator states."""
    m = np.zeros((size, size))
    n = np.arange(size - 1)
    m[n, n + 1] = np.sqrt(n + 1.0)
    return m + m.T


def solve_trap(params: TrapParams) -> EigenBasis:
    """Diagonalize the anharmonic trap Hamiltonian.

    The z^4 matrix is formed as the fourth power of the ladder matrix on a
    basis padded by four states, which makes every retained element exact.
    Eigenvector signs are fixed so the largest-magnitude primitive
    coefficient is positive, making all derived matrices reproducible.
    The eigenvector matrix V itself is not returned: z_matrix = V^T z V
    is the one product of it the dynamics read.
    """
    params.validate()
    m_size = params.primitive_size
    d_size = params.dynamical_size
    omega = params.omega
    # hbar/(2 m omega): squared oscillator length scale
    alpha2 = 1.0 / (2.0 * params.mass * omega)

    padded = ladder_position_matrix(m_size + 4)
    z4 = np.linalg.matrix_power(padded, 4)[:m_size, :m_size] * alpha2**2
    h = np.diag(omega * (np.arange(m_size) + 0.5))
    h = h + (params.charge * params.k_quart / 24.0) * z4

    try:
        energies, vectors = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"trap diagonalization failed: {exc}") from exc

    energies = energies[:d_size].copy()
    vectors = vectors[:, :d_size].copy()
    for j in range(d_size):
        lead = np.argmax(np.abs(vectors[:, j]))
        if vectors[lead, j] < 0:
            vectors[:, j] *= -1.0

    z_prim = np.sqrt(alpha2) * ladder_position_matrix(m_size)
    z_matrix = vectors.T @ z_prim @ vectors
    z_matrix = 0.5 * (z_matrix + z_matrix.T)
    return EigenBasis(params=params, energies=energies, z_matrix=z_matrix)


def check_deltas(deltas) -> list:
    """The distinct |delta n| of a transition set, ascending; an empty set
    or a zero is refused."""
    deltas = sorted({abs(int(d)) for d in deltas})
    if not deltas or deltas[0] == 0:
        raise ValidationError("deltas must be a nonempty set of nonzero integers")
    return deltas


def transition_table(basis: EigenBasis, deltas, n_states: int | None = None):
    """List transitions (j, k=j+delta) with frequency in Hz and dipole in a.u.

    Parameters
    ----------
    basis : EigenBasis
    deltas : iterable of int
        Motional quantum number changes to include (e.g. {1, 3}).
    n_states : int, optional
        Restrict to j < k < n_states; defaults to the computational size.

    Returns
    -------
    list of (j, k, frequency_hz, dipole_au)
    """
    deltas = check_deltas(deltas)
    if n_states is None:
        n_states = basis.n_qubits
    if n_states > basis.n_states:
        raise ValidationError("n_states exceeds the dynamical basis size")

    rows = []
    for d in deltas:
        for j in range(n_states - d):
            k = j + d
            freq = angular_freq_au_to_hz(basis.energies[k] - basis.energies[j])
            rows.append((j, k, float(freq), float(basis.dipole[j, k])))
    return rows
