"""Shared fixtures and the exact oracles of the held-sample model.  The
converged desk-scale control fields are expensive (tens of seconds each),
so they are computed once per session."""

import numpy as np
import pytest

from iontrapsim import (
    OctConfig,
    SimSystem,
    TargetSet,
    TrapParams,
    elementary_gate,
    make_grid,
    optimize_gate,
    solve_trap,
)
from iontrapsim.propagator import hermitian_coordinates, hermitian_matrices
from iontrapsim.units import TIME_AU_S

DESK_T_PULSE = 20e-6 / TIME_AU_S
DESK_DT = 2e-9 / TIME_AU_S
DESK_ALPHA0 = {"P": 5e14, "F": 2e15}


def held_sample_propagator(basis, samples, dt) -> np.ndarray:
    """The exact closed propagator of the held-sample model, in the
    interaction picture of `evolution_operator`: with sample n held over
    step n, U = exp(i E T) prod_n exp(-i (E - e_n mu) dt), each factor from
    one `eigh` of its Hamiltonian.  The last sample closes the record
    without driving."""
    energies = basis.energies
    h0 = np.diag(energies)
    u = np.eye(len(energies), dtype=complex)
    for e in samples[:-1]:
        w, v = np.linalg.eigh(h0 - e * basis.dipole)
        u = (v * np.exp(-1j * dt * w)) @ (v.conj().T @ u)
    return np.exp(1j * (len(samples) - 1) * dt * energies)[:, None] * u


def _expm(a) -> np.ndarray:
    """exp(a) of a real square matrix: its Taylor series to a^12 after
    halving a until its row-sum norm is at most 1/4, where the remainder
    is below 4^-13 / 13!, 3e-18; then as many squarings."""
    squarings = max(0, int(np.ceil(np.log2(4.0 * np.abs(a).sum(axis=1).max()))))
    a = a / 2.0 ** squarings
    term = result = np.eye(len(a))
    for k in range(1, 13):
        term = term @ a / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def held_sample_lindblad_map(basis, gamma, samples, dt) -> np.ndarray:
    """The exact Lindblad pulse map of the held-sample model on Hermitian
    coordinates, in the interaction picture of `LindbladPulseMap`: row u
    holds the coordinates of Phi(unit u).  The generator is the textbook
    Lindblad form with jump operators sqrt(gamma_jk) |j><k|,
        L_e(x) = -i [E - e mu, x] + sum_jk (L x L^dag - {L^dag L, x} / 2),
    on coordinates A + e B, both built from the units.  With sample n held
    over step n, a row c of coordinates steps as c <- c @ exp(dt (A + e_n B))
    (`_expm`); the product is turned to the interaction picture at T,
    x -> exp(i E T) x exp(-i E T).  The last sample closes the record
    without driving."""
    d = len(basis.energies)
    units = hermitian_matrices(np.eye(d * d).reshape(d * d, d, d))
    h0 = np.diag(basis.energies)
    drift = -1j * (h0 @ units - units @ h0)
    for j, k in zip(*np.nonzero(gamma)):
        jump = np.zeros((d, d))
        jump[j, k] = np.sqrt(gamma[j, k])
        drift += jump @ units @ jump.T - 0.5 * (jump.T @ jump @ units + units @ jump.T @ jump)
    drive = 1j * (basis.dipole @ units - units @ basis.dipole)
    a, b = (hermitian_coordinates(x).reshape(d * d, d * d) for x in (drift, drive))
    phi = np.eye(d * d)
    for e in samples[:-1]:
        phi = phi @ _expm(dt * (a + e * b))
    t = (len(samples) - 1) * dt
    turn = np.exp(1j * t * np.subtract.outer(basis.energies, basis.energies))
    return hermitian_coordinates(hermitian_matrices(phi.reshape(-1, d, d)) * turn).reshape(
        d * d, d * d)


def desk_oct_config(functional: str, **overrides) -> OctConfig:
    kwargs = dict(
        t_pulse=DESK_T_PULSE,
        dt=DESK_DT,
        alpha0=DESK_ALPHA0[functional],
        functional=functional,
        max_iterations=500,
        fidelity_goal=0.995,
    )
    kwargs.update(overrides)
    return OctConfig(**kwargs)


@pytest.fixture(scope="session")
def desk_params():
    return TrapParams(primitive_size=50, dynamical_size=8, computational_size=4)


@pytest.fixture(scope="session")
def desk_basis(desk_params):
    return solve_trap(desk_params)


@pytest.fixture(scope="session")
def paper_basis():
    return solve_trap(TrapParams())


@pytest.fixture(scope="session")
def harmonic_basis():
    return solve_trap(TrapParams(k_quart=0.0))


@pytest.fixture(scope="session")
def paper_grid():
    return make_grid(-4.0, 4.0, 16)


@pytest.fixture(scope="session")
def desk_grid():
    return make_grid(-4.0, 4.0, 4)


@pytest.fixture(scope="session")
def harmonic_system():
    return SimSystem()


@pytest.fixture(scope="session")
def paper_gate(harmonic_system, paper_grid):
    return elementary_gate(harmonic_system, paper_grid, 2 * np.pi / 10, 10)


@pytest.fixture(scope="session")
def desk_gate(harmonic_system, desk_grid):
    return elementary_gate(harmonic_system, desk_grid, 2 * np.pi / 10, 10)


@pytest.fixture(scope="session")
def desk_converged(desk_basis, desk_gate):
    """Converged desk-scale gate fields for both functionals."""
    results = {}
    for functional in ("P", "F"):
        field, trace = optimize_gate(
            desk_basis, TargetSet(desk_gate.entries), desk_oct_config(functional)
        )
        results[functional] = (field, trace)
    return results
