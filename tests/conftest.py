"""Shared fixtures and the exact oracle of the held-sample model.  The
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
