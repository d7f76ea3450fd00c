"""Pulse maps against pulse-by-pulse propagation.

`simulate` and `fidelity_trace` compute each pulse's map once and apply it
by products: the closed `ClosedPulseMap` and the Lindblad
`LindbladPulseMap`.  These tests pin them at 1e-12 relative against the
pulse-by-pulse propagation they replace: `propagate_tdse` and
`propagate_lindblad` run once per pulse, and a `sweep` of the N^2
Hermitian units once per pulse.
"""

import numpy as np
import pytest

from iontrapsim import (
    NumericalError,
    OctConfig,
    QuantumState,
    build_dissipation,
    encode,
    evolution_operator,
    fidelity_trace,
    gaussian_packet,
    make_guess_field,
    mean_position_ion,
    periodicity_residual,
    propagate_lindblad,
    propagate_tdse,
)
from iontrapsim.cli import _closed_simulation, _dissipative_simulation
from iontrapsim.config import tier_config
from iontrapsim.propagator import (ClosedPulseMap, ControlField, InteractionFrame, Lindblad,
                                   LindbladPulseMap, hermitian_coordinates,
                                   hermitian_matrices, sweep)
from iontrapsim.units import TIME_AU_S

KAPPA = 5e-14    # heats a 0.6 us desk pulse by a few percent


def assert_relative(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.fixture(scope="module")
def train_field(desk_basis):
    """300 steps of 2 ns carrying the desk guess lines at five times the
    guess amplitude: a population moves by tens of percent per pulse."""
    cfg = OctConfig(t_pulse=600e-9 / TIME_AU_S, dt=2e-9 / TIME_AU_S, alpha0=1e15,
                    guess_amplitude=1e-12)
    return make_guess_field(desk_basis, cfg)


@pytest.fixture(scope="module")
def c0(desk_grid):
    return encode(gaussian_packet(desk_grid, 1.0, -0.75)).c


class TestHermitianCoordinates:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 5, 5)) + 1j * rng.normal(size=(4, 5, 5))
        herm = a + a.conj().swapaxes(-1, -2)
        assert np.array_equal(hermitian_matrices(hermitian_coordinates(herm)), herm)

    def test_units(self):
        units = hermitian_matrices(np.eye(9).reshape(9, 3, 3))
        e = np.eye(3)
        assert np.array_equal(units[1 * 3 + 1], np.outer(e[1], e[1]))
        h = np.outer(e[0], e[2]) + np.outer(e[2], e[0])
        assert np.array_equal(units[0 * 3 + 2], h)
        b = 1j * (np.outer(e[0], e[2]) - np.outer(e[2], e[0]))
        assert np.array_equal(units[2 * 3 + 0], b)


def test_closed_simulation_matches_propagate_tdse(desk_basis, desk_grid, train_field, c0):
    """Trajectory, probabilities, norms and the periodicity residual of the
    map path against `propagate_tdse` run once per pulse (the reference
    loop is the former `_closed_simulation`).  store_every = 7 does not
    divide the 300 steps, so the final state is no snapshot."""
    cfg = tier_config("desk")
    store_every = 7
    state = np.zeros(desk_basis.n_states, dtype=complex)
    state[: len(c0)] = c0
    pulses = [np.abs(state[: desk_grid.n]) ** 2]
    times, populations, norms = [], [], []
    for pulse in range(cfg.n_pulses):
        out, t_stored, stored = propagate_tdse(
            QuantumState(state), train_field, desk_basis, store_every=store_every
        )
        times.append(t_stored + pulse * train_field.t_pulse)
        populations.append(np.abs(stored) ** 2)
        norms.append(np.linalg.norm(stored, axis=1) ** 2)
        state = out.data / np.linalg.norm(out.data)
        pulses.append(np.abs(state[: desk_grid.n]) ** 2)

    got_pulses, (got_t, got_pops, got_norms) = _closed_simulation(
        cfg, ClosedPulseMap(train_field, desk_basis, store_every), desk_grid, c0
    )
    assert_relative(got_pulses, pulses)
    assert np.array_equal(got_t, np.concatenate(times))
    assert_relative(got_pops, np.concatenate(populations))
    assert_relative(got_norms, np.concatenate(norms))
    assert_relative(periodicity_residual(got_pulses), periodicity_residual(pulses))
    assert np.abs(pulses[1] - pulses[0]).max() > 0.1


def test_closed_map_gate_is_evolution_operator(desk_basis, train_field):
    """`simulate` reads its realized gate off the map: bit for bit the one
    `evolution_operator` sweeps for the N gate columns alone."""
    assert np.array_equal(ClosedPulseMap(train_field, desk_basis, 7).gate(4),
                          evolution_operator(train_field, desk_basis, 4))


def test_dissipative_simulation_matches_propagate_lindblad(
    desk_basis, desk_grid, desk_gate, train_field, c0
):
    """Populations and <z> of the map path against `propagate_lindblad` run
    once per pulse (the reference loop is the former
    `_dissipative_simulation`)."""
    cfg = tier_config("desk")
    diss = build_dissipation(desk_basis, KAPPA, cfg.deltas)
    c = np.zeros(desk_basis.n_states, dtype=complex)
    c[: len(c0)] = c0
    rho = QuantumState(np.outer(c, c.conj()))
    pulses = [np.real(np.diag(rho.data))[: desk_grid.n].copy()]
    zs = [mean_position_ion(rho, desk_basis)]
    for _ in range(cfg.n_pulses):
        rho, _, _ = propagate_lindblad(rho, train_field, desk_basis, diss)
        rho = QuantumState(rho.data / np.trace(rho.data).real)
        pulses.append(np.real(np.diag(rho.data))[: desk_grid.n].copy())
        zs.append(mean_position_ion(rho, desk_basis))

    pulse_map = LindbladPulseMap(train_field, desk_basis, diss)
    got_pulses, got_zs, got_fids = _dissipative_simulation(
        cfg, desk_basis, desk_gate, pulse_map, desk_grid, c0
    )
    assert_relative(got_pulses, pulses)
    assert_relative(got_zs, zs)
    assert_relative(got_fids, fidelity_trace(train_field, desk_basis, diss, cfg.n_pulses,
                                             desk_gate))
    # RK4 of a trace-preserving generator keeps the trace up to rounding;
    # a drift of Tr Phi(E_11) shows
    assert pulse_map.trace_drift() < 1e-14
    pulse_map.matrix[1 * 8 + 1, 3 * 8 + 3] += 1e-6
    assert pulse_map.trace_drift() == pytest.approx(1e-6, rel=1e-6)


def pulse_by_pulse_fidelity_trace(gate_field, basis, diss, n_pulses, gate):
    """The former `fidelity_trace`: a `sweep` of the N^2 Hermitian units
    through every pulse, recombined into Phi_l(|j><k|)."""
    us = getattr(gate, "entries", gate)
    n = us.shape[0]
    d = basis.n_states
    lindblad = Lindblad(InteractionFrame(basis, gate_field.dt), diss)
    units = np.zeros((n * n, d, d), dtype=complex)
    recombine = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        units[j * n + j, j, j] = 1.0
        recombine[j * n + j, j * n + j] = 1.0
        for k in range(j + 1, n):
            h, b = j * n + k, k * n + j
            units[h, j, k] = units[h, k, j] = 1.0
            units[b, j, k], units[b, k, j] = 1j, -1j
            recombine[h, h] = recombine[b, h] = 0.5
            recombine[h, b], recombine[b, b] = -0.5j, 0.5j
    fids = np.empty(n_pulses)
    x = units
    target = np.eye(n, dtype=complex)
    for pulse in range(n_pulses):
        x = sweep(lindblad, x, gate_field.samples)
        target = us @ target
        blocks = (recombine @ x[:, :n, :n].reshape(n * n, n * n)).reshape(n, n, n, n)
        fids[pulse] = np.einsum("aj,jkab,bk->", target.conj(), blocks, target).real / n**2
    return fids


@pytest.mark.parametrize("kappa", [0.0, KAPPA])
def test_fidelity_trace_matches_pulse_by_pulse_sweep(desk_basis, desk_gate, train_field,
                                                     kappa):
    diss = build_dissipation(desk_basis, kappa)
    want = pulse_by_pulse_fidelity_trace(train_field, desk_basis, diss, 10, desk_gate)
    assert_relative(fidelity_trace(train_field, desk_basis, diss, 10, desk_gate), want)


def test_paper_size_map_sweeps_units_in_blocks(paper_basis, paper_gate):
    """D = 32: the 1024 units are swept MAP_UNITS at a time."""
    rng = np.random.default_rng(5)
    field = ControlField(np.r_[1e-12 * rng.normal(size=4), 0.0], 2e-9 / TIME_AU_S)
    diss = build_dissipation(paper_basis, KAPPA)
    want = pulse_by_pulse_fidelity_trace(field, paper_basis, diss, 2, paper_gate)
    assert_relative(fidelity_trace(field, paper_basis, diss, 2, paper_gate), want)


def test_non_positive_pulse_raises(desk_basis, desk_grid, desk_gate, c0):
    """Four zero-field steps with dt times the largest out-rate at 2 keep
    the trace but not positivity (as in `propagate_lindblad`'s test); the
    map path checks every rho_l and stops at the first pulse."""
    diss = build_dissipation(desk_basis, 1.0)
    dt = 2.0 / diss.total_out_rates().max()
    pulse_map = LindbladPulseMap(ControlField(np.zeros(4 + 1), dt), desk_basis, diss)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(NumericalError, match="eigenvalue"):
        pulse_map.apply(rho0)
    with pytest.raises(NumericalError, match="eigenvalue"):
        _dissipative_simulation(tier_config("desk"), desk_basis, desk_gate, pulse_map,
                                desk_grid, c0)
