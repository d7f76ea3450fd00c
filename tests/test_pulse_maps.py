"""Pulse maps against pulse-by-pulse propagation.

`simulate` and `fidelity_trace` compute each pulse's map once and apply it
by products: the closed `ClosedPulseMap` and the Lindblad
`LindbladPulseMap`.  These tests pin them at 1e-12 relative against the
pulse-by-pulse propagation they replace: a `sweep` of the state, or of the
N^2 Hermitian units, once per pulse.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from iontrapsim import (
    NumericalError,
    OctConfig,
    ValidationError,
    build_dissipation,
    encode,
    evolution_operator,
    fidelity_trace,
    gaussian_packet,
    make_guess_field,
    mean_position_ion,
    periodicity_residual,
)
from iontrapsim import propagator
from iontrapsim.analysis import map_fidelity_trace
from iontrapsim.config import tier_config
from iontrapsim.oct import GUESS_AMPLITUDE_AU
from iontrapsim.propagator import (ClosedPulseMap, ControlField, InteractionFrame, Lindblad,
                                   LindbladPulseMap, hermitian_coordinates,
                                   hermitian_matrices, pulse_train, sweep)
from iontrapsim.units import TIME_AU_S

from conftest import held_sample_lindblad_map

KAPPA = 5e-14    # heats a 0.6 us desk pulse by a few percent


def assert_relative(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


@pytest.fixture(scope="module")
def train_field(desk_basis):
    """300 steps of 2 ns carrying the desk guess lines at five times the
    guess amplitude: a population moves by tens of percent per pulse."""
    cfg = OctConfig(t_pulse=600e-9 / TIME_AU_S, dt=2e-9 / TIME_AU_S, alpha0=1e15)
    guess = make_guess_field(desk_basis, cfg)
    return ControlField(guess.samples * (1e-12 / GUESS_AMPLITUDE_AU), guess.dt)


def embedded(basis, c):
    """The qubit amplitudes c zero-padded to the dynamical space."""
    state = np.zeros(basis.n_states, dtype=complex)
    state[: len(c)] = c
    return state


@pytest.fixture(scope="module")
def c0(desk_grid):
    return encode(gaussian_packet(desk_grid, 1.0, -0.75), desk_grid)


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


def test_closed_simulation_matches_pulse_by_pulse_sweep(desk_basis, desk_grid, train_field,
                                                        c0):
    """Trajectory, probabilities, norms and the periodicity residual of the
    map path (`pulse_train`, the snapshots of pulse l from states[l], as
    `simulate` writes them) against a `sweep` of the state once per pulse,
    neither renormalized.  store_every = 7 does not divide the 300 steps,
    so the final state is no snapshot."""
    cfg = tier_config("desk")
    store_every = 7
    frame = InteractionFrame(desk_basis, train_field.dt)
    t_stored = np.arange(train_field.n_steps // store_every + 1) * store_every * train_field.dt
    state = embedded(desk_basis, c0)
    pulses = [np.abs(state[: desk_grid.n]) ** 2]
    times, populations, norms = [], [], []
    for pulse in range(cfg.n_pulses):
        stored = np.empty((len(t_stored), desk_basis.n_states, 1), dtype=complex)
        state = sweep(frame, state[:, None], train_field.samples, store_every=store_every,
                      out=stored)[:, 0]
        stored = stored[:, :, 0]
        times.append(t_stored + pulse * train_field.t_pulse)
        populations.append(np.abs(stored) ** 2)
        norms.append(np.linalg.norm(stored, axis=1) ** 2)
        pulses.append(np.abs(state[: desk_grid.n]) ** 2)

    pulse_map = ClosedPulseMap(train_field, desk_basis, store_every)
    states = pulse_train(pulse_map, embedded(desk_basis, c0), cfg.n_pulses)
    got_pulses = np.abs(states[:, : desk_grid.n]) ** 2
    stored = np.array([pulse_map.snapshots @ s for s in states[:-1]])
    got_t = (pulse_map.times + pulse_map.t_pulse * np.arange(cfg.n_pulses)[:, None]).ravel()
    got_pops = np.abs(stored.reshape(-1, desk_basis.n_states)) ** 2
    got_norms = np.linalg.norm(stored, axis=2).ravel() ** 2
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


def test_dissipative_simulation_matches_pulse_by_pulse_sweep(
    desk_basis, desk_grid, desk_gate, train_field, c0
):
    """Populations, <z> and the trace of the map path (`pulse_train`)
    against a `sweep` of rho once per pulse, neither renormalized."""
    cfg = tier_config("desk")
    diss = build_dissipation(desk_basis, KAPPA, cfg.deltas)
    lindblad = Lindblad(InteractionFrame(desk_basis, train_field.dt), diss)
    c = embedded(desk_basis, c0)
    rho0 = rho = np.outer(c, c.conj())
    pulses = [np.real(np.diag(rho))[: desk_grid.n].copy()]
    zs = [mean_position_ion(rho, desk_basis)]
    for _ in range(cfg.n_pulses):
        rho = hermitian_matrices(sweep(lindblad, hermitian_coordinates(rho).ravel(),
                                       train_field.samples).reshape(rho.shape))
        pulses.append(np.real(np.diag(rho))[: desk_grid.n].copy())
        zs.append(mean_position_ion(rho, desk_basis))

    pulse_map = LindbladPulseMap(train_field, desk_basis, diss)
    rhos = pulse_train(pulse_map, rho0, cfg.n_pulses)
    got_pulses = rhos.diagonal(axis1=1, axis2=2).real[:, : desk_grid.n]
    got_zs = [mean_position_ion(rho, desk_basis) for rho in rhos]
    got_fids = map_fidelity_trace(pulse_map, cfg.n_pulses, desk_gate)
    assert_relative(got_pulses, pulses)
    assert_relative(got_zs, zs)
    # the trace drifts by rounding only over the train
    assert np.abs(np.trace(rhos, axis1=1, axis2=2).real - 1.0).max() < 1e-13
    assert_relative(got_fids, fidelity_trace(train_field, desk_basis, diss, cfg.n_pulses,
                                             desk_gate))
    # RK4 of a trace-preserving generator keeps the trace up to rounding;
    # a drift of Tr Phi(E_11) shows
    assert pulse_map.trace_drift() < 1e-14
    pulse_map.matrix[1 * 8 + 1, 3 * 8 + 3] += 1e-6
    assert pulse_map.trace_drift() == pytest.approx(1e-6, rel=1e-6)


def test_desk_map_matches_per_matrix_kernel(desk_basis, train_field, monkeypatch):
    """At D = 8 the map is swept by `LindbladSuperoperator` step matrices;
    SUPEROPERATOR_MAX_DIM = 0 sweeps the same 64 units per matrix."""
    diss = build_dissipation(desk_basis, KAPPA)
    got = LindbladPulseMap(train_field, desk_basis, diss).matrix
    monkeypatch.setattr(propagator, "SUPEROPERATOR_MAX_DIM", 0)
    want = LindbladPulseMap(train_field, desk_basis, diss).matrix
    assert_relative(got, want)


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
    x = hermitian_coordinates(units).reshape(n * n, d * d)
    target = np.eye(n, dtype=complex)
    for pulse in range(n_pulses):
        x = sweep(lindblad, x, gate_field.samples)
        target = us @ target
        phi_units = hermitian_matrices(x.reshape(n * n, d, d))
        blocks = (recombine @ phi_units[:, :n, :n].reshape(n * n, n * n)).reshape(n, n, n, n)
        fids[pulse] = np.einsum("aj,jkab,bk->", target.conj(), blocks, target).real / n**2
    return fids


def per_pulse_map_fidelity_trace(pulse_map, n_pulses, gate):
    """The former `map_fidelity_trace` readout: per pulse, the N^2 unit
    coordinates recombined into Phi_l(|j><k|) and contracted with U^l."""
    us = getattr(gate, "entries", gate)
    n = us.shape[0]
    d = pulse_map.dim
    units = (np.arange(n)[:, None] * d + np.arange(n)).ravel()
    recombine = np.zeros((n * n, n * n), dtype=complex)
    for j in range(n):
        recombine[j * n + j, j * n + j] = 1.0
        for k in range(j + 1, n):
            h, b = j * n + k, k * n + j
            recombine[h, h] = recombine[b, h] = 0.5
            recombine[h, b], recombine[b, b] = -0.5j, 0.5j
    fids = np.empty(n_pulses)
    x = np.eye(d * d)[units]
    target = np.eye(n, dtype=complex)
    for pulse in range(n_pulses):
        x = x @ pulse_map.matrix
        target = us @ target
        phi_units = hermitian_matrices(x.reshape(n * n, d, d)[:, :n, :n])
        blocks = (recombine @ phi_units.reshape(n * n, n * n)).reshape(n, n, n, n)
        acc = np.einsum("aj,jkab,bk->", target.conj(), blocks, target).real
        fids[pulse] = acc / n**2
    return fids


def test_desk_map_matches_exact_held_sample_map(desk_basis, desk_converged):
    """The desk map of the converged P field (10,000 steps) at kappa = 1e-16
    against the exact held-sample map of the textbook Lindblad form
    (`held_sample_lindblad_map`, 1.5 s): 2.1e-8 max |d matrix| measured,
    all RK4 truncation (2.2e-8 at kappa = 0), against 2.5e-2 that heating
    moves the map by, 4.1e-2 for sample n + 1 driving step n and 1.9
    without the end rotation."""
    field, _ = desk_converged["P"]
    diss = build_dissipation(desk_basis, 1e-16)
    got = LindbladPulseMap(field, desk_basis, diss).matrix
    want = held_sample_lindblad_map(desk_basis, diss.gamma, field.samples, field.dt)
    assert np.abs(got - want).max() <= 4e-8
    unheated = LindbladPulseMap(field, desk_basis, build_dissipation(desk_basis, 0.0)).matrix
    assert np.abs(got - unheated).max() > 1e-2


@pytest.mark.parametrize("n_pulses", [0, 1, 10])
def test_map_fidelity_trace_matches_per_pulse_readout(desk_basis, desk_gate, train_field,
                                                      n_pulses):
    """The weights of every pulse, built before the first, read out what
    the per-pulse recombination does, rounding apart; no pulse, no value."""
    pulse_map = LindbladPulseMap(train_field, desk_basis, build_dissipation(desk_basis, KAPPA))
    got = map_fidelity_trace(pulse_map, n_pulses, desk_gate)
    assert got.shape == (n_pulses,)
    if n_pulses:
        assert_relative(got, per_pulse_map_fidelity_trace(pulse_map, n_pulses, desk_gate),
                        rtol=1e-14)


def test_paper_size_fidelity_readout(paper_gate):
    """D = 32, N = 16 on a random map of spectral radius about 1: no sweep."""
    rng = np.random.default_rng(11)
    pulse_map = SimpleNamespace(dim=32, matrix=rng.normal(size=(1024, 1024)) / 32)
    assert_relative(map_fidelity_trace(pulse_map, 10, paper_gate),
                    per_pulse_map_fidelity_trace(pulse_map, 10, paper_gate))


def test_gate_larger_than_map_raises():
    pulse_map = SimpleNamespace(dim=8, matrix=np.eye(64))
    with pytest.raises(ValidationError, match="9 states exceeds the map's 8"):
        map_fidelity_trace(pulse_map, 1, np.eye(9))


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


def test_non_positive_pulse_raises(desk_basis, c0):
    """Four zero-field steps with dt times the largest out-rate at 2 keep
    the trace but not positivity (as in `test_negative_eigenvalue_detected`);
    the map path checks every rho_l and stops at the first pulse."""
    diss = build_dissipation(desk_basis, 1.0)
    dt = 2.0 / diss.total_out_rates().max()
    pulse_map = LindbladPulseMap(ControlField(np.zeros(4 + 1), dt), desk_basis, diss)
    rho0 = np.zeros((8, 8), dtype=complex)
    rho0[0, 0] = 1.0
    with pytest.raises(NumericalError, match="eigenvalue"):
        pulse_map.apply(rho0)
    psi = embedded(desk_basis, c0)
    with pytest.raises(NumericalError, match="eigenvalue"):
        pulse_train(pulse_map, np.outer(psi, psi.conj()), tier_config("desk").n_pulses)
