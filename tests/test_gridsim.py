import warnings

import numpy as np
import pytest

from iontrapsim import (
    NumericalError,
    SimSystem,
    ValidationError,
    analytic_coherent_evolution,
    classic_propagate,
    elementary_gate,
    gaussian_packet,
    make_grid,
)
from iontrapsim.gridsim import unitarity_defect


class TestGrid:
    def test_paper_grid_convention(self):
        g = make_grid(-4.0, 4.0, 16)
        assert g.delta_x == 0.5
        assert g.points[0] == -3.5
        assert g.points[-1] == 4.0
        assert len(g.points) == 16

    def test_two_point_grid(self):
        g = make_grid(0.0, 1.0, 2)
        assert np.allclose(g.points, [0.5, 1.0])

    def test_non_power_of_two_flagged(self):
        with pytest.warns(UserWarning, match="power of two"):
            make_grid(-4.0, 4.0, 12)

    def test_rejects_degenerate(self):
        with pytest.raises(ValidationError):
            make_grid(1.0, 1.0, 8)
        with pytest.raises(ValidationError):
            make_grid(0.0, 1.0, 1)


class TestGaussianPacket:
    def test_normalized_on_grid(self, paper_grid):
        pk = gaussian_packet(paper_grid, 1.0, -0.75)
        assert np.sum(np.abs(pk) ** 2) * paper_grid.delta_x == pytest.approx(1.0, abs=1e-12)

    def test_even_symmetry_at_origin(self):
        # mirror-symmetric interior points of a centered packet
        g = make_grid(-4.0, 4.0, 16)
        amps = gaussian_packet(g, 1.0, 0.0)
        for j in range(7):
            assert abs(amps[j]) == pytest.approx(abs(amps[14 - j]), rel=1e-12)

    def test_rejects_bad_sigma(self, paper_grid):
        with pytest.raises(ValidationError):
            gaussian_packet(paper_grid, -1.0, 0.0)

    def test_warns_on_leakage(self):
        g = make_grid(-2.0, 2.0, 8)
        with pytest.warns(UserWarning, match="leaks"):
            gaussian_packet(g, 1.0, -1.5)


class TestSplitStep:
    """One Strang step exp(-iV dt/2) F^-1 exp(-iT dt) F exp(-iV dt/2): the
    single-substep gate."""

    def test_plane_wave_kinetic_phase(self):
        g = make_grid(-4.0, 4.0, 16)
        free = SimSystem(potential=lambda x: np.zeros_like(x), label="free")
        k3 = g.momenta[3]
        psi = np.exp(1j * k3 * g.points)
        dt = 0.1
        out = elementary_gate(free, g, dt, 1).entries @ psi
        expected = psi * np.exp(-0.5j * k3**2 * dt)
        assert np.abs(out - expected).max() < 1e-13

    def test_norm_conservation(self, paper_grid, harmonic_system):
        pk = gaussian_packet(paper_grid, 0.5, -0.75)
        step = elementary_gate(harmonic_system, paper_grid, 2 * np.pi / 100, 1).entries
        out = pk
        for _ in range(10):
            out = step @ out
        norm2 = [np.sum(np.abs(psi) ** 2) * paper_grid.delta_x for psi in (out, pk)]
        assert abs(norm2[0] - norm2[1]) < 1e-12

    def test_composition_matches_gate(self, paper_grid, harmonic_system, paper_gate):
        pk = gaussian_packet(paper_grid, 1.0, -0.75)
        step = elementary_gate(harmonic_system, paper_grid, 2 * np.pi / 100, 1).entries
        stepped = pk
        for _ in range(10):
            stepped = step @ stepped
        gated = paper_gate.entries @ pk
        assert np.abs(stepped - gated).max() < 1e-12


class TestElementaryGate:
    def test_paper_gate_unitary(self, paper_gate):
        assert unitarity_defect(paper_gate.entries) < 1e-10
        assert paper_gate.n == 16

    def test_zero_time_is_identity(self, paper_grid, harmonic_system):
        gate = elementary_gate(harmonic_system, paper_grid, 0.0, 1)
        assert np.abs(gate.entries - np.eye(16)).max() < 1e-14

    def test_composition_rule(self, paper_grid, harmonic_system):
        single = elementary_gate(harmonic_system, paper_grid, 2 * np.pi / 10, 10)
        double = elementary_gate(harmonic_system, paper_grid, 4 * np.pi / 10, 20)
        assert np.abs(single.entries @ single.entries - double.entries).max() < 1e-10

    def test_rejects_bad_substeps(self, paper_grid, harmonic_system):
        with pytest.raises(ValidationError):
            elementary_gate(harmonic_system, paper_grid, 1.0, 0)


class TestClassicPropagate:
    def test_zero_pulses(self, paper_grid, paper_gate):
        pk = gaussian_packet(paper_grid, 1.0, -0.75)
        traj = classic_propagate(pk, paper_gate, 0)
        assert len(traj) == 1
        assert traj[0] is pk

    def test_periodicity_populations(self, paper_grid, paper_gate):
        pk = gaussian_packet(paper_grid, 1.0, -0.75)
        traj = classic_propagate(pk, paper_gate, 10)
        pops = [np.abs(p) ** 2 * paper_grid.delta_x for p in traj]
        residual = max(np.abs(pops[l] - pops[10 - l]).max() for l in range(5))
        assert residual < 2e-3

    def test_breathing_widths(self, paper_grid, paper_gate, harmonic_system):
        pk = gaussian_packet(paper_grid, 0.5, -0.75)
        traj = classic_propagate(pk, paper_gate, 10)
        x = paper_grid.points
        for l, p in enumerate(traj):
            prob = np.abs(p) ** 2 * paper_grid.delta_x
            mean = np.sum(x * prob)
            var = np.sum((x - mean) ** 2 * prob)
            t = l * 2 * np.pi / 10
            s = 0.5 * np.cos(t) ** 2 + 2.0 * np.sin(t) ** 2
            # the 16-point grid resolves the width pattern to a couple percent
            assert var == pytest.approx(s / 2, abs=0.02)

    def test_grid_mismatch_rejected(self, desk_grid, paper_gate):
        pk = gaussian_packet(desk_grid, 1.0, 0.0)
        with pytest.raises(ValidationError):
            classic_propagate(pk, paper_gate, 1)


class TestAnalyticOracle:
    def test_half_period_mirror(self, paper_grid, harmonic_system):
        out = analytic_coherent_evolution(harmonic_system, paper_grid, 1.0, -0.75, np.pi)
        x = paper_grid.points
        center = np.sum(x * out)
        assert center == pytest.approx(0.75, abs=0.02)

    def test_coherent_width_constant(self, paper_grid, harmonic_system):
        for t in (0.0, 0.7, 1.9):
            prob = analytic_coherent_evolution(harmonic_system, paper_grid, 1.0, 0.0, t)
            var = np.sum(paper_grid.points**2 * prob)
            assert var == pytest.approx(0.5, abs=5e-3)

    def test_squeezed_width_maximum(self, paper_grid, harmonic_system):
        prob = analytic_coherent_evolution(
            harmonic_system, paper_grid, 0.5, 0.0, np.pi / 2
        )
        var = np.sum(paper_grid.points**2 * prob)
        assert var == pytest.approx(1.0, abs=5e-3)  # s(pi/2)/2 = (1/sigma)/2

    def test_rejects_non_harmonic(self, paper_grid):
        quartic = SimSystem(potential=lambda x: x**4, label="quartic")
        with pytest.raises(ValidationError):
            analytic_coherent_evolution(quartic, paper_grid, 1.0, 0.0, 0.1)

    def test_matches_propagated_packet(self, harmonic_system):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = make_grid(-4.0, 4.0, 64)
            pk = gaussian_packet(g, 1.0, -0.75)
        gate = elementary_gate(harmonic_system, g, 2 * np.pi / 10, 10)
        traj = classic_propagate(pk, gate, 10)
        for l in (3, 7, 10):
            exact = analytic_coherent_evolution(
                harmonic_system, g, 1.0, -0.75, l * 2 * np.pi / 10
            )
            assert np.abs(np.abs(traj[l]) ** 2 * g.delta_x - exact).max() < 1e-3
