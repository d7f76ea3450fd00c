import numpy as np
import pytest

from iontrapsim import TrapParams, ValidationError, solve_trap, transition_table
from iontrapsim.trap import ladder_position_matrix
from iontrapsim.units import TIME_AU_S


def pt_oracle(params: TrapParams, n: np.ndarray) -> np.ndarray:
    """First-order quartic shift on top of the harmonic ladder."""
    omega = params.omega
    alpha2 = 1.0 / (2.0 * params.mass * omega)
    return omega * (n + 0.5) + (params.charge * params.k_quart / 24.0) * 3 * alpha2**2 * (
        2 * n**2 + 2 * n + 1
    )


class TestHarmonicLimit:
    def test_frequency_matches_analytic(self, harmonic_basis):
        omega = np.sqrt(harmonic_basis.params.k / harmonic_basis.params.mass)
        assert harmonic_basis.params.omega == pytest.approx(omega, rel=1e-14)
        nu_mhz = omega / (2 * np.pi * TIME_AU_S) / 1e6
        assert nu_mhz == pytest.approx(2.77, rel=1e-3)

    def test_equidistant_spectrum(self, harmonic_basis):
        gaps = np.diff(harmonic_basis.energies)
        assert np.abs(gaps / harmonic_basis.params.omega - 1.0).max() < 1e-10

    def test_dipole_ladder(self, harmonic_basis):
        p = harmonic_basis.params
        alpha = np.sqrt(1.0 / (2 * p.mass * p.omega))
        for j in range(10):
            expected = p.charge * alpha * np.sqrt(j + 1.0)
            assert harmonic_basis.dipole[j, j + 1] == pytest.approx(expected, rel=1e-8)
        assert harmonic_basis.dipole[0, 1] == pytest.approx(76.6, abs=0.1)

    def test_position_matrix_in_sign_gauge(self, harmonic_basis):
        """Without the quartic term the eigenstates are the primitive ones,
        each with its positive sign, so z is the ladder matrix scaled by
        the oscillator length, bit for bit: a flipped sign would flip a
        row and a column."""
        p = harmonic_basis.params
        alpha = np.sqrt(1.0 / (2.0 * p.mass * p.omega))
        expected = alpha * ladder_position_matrix(p.dynamical_size)
        assert np.array_equal(harmonic_basis.z_matrix, expected)

    def test_parity_zeros(self, harmonic_basis):
        mu = harmonic_basis.dipole
        for j in range(8):
            for k in range(8):
                if (j - k) % 2 == 0 and j != k:
                    assert abs(mu[j, k]) < 1e-10


class TestAnharmonicTrap:
    def test_energies_ascending(self, paper_basis):
        assert np.all(np.diff(paper_basis.energies) > 0)

    def test_eigenvectors_orthonormal(self):
        """With D = M the eigenvectors form a square matrix V, and the kept
        z = V^T z_prim V has the spectrum of the primitive position matrix
        when V is orthogonal; a scaled or skewed V moves it."""
        params = TrapParams(primitive_size=40, dynamical_size=40, computational_size=16)
        z = solve_trap(params).z_matrix
        z_prim = np.sqrt(1.0 / (2.0 * params.mass * params.omega)) * ladder_position_matrix(40)
        expected = np.linalg.eigvalsh(z_prim)
        error = np.abs(np.linalg.eigvalsh(z) - expected).max() / np.abs(expected).max()
        assert error < 1e-13

    def test_matrices_symmetric(self, paper_basis):
        assert np.abs(paper_basis.z_matrix - paper_basis.z_matrix.T).max() < 1e-12
        assert np.abs(paper_basis.dipole - paper_basis.dipole.T).max() < 1e-12

    @pytest.mark.parametrize("charge", [1.0, 2.0])
    def test_dipole_is_charge_times_position(self, charge):
        """The basis derives its dipole from z_matrix, bit for bit, and
        keeps it read-only like its other arrays."""
        basis = solve_trap(TrapParams(charge=charge, primitive_size=40, dynamical_size=6,
                                      computational_size=4))
        assert np.array_equal(basis.dipole, charge * basis.z_matrix)
        with pytest.raises(ValueError, match="read-only"):
            basis.dipole[0, 1] = 0.0

    def test_perturbation_oracle_ground_state(self, paper_basis):
        # first-order theory holds at the bottom of the well; the quartic
        # term is nonperturbative higher up (checked in test_acceptance)
        e_pt = pt_oracle(paper_basis.params, np.arange(2))
        rel = np.abs(paper_basis.energies[:2] - e_pt) / e_pt
        assert rel[0] < 0.01
        assert rel[1] < 0.02

    def test_increasing_energy_gaps(self, paper_basis):
        gaps = np.diff(paper_basis.energies[:16])
        assert np.all(np.diff(gaps) > 0)

    def test_transition_bands(self, paper_basis):
        rows = transition_table(paper_basis, (1,), 16)
        freqs = np.array([r[2] for r in rows]) / 1e6
        assert freqs.min() > 3.0 and freqs.max() < 5.2
        rows3 = transition_table(paper_basis, (3,), 16)
        freqs3 = np.array([r[2] for r in rows3]) / 1e6
        assert freqs3.min() > 10.0

    def test_basis_convergence_low_states(self):
        e50 = solve_trap(TrapParams(primitive_size=50)).energies
        e60 = solve_trap(TrapParams(primitive_size=60)).energies
        assert np.abs(e50[:16] - e60[:16]).max() < 1e-12
        # the top of the 32-state dynamical window is only loosely converged
        assert np.abs(e50 - e60).max() < 1e-8

    def test_sign_convention_reproducible(self, paper_basis):
        again = solve_trap(paper_basis.params)
        assert np.array_equal(again.z_matrix, paper_basis.z_matrix)
        assert np.array_equal(again.dipole, paper_basis.dipole)


class TestTransitionTable:
    def test_counts(self, paper_basis):
        assert len(transition_table(paper_basis, {1}, 16)) == 15
        assert len(transition_table(paper_basis, {3}, 16)) == 13
        assert len(transition_table(paper_basis, {1, 3}, 16)) == 28

    def test_frequency_conversion(self, paper_basis):
        j, k, freq, dip = transition_table(paper_basis, {1}, 16)[0]
        expected = (paper_basis.energies[1] - paper_basis.energies[0]) / (
            2 * np.pi * TIME_AU_S
        )
        assert freq == pytest.approx(expected, rel=1e-12)
        assert dip == pytest.approx(paper_basis.dipole[0, 1])

    def test_rejects_bad_input(self, paper_basis):
        with pytest.raises(ValidationError):
            transition_table(paper_basis, set())
        with pytest.raises(ValidationError):
            transition_table(paper_basis, {0})
        with pytest.raises(ValidationError):
            transition_table(paper_basis, {1}, n_states=64)


class TestParams:
    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(ValidationError):
            solve_trap(TrapParams(primitive_size=20, dynamical_size=32))
        with pytest.raises(ValidationError):
            TrapParams(k=-1.0).validate()
        with pytest.raises(ValidationError):
            TrapParams(k_quart=-1e-20).validate()
