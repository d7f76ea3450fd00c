import numpy as np
import pytest

from iontrapsim import (
    ControlField,
    OctConfig,
    SimSystem,
    ValidationError,
    analytic_coherent_evolution,
    bandpass_filter,
    build_dissipation,
    classic_propagate,
    encode,
    evolution_operator,
    fidelity,
    fidelity_trace,
    gaussian_packet,
    make_guess_field,
    mean_position_ion,
    mean_position_sim,
    periodicity_residual,
    spectrum,
)
from iontrapsim.units import TIME_AU_S


def sinusoid_field(nu_hz: float, t_pulse_s: float = 20e-6, steps: int = 4000):
    t_pulse = t_pulse_s / TIME_AU_S
    dt = t_pulse / steps
    t = np.arange(steps + 1) * dt
    omega = 2 * np.pi * nu_hz * TIME_AU_S
    env = np.sin(np.pi * t / t_pulse) ** 2
    return ControlField(1e-13 * np.sin(omega * t) * env, dt)


class TestSpectrum:
    def test_pure_sinusoid_peak_location(self):
        nu = 3.2e6
        spec = spectrum(sinusoid_field(nu))
        peaks = spec.peak_frequencies()
        assert len(peaks) == 1
        assert abs(peaks[0] - nu) <= float(spec.frequencies_hz[1] - spec.frequencies_hz[0])

    def test_guess_field_has_28_lines(self, paper_basis):
        cfg = OctConfig(t_pulse=96e-6 / TIME_AU_S, dt=960e-12 / TIME_AU_S, alpha0=1e15)
        field = make_guess_field(paper_basis, cfg)
        spec = spectrum(field)
        peaks = spec.peak_frequencies()
        assert len(peaks) == 28
        from iontrapsim import transition_table

        trans = np.array([r[2] for r in transition_table(paper_basis, (1, 3), 16)])
        bin_width = float(spec.frequencies_hz[1] - spec.frequencies_hz[0])
        for pk in peaks:
            assert np.abs(trans - pk).min() <= bin_width

    def test_power_is_rfft_power_over_its_peak(self):
        field = sinusoid_field(2.5e6)
        power = np.abs(np.fft.rfft(field.samples)) ** 2
        np.testing.assert_allclose(spectrum(field).power, power / power.max(),
                                   rtol=0, atol=1e-15)

    def test_zero_field_has_zero_power(self):
        power = spectrum(ControlField(np.zeros(101), 1.0)).power
        assert power.shape == (51,) and np.all(power == 0.0)


class TestBandpass:
    def test_full_band_identity(self):
        field = sinusoid_field(3.0e6)
        nyquist = 0.5 / (field.dt * TIME_AU_S)
        out = bandpass_filter(field, (0.0, nyquist))
        assert np.abs(out.samples - field.samples).max() < 1e-10 * np.abs(
            field.samples
        ).max()

    def test_zero_width_band(self):
        field = sinusoid_field(3.0e6)
        out = bandpass_filter(field, (1.0, 1.0))
        assert np.all(out.samples == 0.0)

    def test_idempotent(self):
        field = sinusoid_field(3.0e6)
        band = (2.0e6, 4.0e6)
        once = bandpass_filter(field, band)
        twice = bandpass_filter(once, band)
        assert np.abs(twice.samples - once.samples).max() < 1e-12 * max(
            1e-30, np.abs(once.samples).max()
        )

    def test_removes_out_of_band_component(self):
        low = sinusoid_field(2.0e6)
        high = sinusoid_field(12.0e6)
        mixed = ControlField(low.samples + high.samples, low.dt)
        out = bandpass_filter(mixed, (1.0e6, 5.0e6))
        assert np.abs(out.samples - low.samples).max() < 0.02 * np.abs(
            low.samples
        ).max()
        assert out.samples[0] == 0.0 and out.samples[-1] == 0.0

    def test_rejects_band_beyond_nyquist(self):
        field = sinusoid_field(3.0e6)
        with pytest.raises(ValidationError):
            bandpass_filter(field, (0.0, 1e12))


class TestMeanPositionIon:
    def test_ground_state_centered(self, paper_basis):
        c = np.zeros(32, dtype=complex)
        c[0] = 1.0
        assert mean_position_ion(c, paper_basis) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_equal_superposition_harmonic(self, harmonic_basis):
        c = np.zeros(32, dtype=complex)
        c[0] = c[1] = 1 / np.sqrt(2)
        z = mean_position_ion(c, harmonic_basis)
        assert z == pytest.approx(76.63, abs=0.05)

    def test_density_matrix_agrees_with_vector(self, paper_basis):
        rng = np.random.default_rng(5)
        c = rng.normal(size=32) + 1j * rng.normal(size=32)
        c /= np.linalg.norm(c)
        z_vec = mean_position_ion(c, paper_basis)
        z_rho = mean_position_ion(np.outer(c, c.conj()), paper_basis)
        assert z_vec == pytest.approx(z_rho, abs=1e-10)

    def test_encoded_packet_regression(self, paper_basis, paper_grid):
        # gauge-dependent value under the leading-coefficient sign convention;
        # pinned to catch accidental convention changes
        c = encode(gaussian_packet(paper_grid, 1.0, -0.75), paper_grid)
        z = mean_position_ion(np.pad(c, (0, 16)), paper_basis)
        assert z == pytest.approx(149.85, abs=0.05)


class TestMeanPositionSim:
    def test_symmetric_packet(self, paper_grid):
        c = encode(gaussian_packet(paper_grid, 1.0, 0.0), paper_grid)
        x = mean_position_sim(np.abs(c) ** 2, paper_grid)
        assert abs(x) < 0.06  # grid asymmetry (point at +4, none at -4)

    def test_oscillating_center(self, paper_grid, paper_gate):
        pk = gaussian_packet(paper_grid, 1.0, -0.75)
        traj = classic_propagate(pk, paper_gate, 10)
        for l, p in enumerate(traj):
            x = mean_position_sim(np.abs(p) ** 2 * paper_grid.delta_x, paper_grid)
            assert x == pytest.approx(-0.75 * np.cos(2 * np.pi * l / 10), abs=0.02)


class TestPeriodicityResidual:
    def test_analytic_oracle_exact(self, paper_grid, harmonic_system):
        pops = [
            analytic_coherent_evolution(
                harmonic_system, paper_grid, 1.0, -0.75, l * 2 * np.pi / 10
            )
            for l in range(11)
        ]
        assert periodicity_residual(pops) < 1e-10

    def test_gate_trajectory(self, paper_grid, paper_gate):
        pk = gaussian_packet(paper_grid, 1.0, -0.75)
        traj = classic_propagate(pk, paper_gate, 10)
        residual = periodicity_residual([np.abs(p) ** 2 * paper_grid.delta_x for p in traj])
        assert 0 < residual < 2e-3

    def test_requires_ten_pulses(self):
        with pytest.raises(ValidationError):
            periodicity_residual([np.zeros(4)] * 5)


class TestFidelityTrace:
    def test_closed_limit_matches_gate_fidelity(self, desk_basis, desk_gate):
        cfg = OctConfig(
            t_pulse=4e-6 / TIME_AU_S, dt=2e-9 / TIME_AU_S, alpha0=5e14
        )
        field = make_guess_field(desk_basis, cfg)
        diss0 = build_dissipation(desk_basis, kappa=0.0)
        trace = fidelity_trace(field, desk_basis, diss0, 1, desk_gate)
        up = evolution_operator(field, desk_basis, 4)
        assert trace[0] == pytest.approx(fidelity(desk_gate, up), abs=1e-6)

    def test_stronger_heating_lowers_fidelity_pointwise(
        self, desk_basis, desk_gate, desk_converged
    ):
        # the ordering is meaningful only for a high-fidelity field; with a
        # poor field, mixing can accidentally raise the target overlap
        field, _ = desk_converged["P"]
        curves = [
            fidelity_trace(
                field, desk_basis, build_dissipation(desk_basis, kappa), 3, desk_gate
            )
            for kappa in (0.0, 2e-16, 1e-15)
        ]
        for weaker, stronger in zip(curves, curves[1:]):
            assert np.all(stronger < weaker)
