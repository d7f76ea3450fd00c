import numpy as np
import pytest

from iontrapsim import (
    ControlField,
    OctConfig,
    TargetSet,
    ValidationError,
    fidelity,
    make_guess_field,
    optimize_gate,
    optimize_gate_dissipative,
    optimize_state_prep,
    build_dissipation,
    encode,
    evolution_operator,
    gaussian_packet,
)
from iontrapsim.oct import switch_envelope
from iontrapsim.serialization import load_trace, save_trace
from iontrapsim.units import TIME_AU_S


def small_config(**overrides):
    """Cheap problem for behavioral tests: few steps, few iterations."""
    kwargs = dict(
        t_pulse=20e-6 / TIME_AU_S,
        dt=2e-9 / TIME_AU_S,
        alpha0=5e14,
        functional="P",
        max_iterations=4,
        fidelity_goal=0.9999,
    )
    kwargs.update(overrides)
    return OctConfig(**kwargs)


class TestPenalty:
    """The update weight sin^2(pi t / T) / alpha0, i.e. 1 / alpha(t)."""

    def test_midpoint_and_quarter(self):
        cfg = small_config()
        weight = switch_envelope(cfg) / cfg.alpha0
        assert weight[cfg.n_steps // 2] == pytest.approx(1 / cfg.alpha0)
        assert weight[cfg.n_steps // 4] == pytest.approx(1 / (2 * cfg.alpha0))

    def test_endpoints_infinite(self):
        """alpha is infinite at both ends: the weight is exactly zero."""
        cfg = small_config()
        weight = switch_envelope(cfg) / cfg.alpha0
        assert weight[0] == 0.0
        assert weight[-1] == 0.0


class TestFidelity:
    def test_identity(self):
        u = np.eye(16, dtype=complex)
        assert fidelity(u, u) == pytest.approx(1.0)

    def test_global_phase_invariance(self, paper_gate):
        us = paper_gate.entries
        for phi in (0.3, 1.7, -2.4):
            assert fidelity(us, np.exp(1j * phi) * us) == pytest.approx(1.0, abs=1e-12)

    def test_negated_column(self, paper_gate):
        us = paper_gate.entries
        up = us.copy()
        up[:, 7] *= -1.0
        assert fidelity(us, up) == pytest.approx((14 / 16) ** 2, abs=1e-12)


class TestGuessField:
    def test_paper_guess_has_28_components(self, paper_basis):
        cfg = OctConfig(
            t_pulse=96e-6 / TIME_AU_S, dt=960e-12 / TIME_AU_S, alpha0=1e15
        )
        field = make_guess_field(paper_basis, cfg)
        assert field.n_steps == 100_000
        assert field.samples[0] == 0.0 and field.samples[-1] == 0.0
        # triangle inequality on the per-component amplitude
        assert field.peak_v_per_m() <= 28 * 0.1 + 1e-9

    def test_envelope_zeros(self, desk_basis):
        field = make_guess_field(desk_basis, small_config())
        assert field.samples[0] == 0.0
        assert field.samples[-1] == 0.0


class TestTargetSet:
    def test_trajectory_embedding(self, desk_gate):
        ts = TargetSet(desk_gate.entries)
        init, targ = ts.trajectories(8, with_superposition=True)
        assert init.shape == (8, 5)
        assert np.allclose(init[:4, 4], 0.5)
        assert np.allclose(targ[:4, :4], desk_gate.entries)
        assert np.allclose(targ[:4, 4], desk_gate.entries @ (np.ones(4) / 2))

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            TargetSet(np.ones((4, 4)))


class TestOptimizeGate:
    def test_identity_converges_immediately(self, desk_basis):
        cfg = small_config(dt=2e-7 / TIME_AU_S, fidelity_goal=0.99999)
        field, trace = optimize_gate(
            desk_basis, TargetSet(np.eye(4)), cfg,
            initial_field=ControlField(np.zeros(cfg.n_steps + 1),
                                       cfg.t_pulse / cfg.n_steps),
        )
        assert trace.status == "converged"
        assert trace.iterations == [0]
        assert trace.fidelities[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(field.samples == 0.0)

    def test_objective_monotone_and_fidelity_rises(self, desk_basis, desk_gate):
        field, trace = optimize_gate(
            desk_basis, TargetSet(desk_gate.entries), small_config()
        )
        assert trace.is_monotonic()
        assert trace.fidelities[-1] > trace.fidelities[0]
        assert len(trace) == 5  # initial evaluation + 4 sweeps

    @pytest.mark.parametrize("functional, alpha0", [("P", 5e14), ("F", 2e15)])
    def test_reported_fidelity_is_measured_fidelity(
        self, desk_basis, desk_gate, functional, alpha0
    ):
        """The fidelity the optimizer reports for the field it returns is
        the fidelity evolution_operator measures for that field."""
        cfg = small_config(
            t_pulse=4e-6 / TIME_AU_S, functional=functional, alpha0=alpha0,
            max_iterations=3,
        )
        field, trace = optimize_gate(desk_basis, TargetSet(desk_gate.entries), cfg)
        measured = fidelity(desk_gate, evolution_operator(field, desk_basis, 4))
        assert abs(trace.final_fidelity - measured) <= 1e-12

    def test_resume_continues_trace(self, desk_basis, desk_gate):
        targets = TargetSet(desk_gate.entries)
        f1, t1 = optimize_gate(desk_basis, targets, small_config(max_iterations=2))
        f2, t2 = optimize_gate(
            desk_basis, targets, small_config(max_iterations=2),
            initial_field=f1, trace=t1,
        )
        assert t2.iterations == [0, 1, 2, 3, 4]
        assert t2.is_monotonic()

    def test_records_phase_seconds_of_its_sweeps(self, desk_basis, desk_gate, tmp_path):
        """Wall seconds of every backward sweep and forward update run by
        the call, kept in memory only."""
        targets = TargetSet(desk_gate.entries)
        cfg = small_config(t_pulse=0.2e-6 / TIME_AU_S, max_iterations=3)
        field, trace = optimize_gate(desk_basis, targets, cfg)
        assert len(trace) == 4
        for seconds in (trace.backward_s, trace.forward_s):
            assert len(seconds) == len(trace) - 1
            assert all(s > 0 for s in seconds)
        save_trace(trace, str(tmp_path / "trace.csv"))
        loaded = load_trace(str(tmp_path / "trace.csv"))
        assert loaded.backward_s == [] and loaded.forward_s == []
        _, trace = optimize_gate(desk_basis, targets, small_config(
            t_pulse=0.2e-6 / TIME_AU_S, max_iterations=1), initial_field=field, trace=loaded)
        assert trace.iterations == [0, 1, 2, 3, 4]
        assert len(trace.backward_s) == len(trace.forward_s) == 1

    def test_functional_configs_validated(self):
        with pytest.raises(ValidationError):
            small_config(functional="X")
        with pytest.raises(ValidationError):
            small_config(alpha0=-1.0)

    def test_mismatched_resume_rejected(self, desk_basis, desk_gate):
        cfg = small_config()
        with pytest.raises(ValidationError):
            optimize_gate(
                desk_basis, TargetSet(desk_gate.entries), cfg,
                initial_field=ControlField(np.zeros(17 + 1), cfg.t_pulse / 17),
            )


class TestOptimizeStatePrep:
    def test_ground_state_target_trivial(self, desk_basis):
        target = np.zeros(4, dtype=complex)
        target[0] = 1.0
        cfg = small_config(dt=2e-7 / TIME_AU_S, fidelity_goal=0.99999)
        field, trace = optimize_state_prep(
            desk_basis, target, cfg,
            initial_field=ControlField(np.zeros(cfg.n_steps + 1),
                                       cfg.t_pulse / cfg.n_steps),
        )
        assert trace.status == "converged"
        assert trace.iterations == [0]

    def test_packet_preparation_progresses(self, desk_basis, desk_grid):
        target = encode(gaussian_packet(desk_grid, 1.0, -0.75))
        field, trace = optimize_state_prep(desk_basis, target, small_config())
        assert trace.is_monotonic()
        assert trace.fidelities[-1] > 0.5  # fast single-target convergence

    def test_rejects_unnormalized_target(self, desk_basis):
        with pytest.raises(ValidationError):
            optimize_state_prep(desk_basis, np.ones(4), small_config())

    def test_distinct_packets_need_distinct_fields(self, desk_basis, desk_grid):
        fields = []
        for x0 in (-0.75, 0.75):
            target = encode(gaussian_packet(desk_grid, 1.0, x0))
            f, _ = optimize_state_prep(
                desk_basis, target, small_config(max_iterations=3)
            )
            fields.append(f.samples)
        assert np.abs(fields[0] - fields[1]).max() > 0.1 * np.abs(fields[0]).max()


class TestDissipativeOptimizer:
    def test_requires_valid_setup(self, desk_basis, desk_gate):
        diss = build_dissipation(desk_basis, kappa=1e-17)
        field, trace = optimize_gate_dissipative(
            desk_basis, TargetSet(desk_gate.entries),
            small_config(max_iterations=2), diss,
        )
        assert trace.is_monotonic()
        assert len(trace) == 3
        assert np.all(np.isfinite(field.samples))
