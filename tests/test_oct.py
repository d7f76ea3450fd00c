import functools

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
from iontrapsim import ConvergenceError, NumericalError, propagator
from iontrapsim.analysis import map_fidelity_trace
from iontrapsim.oct import (STALL_IMPROVEMENT, OctTrace, _closed_bracket, _density_bracket,
                           _run_iterations, switch_envelope)
from iontrapsim.serialization import load_trace, save_trace
from iontrapsim.units import TIME_AU_S


DT = 2e-9 / TIME_AU_S


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

    @pytest.mark.parametrize("functional, alpha0", [("P", 5e14), ("F", 2e15)])
    def test_reported_fidelity_is_measured_fidelity_at_paper_size(
        self, paper_basis, paper_gate, functional, alpha0
    ):
        """The same at paper size (D = 32, N = 16) on a 200-step pulse."""
        dt = 0.96e-9 / TIME_AU_S
        cfg = small_config(t_pulse=200 * dt, dt=dt, functional=functional,
                           alpha0=alpha0, max_iterations=3)
        field, trace = optimize_gate(paper_basis, TargetSet(paper_gate.entries), cfg)
        measured = fidelity(paper_gate, evolution_operator(field, paper_basis, 16))
        assert abs(trace.final_fidelity - measured) <= 1e-12

    def test_resume_continues_trace(self, desk_basis, desk_gate):
        """A resumed run gives the field and trace of an uninterrupted one
        up to rounding, for both functionals.  It has no evaluation of its
        starting field, so its first multipliers come from a forward sweep
        of that field, not from the last forward update."""
        targets = TargetSet(desk_gate.entries)
        for functional, alpha0 in (("P", 5e14), ("F", 2e15)):
            config = functools.partial(small_config, functional=functional, alpha0=alpha0)
            whole_field, whole = optimize_gate(desk_basis, targets, config(max_iterations=4))
            f1, t1 = optimize_gate(desk_basis, targets, config(max_iterations=2))
            field, trace = optimize_gate(desk_basis, targets, config(max_iterations=2),
                                         initial_field=f1, trace=t1)
            assert trace.iterations == whole.iterations == [0, 1, 2, 3, 4]
            assert trace.status == whole.status
            assert trace.is_monotonic()
            for got, want in ((field.samples, whole_field.samples),
                              (trace.objectives, whole.objectives),
                              (trace.fidelities, whole.fidelities),
                              (trace.fluences, whole.fluences)):
                got, want = np.asarray(got), np.asarray(want)
                assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.abs(field.samples - f1.samples).max() > 1e-3 * np.abs(f1.samples).max()

    def test_records_phase_seconds_of_its_sweeps(self, desk_basis, desk_gate, tmp_path):
        """Wall seconds of every iteration's t = 0 multipliers (here one
        product with the propagator, on a resumed trace a forward sweep
        first) and forward update run by the call, kept in memory only."""
        targets = TargetSet(desk_gate.entries)
        cfg = small_config(t_pulse=0.2e-6 / TIME_AU_S, max_iterations=3)
        field, trace = optimize_gate(desk_basis, targets, cfg)
        assert len(trace) == 4
        for seconds in (trace.multipliers_s, trace.forward_s):
            assert len(seconds) == len(trace) - 1
            assert all(s > 0 for s in seconds)
        save_trace(trace, str(tmp_path / "trace.csv"))
        loaded = load_trace(str(tmp_path / "trace.csv"))
        assert loaded.multipliers_s == [] and loaded.forward_s == []
        _, trace = optimize_gate(desk_basis, targets, small_config(
            t_pulse=0.2e-6 / TIME_AU_S, max_iterations=1), initial_field=field, trace=loaded)
        assert trace.iterations == [0, 1, 2, 3, 4]
        assert len(trace.multipliers_s) == len(trace.forward_s) == 1

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
        target = encode(gaussian_packet(desk_grid, 1.0, -0.75), desk_grid)
        field, trace = optimize_state_prep(desk_basis, target, small_config())
        assert trace.is_monotonic()
        assert trace.fidelities[-1] > 0.5  # fast single-target convergence

    def test_reported_fidelity_is_measured_fidelity(self, desk_basis, desk_grid):
        """The population the optimizer reports for the field it returns is
        |<target|psi(T)>|^2 of the ground state under that field, on a
        2,000-step pulse."""
        target = encode(gaussian_packet(desk_grid, 1.0, -0.75), desk_grid)
        cfg = small_config(t_pulse=4e-6 / TIME_AU_S, max_iterations=3)
        field, trace = optimize_state_prep(desk_basis, target, cfg)
        assert len(trace) == 4
        ground = np.zeros(desk_basis.n_states, dtype=complex)
        ground[0] = 1.0
        final = propagator.ClosedPulseMap(field, desk_basis).apply(ground)
        measured = abs(np.vdot(target, final[:len(target)])) ** 2
        assert abs(trace.final_fidelity - measured) <= 1e-12

    def test_refuses_the_f_functional(self, desk_basis, desk_grid):
        """One target has one functional: F is refused, not run as P."""
        target = encode(gaussian_packet(desk_grid, 1.0, -0.75), desk_grid)
        with pytest.raises(ValidationError, match="P functional only"):
            optimize_state_prep(desk_basis, target,
                                small_config(functional="F", max_iterations=0))

    def test_rejects_unnormalized_target(self, desk_basis):
        with pytest.raises(ValidationError):
            optimize_state_prep(desk_basis, np.ones(4), small_config())

    def test_distinct_packets_need_distinct_fields(self, desk_basis, desk_grid):
        fields = []
        for x0 in (-0.75, 0.75):
            target = encode(gaussian_packet(desk_grid, 1.0, x0), desk_grid)
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

    def test_refuses_the_f_functional(self, desk_basis, desk_gate):
        """The optimizer is the density form of P; that of F would need the
        N^2 coherences |j><k| as trajectories."""
        with pytest.raises(ValidationError, match="P functional only"):
            optimize_gate_dissipative(desk_basis, TargetSet(desk_gate.entries),
                                      small_config(functional="F", max_iterations=0),
                                      build_dissipation(desk_basis, kappa=1e-17))

    @pytest.mark.parametrize("field_name, kappa", [
        ("guess", 0.0), ("guess", 1e-18), ("converged", 1e-18)])
    def test_population_mean_bounds_the_process_fidelity(self, request, desk_basis,
                                                         desk_gate, field_name, kappa):
        """The one-pulse process fidelity of a field is at most the mean
        target population the optimizer reports for it at iteration 0: for a
        completely positive map, G_jk = <Vj|Phi(|j><k|)|Vk> is positive
        semidefinite, so sum_jk G_jk / N^2 <= sum_j G_jj / N."""
        cfg = small_config(max_iterations=0)
        if field_name == "guess":
            field = make_guess_field(desk_basis, cfg)
        else:
            field, _ = request.getfixturevalue("desk_converged")["P"]
        diss = build_dissipation(desk_basis, kappa=kappa)
        _, trace = optimize_gate_dissipative(desk_basis, TargetSet(desk_gate.entries), cfg,
                                             diss, initial_field=field)
        process = map_fidelity_trace(propagator.LindbladPulseMap(field, desk_basis, diss), 1,
                                     desk_gate)
        assert trace.iterations == [0]
        assert process[0] <= trace.fidelities[0]

    @pytest.mark.parametrize("steps, kappa, rtol, gain", [
        (300, 1e-17, 1e-12, 1e-3),   # a partial block at the end
        (20, 5e-18, 1e-15, 1e-4),    # to rounding: 2.2e-16 measured
    ], ids=["300-steps", "20-steps"])
    def test_superoperator_kernel_matches_per_matrix_kernel(self, desk_basis, desk_gate,
                                                            monkeypatch, steps, kappa, rtol,
                                                            gain):
        """Three desk iterations through the one density bracket: the field
        and the trace of the `LindbladSuperoperator` kernels agree at rtol
        relative with the per-matrix kernels, which SUPEROPERATOR_MAX_DIM = 0
        selects.  On 20 steps the measured gap is 2.2e-16 in the field and
        the objectives, 1.2e-16 in the fidelities (numpy 2.4.6, OpenBLAS
        0.3.31, x86-64)."""
        cfg = small_config(t_pulse=steps * DT, dt=DT, max_iterations=3)
        diss = build_dissipation(desk_basis, kappa=kappa)
        runs = []
        for max_dim in (propagator.SUPEROPERATOR_MAX_DIM, 0):
            monkeypatch.setattr(propagator, "SUPEROPERATOR_MAX_DIM", max_dim)
            runs.append(optimize_gate_dissipative(desk_basis, TargetSet(desk_gate.entries),
                                                  cfg, diss))
        (field, trace), (want_field, want_trace) = runs
        assert len(want_trace) == 4
        assert np.abs(field.samples - want_field.samples).max() <= (
            rtol * np.abs(want_field.samples).max())
        for got, want in ((trace.objectives, want_trace.objectives),
                          (trace.fidelities, want_trace.fidelities)):
            assert np.abs(np.subtract(got, want)).max() <= rtol * np.abs(want).max()
        assert want_trace.objectives[-1] > want_trace.objectives[0] + gain


class TestIterationDriver:
    """The stopping and fault rules of `_run_iterations`, driven through a
    desk `InteractionFrame` on a 20-step pulse with stub `multipliers` and
    a stub `measure` that reads out a scripted objective, at fidelity 0.5."""

    @staticmethod
    def run(basis, objectives, lam=0.0, trace=None, **config):
        """(field, trace, finals) of `_run_iterations`, finals what every
        multipliers call received.  Every entry of the multipliers is lam;
        with lam = 0 the field stays as it is."""
        cfg = small_config(t_pulse=20 * DT, dt=DT, **config)
        frame = propagator.InteractionFrame(basis, cfg.dt)
        initials = np.eye(basis.n_states, dtype=complex)[:, :1]
        objectives, finals = iter(objectives), []

        def multipliers(field, final):
            finals.append(final)
            return np.full_like(initials, lam)

        def measure(final):
            return next(objectives), 0.5

        field, trace = _run_iterations(basis, cfg, frame, frame, initials,
                                       _closed_bracket(frame, "P"), measure, multipliers,
                                       None, trace, None)
        return field, trace, finals

    def test_stalls_after_stall_iterations_without_gain(self, desk_basis, monkeypatch):
        """Every iteration whose objective gains less than STALL_IMPROVEMENT
        relative counts toward the stall, a larger gain starts it anew, and
        STALL_ITERATIONS in a row stop the run as stalled."""
        monkeypatch.setattr("iontrapsim.oct.STALL_ITERATIONS", 3)
        gain = STALL_IMPROVEMENT
        objectives = [1.0, 1.0, 1.0 + 0.5 * gain, 2.0, 2.0, 2.0 + gain, 2.0 + gain]
        _, trace, _ = self.run(desk_basis, objectives, max_iterations=10)
        assert trace.status == "stalled"
        assert trace.iterations == list(range(7))
        assert trace.objectives == objectives

    def test_decreasing_objective_raises(self, desk_basis):
        """An objective that falls by more than MONOTONE_SLACK aborts the
        run with ConvergenceError, and the trace says where."""
        trace = OctTrace()
        with pytest.raises(ConvergenceError, match=r"from 1\.0 to 0\.5 at iteration 2"):
            self.run(desk_basis, [0.5, 1.0, 0.5], trace=trace, max_iterations=10)
        assert trace.status == "aborted: objective decreased at iteration 2"
        assert trace.iterations == [0, 1]

    def test_non_finite_field_raises(self, desk_basis):
        """Multipliers that make the corrected samples NaN abort the run
        with NumericalError before the field is measured."""
        trace = OctTrace()
        with pytest.raises(NumericalError, match="non-finite samples"):
            self.run(desk_basis, [0.5], lam=np.nan, trace=trace)
        assert trace.status == "aborted: non-finite field"
        assert trace.iterations == [0]

    def test_multipliers_see_the_final_states(self, desk_basis):
        """multipliers(field, finals) gets the final states of the
        evaluation and of every forward update, and None only on a resumed
        trace, before its first forward update."""
        _, trace, finals = self.run(desk_basis, [0.5, 0.6, 0.7], max_iterations=2)
        assert trace.iterations == [0, 1, 2]
        assert len(finals) == 2 and all(f.shape == (desk_basis.n_states, 1) for f in finals)
        _, trace, finals = self.run(desk_basis, [0.8, 0.9], trace=trace, max_iterations=2)
        assert trace.iterations == [0, 1, 2, 3, 4]
        assert finals[0] is None and finals[1].shape == (desk_basis.n_states, 1)


@pytest.mark.parametrize("functional", ["P", "F"])
@pytest.mark.parametrize("d, n", [(8, 5), (32, 17)], ids=["desk", "paper"])
def test_closed_pairing_matches_the_conjugated_sum(request, functional, d, n):
    """The closed bracket's `advance(i, e, w)` pairs plain bras with the
    states by `np.vecdot` and `np.vdot` (P) or two `np.vdot` (F) and
    corrects e to e - w * value, so with e = 0 and w = -1 it returns the
    value.  Over 200 random stacks that agrees with the conjugated bras
    multiplied by psi and summed by `np.add.reduce`, which sums in another
    order, to 1e-13 relative to the magnitude of the terms summed: the
    imaginary part of a sum of many complex products cancels, so it can be
    far smaller than its terms.  The states carry three columns more than
    the bras, as the closed gate optimizer's completion to a basis does,
    and the pairing reads the first n."""
    basis = request.getfixturevalue("desk_basis" if d == 8 else "paper_basis")
    assert basis.n_states == d
    rng = np.random.default_rng(23)
    mu = basis.dipole
    lams = rng.normal(size=(200, d, n)) + 1j * rng.normal(size=(200, d, n))
    psis = rng.normal(size=(200, d, n + 3)) + 1j * rng.normal(size=(200, d, n + 3))
    states = np.empty((2, d, n + 3), complex)
    advance = _closed_bracket(propagator.InteractionFrame(basis, DT), functional)(lams, states)
    bras = np.conjugate(lams)
    pairs = np.stack([bras, np.matmul(mu, bras.view(float)).view(complex)], axis=1)
    for i, psi in enumerate(psis):
        states[i % 2] = psi
        psi = psi[:, :n]
        sizes = np.add.reduce(np.abs(pairs[i]) * np.abs(psi), axis=1)
        if functional == "F":
            overlap, coupling = np.add.reduce(pairs[i] * psi, axis=(1, 2))
            want = float((overlap.conjugate() * coupling).imag)
            size = sizes[0].sum() * sizes[1].sum()
        else:
            overlaps, couplings = np.add.reduce(pairs[i] * psi, axis=1)
            want = float(np.vdot(overlaps, couplings).imag)
            size = sizes[0] @ sizes[1]
        assert abs(advance(i, 0.0, -1.0) - want) <= 1e-13 * size


@pytest.mark.parametrize("bracket", ["coordinate", "matrix"])
def test_dissipative_pairing_matches_the_commutator_trace(desk_basis, bracket):
    """The density bracket's `advance(i, e, w)` with e = 0 and w = -1
    returns the value sum_t Im Tr(eta_t [mu, rho_t]) / 2 that it pairs
    the multipliers eta with the states rho by, through the kernel's
    commutator form: the superoperator's ("coordinate") a bilinear form on
    Hermitian coordinates, the per-matrix kernel's ("matrix") the bras
    eta mu.  Over 200 random Hermitian stacks it agrees with that trace
    formed on the matrices and summed by `np.add.reduce` to 1e-13
    relative to the magnitude of the terms summed."""
    d = desk_basis.n_states
    rng = np.random.default_rng(29)
    gamma = rng.uniform(0.0, 2e-9, size=(d, d))
    np.fill_diagonal(gamma, 0.0)
    lindblad = propagator.Lindblad(propagator.InteractionFrame(desk_basis, DT),
                                   propagator.DissipationModel(gamma, 0.0))
    x = rng.normal(size=(2, 200, 5, d, d)) + 1j * rng.normal(size=(2, 200, 5, d, d))
    etas, rhos = x + x.conj().swapaxes(-1, -2)
    if bracket == "coordinate":
        def rows(y):
            return propagator.hermitian_coordinates(y).reshape(y.shape[:-2] + (-1,))
        kernel = propagator.LindbladSuperoperator(lindblad)
    else:
        def rows(y):
            return y
        kernel = lindblad
    make = _density_bracket(kernel)
    states = np.empty((2,) + rows(rhos[0]).shape, rows(rhos[0]).dtype)
    advance = make(rows(etas), states)
    mu, abs_mu = desk_basis.dipole, np.abs(desk_basis.dipole)
    for i, (eta, rho) in enumerate(zip(etas, rhos)):
        states[i % 2] = rows(rho)
        terms = eta.swapaxes(-1, -2) * (mu @ rho - rho @ mu)
        want = float(np.add.reduce(terms, axis=None).imag) / 2
        size = np.add.reduce(np.abs(eta).swapaxes(-1, -2)
                             * (abs_mu @ np.abs(rho) + np.abs(rho) @ abs_mu), axis=None) / 2
        assert abs(advance(i, 0.0, -1.0) - want) <= 1e-13 * size
