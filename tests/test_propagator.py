import numpy as np
import pytest

from iontrapsim import (
    ControlField,
    DissipationModel,
    EigenBasis,
    NumericalError,
    TrapParams,
    ValidationError,
    build_dissipation,
    evolution_operator,
    make_guess_field,
)
from iontrapsim.oct import OctConfig
from iontrapsim.propagator import (ClosedPulseMap, InteractionFrame, Lindblad,
                                   LindbladPulseMap, LindbladSuperoperator,
                                   commutator_coordinates, hermitian_coordinates,
                                   hermitian_matrices, lindblad_kernel, sweep)
from iontrapsim.units import TIME_AU_S


def two_level_basis(omega0: float = 1.0, mu01: float = 1.0) -> EigenBasis:
    """Synthetic two-level system for analytic oracles."""
    params = TrapParams(
        mass=1.0, k=omega0**2, k_quart=0.0,
        primitive_size=2, dynamical_size=2, computational_size=2,
    )
    z = np.array([[0.0, mu01], [mu01, 0.0]])
    return EigenBasis(
        params=params,
        energies=np.array([0.0, omega0]),
        vectors=np.eye(2),
        z_matrix=z,
        dipole=z.copy(),
    )


def short_guess(basis, steps=2000, t_pulse_us=4.0):
    cfg = OctConfig(
        t_pulse=t_pulse_us * 1e-6 / TIME_AU_S,
        dt=t_pulse_us * 1e-6 / TIME_AU_S / steps,
        alpha0=1e15,
    )
    return make_guess_field(basis, cfg)


def textbook_sweep(frame, x, samples, backward=False, store_every=0, out=None):
    """Classical RK4 of dc/dt = i E mu_I(t) c, mu_I(t) = P(t) mu P(t)^*, with
    the phases of every stage written out; the reference for `sweep` of an
    `InteractionFrame`."""
    def rhs(c, half_idx, e):
        p = np.exp(1j * half_idx * (frame.dt / 2) * frame.energies)
        return (1j * e) * (p[:, None] * (frame.mu @ (p.conj()[:, None] * c)))

    n_steps = len(samples) - 1
    h, sign = (-frame.dt, -1) if backward else (frame.dt, 1)
    if out is not None:
        out[0] = x
    for done, n in enumerate(range(n_steps - 1, -1, -1) if backward else range(n_steps), 1):
        t0, e = 2 * (n + 1 if backward else n), samples[n]
        k1 = rhs(x, t0, e)
        k2 = rhs(x + 0.5 * h * k1, t0 + sign, e)
        k3 = rhs(x + 0.5 * h * k2, t0 + sign, e)
        k4 = rhs(x + h * k3, t0 + 2 * sign, e)
        x = x + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if out is not None and done % store_every == 0:
            out[done // store_every] = x
    return x


def random_columns(dim, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, n)) + 1j * rng.normal(size=(dim, n))
    return x / np.linalg.norm(x, axis=0)


def coordinate_rows(x):
    """The flattened `hermitian_coordinates` of Hermitian matrices x (..., D, D),
    the rows a Lindblad `sweep` takes and gives."""
    return hermitian_coordinates(x).reshape(x.shape[:-2] + (-1,))


def matrix_sweep(kernel, x, samples):
    """`sweep` of a Lindblad kernel on Hermitian matrices x, through their
    coordinate rows."""
    return hermitian_matrices(sweep(kernel, coordinate_rows(x), samples).reshape(x.shape))


def assert_relative(got, want, rtol=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


class TestControlField:
    def test_duration_invariant(self):
        f = ControlField(np.zeros(101), dt=2.0)
        assert f.t_pulse == 200.0
        assert f.n_steps == 100

    def test_rejects_bad_samples(self):
        with pytest.raises(ValidationError):
            ControlField(np.zeros(1), dt=1.0)
        with pytest.raises(ValidationError):
            ControlField(np.array([0.0, np.nan]), dt=1.0)
        with pytest.raises(ValidationError):
            ControlField(np.zeros(5), dt=-1.0)
        with pytest.raises(ValidationError):
            ControlField(np.zeros(5), dt=np.nan)
        with pytest.raises(ValidationError):
            ControlField(np.zeros(5), dt=np.inf)

    def test_overflowing_field_raises(self, desk_basis):
        """A finite field whose propagation overflows to NaN must fail the
        end-of-pulse checks, not return a NaN state."""
        field = ControlField(np.array([0.0, 1e300, 1e300, 0.0]), dt=1e3)
        c0 = np.zeros(8, dtype=complex)
        c0[0] = 1.0
        diss = build_dissipation(desk_basis, kappa=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="norm drift nan"):
                ClosedPulseMap(field, desk_basis).apply(c0)
            with pytest.raises(NumericalError):
                evolution_operator(field, desk_basis, 4)
            with pytest.raises(NumericalError, match="Hermiticity error nan"):
                LindbladPulseMap(field, desk_basis, diss).apply(np.outer(c0, c0.conj()))


class TestClosedPropagation:
    def test_zero_field_leaves_amplitudes_fixed(self, desk_basis):
        rng = np.random.default_rng(7)
        c = rng.normal(size=8) + 1j * rng.normal(size=8)
        c /= np.linalg.norm(c)
        field = ControlField(np.zeros(500 + 1), 1e8 / 500)
        out = ClosedPulseMap(field, desk_basis).apply(c)
        assert np.abs(out - c).max() < 1e-12

    def test_rabi_oracle_period(self):
        omega0, mu01, amp = 1.0, 1.0, 1e-2
        basis = two_level_basis(omega0, mu01)
        rabi = mu01 * amp
        t_total = 1.2 * np.pi / rabi  # past the pi time
        steps = 19000
        dt = t_total / steps
        t = np.arange(steps + 1) * dt
        field = ControlField(amp * np.cos(omega0 * t), dt)
        pulse_map = ClosedPulseMap(field, basis, store_every=10)
        stored = pulse_map.snapshots @ np.array([1.0, 0.0], dtype=complex)
        times = pulse_map.times
        p1 = np.abs(stored[:, 1]) ** 2
        i = int(np.argmax(p1))
        # quadratic fit around the sampled maximum
        y0, y1, y2 = p1[i - 1], p1[i], p1[i + 1]
        shift = 0.5 * (y0 - y2) / (y0 - 2 * y1 + y2)
        t_pi = times[i] + shift * (times[1] - times[0])
        expected = np.pi / rabi
        assert abs(t_pi - expected) / expected < 1e-3
        assert p1[i] > 0.9999

    def test_norm_drift_detected(self):
        basis = two_level_basis()
        t_total = 50.0
        steps = 10  # grossly under-resolved on purpose
        dt = t_total / steps
        t = np.arange(steps + 1) * dt
        field = ControlField(0.5 * np.cos(t), dt)
        with pytest.raises(NumericalError, match="norm drift"):
            ClosedPulseMap(field, basis).apply(np.array([1.0, 0.0], dtype=complex))

    def test_pulse_map_norm_drift_detected(self):
        """The same pulse's U reports the drift, and its gate block fails
        the column-norm check."""
        dt = 50.0 / 10
        field = ControlField(0.5 * np.cos(np.arange(11) * dt), dt)
        pulse_map = ClosedPulseMap(field, two_level_basis())
        assert pulse_map.unitarity_drift() > 1e-8
        with pytest.raises(NumericalError, match="column norm drift"):
            pulse_map.gate(2)


class TestClosedSweep:
    """sweep of an InteractionFrame against textbook RK4 of the
    interaction-picture equation."""

    @pytest.mark.parametrize("backward", [False, True])
    def test_matches_textbook_rk4(self, desk_basis, backward):
        field = short_guess(desk_basis)
        frame = InteractionFrame(desk_basis, field.dt)
        x = random_columns(8, 5, seed=1)
        got = sweep(frame, x, field.samples, backward=backward)
        want = textbook_sweep(frame, x, field.samples, backward=backward)
        assert_relative(got, want)

    def test_snapshots_match(self, desk_basis):
        """Snapshot slot k holds the state after k store_every steps in both
        directions, also when the pulse ends inside a block of step
        operators (37 steps)."""
        x = random_columns(8, 2, seed=2)
        for steps, store_every in ((2000, 100), (37, 5)):
            field = short_guess(desk_basis, steps=steps)
            frame = InteractionFrame(desk_basis, field.dt)
            for backward in (False, True):
                got = np.empty((steps // store_every + 1, 8, 2), dtype=complex)
                want = np.empty_like(got)
                final = sweep(frame, x, field.samples, backward=backward,
                              store_every=store_every, out=got)
                textbook_sweep(frame, x, field.samples, backward=backward,
                               store_every=store_every, out=want)
                assert_relative(got, want)
                if steps % store_every == 0:
                    assert np.array_equal(got[-1], final)

    def test_paper_size(self, paper_basis):
        """80 paper-size steps with a field strong enough (|E mu| dt = 0.2)
        that the third- and fourth-order terms of every step count."""
        field = short_guess(paper_basis, steps=80, t_pulse_us=80 * 0.96e-3)
        scale = 0.2 / (np.abs(field.samples).max() * np.linalg.norm(paper_basis.dipole, 2)
                       * field.dt)
        samples = scale * field.samples
        frame = InteractionFrame(paper_basis, field.dt)
        x = random_columns(32, 17, seed=3)
        for backward in (False, True):
            got = sweep(frame, x, samples, backward=backward)
            want = textbook_sweep(frame, x, samples, backward=backward)
            assert_relative(got, want)

    def test_zeroth_coefficient_is_frame_phase(self, desk_basis):
        frame = InteractionFrame(desk_basis, 8e4)
        for backward, h in ((False, 8e4), (True, -8e4)):
            c0 = frame.operators([0.0], backward=backward)[0]
            want = np.diag(np.exp(-1j * desk_basis.energies * h))
            assert np.abs(c0 - want).max() <= 1e-15


class TestEvolutionOperator:
    def test_zero_field_identity(self, desk_basis):
        u = evolution_operator(ControlField(np.zeros(400 + 1), 1e8 / 400), desk_basis, 4)
        assert np.abs(u - np.eye(4)).max() < 1e-12

    def test_weak_field_contraction(self, desk_basis):
        rng = np.random.default_rng(3)
        samples = 1e-13 * rng.normal(size=2001)
        samples[0] = samples[-1] = 0.0
        field = ControlField(samples, 8e4)
        u = evolution_operator(field, desk_basis, 4)
        assert np.linalg.norm(u, ord=2) <= 1.0 + 1e-8

    def test_rejects_oversized_projection(self, desk_basis):
        with pytest.raises(ValidationError):
            evolution_operator(ControlField(np.zeros(100 + 1), 1e8 / 100), desk_basis, 16)


class TestDissipationModel:
    def test_pair_structure(self, paper_basis):
        diss = build_dissipation(paper_basis, kappa=1e-18)
        assert np.count_nonzero(diss.gamma) == 2 * (31 + 29)
        assert np.all(diss.gamma >= 0)
        assert np.abs(diss.gamma - diss.gamma.T).max() == 0.0

    def test_zero_kappa(self, paper_basis):
        diss = build_dissipation(paper_basis, kappa=0.0)
        assert np.all(diss.gamma == 0.0)
        assert diss.mean_rate == 0

    def test_mean_heating_time_calibration(self, paper_basis):
        diss = build_dissipation(paper_basis, kappa=5e-18)
        assert TIME_AU_S / diss.mean_rate * 1e3 == pytest.approx(55.0, rel=0.10)

    def test_rates_proportional_to_kappa(self, paper_basis):
        d1 = build_dissipation(paper_basis, kappa=1e-18)
        d5 = build_dissipation(paper_basis, kappa=5e-18)
        assert np.allclose(5 * d1.gamma, d5.gamma)

    def test_rejects_negative_kappa(self, paper_basis):
        with pytest.raises(ValidationError):
            build_dissipation(paper_basis, kappa=-1e-18)

    @pytest.mark.parametrize("kappa", [np.nan, np.inf])
    def test_rejects_non_finite_kappa(self, paper_basis, kappa):
        with pytest.raises(ValidationError, match="finite"):
            build_dissipation(paper_basis, kappa=kappa)


class TestLindblad:
    def test_closed_limit_matches_tdse(self, desk_basis):
        field = short_guess(desk_basis)
        frame = InteractionFrame(desk_basis, field.dt)
        c0 = np.zeros(8, dtype=complex)
        c0[0] = 1.0
        out_vec = sweep(frame, c0[:, None], field.samples)[:, 0]
        diss = build_dissipation(desk_basis, kappa=0.0)
        out_rho = matrix_sweep(Lindblad(frame, diss), np.outer(c0, c0.conj()), field.samples)
        expected = np.outer(out_vec, out_vec.conj())
        assert np.abs(out_rho - expected).max() < 1e-8

    def test_free_heating_conserves_trace(self, desk_basis):
        diss = build_dissipation(desk_basis, kappa=1e-15)
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[1, 1] = 1.0
        lindblad = Lindblad(InteractionFrame(desk_basis, 8e8 / 2000), diss)
        out = matrix_sweep(lindblad, rho0, np.zeros(2000 + 1))
        pops = np.real(np.diag(out))
        assert abs(pops.sum() - 1.0) < 1e-10
        assert pops[0] + pops[2] + pops[4] > 1e-8
        assert np.abs(out - out.conj().T).max() < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-6

    def test_adjoint_pairing_invariance(self, desk_basis):
        field = short_guess(desk_basis, steps=1500)
        diss = build_dissipation(desk_basis, kappa=1e-15)
        frame = InteractionFrame(desk_basis, field.dt)
        rng = np.random.default_rng(11)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        eta = 0.5 * (b + b.conj().T)
        pairing0 = np.trace(eta.conj().T @ rho)
        rho = matrix_sweep(Lindblad(frame, diss), rho, field.samples)
        eta = matrix_sweep(Lindblad(frame, diss, adjoint=True), eta, field.samples)
        pairing1 = np.trace(eta.conj().T @ rho)
        assert abs(pairing1 - pairing0) < 1e-8 * max(1.0, abs(pairing0))

    @pytest.mark.parametrize("e_field", [0.0, 0.3])
    def test_generator_matches_textbook_form(self, desk_basis, e_field):
        """At each stage dipole mu_I(s), s = 0, h/2, h of either direction,
        rhs = i E [mu_I(s), x] + sum_jk (L x L^dag - {L^dag L, x} / 2) with
        L = sqrt(gamma_jk) |j><k|, on a Hermitian stack; the adjoint generator
        is minus the adjoint: Tr(A^dag rhs(B)) = -Tr(adjoint rhs(A)^dag B).
        The rates are random and asymmetric, so gamma and gamma^T differ."""
        rng = np.random.default_rng(5)
        gamma = rng.uniform(0.0, 100.0, size=(8, 8))
        np.fill_diagonal(gamma, 0.0)
        diss = DissipationModel(1.0, gamma, 0.0)
        frame = InteractionFrame(desk_basis, 1e3)
        lindblad = Lindblad(frame, diss)
        adjoint = Lindblad(frame, diss, adjoint=True)
        x = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
        x = x + x.conj().swapaxes(-1, -2)
        a = rng.normal(size=(3, 8, 8)) + 1j * rng.normal(size=(3, 8, 8))
        a = a + a.conj().swapaxes(-1, -2)
        for backward, h in ((False, 1e3), (True, -1e3)):
            kdags = lindblad.operators([e_field], backward)[0]
            adjoint_kdags = adjoint.operators([e_field], backward)[0]
            for stage, s in enumerate((0.0, h / 2, h)):
                p = np.exp(1j * desk_basis.energies * s)
                mu_i = np.diag(p) @ desk_basis.dipole @ np.diag(p.conj())
                want = 1j * e_field * (mu_i @ x - x @ mu_i)
                for j, k in zip(*np.nonzero(diss.gamma)):
                    jump = np.zeros((8, 8))
                    jump[j, k] = np.sqrt(diss.gamma[j, k])
                    want = want + jump @ x @ jump.T - 0.5 * (jump.T @ jump @ x + x @ jump.T @ jump)
                got = lindblad.rhs(x, kdags[stage])
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

                forward = np.einsum("tij,tij->t", a.conj(), got)
                paired = -np.einsum("tij,tij->t", adjoint.rhs(a, adjoint_kdags[stage]).conj(), x)
                assert np.abs(forward - paired).max() <= 1e-13 * np.abs(forward).max()

    def test_backward_snapshots_count_steps_done(self, desk_basis):
        """A backward zero-field decay stores the state after k store_every
        steps in slot k: with 4 steps and store_every = 2, the states after
        0, 2 and 4 steps in slots 0, 1 and 2; with 37 steps and
        store_every = 5 the pulse ends inside a block of step operators."""
        diss = build_dissipation(desk_basis, 1.0)
        dt = 0.5 / diss.total_out_rates().max()
        adjoint = Lindblad(InteractionFrame(desk_basis, dt), diss, adjoint=True)
        eta = np.zeros(64)
        eta[2 * 8 + 2] = 1.0
        for steps, store_every in ((4, 2), (37, 5)):
            stored = np.empty((steps // store_every + 1, 64))
            final = sweep(adjoint, eta, np.zeros(steps + 1), backward=True,
                          store_every=store_every, out=stored)
            assert np.array_equal(stored[0], eta)
            for k in range(1, len(stored)):
                after_k = sweep(adjoint, eta, np.zeros(k * store_every + 1), backward=True)
                assert_relative(stored[k], after_k)
            if steps % store_every == 0:
                assert_relative(stored[-1], final)
            assert np.abs(stored[1] - stored[2]).max() > 1e-2

    def test_trace_drift_detected(self, desk_basis):
        """Tr Phi(E_11) raised by 1e-6, as in the trace-drift check of
        `test_pulse_maps`, fails `apply` on a state with population 1/2 in
        |1>; the healthy map passes it."""
        pulse_map = LindbladPulseMap(short_guess(desk_basis), desk_basis,
                                     build_dissipation(desk_basis, kappa=1e-15))
        rho = np.diag([0.5, 0.5, 0, 0, 0, 0, 0, 0]).astype(complex)
        assert abs(np.trace(pulse_map.apply(rho)).real - 1.0) < 1e-10
        pulse_map.matrix[1 * 8 + 1, 3 * 8 + 3] += 1e-6
        with pytest.raises(NumericalError, match="trace error 5.00e-07"):
            pulse_map.apply(rho)

    def test_negative_eigenvalue_detected(self, desk_basis):
        """Four zero-field steps with dt times the largest out-rate at 2
        keep the trace but leave a negative eigenvalue (about -0.09)."""
        diss = build_dissipation(desk_basis, 1.0)
        dt = 2.0 / diss.total_out_rates().max()
        rho0 = np.zeros((8, 8), dtype=complex)
        rho0[0, 0] = 1.0
        pulse_map = LindbladPulseMap(ControlField(np.zeros(4 + 1), 4 * dt / 4), desk_basis, diss)
        with pytest.raises(NumericalError, match="eigenvalue"):
            pulse_map.apply(rho0)

    def test_rk4_step_halving(self, desk_basis):
        field = short_guess(desk_basis, steps=1000)
        halved_samples = np.empty(2 * field.n_steps + 1)
        halved_samples[::2] = field.samples
        halved_samples[1::2] = field.samples[:-1]   # the same held field
        halved = ControlField(halved_samples, field.dt / 2)
        c0 = np.zeros((8, 1), dtype=complex)
        c0[0] = 1.0
        coarse = sweep(InteractionFrame(desk_basis, field.dt), c0, field.samples)
        fine = sweep(InteractionFrame(desk_basis, halved.dt), c0, halved.samples)
        assert np.abs(coarse - fine).max() < 1e-6


class TestLindbladSuperoperator:
    """The step matrices of `LindbladSuperoperator` against the per-matrix
    `Lindblad` kernel they stand in for up to SUPEROPERATOR_MAX_DIM, at
    1e-12 relative.  The rates are random and asymmetric, and with
    gamma dt up to 0.17 and e mu dt up to 0.2 every term of the step
    polynomial counts."""

    DT = 2e-9 / TIME_AU_S
    FIELDS = (0.0, 8e-12, -1.5e-11)

    @pytest.fixture(scope="class")
    def diss(self):
        rng = np.random.default_rng(7)
        gamma = rng.uniform(0.0, 2e-9, size=(8, 8))
        np.fill_diagonal(gamma, 0.0)
        return DissipationModel(1.0, gamma, 0.0)

    @staticmethod
    def hermitian_stack(seed, n=5):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, 8, 8)) + 1j * rng.normal(size=(n, 8, 8))
        return x + x.conj().swapaxes(-1, -2)

    @pytest.mark.parametrize("adjoint", [False, True])
    @pytest.mark.parametrize("backward", [False, True])
    def test_one_step(self, desk_basis, diss, adjoint, backward):
        lindblad = Lindblad(InteractionFrame(desk_basis, self.DT), diss, adjoint)
        superop = LindbladSuperoperator(lindblad)
        x = coordinate_rows(self.hermitian_stack(1))
        for e in self.FIELDS:
            want = lindblad.rotate_out(lindblad.step(
                lindblad.rotate_in(x, 6), lindblad.operators([e], backward)[0], backward), 6)
            got = superop.rotate_out(superop.step(
                superop.rotate_in(x, 6), superop.operators([e], backward)[0], backward), 6)
            assert_relative(got, want)
            if not backward:
                y = lindblad.rotate_in(x, 0)
                want = lindblad.fresh_step(y, e, (y.reshape(-1, 8) @ desk_basis.dipole)
                                           .reshape(y.shape))
                got = superop.fresh_step(superop.rotate_in(x, 0), e, None)
                assert_relative(superop.rotate_out(got, 0), lindblad.rotate_out(want, 0))

    def test_fresh_step_is_step_with_operator(self, desk_basis, diss):
        """The contract `_forward_update` relies on, for both step-matrix
        kernels: fresh_step(y, e, None) is step(y, operators([e])[0])."""
        frame = InteractionFrame(desk_basis, self.DT)
        superop = LindbladSuperoperator(Lindblad(frame, diss, adjoint=True))
        for kernel, y in ((frame, random_columns(8, 5, seed=5)),
                          (superop, coordinate_rows(self.hermitian_stack(5)))):
            for e in self.FIELDS:
                assert_relative(kernel.fresh_step(y, e, None),
                                kernel.step(y, kernel.operators([e])[0]), rtol=1e-15)

    @pytest.mark.parametrize("adjoint, backward", [(False, False), (True, True)])
    def test_sweep_with_partial_block(self, desk_basis, diss, adjoint, backward):
        """37 steps, two blocks of step matrices and a partial one, with
        snapshots every 5 steps, as the optimizer sweeps them."""
        frame = InteractionFrame(desk_basis, self.DT)
        lindblad = Lindblad(frame, diss, adjoint)
        samples = np.r_[np.random.default_rng(3).uniform(-1.5e-11, 1.5e-11, 37), 0.0]
        x = coordinate_rows(self.hermitian_stack(2) / 8)
        stored = {}
        finals = {}
        for name, kernel in (("matrix", lindblad), ("superop", LindbladSuperoperator(lindblad))):
            stored[name] = np.empty((37 // 5 + 1, 5, 64))
            finals[name] = sweep(kernel, x, samples, backward, 5, stored[name])
        assert_relative(finals["superop"], finals["matrix"])
        assert_relative(stored["superop"], stored["matrix"])
        assert np.abs(finals["matrix"] - x).max() > 0.1 * np.abs(x).max()

    def test_commutator_coordinates(self, desk_basis):
        """c(i [mu, y]) = c(y) @ commutator_coordinates(mu)."""
        x = self.hermitian_stack(4)
        mu = desk_basis.dipole
        want = hermitian_coordinates(1j * (mu @ x - x @ mu)).reshape(5, -1)
        got = hermitian_coordinates(x).reshape(5, -1) @ commutator_coordinates(mu)
        assert_relative(got, want)

    def test_dispatch_by_dimension(self, desk_basis, paper_basis):
        """D = 8 steps as a superoperator, paper size per matrix."""
        diss = build_dissipation(desk_basis, 1e-17)
        kernel = lindblad_kernel(InteractionFrame(desk_basis, self.DT), diss, adjoint=True)
        assert isinstance(kernel, LindbladSuperoperator)
        assert kernel.lindblad._half_rates[1] < 0    # the adjoint's sign
        frame = InteractionFrame(paper_basis, self.DT)
        assert isinstance(lindblad_kernel(frame, build_dissipation(paper_basis, 1e-17)),
                          Lindblad)
