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
from iontrapsim.gridsim import unitarity_defect
from iontrapsim.oct import OctConfig, _closed_bracket, _coordinate_bracket, _forward_update, \
    _matrix_bracket
from iontrapsim.propagator import (BLOCK_STEPS, ClosedPulseMap, InteractionFrame, Lindblad,
                                   LindbladPulseMap, LindbladSuperoperator,
                                   commutator_coordinates, hermitian_coordinates,
                                   hermitian_matrices, lindblad_kernel, step_blocks, sweep,
                                   turn_coordinates)
from iontrapsim.units import TIME_AU_S

from conftest import held_sample_propagator


def two_level_basis(omega0: float = 1.0, mu01: float = 1.0) -> EigenBasis:
    """Synthetic two-level system for analytic oracles."""
    params = TrapParams(
        mass=1.0, k=omega0**2, k_quart=0.0,
        primitive_size=2, dynamical_size=2, computational_size=2,
    )
    z = np.array([[0.0, mu01], [mu01, 0.0]])
    return EigenBasis(params=params, energies=np.array([0.0, omega0]), z_matrix=z)


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
        assert unitarity_defect(pulse_map.final) > 1e-8
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
        """Snapshot slot k holds the state after k store_every steps, also
        when the pulse ends inside a block of step operators (37 steps)."""
        x = random_columns(8, 2, seed=2)
        for steps, store_every in ((2000, 100), (37, 5)):
            field = short_guess(desk_basis, steps=steps)
            frame = InteractionFrame(desk_basis, field.dt)
            got = np.empty((steps // store_every + 1, 8, 2), dtype=complex)
            want = np.empty_like(got)
            final = sweep(frame, x, field.samples, store_every=store_every, out=got)
            textbook_sweep(frame, x, field.samples, store_every=store_every, out=want)
            assert_relative(got, want)
            if steps % store_every == 0:
                assert np.array_equal(got[-1], final)

    def test_backward_sweep_refuses_snapshots(self, desk_basis):
        field = short_guess(desk_basis, steps=10)
        frame = InteractionFrame(desk_basis, field.dt)
        out = np.empty((3, 8, 2), dtype=complex)
        with pytest.raises(ValidationError, match="forward"):
            sweep(frame, random_columns(8, 2, seed=2), field.samples, backward=True,
                  store_every=5, out=out)

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


class TestAdjointIdentity:
    """The closed backward RK4 step matrix is the adjoint of the forward
    one, so the multipliers at t = 0 of a backward sweep from targets are
    U^dag targets, U the forward propagator of the same field: what the
    closed gate optimizer uses in place of its backward sweep."""

    @pytest.fixture(params=[8, 32], ids=["D8", "D32"])
    def case(self, request):
        """(basis, field, targets): desk over 10,000 steps of 2 ns, paper
        over 2,000 of 0.96 ns, with D/2 + 1 target columns."""
        d = request.param
        if d == 8:
            basis = request.getfixturevalue("desk_basis")
            field = short_guess(basis, steps=10_000, t_pulse_us=20.0)
        else:
            basis = request.getfixturevalue("paper_basis")
            field = short_guess(basis, steps=2000, t_pulse_us=1.92)
        return basis, field, random_columns(d, d // 2 + 1, seed=31)

    def test_backward_step_matrix_is_the_forward_adjoint(self, case):
        basis, field, _ = case
        frame = InteractionFrame(basis, field.dt)
        e = np.array([0.0, 8e-12, -1.5e-11, 3e-11, np.abs(field.samples).max()])
        forward, backward = frame.operators(e), frame.operators(e, backward=True)
        for s_f, s_b in zip(forward, backward):
            assert_relative(s_b, s_f.conj().T, rtol=1e-15)

    def test_propagator_adjoint_is_the_backward_sweep(self, case):
        basis, field, targets = case
        d = basis.n_states
        frame = InteractionFrame(basis, field.dt)
        u = sweep(frame, np.eye(d, dtype=complex), field.samples)
        got = u.conj().T @ targets
        assert np.abs(got - targets).max() > 1e-2   # the field moves the multipliers
        assert_relative(got, sweep(frame, targets, field.samples, backward=True), rtol=1e-13)


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

    def test_matches_exact_held_sample_product_at_desk(self, desk_basis, desk_converged):
        """The converged desk P field (10,000 steps) against the exact
        product of the held-sample model: 5.8e-9 max |dU| measured, all
        RK4 truncation, against O(1) for a wrong frame phase, sample or end
        rotation."""
        field, _ = desk_converged["P"]
        want = held_sample_propagator(desk_basis, field.samples, field.dt)[:4, :4]
        assert np.abs(evolution_operator(field, desk_basis, 4) - want).max() <= 1e-8

    def test_matches_exact_held_sample_product_at_paper_size(self, paper_basis):
        """2,000 steps of the paper guess field around the peak of its
        envelope, where the gate moves furthest from the identity: 1.6e-9
        max |dU| measured."""
        guess = make_guess_field(paper_basis, OctConfig(t_pulse=96e-6 / TIME_AU_S,
                                                        dt=960e-12 / TIME_AU_S, alpha0=1e15))
        field = ControlField(guess.samples[49_000:51_001], guess.dt)
        want = held_sample_propagator(paper_basis, field.samples, field.dt)[:16, :16]
        assert np.abs(want - np.eye(16)).max() > 0.5
        assert np.abs(evolution_operator(field, paper_basis, 16) - want).max() <= 3e-9

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

    def test_rejects_deltas_selecting_no_transition(self, desk_basis):
        """A library call that no `RunConfig.validate` guards: delta 9 of 8
        states is refused by name, not by an IndexError."""
        with pytest.raises(ValidationError, match=r"deltas \(9,\) select no transition "
                                                  r"among the 8 dynamical states"):
            build_dissipation(desk_basis, 1e-18, deltas=(9,))


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
        diss = DissipationModel(gamma, 0.0)
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
        return DissipationModel(gamma, 0.0)

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
            self.assert_advances_agree(lindblad, superop, x)

    def assert_advances_agree(self, lindblad, superop, x):
        """One forward-update step of the stack x, paired with the
        multipliers eta, by the coordinate bracket of the superoperator and
        the matrix bracket of the per-matrix kernel under one field after
        another: the corrected samples and the stepped states agree at
        1e-12 relative."""
        eta = coordinate_rows(self.hermitian_stack(5))
        runs = []
        for bracket, kernel in ((_matrix_bracket(lindblad), lindblad),
                                (_coordinate_bracket(superop), superop)):
            y = kernel.rotate_in(x, 0)
            states = np.stack([y, np.full_like(y, np.nan)])
            runs.append((bracket(kernel.rotate_in(eta, 0)[None], states), states))
        (matrix, matrix_states), (coordinate, states) = runs
        scale = 1e-12 / matrix(0, 0.0, -1.0)
        for e in self.FIELDS:
            want_e, got_e = matrix(0, e, scale), coordinate(0, e, scale)
            assert abs(got_e - want_e) <= 1e-12 * abs(want_e) and got_e != e
            assert_relative(superop.rotate_out(states[1], 0),
                            lindblad.rotate_out(matrix_states[1], 0))

    @pytest.mark.parametrize("adjoint, backward", [(False, False), (True, True)])
    def test_sweep_with_partial_block(self, desk_basis, diss, adjoint, backward):
        """37 steps, two blocks of step matrices and a partial one, as the
        optimizer sweeps them, with snapshots every 5 steps forward (only a
        forward sweep stores them)."""
        frame = InteractionFrame(desk_basis, self.DT)
        lindblad = Lindblad(frame, diss, adjoint)
        samples = np.r_[np.random.default_rng(3).uniform(-1.5e-11, 1.5e-11, 37), 0.0]
        x = coordinate_rows(self.hermitian_stack(2) / 8)
        stored = {}
        finals = {}
        for name, kernel in (("matrix", lindblad), ("superop", LindbladSuperoperator(lindblad))):
            stored[name] = None if backward else np.empty((37 // 5 + 1, 5, 64))
            finals[name] = sweep(kernel, x, samples, backward, 5, stored[name])
        assert_relative(finals["superop"], finals["matrix"])
        if not backward:
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


class TestRotationAtZero:
    """At t = 0 every kernel's frame rotation is a copy of its input, equal
    bit for bit to the rotation by the t = 0 tables, whose entries are
    exactly 1, and sharing no memory with it: `_forward_update` steps into
    the states it rotates in, so a rotation that returned its input would
    overwrite the optimizer's initial states.  The copy is C-contiguous,
    as the `np.dot` that steps into it needs; a rotation in is so also of
    a Fortran-ordered input.  The conjugation tables are built once per
    half index and read-only."""

    DT = 2e-9 / TIME_AU_S

    @pytest.fixture(scope="class")
    def frame(self, desk_basis):
        return InteractionFrame(desk_basis, self.DT)

    @pytest.fixture(scope="class")
    def lindblad(self, frame, desk_basis):
        return Lindblad(frame, build_dissipation(desk_basis, 1e-17))

    @staticmethod
    def coordinates(seed):
        return coordinate_rows(TestLindbladSuperoperator.hermitian_stack(seed))

    @staticmethod
    def assert_copy(got, want, x):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous
        assert not np.shares_memory(got, x)

    def test_closed(self, frame):
        x = random_columns(8, 5, seed=21)
        want = frame.phases(0)[:, None] * x
        self.assert_copy(frame.rotate_in(x, 0), want, x)
        self.assert_copy(frame.rotate_out(x, 0), want, x)

    def test_superoperator(self, frame, lindblad):
        superop = LindbladSuperoperator(lindblad)
        c = self.coordinates(22)
        want = turn_coordinates(c.reshape(5, 8, 8), frame.conjugation(0)).reshape(c.shape)
        self.assert_copy(superop.rotate_in(c, 0), want, c)
        self.assert_copy(superop.rotate_out(c, 0), want, c)

    def test_per_matrix(self, frame, lindblad):
        c = self.coordinates(23)
        table = frame.conjugation(0)
        want_y = hermitian_matrices(c.reshape(5, 8, 8)) * table
        self.assert_copy(lindblad.rotate_in(c, 0), want_y, c)
        y = TestLindbladSuperoperator.hermitian_stack(24)
        want_c = hermitian_coordinates(y * table).reshape(5, -1)
        self.assert_copy(lindblad.rotate_out(y, 0), want_c, y)

    def test_rotation_in_of_a_fortran_ordered_input(self, frame, lindblad):
        x = np.asfortranarray(random_columns(8, 5, seed=21))
        self.assert_copy(frame.rotate_in(x, 0), frame.phases(0)[:, None] * x, x)
        c = np.asfortranarray(self.coordinates(22))
        table = frame.conjugation(0)
        want = turn_coordinates(c.reshape(5, 8, 8), table).reshape(c.shape)
        self.assert_copy(LindbladSuperoperator(lindblad).rotate_in(c, 0), want, c)
        self.assert_copy(lindblad.rotate_in(c, 0), hermitian_matrices(c.reshape(5, 8, 8)) * table,
                         c)

    @pytest.mark.parametrize("half_idx", [0, 2, -2, 40, -40])
    def test_conjugation_tables_are_cached_read_only(self, frame, half_idx):
        table = frame.conjugation(half_idx)
        assert frame.conjugation(half_idx) is table
        w = np.subtract.outer(frame.energies, frame.energies)
        assert table.tobytes() == np.exp(1j * (half_idx * (frame.dt / 2.0)) * w).tobytes()
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    @pytest.mark.parametrize("kind", ["closed", "superoperator", "per-matrix"])
    def test_forward_update_leaves_its_initial_states(self, frame, desk_basis, kind):
        """A forward update of 20 steps from initial states psi, with
        multipliers lam, returns a new field and new states and leaves psi
        and lam as they were."""
        if kind == "closed":
            kernel = adjoint = frame
            psi, lam = random_columns(8, 5, seed=25), random_columns(8, 5, seed=26)
            bracket = _closed_bracket(frame, "P")
        else:
            diss = build_dissipation(desk_basis, 1e-17)
            kernel, adjoint = (Lindblad(frame, diss, flip) for flip in (False, True))
            if kind == "superoperator":
                kernel, adjoint = LindbladSuperoperator(kernel), LindbladSuperoperator(adjoint)
                bracket = _coordinate_bracket(kernel)
            else:
                bracket = _matrix_bracket(kernel)
            psi, lam = self.coordinates(25) / 16, self.coordinates(26) / 16
        kept = psi.copy(), lam.copy()
        samples = np.r_[np.random.default_rng(27).uniform(-1.5e-11, 1.5e-11, 20), 0.0]
        field, final = _forward_update(kernel, adjoint, np.full(21, 1e-15), psi, lam, samples,
                                       bracket)
        assert psi.tobytes() == kept[0].tobytes() and lam.tobytes() == kept[1].tobytes()
        assert np.abs(field - samples).max() > 0
        assert final.shape == psi.shape and np.abs(final - psi).max() > 0


class TestStepBlocks:
    """`step_blocks` writes every block of a sweep into one buffer: each
    block it yields holds, bit for bit, what a fresh `operators` call on the
    same samples gives, and the blocks after the first full one share its
    memory.  37 steps: two full blocks and a partial one, which comes first
    backward."""

    DT = 2e-9 / TIME_AU_S

    @pytest.fixture(scope="class", params=["closed", "superoperator", "per-matrix"])
    def kernel(self, request, desk_basis):
        frame = InteractionFrame(desk_basis, self.DT)
        lindblad = Lindblad(frame, build_dissipation(desk_basis, 1e-17))
        return {"closed": frame, "superoperator": LindbladSuperoperator(lindblad),
                "per-matrix": lindblad}[request.param]

    @pytest.mark.parametrize("backward", [False, True])
    def test_blocks_are_fresh_operators_in_one_buffer(self, kernel, backward):
        samples = np.r_[np.random.default_rng(4).uniform(-1.5e-11, 1.5e-11, 37), 0.0]
        assert 37 % BLOCK_STEPS
        seen, blocks = [], []
        for steps, ops in step_blocks(kernel, samples, backward):
            lo, hi = min(steps), max(steps) + 1
            want = kernel.operators(samples[lo:hi], backward)
            want = want[::-1] if backward else want
            assert ops.shape == want.shape and ops.tobytes() == want.tobytes()
            seen.extend(steps)
            blocks.append(ops)
        assert seen == sorted(seen, reverse=backward) == sorted(range(37), reverse=backward)
        assert len(blocks) == 3
        assert np.shares_memory(blocks[2], blocks[1])
        assert np.shares_memory(blocks[1], blocks[0]) != backward


def matmul_kernel(kernel):
    """(operators, step, fresh_step) of kernel by `np.matmul` expressions:
    powers @ C, which `operators` also takes by `np.matmul`, and those its
    per-step `np.dot` products replaced, s @ y, y + y @ s, and the
    per-matrix RK4 over the rates from y @ K^dag and the population
    transfer, with its rotation.  fresh_step(y, e) is
    the step under the held field e: for the step-matrix kernels by the
    operator the update bracket builds from the powers of e, for the
    per-matrix kernel by its operators.  The per-matrix operators take no
    product."""
    if isinstance(kernel, Lindblad):
        d = len(kernel.frame.energies)

        def rhs(y, kdag):
            c = (y.reshape(-1, d) @ kdag).reshape(y.shape)
            dy = -c - c.conj().swapaxes(-1, -2)
            diag = y.reshape(-1, d * d)[:, ::d + 1].real
            dy.reshape(-1, d * d)[:, ::d + 1] += diag @ kernel._transfer
            return dy

        def step(y, kdag, backward=False):
            h = -kernel.frame.dt if backward else kernel.frame.dt
            k1 = rhs(y, kdag[0])
            k2 = rhs(y + 0.5 * h * k1, kdag[1])
            k3 = rhs(y + 0.5 * h * k2, kdag[1])
            k4 = rhs(y + h * k3, kdag[2])
            return (y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)) * kernel._rotations[backward]

        def fresh_step(y, e):
            return step(y, kernel.operators([e])[0])

        return kernel.operators, step, fresh_step

    def operators(e, backward=False):
        powers = np.asarray(e, dtype=float)[:, None] ** np.arange(5)
        return kernel._as_operators(powers @ kernel._coefficients_of(backward))

    if isinstance(kernel, InteractionFrame):
        def step(y, s, backward=False):
            return s @ y
    else:
        def step(y, s, backward=False):
            return y + y @ s

    def fresh_step(y, e):
        powers = np.array((1.0, e, e * e, e ** 3, e ** 4))
        return step(y, kernel._as_operators(powers @ kernel._coefficients_of(False)))

    return operators, step, fresh_step


class TestKernelContract:
    """What `_forward_update` asks of every kernel and of the update
    bracket that serves it (`oct`), at desk and at paper size: `step_rows`
    steps row i into row i + 1 bit for bit as step(rows[i], ops[i]) does,
    and the bracket's `advance` steps the states into the spare buffer as
    step(y, operators([e])[0]) does under the corrected sample e it
    returns, under one field after another, so the reused one-step buffer
    of the kernel, the bracket's own buffers and the spare states are
    overwritten, never stale.  Those are the into-buffer paths of the two
    step-matrix kernels, whose `step` returns a new array.  The per-matrix
    `step` also writes into out, as its `step_rows` and its bracket call
    it: step(y, op, out=buf) returns buf, holding bit for bit what
    step(y, op) gives.  The superoperator is built at D = 32 too, above the
    dimension `lindblad_kernel` gives it."""

    DT = 2e-9 / TIME_AU_S
    FIELDS = (0.0, 8e-12, -1.5e-11)

    @pytest.fixture(scope="class", params=[8, 32], ids=["D8", "D32"])
    def basis(self, request):
        return request.getfixturevalue("desk_basis" if request.param == 8 else "paper_basis")

    @pytest.fixture(scope="class", params=["closed", "superoperator", "per-matrix"])
    def case(self, request, basis):
        """(kernel, y, the update bracket of `oct` that serves kernel)."""
        d = basis.n_states
        frame = InteractionFrame(basis, self.DT)
        if request.param == "closed":
            return frame, random_columns(d, 5, seed=11), _closed_bracket(frame, "P")
        rng = np.random.default_rng(12)
        gamma = rng.uniform(0.0, 2e-9, size=(d, d))
        np.fill_diagonal(gamma, 0.0)
        lindblad = Lindblad(frame, DissipationModel(gamma, 0.0), adjoint=True)
        x = rng.normal(size=(5, d, d)) + 1j * rng.normal(size=(5, d, d))
        x = coordinate_rows(x + x.conj().swapaxes(-1, -2))
        if request.param == "superoperator":
            superop = LindbladSuperoperator(lindblad)
            return superop, x, _coordinate_bracket(superop)
        return lindblad, lindblad.rotate_in(x, 0), _matrix_bracket(lindblad)

    @staticmethod
    def advance(case):
        """(advance, states, w): step 0 of a one-step block of the case's
        bracket, paired with multipliers 2 y, which steps states[0] = y
        into states[1], filled with NaN, and a weight w that moves every
        sample by 1e-12 against the pairing."""
        kernel, y, bracket = case
        states = np.stack([y, np.full_like(y, np.nan)])
        advance = bracket(2 * y[None], states)
        return advance, states, 1e-12 / advance(0, 0.0, -1.0)

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("basis", [8, 32], ids=["D8", "D32"], indirect=True)
    @pytest.mark.parametrize("case", ["per-matrix"], indirect=True)
    def test_step_into_out(self, case, backward):
        kernel, y, _ = case
        for e in self.FIELDS:
            op = kernel.operators([e], backward)[0]
            buf = np.empty_like(y)
            got = kernel.step(y, op, backward, out=buf)
            assert got is buf
            assert got.tobytes() == kernel.step(y, op, backward).tobytes()

    def test_step_rows(self, case):
        kernel, y, _ = case
        ops = kernel.operators(self.FIELDS)
        rows = np.stack([y] * (len(ops) + 1))
        kernel.step_rows(rows, ops)
        for i, op in enumerate(ops):
            assert rows[i + 1].tobytes() == kernel.step(rows[i], op).tobytes()

    def test_successive_fresh_steps(self, case):
        kernel, y, _ = case
        advance, states, w = self.advance(case)
        for e in self.FIELDS:
            e_new = advance(0, e, w)
            assert abs(e_new - (e - 1e-12)) <= 1e-24
            assert_relative(states[1], kernel.step(y, kernel.operators([e_new])[0]), rtol=1e-15)

    def test_fresh_step_into_out(self, case):
        """Successive fields through the same buffers step as a fresh
        bracket on fresh buffers does, bit for bit."""
        advance, states, w = self.advance(case)
        for e in self.FIELDS:
            got = advance(0, e, w)
            fresh, fresh_states, _ = self.advance(case)
            assert got == fresh(0, e, w)
            assert states[1].tobytes() == fresh_states[1].tobytes()

    def test_products_match_the_matmul_expressions(self, case):
        """Old-vs-new pin of the per-step products, one `np.dot` each, against
        the `np.matmul` expressions they replaced (`matmul_kernel`): step in
        both directions (its out path is `test_step_into_out`) and
        successive fresh steps, and the block operators, one `np.matmul`,
        with and without out, to 1e-15 relative.  With
        numpy 2.4.6 and OpenBLAS 0.3.31 on a 2-vCPU x86-64 host every
        result is also bit-identical."""
        kernel, y, _ = case
        operators, step, fresh_step = matmul_kernel(kernel)
        for backward in (False, True):
            want_ops = operators(self.FIELDS, backward)
            assert_relative(kernel.operators(self.FIELDS, backward), want_ops, rtol=1e-15)
            buf = kernel.operators(self.FIELDS, backward, out=np.empty_like(want_ops))
            assert_relative(buf, want_ops, rtol=1e-15)
            for op in want_ops:
                want = step(y, op, backward)
                assert_relative(kernel.step(y, op, backward), want, rtol=1e-15)
        advance, states, w = self.advance(case)
        for e in self.FIELDS:
            e_new = advance(0, e, w)
            assert_relative(states[1], fresh_step(y, e_new), rtol=1e-15)
