"""Ion-state propagation under the control field.

Closed-system amplitudes follow the interaction-picture equation

    dc_j/dt = (i/hbar) E(t) sum_k mu_jk exp(i w_jk t) c_k

and density matrices the Lindblad master equation; for the jump operators
|j><k| the dissipator is identical in the interaction and Schroedinger
pictures, so the frame change touches only the driving term.  Everything,
the optimizer in `oct` and the fidelity trace in `analysis` included, is
integrated by classical fourth-order Runge-Kutta in one `InteractionFrame`.

Closed kernel.  With the field held over a step, mu_I(t_n + s) =
P_n mu_I(s) P_n^*, P_n = exp(i E t_n), so in the rotating variable
y = exp(-i E t) x one RK4 step is exactly y <- sum_k e_n^k C_k y, with five
constant matrices C_k per direction: the step operators of an
`InteractionFrame`, one matmul per step on amplitude columns.  The powers
of e_n are real, so S = sum_k e_n^k C_k is one real product with the real
view of the C_k, for a block of samples or for the one sample the
optimizer has just corrected.

Lindblad kernel.  The dissipator commutes with conjugation by P_n, so
density matrices step in y = P_n^* rho P_n by RK4 with the three constant
stage dipoles mu_I(0), mu_I(h/2), mu_I(h), then one elementwise rotation
exp(-i (E_j - E_k) h).  Every stack propagated is Hermitian, so each stage
is one product c = y K^dag and the rate -(c + c^dag) plus the population
transfer (`Lindblad.rhs`); the step operators of a `Lindblad` generator or
its adjoint are the K^dag of the three stages.

Both kernels offer the same methods: `operators` for a block of held
samples, `step` with one of them, `fresh_step` under a sample the
optimizer has just corrected, and `rotate_in`/`rotate_out` between x and
y.  One `sweep` integrates either through a pulse, and `step_blocks` is
the one block loop it shares with the optimizer's forward update.

Pulse maps.  Every pulse of a train replays the same waveform in the
rotating frame, so `simulate` and the fidelity trace build each pulse's
map once and apply it by products.  `ClosedPulseMap` is one sweep of the D
identity columns with snapshots, U(t_k) over the pulse (16 MB at paper
size with 1,000 snapshots).  `LindbladPulseMap` holds the Lindblad pulse
Phi, real-linear on Hermitian matrices, as one real (D^2, D^2) matrix on
`hermitian_coordinates` (Re on and above the diagonal, Im of the upper
triangle mirrored below it), built by sweeping the D^2 Hermitian units
E_jj, H = E_jk + E_kj and B = i (E_jk - E_kj), 64 at a time.  At paper
size that is a 1024^2 matrix (8 MB) from 16 sweeps of 64 units, 1 MB per
stack.  Both apply the end-of-pulse checks of `propagate_tdse` and
`propagate_lindblad` to every pulse.

Field convention.  The field is held constant over every time step:
sample n drives step n, from t_n to t_n + dt, and the last sample closes
the record without driving.  The optimizer's monotonic scheme is derived
for this rule, so the fidelity it reports is the one `evolution_operator`
measures, and `simulate` reads it off its `ClosedPulseMap` by the same
column-norm check.  Only `step_blocks` and the optimizer's forward update
apply it; every caller passes plain samples.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .trap import EigenBasis
from .units import FIELD_AU_V_PER_M, TIME_AU_S

NORM_DRIFT_TOL = 1e-8
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8    # how far below 0 a density-matrix eigenvalue may lie
MAP_UNITS = 64     # Hermitian units per sweep of a `LindbladPulseMap`: 1 MB
                   # at D = 32, where on a 2-vCPU host the 1024 units step in
                   # 42 ms in blocks of 64, and in 68 ms with 180 MB of
                   # working set as one stack
BLOCK_STEPS = 16   # steps per block of precomputed step operators, and of
                   # the optimizer's prepared multipliers; at D = 32, 256 KB
                   # of closed step matrices (64 steps, 1 MB, adds 1.4 MB
                   # to the peak RSS of a paper-size optimize), 420 KB of
                   # closed multipliers and bras, and 9 MB of Lindblad ones


@dataclass
class ControlField:
    """Uniformly sampled real field E(t_i), atomic units.

    Sample n drives step n of the propagators, held over [t_n, t_n + dt];
    the last sample closes the record without driving."""

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or len(self.samples) < 2:
            raise ValidationError("field needs at least two samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValidationError("field samples must be finite")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValidationError("sample spacing must be positive and finite")

    @property
    def t_pulse(self) -> float:
        return (len(self.samples) - 1) * self.dt

    @property
    def n_steps(self) -> int:
        return len(self.samples) - 1

    def times(self) -> np.ndarray:
        return np.arange(len(self.samples)) * self.dt

    def fluence(self) -> float:
        """Integral of E^2 dt over the pulse (trapezoid)."""
        return float(np.trapezoid(self.samples**2, dx=self.dt))

    def peak_v_per_m(self) -> float:
        return float(np.abs(self.samples).max() * FIELD_AU_V_PER_M)


def density_matrix_fault(rho, trace: float = 1.0) -> str:
    """What keeps rho from being a density matrix of the given trace:
    Hermiticity, trace or positivity, checked in that order; "" if nothing.
    Every comparison fails on NaN."""
    herm_err = np.abs(rho - rho.conj().T).max()
    if not herm_err <= HERMITICITY_TOL:
        return f"Hermiticity error {herm_err:.2e}"
    trace_err = abs(np.trace(rho).real - trace)
    if not trace_err <= TRACE_TOL:
        return f"trace error {trace_err:.2e}"
    min_eig = np.linalg.eigvalsh(rho).min()
    if not min_eig >= -POSITIVITY_TOL:
        return f"minimum eigenvalue {min_eig:.2e}"
    return ""


@dataclass
class QuantumState:
    """Ion state in the eigenbasis: amplitude vector or density matrix."""

    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=complex)
        if self.data.ndim not in (1, 2):
            raise ValidationError("state must be a vector or a square matrix")
        if self.data.ndim == 2 and self.data.shape[0] != self.data.shape[1]:
            raise ValidationError("density matrix must be square")

    @property
    def is_matrix(self) -> bool:
        return self.data.ndim == 2

    @property
    def dim(self) -> int:
        return self.data.shape[0]

    def validate(self) -> None:
        if self.is_matrix:
            fault = density_matrix_fault(self.data)
            if fault:
                raise ValidationError(f"not a density matrix: {fault}")
        elif not abs(np.linalg.norm(self.data) - 1.0) <= NORM_DRIFT_TOL:
            raise ValidationError("state vector is not normalized")

    def to_matrix(self) -> "QuantumState":
        if self.is_matrix:
            return self
        return QuantumState(np.outer(self.data, self.data.conj()))


@dataclass
class DissipationModel:
    """Phenomenological heating model: rates gamma_jk = kappa |mu_jk|."""

    kappa: float
    pairs: np.ndarray            # (n_pairs, 2) ordered (j, k): jump |j><k|
    rates: np.ndarray            # (n_pairs,)
    gamma: np.ndarray            # (D, D) rate matrix, gamma[j, k] for |j><k|
    mean_rate: float             # arithmetic mean over the averaging pair set

    @property
    def mean_heating_time(self) -> float:
        """1/gamma_bar in a.u.; inf when all rates vanish."""
        return 1.0 / self.mean_rate if self.mean_rate > 0 else np.inf

    @property
    def mean_heating_time_s(self) -> float:
        t = self.mean_heating_time
        return t * TIME_AU_S if np.isfinite(t) else np.inf

    def total_out_rates(self) -> np.ndarray:
        """Gamma_k = sum_j gamma_jk, total departure rate from state k."""
        return self.gamma.sum(axis=0)


def build_dissipation(
    basis: EigenBasis, kappa: float, deltas=(1, 3), avg_states: int | None = None
) -> DissipationModel:
    """Rates for all |j-k| in deltas with j, k below the dynamical size.

    The mean heating rate is averaged over the pairs inside the
    computational window (avg_states, default the qubit count), the set the
    guess-field transitions are drawn from.
    """
    if kappa < 0:
        raise ValidationError("kappa must be non-negative")
    deltas = sorted({abs(int(d)) for d in deltas})
    if not deltas or deltas[0] == 0:
        raise ValidationError("deltas must be nonzero integers")
    d_size = basis.n_states
    if avg_states is None:
        avg_states = basis.n_qubits

    pairs = []
    rates = []
    gamma = np.zeros((d_size, d_size))
    for d in deltas:
        for j in range(d_size - d):
            k = j + d
            r = kappa * abs(basis.dipole[j, k])
            for a, b in ((j, k), (k, j)):
                pairs.append((a, b))
                rates.append(r)
                gamma[a, b] = r
    pairs = np.array(pairs, dtype=int)
    rates = np.array(rates)

    in_window = (pairs[:, 0] < avg_states) & (pairs[:, 1] < avg_states)
    mean_rate = float(rates[in_window].mean()) if in_window.any() else 0.0
    return DissipationModel(kappa, pairs, rates, gamma, mean_rate)


class InteractionFrame:
    """Phases exp(i E_j t) of a basis on the half-step grid t = h dt / 2,
    h an integer, the stage dipoles of one RK4 step, and the closed kernel:
    RK4 steps of amplitude columns in the rotating variable y = exp(-i E t) x."""

    _POWERS = np.arange(5)   # the k of e^k C_k, hoisted: np.arange costs ~1 us a call

    def __init__(self, basis: EigenBasis, dt: float):
        self.energies = basis.energies
        self.mu = basis.dipole
        self.dt = dt
        self._stages = {}
        self._coefficients = {}

    def phases(self, half_idx) -> np.ndarray:
        """exp(i E t) at t = half_idx dt / 2, one row per half-step index."""
        t = np.asarray(half_idx) * (self.dt / 2.0)
        return np.exp(1j * np.multiply.outer(t, self.energies))

    def conjugation(self, half_idx) -> np.ndarray:
        """exp(i (E_j - E_k) t) at t = half_idx dt / 2, so that P x P^* is
        x times it elementwise.  It is Hermitian in floating point, and so
        keeps a Hermitian x exactly Hermitian."""
        w = np.subtract.outer(self.energies, self.energies)
        return np.exp(1j * (half_idx * (self.dt / 2.0)) * w)

    def stage_dipoles(self, backward: bool = False) -> np.ndarray:
        """mu_I(0), mu_I(h/2), mu_I(h) as a (3, D, D) array, h = -dt if
        backward else dt; built once per direction."""
        mu_s = self._stages.get(backward)
        if mu_s is None:
            sign = -1 if backward else 1
            p = self.phases([0, sign, 2 * sign])
            mu_s = self._stages[backward] = p[:, :, None] * self.mu * p.conj()[:, None, :]
        return mu_s

    def operators(self, e, backward: bool = False) -> np.ndarray:
        """RK4 step matrices S = sum_k e^k C_k, one per held field value in e.

        y <- S y is one step of y, toward earlier times if backward.  The C_k
        hold the RK4 polynomial in (i h mu_I(s))^k, s = 0, h/2, h, times the
        frame phase exp(-i E h); they are built once per direction."""
        e = np.asarray(e, dtype=float)
        return self._step_matrices(e[:, None] ** self._POWERS, backward)

    def _step_matrices(self, powers, backward: bool) -> np.ndarray:
        """sum_k e^k C_k for real powers (..., 5) of e: one real product
        with the real view of the C_k, half the work of a complex one."""
        c = self._coefficients.get(backward)
        if c is None:
            c = self._coefficients[backward] = self._rk4_coefficients(backward).view(float)
        d = len(self.energies)
        return (powers @ c).view(complex).reshape(powers.shape[:-1] + (d, d))

    def _rk4_coefficients(self, backward: bool) -> np.ndarray:
        """C_0..C_4 of `operators`, flattened to (5, D^2)."""
        h = -self.dt if backward else self.dt
        m0, mh, m1 = 1j * h * self.stage_dipoles(backward)
        mh2 = mh @ mh
        b = np.array([
            np.eye(len(self.energies)),
            (m0 + 4 * mh + m1) / 6,
            (mh @ m0 + mh2 + m1 @ mh) / 6,
            (mh2 @ m0 + m1 @ mh2) / 12,
            m1 @ mh2 @ m0 / 24,
        ])
        p_end = self.phases(-2 if backward else 2)
        return (p_end.conj()[:, None] * b).reshape(5, -1)

    def step(self, y, s, backward=False):
        """One step of the columns y with the step matrix s."""
        return s @ y

    def fresh_step(self, y, e, mu_y):
        """One forward step of y under the held field e, a Python float
        (mu_y unused): S(e) built from its powers, then S y."""
        return self._step_matrices(np.array((1.0, e, e * e, e ** 3, e ** 4)), False) @ y

    def rotate_in(self, x, half_idx):
        """y = exp(-i E t) x at t = half_idx dt / 2."""
        return self.phases(half_idx).conj()[:, None] * x

    def rotate_out(self, y, half_idx):
        """x = exp(i E t) y at t = half_idx dt / 2."""
        return self.phases(half_idx)[:, None] * y


class Lindblad:
    """Lindblad generator with jump operators sqrt(gamma_jk) |j><k|, or its
    adjoint with the sign flipped (so Tr(eta rho) stays constant when eta
    and rho move together), acting on stacks of Hermitian matrices in the
    rotating variable y = P_n^* x P_n of an `InteractionFrame`.

    At a stage dipole mu_s the generator is
        i E [mu_s, y] - {G, y} / 2 + transfer(diag y),   G = diag(Gamma_k),
    and the adjoint flips the sign of the last two terms.  For Hermitian y
    the first two are exactly -(c + c^dag) with c = y K^dag,
    K^dag = +-G/2 + i E mu_s, so one product per stage gives the rate."""

    def __init__(self, frame: InteractionFrame, diss: DissipationModel,
                 adjoint: bool = False):
        self.frame = frame
        self._half_rates = (-0.5 if adjoint else 0.5) * diss.total_out_rates()
        self._transfer = -diss.gamma if adjoint else diss.gamma.T
        self._rotations = {False: frame.conjugation(-2), True: frame.conjugation(2)}
        self._diag = slice(None, None, len(frame.energies) + 1)   # of a flattened D x D

    def operators(self, e, backward: bool = False) -> np.ndarray:
        """K^dag at the three stage dipoles, (n, 3, D, D), one row per held
        field value in e."""
        mu_s = 1j * self.frame.stage_dipoles(backward)
        return np.multiply.outer(np.asarray(e, dtype=float), mu_s) + np.diag(self._half_rates)

    def rhs(self, y, kdag):
        """dy/dt of a Hermitian stack y at one stage generator kdag."""
        d = y.shape[-1]
        return self._rate(y, (y.reshape(-1, d) @ kdag).reshape(y.shape))

    def _rate(self, y, c):
        """dy/dt of a Hermitian stack y from its product c = y K^dag."""
        dy = -c   # a new C-contiguous array, so the flattened diagonal is a view
        dy -= c.conj().swapaxes(-1, -2)
        d2 = y.shape[-1] ** 2
        dy.reshape(-1, d2)[:, self._diag] += y.reshape(-1, d2)[:, self._diag].real @ self._transfer
        return dy

    def step(self, y, kdag, backward=False):
        """One RK4 step of y over dt (-dt if backward) with the stage
        generators kdag, then the frame rotation."""
        return self._rk4(y, kdag, backward, self.rhs(y, kdag[0]))

    def fresh_step(self, y, e, y_mu):
        """One forward step of y under the held field e; at s = 0, mu_I = mu,
        so the first stage rate comes from the known product y_mu = y mu."""
        k1 = self._rate(y, y * self._half_rates + (1j * e) * y_mu)
        return self._rk4(y, self.operators([e])[0], False, k1)

    def _rk4(self, y, kdag, backward, k1):
        h = -self.frame.dt if backward else self.frame.dt
        k2 = self.rhs(y + 0.5 * h * k1, kdag[1])
        k3 = self.rhs(y + 0.5 * h * k2, kdag[1])
        k4 = self.rhs(y + h * k3, kdag[2])
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        y *= self._rotations[backward]
        return y

    def rotate_in(self, x, half_idx):
        """y = P^* x P at t = half_idx dt / 2; ValidationError unless x is
        Hermitian, as the one-product rate needs."""
        if not np.abs(x - np.swapaxes(x, -1, -2).conj()).max() <= HERMITICITY_TOL:
            raise ValidationError("the Lindblad sweep needs Hermitian matrices")
        return x * self.frame.conjugation(-half_idx)

    def rotate_out(self, y, half_idx):
        """x = P y P^* at t = half_idx dt / 2."""
        return y * self.frame.conjugation(half_idx)


def step_blocks(kernel, field, backward=False):
    """(steps, ops) for every block of up to BLOCK_STEPS steps of the sample
    array `field`, in sweep order: ops[i] is the step operator of sample
    steps[i], and blocks and steps run from the last step to the first if
    backward.  The last sample closes the record without driving."""
    drive = field[:-1]
    blocks = range(0, len(drive), BLOCK_STEPS)
    for a in reversed(blocks) if backward else blocks:
        ops = kernel.operators(drive[a:a + BLOCK_STEPS], backward)
        steps = range(a, a + len(ops))
        yield (steps[::-1], ops[::-1]) if backward else (steps, ops)


def sweep(kernel, x, field, backward=False, store_every=0, out=None):
    """Integrate x through the pulse of the sample array `field` with
    `kernel`, an `InteractionFrame` for amplitude columns (D, n) or a
    `Lindblad` generator for a Hermitian matrix or stack, from the pulse's
    end to its start if backward.  The sweep runs in the kernel's rotating
    variable y.  With `out`, slot 0 holds x and slot k the state after
    k store_every steps, rotated back to x like the result."""
    n_steps = len(field) - 1
    y = kernel.rotate_in(x, 2 * n_steps if backward else 0)
    if out is not None:
        out[0] = x
    step = kernel.step
    for steps, ops in step_blocks(kernel, field, backward):
        for n, op in zip(steps, ops):
            y = step(y, op, backward)
            if out is not None:
                t = n if backward else n + 1
                done = n_steps - t if backward else t
                if done % store_every == 0:
                    out[done // store_every] = kernel.rotate_out(y, 2 * t)
    return kernel.rotate_out(y, 0 if backward else 2 * n_steps)


def _snapshots(fieldspec: ControlField, store_every: int, shape: tuple):
    """Times and an empty buffer for a snapshot before the first step and
    after every store_every steps; none when store_every is 0."""
    n_stored = fieldspec.n_steps // store_every + 1 if store_every else 0
    times = np.arange(n_stored) * store_every * fieldspec.dt
    return times, np.empty((n_stored,) + shape, dtype=complex)


def _check_norm(final, initial):
    """NumericalError if one pulse changed the norm of an amplitude vector
    beyond tolerance."""
    drift = abs(np.linalg.norm(final) - np.linalg.norm(initial))
    if not drift <= NORM_DRIFT_TOL:
        raise NumericalError(
            f"norm drift {drift:.2e} over the pulse; reduce the time step"
        )


def _check_density(final, initial):
    """NumericalError unless one Lindblad pulse left a density matrix of the
    initial trace (`density_matrix_fault`)."""
    fault = density_matrix_fault(final, np.trace(initial).real)
    if fault:
        raise NumericalError(f"Lindblad step-size failure: {fault}")


def propagate_tdse(
    state: QuantumState,
    fieldspec: ControlField,
    basis: EigenBasis,
    store_every: int = 0,
):
    """Propagate an amplitude vector through one pulse.

    Returns (final QuantumState, times, stored) where `stored` is an array of
    amplitude snapshots every `store_every` steps (empty when 0).  Raises
    NumericalError if the norm drifts beyond tolerance.
    """
    if state.is_matrix:
        raise ValidationError("propagate_tdse expects an amplitude vector")
    state.validate()
    if state.dim != basis.n_states:
        raise ValidationError("state dimension does not match the basis")
    frame = InteractionFrame(basis, fieldspec.dt)
    times, stored = _snapshots(fieldspec, store_every, (state.dim,))
    final = sweep(
        frame, state.data[:, None], fieldspec.samples,
        store_every=store_every, out=stored[:, :, None] if store_every else None,
    )[:, 0]
    _check_norm(final, state.data)
    return QuantumState(final), times, stored


def evolution_operator(
    fieldspec: ControlField, basis: EigenBasis, n_states: int
) -> np.ndarray:
    """Realized gate P U(t_pulse) P on the first n_states (may be sub-unitary)."""
    if n_states > basis.n_states:
        raise ValidationError("n_states exceeds the dynamical basis")
    frame = InteractionFrame(basis, fieldspec.dt)
    cols = np.zeros((basis.n_states, n_states), dtype=complex)
    cols[:n_states, :n_states] = np.eye(n_states)
    return _gate_block(sweep(frame, cols, fieldspec.samples), n_states)


def _gate_block(u, n_states):
    """The first n_states rows of the first n_states columns of the
    propagated basis columns u; NumericalError if the norm of one of those
    columns drifted beyond tolerance."""
    col_norms = np.linalg.norm(u[:, :n_states], axis=0)
    if not np.abs(col_norms - 1.0).max() <= NORM_DRIFT_TOL:
        raise NumericalError("column norm drift beyond tolerance in gate propagation")
    return u[:n_states, :n_states]


def propagate_lindblad(
    state: QuantumState,
    fieldspec: ControlField,
    basis: EigenBasis,
    diss: DissipationModel,
    store_every: int = 0,
):
    """Propagate a density matrix through one pulse with dissipation.

    Returns (final QuantumState, times, stored snapshots).  Trace and
    positivity are enforced as hard checks at the end of the pulse by
    `density_matrix_fault`.  Its Hermiticity check reads exactly 0 for a
    Hermitian start, because every stage of the `Lindblad` kernel is
    Hermitian in floating point; it stays as a guard on the result.
    """
    rho_state = state.to_matrix()
    rho_state.validate()
    if rho_state.dim != basis.n_states:
        raise ValidationError("state dimension does not match the basis")
    frame = InteractionFrame(basis, fieldspec.dt)
    times, stored = _snapshots(fieldspec, store_every, (rho_state.dim,) * 2)
    final = sweep(
        Lindblad(frame, diss), rho_state.data, fieldspec.samples,
        store_every=store_every, out=stored if store_every else None,
    )
    _check_density(final, rho_state.data)
    return QuantumState(final), times, stored


def hermitian_coordinates(x) -> np.ndarray:
    """Real coordinates of Hermitian matrices x (..., D, D), in the same
    shape: Re x_jk on and above the diagonal and, at (k, j) below it,
    Im x_jk.  Flattened row-major, coordinate j D + k weighs the Hermitian
    unit E_jj (j = k) or H = E_jk + E_kj (j < k), and k D + j weighs
    B = i (E_jk - E_kj)."""
    d = x.shape[-1]
    return np.where(np.tri(d, k=-1, dtype=bool), -x.imag, x.real)


def hermitian_matrices(c) -> np.ndarray:
    """The Hermitian matrices whose coordinates (`hermitian_coordinates`)
    are c (..., D, D)."""
    below = np.tri(c.shape[-1], k=-1, dtype=bool)
    im = c * below
    return np.where(below, np.swapaxes(c, -1, -2), c) + 1j * (np.swapaxes(im, -1, -2) - im)


class ClosedPulseMap:
    """The closed evolution operators of one pulse from one sweep of the D
    identity columns: U(t_k) at the snapshot times (every store_every
    steps, none when 0) and U(t_pulse).

    Every pulse of a train replays the waveform in the rotating frame from
    t = 0, so each pulse of any state is a product with them."""

    def __init__(self, fieldspec: ControlField, basis: EigenBasis, store_every: int = 0):
        d = basis.n_states
        self.t_pulse = fieldspec.t_pulse
        self.times, self.snapshots = _snapshots(fieldspec, store_every, (d, d))
        self.final = sweep(
            InteractionFrame(basis, fieldspec.dt), np.eye(d, dtype=complex),
            fieldspec.samples, store_every=store_every,
            out=self.snapshots if store_every else None,
        )

    def gate(self, n_states) -> np.ndarray:
        """P U(t_pulse) P on the first n_states, as `evolution_operator`
        gives it, with its column-norm check."""
        return _gate_block(self.final, n_states)

    def unitarity_drift(self) -> float:
        """max |U^dag U - I| of U(t_pulse)."""
        u = self.final
        return float(np.abs(u.conj().T @ u - np.eye(len(u))).max())

    def apply(self, state):
        """(amplitudes after the pulse, their snapshots) of an amplitude
        vector; NumericalError on norm drift, as in `propagate_tdse`."""
        final = self.final @ state
        _check_norm(final, state)
        return final, self.snapshots @ state


class LindbladPulseMap:
    """One Lindblad pulse Phi as one real (D^2, D^2) matrix on Hermitian
    coordinates.

    Phi keeps matrices Hermitian, so it is real-linear on them: with c the
    flattened `hermitian_coordinates`, c(Phi(x)) = c(x) @ matrix.  Row u of
    the matrix is c(Phi(unit u)), from a `sweep` of the D^2 Hermitian units
    (E_jj, H and B), MAP_UNITS at a time; every pulse of a train replays
    the waveform in the rotating frame, so a train costs one small real
    product per pulse.  At paper size (D = 32) the matrix is 1024^2 reals,
    8 MB, built by 16 sweeps of 64 units."""

    def __init__(self, fieldspec: ControlField, basis: EigenBasis, diss: DissipationModel):
        d = self.dim = basis.n_states
        units = hermitian_matrices(np.eye(d * d).reshape(d * d, d, d))
        lindblad = Lindblad(InteractionFrame(basis, fieldspec.dt), diss)
        final = np.concatenate([sweep(lindblad, units[a:a + MAP_UNITS], fieldspec.samples)
                                for a in range(0, d * d, MAP_UNITS)])
        self.matrix = hermitian_coordinates(final).reshape(d * d, d * d)

    def trace_drift(self) -> float:
        """max over the units u of |Tr Phi(u) - Tr u|."""
        d = self.dim
        unit_traces = np.eye(d).ravel()   # 1 for E_jj, 0 for H and B
        return float(np.abs(self.matrix[:, ::d + 1].sum(axis=1) - unit_traces).max())

    def apply(self, rho) -> np.ndarray:
        """The density matrix rho after the pulse; NumericalError unless it
        is one of the same trace, as in `propagate_lindblad`."""
        c = hermitian_coordinates(rho).ravel() @ self.matrix
        final = hermitian_matrices(c.reshape(rho.shape))
        _check_density(final, rho)
        return final
