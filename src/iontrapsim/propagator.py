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
y = exp(-i E t) x one RK4 step is exactly y <- S(e_n) y, with the step
matrix S(e) = sum_k e^k C_k of five constant C_k per direction: the
`InteractionFrame` kernel, one matmul per step on amplitude columns.

Lindblad kernels.  The dissipator commutes with conjugation by P_n, so
density matrices step in y = P_n^* rho P_n by RK4 with the three constant
stage dipoles mu_I(0), mu_I(h/2), mu_I(h), then one elementwise rotation
exp(-i (E_j - E_k) h).  One `Lindblad` generator (or its adjoint) defines
that step, and two kernels take it.  Per matrix: every stack propagated is
Hermitian, so each stage is one product c = y K^dag and the rate
-(c + c^dag) plus the population transfer (`Lindblad.rhs`); its step
operators are the K^dag of the three stages.  As a superoperator
(`LindbladSuperoperator`): on `hermitian_coordinates` each stage is the
real D^2 x D^2 matrix h (A + e B_s), so one step, rotation included, is
c <- c + c @ sum_k e^k C_k^L with five constant C_k^L per direction, built
from the generator by expanding the RK4 polynomial in e.  `lindblad_kernel`
picks the superoperator up to SUPEROPERATOR_MAX_DIM states, the measured
crossover (D = 8: 10 us per step of the optimizer's 5-matrix stack against
57 us per matrix), and the per-matrix kernel above it, at paper size too.

All three kernels offer the same methods: `operators` for a block of held
samples, `step(y, op, backward)` with one of them, `step_rows(rows, ops)`,
which steps rows[i] forward into rows[i + 1] with ops[i] for a whole
block in one call (the optimizer's multipliers), and
`rotate_in`/`rotate_out` between x and y.  At t = 0 the frame is the
identity, and a rotation there returns a copy of its input, never the
input itself: the optimizer's forward update steps into the states it
rotates in.  The conjugation tables of the Lindblad kernels are built
once per half index and kept read-only, since every optimizer iteration
asks again for those at the ends of the pulse.  Every product they take
once per step has 2-D operands and is one `np.dot`, which calls BLAS
directly, where the `np.matmul` ufunc resolves its loop on every call (a
closed D = 8 step into a buffer, 1.15 -> 0.96 us with one OpenBLAS
thread on a 2-vCPU x86-64 host); so a buffer it writes into must be
C-contiguous and of the result's dtype, or `np.dot` raises ValueError.
Products that broadcast over a stack stay `np.matmul`.  The two
step-matrix kernels share the methods (`_StepMatrices`): the powers of e
are real, so step operators are one real product with the cached C_k,
once per block.  That product is one `np.matmul`, which gives the same
bits as `np.dot` and builds the wide blocks faster: 16 steps of 64 x 64
superoperator increments, (16, 5) by (5, 4096), in 29 against 40 us, and
a paper closed block (5, 2048) in 17 against 24 us, though a desk closed
block (5, 128) takes 1.8 against 1.3 us (into the buffer, the same host
and thread).  Only the per-matrix `Lindblad.step` also writes into out=
(not y), for its `step_rows` and the optimizer.  The step under a sample
the optimizer has just corrected is taken by the optimizer's update bracket
(`oct`), in the same call that pairs and corrects: for the step-matrix
kernels it writes the one operator into a buffer the kernel owns
(`one_step_buffer`) and steps into the spare states with it, and for the
per-matrix kernel it calls `Lindblad.step` into them.  That buffer makes
a kernel non-reentrant: one kernel must not serve two forward updates
at once, from two threads say.
Density matrices enter and leave both Lindblad kernels as the rows
(..., D^2) of their `hermitian_coordinates`, which the superoperator turns
by the frame phases (`turn_coordinates`) and the per-matrix kernel
converts.  One `sweep` integrates any kernel through a pulse, and
`step_blocks` is the one block loop it shares with the forward update.
It writes the operators of every block of a sweep into one buffer
(`operators(..., out=)`), whose pages fault in once per sweep: glibc
hands a freed block-sized array back to the kernel, so a fresh one per
block would fault in again every BLOCK_STEPS steps (362 against 98 minor
faults per 80-step paper-size optimizer sweep).  Every sweep steps its
state one step operator at a time; forward sweeps must, so that
`evolution_operator` reads, bit for bit, the gate of the `ClosedPulseMap`
that `simulate` builds with snapshots.

Pulse maps.  Every pulse of a train replays the same waveform in the
rotating frame, so `simulate` and the fidelity trace build each pulse's
map once and apply it by products.  `ClosedPulseMap` is one forward
sweep of the D identity columns with snapshots, the only sweep that
stores them: U(t_k) over the pulse (16 MB at paper size with 1,000
snapshots).  `LindbladPulseMap` holds the Lindblad pulse
Phi, real-linear on Hermitian matrices, as one real (D^2, D^2) matrix on
`hermitian_coordinates` (Re on and above the diagonal, Im of the upper
triangle mirrored below it), built by sweeping the D^2 identity rows,
the Hermitian units E_jj, H = E_jk + E_kj and B = i (E_jk - E_kj), 64 at
a time, with the kernel `lindblad_kernel` picks: at desk size one sweep
of step matrices, at paper size a 1024^2 matrix (8 MB) from 16 sweeps of
64 units, 1 MB per stack.  `pulse_train` applies either map pulse after
pulse and renormalizes nothing; `apply` checks every pulse's result: the
norm of an amplitude vector, and the Hermiticity, trace and positivity of
a density matrix.  Drift beyond tolerance raises NumericalError.

Field convention.  The field is held constant over every time step:
sample n drives step n, from t_n to t_n + dt, and the last sample closes
the record without driving.  The optimizer's monotonic scheme is derived
for this rule, so the fidelity it reports is the one `evolution_operator`
measures, and `simulate` reads it off its `ClosedPulseMap` by the same
column-norm check.  Only `step_blocks` and the optimizer's forward update
apply it; every caller passes plain samples.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError
from .trap import EigenBasis, transition_table
from .units import FIELD_AU_V_PER_M

NORM_DRIFT_TOL = 1e-8
TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-8    # how far below 0 a density-matrix eigenvalue may lie
MAP_UNITS = 64     # Hermitian units per sweep of a `LindbladPulseMap`: 1 MB
                   # at D = 32, where on a 2-vCPU host the 1024 units step in
                   # 42 ms in blocks of 64, and in 68 ms with 180 MB of
                   # working set as one stack
BLOCK_STEPS = 16   # steps per block of precomputed step operators, and of
                   # the optimizer's prepared multipliers and bras, each kind
                   # one buffer per sweep; at D = 32, 256 KB of closed step
                   # matrices (64 steps, 1 MB, adds 1.4 MB to the peak RSS
                   # of a paper-size optimize), 145 KB of closed multipliers
                   # (BLOCK_STEPS + 1 rows) and 272 KB of bras, and 768 KB of
                   # per-matrix Lindblad operators with 4.5 MB of multipliers
                   # and 4.25 MB of their bras eta mu; at D = 8, 512 KB of
                   # 64 x 64 Lindblad step matrices
SUPEROPERATOR_MAX_DIM = 16   # largest D that `lindblad_kernel` steps as a
                   # `LindbladSuperoperator`.  Per step on a 2-vCPU host with
                   # one OpenBLAS thread (per-matrix / superoperator), stacks
                   # of D/2 + 1: D = 12 88 / 60 us, 16 148 / 135 us, 20 234 /
                   # 324-414 us; 64-unit map stacks: D = 16 750 / 275 us, 20
                   # 1,200 / 690 us.  The C_k take 5 ms per direction at
                   # D = 12, 17 ms at 16 and 44-56 ms at 20.


@dataclass(eq=False)
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


@dataclass(eq=False)
class DissipationModel:
    """Phenomenological heating model: rates gamma_jk = kappa |mu_jk|, kappa folded in."""

    gamma: np.ndarray            # (D, D) rate matrix, gamma[j, k] for the jump |j><k|
    mean_rate: float             # arithmetic mean over the averaging pair set

    def total_out_rates(self) -> np.ndarray:
        """Gamma_k = sum_j gamma_jk, total departure rate from state k."""
        return self.gamma.sum(axis=0)


def check_kappa(kappa: float) -> None:
    """The one check of a rate scale, run by `build_dissipation` and by
    `RunConfig.validate`: finite and non-negative."""
    if not 0.0 <= kappa < np.inf:
        raise ValidationError(f"kappa must be finite and non-negative, not {kappa!r}")


def build_dissipation(basis: EigenBasis, kappa: float, deltas=(1, 3)) -> DissipationModel:
    """Rates for all |j-k| in deltas with j, k below the dynamical size.

    The mean heating rate is averaged over the pairs inside the
    computational window (j, k below the qubit count), the set the
    guess-field transitions are drawn from.
    """
    check_kappa(kappa)
    pairs = []
    rates = []
    gamma = np.zeros((basis.n_states, basis.n_states))
    for j, k, _, dipole in transition_table(basis, deltas, basis.n_states):
        r = kappa * abs(dipole)
        for a, b in ((j, k), (k, j)):
            pairs.append((a, b))
            rates.append(r)
            gamma[a, b] = r
    if not pairs:
        raise ValidationError(f"deltas {tuple(deltas)} select no transition among the "
                              f"{basis.n_states} dynamical states")
    pairs = np.array(pairs, dtype=int)
    rates = np.array(rates)

    n = basis.n_qubits
    in_window = (pairs[:, 0] < n) & (pairs[:, 1] < n)
    mean_rate = float(rates[in_window].mean()) if in_window.any() else 0.0
    return DissipationModel(gamma, mean_rate)


class _StepMatrices:
    """A kernel whose RK4 step is one step operator S(e) = sum_k e^k C_k of
    the held field e.  A subclass gives its C_k as real rows (5, size)
    (`_rk4_coefficients`), reads sums of them as operators (`_as_operators`)
    and defines `step` and `rotate_out`."""

    _POWERS = np.arange(5)   # the k of e^k C_k, hoisted: np.arange costs ~1 us a call

    def __init__(self):
        self._coefficients = {}
        self._one_step = None   # forward C_k, the one-step buffer and its operator view

    def _coefficients_of(self, backward: bool) -> np.ndarray:
        c = self._coefficients.get(backward)
        if c is None:
            c = self._coefficients[backward] = self._rk4_coefficients(backward)
        return c

    def operators(self, e, backward: bool = False, out=None) -> np.ndarray:
        """The step operator of every held field value in e, toward earlier
        times if backward: sum_k e^k C_k, one real product of the powers of
        e with the C_k, built once per direction.  With out, a contiguous
        array of the operators' shape, the product is written into it."""
        powers = np.asarray(e, dtype=float)[:, None] ** self._POWERS
        c = self._coefficients_of(backward)
        if out is None:
            return self._as_operators(np.matmul(powers, c))
        np.matmul(powers, c, out=out.reshape(len(out), -1).view(float))
        return out

    def one_step_buffer(self):
        """(C, flat, s): the forward C_k (5, size), the kernel's one-step
        buffer and its operator view.  np.dot(powers, C, out=flat) makes s
        the forward step operator of the held field whose powers 1, e, e^2,
        e^3, e^4 are given, as the optimizer's forward update does once per
        step.  Built on the first call; every call returns the same buffer."""
        if self._one_step is None:
            c = self._coefficients_of(False)
            flat = np.empty(c.shape[1])
            self._one_step = c, flat, self._as_operators(flat)
        return self._one_step

    def rotate_in(self, x, half_idx):
        """The rotating variable y of x at t = half_idx dt / 2."""
        return self.rotate_out(x, -half_idx)


class InteractionFrame(_StepMatrices):
    """Phases exp(i E_j t) of a basis on the half-step grid t = h dt / 2,
    h an integer, the stage dipoles of one RK4 step, and the closed kernel:
    RK4 steps of amplitude columns in the rotating variable y = exp(-i E t) x
    by complex D x D step matrices, y <- S y.  The C_k hold the RK4
    polynomial in (i h mu_I(s))^k, s = 0, h/2, h, times the frame phase
    exp(-i E h); their real view halves the work of a complex product."""

    def __init__(self, basis: EigenBasis, dt: float):
        super().__init__()
        self.energies = basis.energies
        self.mu = basis.dipole
        self.dt = dt
        self._stages = {}
        self._conjugations = {}

    def phases(self, half_idx) -> np.ndarray:
        """exp(i E t) at t = half_idx dt / 2, one row per half-step index."""
        t = np.asarray(half_idx) * (self.dt / 2.0)
        return np.exp(1j * np.multiply.outer(t, self.energies))

    def conjugation(self, half_idx: int) -> np.ndarray:
        """exp(i (E_j - E_k) t) at t = half_idx dt / 2, so that P x P^* is
        x times it elementwise.  It is Hermitian in floating point, and so
        keeps a Hermitian x exactly Hermitian.  Built once per half index
        and kept read-only: every optimizer iteration asks again for the
        tables at the ends of the pulse."""
        w = self._conjugations.get(half_idx)
        if w is None:
            diff = np.subtract.outer(self.energies, self.energies)
            w = self._conjugations[half_idx] = np.exp(1j * (half_idx * (self.dt / 2.0)) * diff)
            w.flags.writeable = False
        return w

    def stage_dipoles(self, backward: bool = False) -> np.ndarray:
        """mu_I(0), mu_I(h/2), mu_I(h) as a (3, D, D) array, h = -dt if
        backward else dt; built once per direction."""
        mu_s = self._stages.get(backward)
        if mu_s is None:
            sign = -1 if backward else 1
            p = self.phases([0, sign, 2 * sign])
            mu_s = self._stages[backward] = p[:, :, None] * self.mu * p.conj()[:, None, :]
        return mu_s

    def _rk4_coefficients(self, backward: bool) -> np.ndarray:
        """The real view of C_0..C_4, flattened to (5, 2 D^2)."""
        h = -self.dt if backward else self.dt
        m0, mh, m1 = 1j * h * self.stage_dipoles(backward)
        mh2 = mh @ mh
        m1_mh2 = m1 @ mh2
        b = np.array([
            np.eye(len(self.energies)),
            (m0 + 4 * mh + m1) / 6,
            (mh @ m0 + mh2 + m1 @ mh) / 6,
            (mh2 @ m0 + m1_mh2) / 12,
            m1_mh2 @ m0 / 24,
        ])
        p_end = self.phases(-2 if backward else 2)
        return (p_end.conj()[:, None] * b).reshape(5, -1).view(float)

    def _as_operators(self, sums):
        d = len(self.energies)
        return sums.view(complex).reshape(sums.shape[:-1] + (d, d))

    def step(self, y, s, backward=False):
        """One step of the columns y with the step matrix s."""
        return np.dot(s, y)

    def step_rows(self, rows, ops):
        """Step rows[i] forward into rows[i + 1] with the step matrix ops[i],
        for every i of ops, as `step` does."""
        for i, s in enumerate(ops):
            np.dot(s, rows[i], out=rows[i + 1])

    def rotate_out(self, y, half_idx):
        """x = exp(i E t) y at t = half_idx dt / 2; a copy of y at t = 0."""
        if half_idx == 0:
            return y.copy()
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

    def operators(self, e, backward: bool = False, out=None) -> np.ndarray:
        """K^dag at the three stage dipoles, (n, 3, D, D), one row per held
        field value in e; written into out if given."""
        mu_s = 1j * self.frame.stage_dipoles(backward)
        out = np.multiply.outer(np.asarray(e, dtype=float), mu_s, out=out)
        out += np.diag(self._half_rates)
        return out

    def rhs(self, y, kdag):
        """dy/dt of a Hermitian stack y at one stage generator kdag."""
        d = y.shape[-1]
        c = np.dot(y.reshape(-1, d), kdag).reshape(y.shape)
        dy = -c   # a new C-contiguous array, so the flattened diagonal is a view
        dy -= c.conj().swapaxes(-1, -2)
        dy.reshape(-1, d * d)[:, self._diag] += np.dot(y.reshape(-1, d * d)[:, self._diag].real,
                                                       self._transfer)
        return dy

    def step(self, y, kdag, backward=False, out=None):
        """One RK4 step of y over dt (-dt if backward) with the stage
        generators kdag, then the frame rotation, into out if given."""
        h = -self.frame.dt if backward else self.frame.dt
        k1 = self.rhs(y, kdag[0])
        k2 = self.rhs(y + 0.5 * h * k1, kdag[1])
        k3 = self.rhs(y + 0.5 * h * k2, kdag[1])
        k4 = self.rhs(y + h * k3, kdag[2])
        out = np.add(y, (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4), out=out)
        out *= self._rotations[backward]
        return out

    def step_rows(self, rows, kdags):
        """Step rows[i] forward into rows[i + 1] with the stage generators
        kdags[i], for every i of kdags."""
        for i, kdag in enumerate(kdags):
            self.step(rows[i], kdag, out=rows[i + 1])

    def rotate_in(self, c, half_idx):
        """y = P^* x P at t = half_idx dt / 2 from the coordinate rows c
        (..., D^2) of x, so y is Hermitian, as the one-product rate needs;
        at t = 0 just the matrices of c."""
        d = len(self.frame.energies)
        x = hermitian_matrices(c.reshape(c.shape[:-1] + (d, d)))
        if half_idx != 0:
            x *= self.frame.conjugation(-half_idx)
        return x

    def rotate_out(self, y, half_idx):
        """The coordinate rows of x = P y P^* at t = half_idx dt / 2; at
        t = 0 just the coordinates of y."""
        if half_idx != 0:
            y = y * self.frame.conjugation(half_idx)
        x = hermitian_coordinates(y)
        return x.reshape(x.shape[:-2] + (-1,))


class LindbladSuperoperator(_StepMatrices):
    """The RK4 step of a `Lindblad` generator or its adjoint, frame rotation
    included, as one real (D^2, D^2) step matrix S on
    `hermitian_coordinates`, the kernel of `lindblad_kernel` up to
    SUPEROPERATOR_MAX_DIM.  It holds the rotating variable y of the
    generator as coordinate rows c (..., D^2), which step as
    c <- c + c @ (S - I), S - I = sum_k e^k C_k: the identity is added, not
    multiplied, so its rounding does not build up over a sweep (the trace
    of a pulse map drifts by 1e-14 over 300 steps otherwise).

    Each stage is affine in the held field, h (A + e B_s): A is diagonal on
    coordinates, -(Gamma_j + Gamma_k) / 2 (sign flipped for the adjoint),
    plus the population transfer between the diagonal coordinates, and B_s
    is i [mu_I(s), .] at the stage dipoles s = 0, h/2, h.  The RK4
    polynomial in them is expanded in e slope by slope, as
    `InteractionFrame` expands the closed C_k, and every output coordinate
    pair (j, k) is then turned by the frame rotation exp(-i (E_j - E_k) h).
    The C_k are built once per direction, 160 KB at D = 8."""

    def __init__(self, lindblad: Lindblad):
        super().__init__()
        self.lindblad = lindblad
        self.dim = len(lindblad.frame.energies)

    def _rk4_coefficients(self, backward: bool) -> np.ndarray:
        """The step increments C_0..C_4, S - I = sum_k e^k C_k, flattened
        to (5, D^4); c <- c + c @ (S - I) is one step."""
        lindblad = self.lindblad
        d, n = self.dim, self.dim ** 2
        h = -lindblad.frame.dt if backward else lindblad.frame.dt
        rates = lindblad._half_rates
        decay = -h * (rates[:, None] + rates).ravel()   # h A off the transfer block
        pops = slice(None, None, d + 1)                  # the diagonal coordinates j D + j
        transfer = h * lindblad._transfer
        b0, bh, b1 = h * commutator_coordinates(lindblad.frame.stage_dipoles(backward))
        # coefficients of e^0, e^1, ... of the slopes k1, k2, k3, then room for
        # temporaries; k4 and the sum go to `out`.  The slopes are written in
        # place: fresh pages for temporaries would cost more than the products.
        work = np.empty((13, n, n))
        k1, k2, k3, scratch = work[:2], work[2:5], work[5:9], work[9:]
        out = np.empty((5, n, n))
        alpha = k1[0]
        alpha.fill(0.0)
        alpha.flat[::n + 1] = decay
        alpha[pops, pops] += transfer
        k1[1] = b0

        def slope(k, c, beta, out):
            """out = (I + c k) @ (alpha + e beta) for the polynomial
            k(e) = sum_j e^j k[j], one degree higher in e; alpha acts as its
            diagonal and its transfer block."""
            np.matmul(k, c * beta, out=out[1:])
            out[0] = alpha
            out[1] += beta
            out[:-1] += np.multiply(k, c * decay, out=scratch[:len(k)])
            out[:-1, :, pops] += k[:, :, pops] @ (c * transfer)

        slope(k1, 0.5, bh, k2)
        slope(k2, 0.5, bh, k3)
        slope(k3, 1.0, b1, out)
        for k in (k3, k3, k2, k2, k1):   # 6 (M - I) = k1 + 2 k2 + 2 k3 + k4
            out[:len(k)] += k
        # out holds 6 (M - I); with R the frame rotation c -> c @ R, whose
        # rows are the turned identity rows, S - I = (M - I) @ R + (R - I)
        w = lindblad._rotations[backward]
        w6 = (w.view(float) / 6).view(complex)   # Re w / 6 + i Im w / 6
        for m in out.reshape(5, n, d, d):
            turn_coordinates(m, w6, out=m)
        out[0] += turn_coordinates(np.eye(n).reshape(n, d, d), w).reshape(n, n) - np.eye(n)
        return out.reshape(5, -1)

    def _as_operators(self, sums):
        d2 = self.dim * self.dim
        return sums.reshape(sums.shape[:-1] + (d2, d2))

    def step(self, y, s, backward=False):
        """One step of the coordinate rows y with the step increment s."""
        return y + np.dot(y, s)

    def step_rows(self, rows, ops):
        """Step rows[i] forward into rows[i + 1] with the step increment
        ops[i], for every i of ops, as `step` does."""
        for i, s in enumerate(ops):
            y, out = rows[i], rows[i + 1]
            np.dot(y, s, out=out)
            out += y

    def rotate_out(self, c, half_idx):
        """The coordinate rows of x = P y P^* at t = half_idx dt / 2 from
        those of y; a copy of c at t = 0."""
        if half_idx == 0:
            return c.copy()
        x = c.reshape(c.shape[:-1] + (self.dim, self.dim))
        return turn_coordinates(x, self.lindblad.frame.conjugation(half_idx)).reshape(c.shape)


def lindblad_kernel(frame: InteractionFrame, diss: DissipationModel, adjoint: bool = False):
    """The `Lindblad` generator (or its adjoint) of frame and diss as the
    kernel that steps it fastest: its `LindbladSuperoperator` up to
    SUPEROPERATOR_MAX_DIM states, the per-matrix `Lindblad` above."""
    lindblad = Lindblad(frame, diss, adjoint)
    if len(frame.energies) <= SUPEROPERATOR_MAX_DIM:
        return LindbladSuperoperator(lindblad)
    return lindblad


def step_blocks(kernel, field, backward=False):
    """(steps, ops) for every block of up to BLOCK_STEPS steps of the sample
    array `field`, in sweep order: ops[i] is the step operator of sample
    steps[i], and blocks and steps run from the last step to the first if
    backward.  The last sample closes the record without driving.

    Every block is written into one buffer per sweep, so a block's
    operators are valid only until the next block is requested.  The
    buffer is the first block's own array, or, backward, that of the first
    full block after the partial last one."""
    drive = field[:-1]
    blocks = range(0, len(drive), BLOCK_STEPS)
    buffer = None
    for a in reversed(blocks) if backward else blocks:
        e = drive[a:a + BLOCK_STEPS]
        if buffer is None or len(buffer) < len(e):
            ops = buffer = kernel.operators(e, backward)
        else:
            ops = kernel.operators(e, backward, out=buffer[:len(e)])
        steps = range(a, a + len(e))
        yield (steps[::-1], ops[::-1]) if backward else (steps, ops)


def sweep(kernel, x, field, backward=False, store_every=0, out=None):
    """Integrate x through the pulse of the sample array `field` with
    `kernel`, from the pulse's end to its start if backward: an
    `InteractionFrame` for amplitude columns (D, n), or a Lindblad kernel
    for the rows (..., D^2) of the `hermitian_coordinates` of Hermitian
    matrices.  The sweep runs in the kernel's rotating variable y.  With
    `out`, which only a forward sweep takes, slot 0 holds x and slot k the
    state at t = k store_every dt, rotated back to x like the result.
    Every sweep steps its state, one step operator at a time."""
    if backward and out is not None:
        raise ValidationError("only a forward sweep stores snapshots")
    n_steps = len(field) - 1
    y = kernel.rotate_in(x, 2 * n_steps if backward else 0)
    if out is not None:
        out[0] = x
    step = kernel.step
    for steps, ops in step_blocks(kernel, field, backward):
        for n, op in zip(steps, ops):
            y = step(y, op, backward)
            if out is not None and (n + 1) % store_every == 0:
                out[(n + 1) // store_every] = kernel.rotate_out(y, 2 * n + 2)
    return kernel.rotate_out(y, 0 if backward else 2 * n_steps)


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
    initial trace: Hermiticity, trace and positivity, checked in that order.
    Every comparison fails on NaN.  `hermitian_matrices` returns exactly
    Hermitian matrices, so the Hermiticity check fails on NaN alone; it
    stays as a guard on the result."""
    herm_err = np.abs(final - final.conj().T).max()
    if not herm_err <= HERMITICITY_TOL:
        raise NumericalError(f"Lindblad step-size failure: Hermiticity error {herm_err:.2e}")
    trace_err = abs(np.trace(final).real - np.trace(initial).real)
    if not trace_err <= TRACE_TOL:
        raise NumericalError(f"Lindblad step-size failure: trace error {trace_err:.2e}")
    min_eig = np.linalg.eigvalsh(final).min()
    if not min_eig >= -POSITIVITY_TOL:
        raise NumericalError(f"Lindblad step-size failure: minimum eigenvalue {min_eig:.2e}")


def evolution_operator(
    fieldspec: ControlField, basis: EigenBasis, n_states: int
) -> np.ndarray:
    """Realized gate P U(t_pulse) P on the first n_states (may be sub-unitary).

    The column-norm check covers the n_states requested columns only.  RK4
    is not norm-preserving, and its drift grows with the dipole couplings
    and transition frequencies, both largest among the upper states of the
    anharmonic trap.  On a 100,000-step paper gate field (D = 32) the 16
    gate columns keep their norm within 4.2e-9, but states 18-31 drift up
    to 2.6e-7, beyond NORM_DRIFT_TOL: asked for all D columns, this raises
    NumericalError."""
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


def hermitian_coordinates(x) -> np.ndarray:
    """Real coordinates of Hermitian matrices x (..., D, D), in the same
    shape: Re x_jk on and above the diagonal and, at (k, j) below it,
    Im x_jk.  Flattened row-major, coordinate j D + k weighs the Hermitian
    unit E_jj (j = k) or H = E_jk + E_kj (j < k), and k D + j weighs
    B = i (E_jk - E_kj)."""
    d = x.shape[-1]
    return np.where(np.tri(d, k=-1, dtype=bool), -x.imag, x.real)


def population_form(d: int) -> np.ndarray:
    """w, 1 on the diagonal coordinates and 2 off them, so that
    Tr(X Y) = sum_u w_u c_u(X) c_u(Y) for Hermitian X and Y (D, D)."""
    return 2.0 - np.eye(d).ravel()


def hermitian_matrices(c) -> np.ndarray:
    """The Hermitian matrices whose coordinates (`hermitian_coordinates`)
    are c (..., D, D)."""
    below = np.tri(c.shape[-1], k=-1, dtype=bool)
    im = c * below
    x = np.empty(c.shape, dtype=complex)
    x.real = np.where(below, np.swapaxes(c, -1, -2), c)
    x.imag = np.swapaxes(im, -1, -2) - im
    return x


def turn_coordinates(c, w, out=None) -> np.ndarray:
    """The coordinates of y * w, w Hermitian (D, D) such as a frame
    rotation, from the coordinates c (..., D, D) of Hermitian y, into out
    (which may be c): w_jk turns the pair (Re y_jk, Im y_jk) by its
    argument, so they are c * Re w + (c * Im w)^T, Im w antisymmetric."""
    turned = c * w.imag
    out = np.multiply(c, w.real, out=out)
    out += turned.swapaxes(-1, -2)
    return out


@functools.lru_cache(maxsize=4)
def hermitian_units(d: int) -> np.ndarray:
    """The D^2 Hermitian units E_jj, H and B (`hermitian_coordinates`) as
    D^3 rows of D, read-only: 64 KB at D = 8, kept per D because building
    them took 40 us of a 0.4 ms C_k build."""
    rows = hermitian_matrices(np.eye(d * d).reshape(d * d, d, d)).reshape(-1, d)
    rows.flags.writeable = False
    return rows


def commutator_coordinates(mu) -> np.ndarray:
    """The map y -> i [mu, y] of Hermitian y on coordinates, for Hermitian
    mu (..., D, D): row u of the (..., D^2, D^2) result holds the
    coordinates of i [mu, unit u].  As in `Lindblad`, i [mu, y] is
    -(c + c^dag) with c = y (i mu)."""
    d = mu.shape[-1]
    c = (hermitian_units(d) @ (1j * mu)).reshape(mu.shape[:-2] + (d * d, d, d))
    re, im = c.real, c.imag
    below = np.tri(d, k=-1, dtype=bool)
    rate = np.where(below, im - im.swapaxes(-1, -2), -(re + re.swapaxes(-1, -2)))
    return rate.reshape(mu.shape[:-2] + (d * d, d * d))


class ClosedPulseMap:
    """The closed evolution operators of one pulse from one forward sweep
    of the D identity columns: U(t_k) at the snapshot times (every
    store_every steps, none when 0) and U(t_pulse), whose unitarity
    defect `gridsim.unitarity_defect(final)` bounds the norm drift each
    pulse adds.

    Every pulse of a train replays the waveform in the rotating frame from
    t = 0, so each pulse of any state is a product with them."""

    def __init__(self, fieldspec: ControlField, basis: EigenBasis, store_every: int = 0):
        d = basis.n_states
        n_stored = fieldspec.n_steps // store_every + 1 if store_every else 0
        self.t_pulse = fieldspec.t_pulse
        self.times = np.arange(n_stored) * store_every * fieldspec.dt
        self.snapshots = np.empty((n_stored, d, d), dtype=complex)
        self.final = sweep(
            InteractionFrame(basis, fieldspec.dt), np.eye(d, dtype=complex),
            fieldspec.samples, store_every=store_every,
            out=self.snapshots if store_every else None,
        )

    def gate(self, n_states) -> np.ndarray:
        """P U(t_pulse) P on the first n_states, as `evolution_operator`
        gives it, with its column-norm check."""
        return _gate_block(self.final, n_states)

    def apply(self, state):
        """The amplitude vector state after the pulse; NumericalError if the
        pulse changed its norm beyond tolerance.  Its snapshots over the
        pulse are snapshots @ state."""
        final = self.final @ state
        _check_norm(final, state)
        return final


class LindbladPulseMap:
    """One Lindblad pulse Phi as one real (D^2, D^2) matrix on Hermitian
    coordinates.

    Phi keeps matrices Hermitian, so it is real-linear on them: with c the
    flattened `hermitian_coordinates`, c(Phi(x)) = c(x) @ matrix.  Row u of
    the matrix is c(Phi(unit u)), the `sweep` of row u of np.eye(D^2), the
    coordinates of the Hermitian unit u (E_jj, H or B), MAP_UNITS rows at a
    time with the kernel of `lindblad_kernel`; every pulse of a train
    replays the waveform in the rotating frame, so a train costs one small
    real product per pulse.  At desk size (D = 8) the 64 units are one
    sweep of 64 x 64 step matrices, their C_k^L built first.  At paper size
    (D = 32) the matrix is 1024^2 reals, 8 MB, built by 16 per-matrix
    sweeps of 64 units."""

    def __init__(self, fieldspec: ControlField, basis: EigenBasis, diss: DissipationModel):
        d = self.dim = basis.n_states
        units = np.eye(d * d)
        kernel = lindblad_kernel(InteractionFrame(basis, fieldspec.dt), diss)
        self.matrix = np.concatenate([sweep(kernel, units[a:a + MAP_UNITS], fieldspec.samples)
                                      for a in range(0, d * d, MAP_UNITS)])

    def trace_drift(self) -> float:
        """max over the units u of |Tr Phi(u) - Tr u|."""
        d = self.dim
        unit_traces = np.eye(d).ravel()   # 1 for E_jj, 0 for H and B
        return float(np.abs(self.matrix[:, ::d + 1].sum(axis=1) - unit_traces).max())

    def apply(self, rho) -> np.ndarray:
        """The density matrix rho after the pulse; NumericalError unless it
        is a density matrix of the same trace (`_check_density`)."""
        c = hermitian_coordinates(rho).ravel() @ self.matrix
        final = hermitian_matrices(c.reshape(rho.shape))
        _check_density(final, rho)
        return final


def pulse_train(pulse_map, state, n_pulses: int) -> np.ndarray:
    """The states of n_pulses pulses of a `ClosedPulseMap` or a
    `LindbladPulseMap` from state, each the checked `apply` of the one
    before: states[l] enters pulse l, states[-1] leaves the last."""
    states = [state]
    for _ in range(n_pulses):
        states.append(pulse_map.apply(states[-1]))
    return np.array(states)
