"""Multi-target optimal control of the ion gate field.

One iteration of the monotonically convergent scheme propagates Lagrange
multipliers backward from the target states under the current field, then
sweeps forward with an immediate per-time-step correction

    E_new(t) = E_old(t) - (sin^2(pi t / T) / alpha0) * Im[ ... ],

where the bracket couples all trajectories.  The transition-probability
functional (P) drives the N basis-state targets plus one superposition
target that pins a common gate phase; the trace functional (F) drives N
targets through a phase-coherent trace product.  The recorded objective is
the functional's main term (the fluence is recorded separately); it is the
quantity the incremental scheme increases monotonically.

Both sweeps use the one field rule of `propagator`: sample n is held
over step n.  The scheme's monotonic convergence is derived for this
rule, and the fidelity recorded for a field is the one
`evolution_operator` measures for it.

The dissipative variant replaces amplitude vectors by density matrices
propagated with the Lindblad generator and its adjoint, pairing
trajectories through Tr(eta (mu rho - rho mu)).  They enter and leave
the kernels as rows of Hermitian coordinates.  Up to
`propagator.SUPEROPERATOR_MAX_DIM` states the kernels step those by real
step matrices, and the pairing is a bilinear form on them
(`_coordinate_bracket`); above it they step matrices.  With all rates
zero it reproduces the closed-system iteration to rounding (same fields,
same objective column).

All three optimizers run one iteration driver, `_run_iterations`: the
backward `propagator.sweep` of the multipliers, one `_forward_update` and
the evaluation sweep.  Each optimizer supplies only its kernels (the
closed `InteractionFrame` twice, or the `propagator.lindblad_kernel` of a
Lindblad generator and of its adjoint), its trajectories, its update
bracket and its measure.  The driver records the wall time of each
backward sweep and forward update on the `OctTrace`.

The forward update is sequential in time, since the corrected sample of
step n depends on the states at t_n, but the multipliers ride along under
the old field.  So `_forward_update` works a block of `propagator.BLOCK_STEPS`
steps at a time: it steps the multipliers through the block first, and the
bracket prepares everything that does not depend on the states for the
whole block at once (for the closed functionals, the conjugated bras lam
and mu lam of every step).  A step then pairs the states with its bras,
corrects its sample, and takes one step of the states under it.
"""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .gridsim import unitarity_defect
from .propagator import (ControlField, DissipationModel, InteractionFrame, Lindblad,
                         commutator_coordinates, hermitian_coordinates, lindblad_kernel,
                         population_form, step_blocks, sweep)
from .trap import EigenBasis, transition_table
from .units import hz_to_angular_freq_au

MONOTONE_SLACK = 1e-10
GUESS_AMPLITUDE_AU = 1.945e-13   # 0.1 V/m per spectral component
GUESS_DELTAS = (1, 3)            # guess-field transitions: delta n = 1 and 3
# stalled: STALL_ITERATIONS iterations in a row, each a relative gain < STALL_IMPROVEMENT
STALL_IMPROVEMENT = 1e-12
STALL_ITERATIONS = 20


@dataclass
class OctConfig:
    """Optimization parameters; times in a.u."""

    t_pulse: float
    dt: float
    alpha0: float
    functional: str = "P"
    max_iterations: int = 500
    fidelity_goal: float = 0.99999

    def __post_init__(self):
        if not (self.t_pulse > 0 and self.dt > 0):
            raise ValidationError("t_pulse and dt must be positive")
        if self.alpha0 <= 0:
            raise ValidationError("alpha0 must be positive")
        if not 0 < self.fidelity_goal <= 1:
            raise ValidationError("fidelity_goal must be in (0, 1]")
        if self.functional not in ("F", "P"):
            raise ValidationError("functional must be 'F' or 'P'")
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be non-negative (0 only evaluates)")
        n = self.t_pulse / self.dt
        if abs(n - round(n)) > 1e-9 * n or round(n) < 2:
            raise ValidationError("t_pulse must be an integer multiple (>= 2) of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_pulse / self.dt))


@dataclass
class TargetSet:
    """The gate to realize, expanded into per-trajectory initial/target pairs."""

    gate: np.ndarray

    def __post_init__(self):
        self.gate = np.asarray(self.gate, dtype=complex)
        if unitarity_defect(self.gate) > 1e-8:
            raise ValidationError("target gate is not unitary")

    @property
    def n(self) -> int:
        return self.gate.shape[0]

    def trajectories(self, dim: int, with_superposition: bool):
        """Initial and target column stacks embedded in a dim-state space."""
        n = self.n
        if dim < n:
            raise ValidationError("dynamical space smaller than the gate")
        n_traj = n + 1 if with_superposition else n
        init = np.zeros((dim, n_traj), dtype=complex)
        targ = np.zeros((dim, n_traj), dtype=complex)
        init[:n, :n] = np.eye(n)
        targ[:n, :n] = self.gate
        if with_superposition:
            sup = np.ones(n) / np.sqrt(n)
            init[:n, n] = sup
            targ[:n, n] = self.gate @ sup
        return init, targ


@dataclass
class OctTrace:
    """Per-iteration convergence record.

    `backward_s` and `forward_s` hold the wall seconds of the backward
    sweep and of the forward update of every iteration swept by the last
    optimizer call on this trace; they stay in memory, so artifacts do not
    depend on timing."""

    iterations: list = dataclass_field(default_factory=list)
    objectives: list = dataclass_field(default_factory=list)
    fidelities: list = dataclass_field(default_factory=list)
    fluences: list = dataclass_field(default_factory=list)
    status: str = "running"
    backward_s: list = dataclass_field(default_factory=list)
    forward_s: list = dataclass_field(default_factory=list)

    def append(self, iteration, objective, fid, fluence):
        self.iterations.append(int(iteration))
        self.objectives.append(float(objective))
        self.fidelities.append(float(fid))
        self.fluences.append(float(fluence))

    def __len__(self):
        return len(self.iterations)

    @property
    def final_fidelity(self) -> float:
        return self.fidelities[-1] if self.fidelities else 0.0

    def is_monotonic(self) -> bool:
        j = self.objectives
        return all(_no_decrease(j[i], j[i + 1]) for i in range(len(j) - 1))


def _no_decrease(before: float, after: float) -> bool:
    """after >= before up to a relative MONOTONE_SLACK; False on NaN."""
    return after >= before - MONOTONE_SLACK * max(1.0, abs(before))


def switch_envelope(config: OctConfig) -> np.ndarray:
    """sin^2(pi t / t_pulse) on the sample grid, exactly zero at both ends.

    It shapes the guess field, and envelope / alpha0 weighs the field
    update, so the field stays switched off at both ends."""
    t = np.arange(config.n_steps + 1) * config.dt
    env = np.sin(np.pi * t / config.t_pulse) ** 2
    env[0] = env[-1] = 0.0
    return env


def fidelity(u_target, u_realized) -> float:
    """Gate fidelity |Tr(U_s^dag U_P)|^2 / N^2, global-phase invariant."""
    us = np.asarray(getattr(u_target, "entries", u_target))
    up = np.asarray(getattr(u_realized, "entries", u_realized))
    n = us.shape[0]
    return float(abs(np.trace(us.conj().T @ up)) ** 2 / n**2)


def phase_spread(u_target, u_realized) -> float:
    """Largest deviation of per-transition phases arg<U_s j|U_P j> from the
    phase of the first transition, wrapped to [-pi, pi]."""
    us = np.asarray(getattr(u_target, "entries", u_target))
    up = np.asarray(getattr(u_realized, "entries", u_realized))
    phases = np.angle(np.einsum("dj,dj->j", us.conj(), up))
    rel = np.angle(np.exp(1j * (phases - phases[0])))
    return float(np.abs(rel).max())


def make_guess_field(basis: EigenBasis, config: OctConfig) -> ControlField:
    """Equal-amplitude sinusoids at every included transition frequency
    under the sin^2 switch-on/off envelope."""
    n = basis.n_qubits
    steps = config.n_steps
    t = np.arange(steps + 1) * config.dt
    samples = np.zeros(steps + 1)
    for _, _, freq_hz, _ in transition_table(basis, GUESS_DELTAS, n):
        samples += np.sin(hz_to_angular_freq_au(freq_hz) * t)
    samples *= GUESS_AMPLITUDE_AU * switch_envelope(config)
    samples[-1] = 0.0   # +0.0, whatever the sign of the sum
    return ControlField(samples, config.dt)


def _forward_update(kernel, adjoint, weight, psi, lam, field, bracket):
    """Forward sweep with immediate update; the multipliers lam ride along
    under the old field.  Both start at t = 0 and move to the kernels'
    rotating variable there.  Per block of steps, the multipliers are stepped
    through the block first, and `bracket` of their stacked trajectory
    returns `pairing(i, psi)`: the bracket at step i of the block and its
    dipole product, which `kernel.fresh_step` reuses.
    Returns (new field samples, final states)."""
    new_field = field.copy()
    psi, lam = kernel.rotate_in(psi, 0), adjoint.rotate_in(lam, 0)
    for steps, lam_ops in step_blocks(adjoint, field):
        lams = np.empty((len(lam_ops),) + lam.shape, dtype=lam.dtype)
        for i, op in enumerate(lam_ops):
            lams[i] = lam
            lam = adjoint.step(lam, op)
        pairing = bracket(lams)
        block = slice(steps.start, steps.stop)
        updated = []
        for i, (e, w) in enumerate(zip(field[block].tolist(), weight[block].tolist())):
            value, coupled = pairing(i, psi)
            e_new = e - w * value
            updated.append(e_new)
            psi = kernel.fresh_step(psi, e_new, coupled)
        new_field[block] = updated
    return new_field, kernel.rotate_out(psi, 2 * (len(field) - 1))


def _run_iterations(basis, config, kernel, adjoint, initials, targets, bracket, measure,
                    initial_field, trace, callback):
    """Iteration driver: stopping rules, trace recording, fault detection.

    Each iteration sweeps the multipliers backward from `targets` under the
    `adjoint` kernel, then runs `_forward_update` from `initials` under
    `kernel`.  Iteration 0 in the trace is the evaluation of the starting
    field; the monotonic sweeps are iterations 1..max_iterations.  A
    starting field that already meets the fidelity goal returns without
    any sweep.
    """
    if initial_field is not None:
        if len(initial_field.samples) != config.n_steps + 1:
            raise ValidationError("initial field sample count does not match config")
        if abs(initial_field.dt - config.dt) > 1e-9 * config.dt:
            raise ValidationError("initial field sample spacing does not match config")
        field = initial_field.samples.copy()
    else:
        field = make_guess_field(basis, config).samples
    weight = switch_envelope(config) / config.alpha0
    trace = trace if trace is not None else OctTrace()
    trace.status = "running"
    stall = 0
    if not len(trace):
        objective, fid = measure(sweep(kernel, initials, field))
        trace.append(0, objective, fid, ControlField(field, config.dt).fluence())
        if fid >= config.fidelity_goal:
            trace.status = "converged"
            return ControlField(field, config.dt), trace
    start = trace.iterations[-1] + 1
    trace.backward_s, trace.forward_s = [], []
    for it in range(start, config.max_iterations + start):
        t0 = time.perf_counter()
        lam = sweep(adjoint, targets, field, backward=True)
        t1 = time.perf_counter()
        field, finals = _forward_update(kernel, adjoint, weight, initials, lam, field,
                                        bracket)
        t2 = time.perf_counter()
        if not np.all(np.isfinite(field)):
            trace.status = "aborted: non-finite field"
            raise NumericalError("field update produced non-finite samples")
        objective, fid = measure(finals)
        prev = trace.objectives[-1]
        if not _no_decrease(prev, objective):
            trace.status = f"aborted: objective decreased at iteration {it}"
            raise ConvergenceError(
                f"objective decreased from {prev!r} to {objective!r} at "
                f"iteration {it}; monotonic scheme violated"
            )
        if objective - prev < STALL_IMPROVEMENT * max(1.0, abs(prev)):
            stall += 1
        else:
            stall = 0
        trace.append(it, objective, fid, ControlField(field, config.dt).fluence())
        trace.backward_s.append(t1 - t0)
        trace.forward_s.append(t2 - t1)
        if callback is not None:
            callback(it, ControlField(field.copy(), config.dt), trace)
        if fid >= config.fidelity_goal:
            trace.status = "converged"
            break
        if stall >= STALL_ITERATIONS:
            trace.status = "stalled"
            break
    else:
        trace.status = "iteration budget exhausted"
    return ControlField(field, config.dt), trace


def _closed_bracket(mu, functional):
    """Update bracket of the closed functionals.  In the rotating variable,
    <lam|psi> = <y_lam|y_psi> and <lam|mu_I psi> = <y_lam|mu y_psi> =
    <mu y_lam|y_psi> with the static, real symmetric dipole mu.  Per block,
    one conjugation and one real product of mu with the real view give both
    bras of every step, so a step pairs them with psi by one
    multiply-and-sum.  The F functional takes one phase-coherent sum over
    its trajectories, the gate's N."""
    def bracket(lams):
        pairs = np.empty((len(lams), 2) + lams.shape[1:], dtype=complex)
        bras = np.conjugate(lams, out=pairs[:, 0])
        np.matmul(mu, bras.view(float), out=pairs[:, 1].view(float))
        if functional == "F":
            def pairing(i, psi):
                overlap, coupling = np.add.reduce(pairs[i] * psi, axis=(1, 2))
                return float((overlap.conjugate() * coupling).imag), None
        else:
            def pairing(i, psi):
                overlaps, couplings = np.add.reduce(pairs[i] * psi, axis=1)
                return float(np.vdot(overlaps, couplings).imag), None
        return pairing

    return bracket


def optimize_gate(basis: EigenBasis, targets: TargetSet, config: OctConfig,
                  initial_field: ControlField | None = None,
                  trace: OctTrace | None = None, callback=None):
    """Synthesize the field driving the target gate among the qubit states.

    Returns (ControlField, OctTrace).  The trace records the functional's
    main objective, the gate fidelity of the projected propagator, and the
    field fluence for every iteration, plus a final status string.
    """
    init, targ = targets.trajectories(basis.n_states, config.functional == "P")
    n_gate = targets.n
    frame = InteractionFrame(basis, config.dt)

    def measure(finals):
        overlaps = np.einsum("dj,dj->j", targ.conj(), finals)
        if config.functional == "P":
            objective = float(np.sum(np.abs(overlaps) ** 2))
        else:
            objective = float(abs(np.sum(overlaps[:n_gate])) ** 2)
        return objective, fidelity(targets.gate, finals[:n_gate, :n_gate])

    return _run_iterations(basis, config, frame, frame, init, targ,
                           _closed_bracket(frame.mu, config.functional),
                           measure, initial_field, trace, callback)


def optimize_state_prep(basis: EigenBasis, target: np.ndarray, config: OctConfig,
                        initial_field: ControlField | None = None,
                        trace: OctTrace | None = None, callback=None):
    """Field preparing the encoded wavepacket from the motional ground state.

    Single-target variant; the reported fidelity is the population overlap
    |<target|psi(T)>|^2, insensitive to the global phase.
    """
    c = np.asarray(target, dtype=complex)
    if abs(np.linalg.norm(c) - 1.0) > 1e-8:
        raise ValidationError("target amplitudes must be normalized")
    dim = basis.n_states
    if len(c) > dim:
        raise ValidationError("target has more states than the dynamical basis")
    init = np.zeros((dim, 1), dtype=complex)
    init[0, 0] = 1.0
    targ = np.zeros((dim, 1), dtype=complex)
    targ[: len(c), 0] = c
    frame = InteractionFrame(basis, config.dt)

    def measure(finals):
        overlap2 = float(abs(np.vdot(targ[:, 0], finals[:, 0])) ** 2)
        return overlap2, overlap2

    return _run_iterations(basis, config, frame, frame, init, targ,
                           _closed_bracket(frame.mu, "P"), measure,
                           initial_field, trace, callback)


# ---------------------------------------------------------------------------
# dissipative variant
# ---------------------------------------------------------------------------

def optimize_gate_dissipative(basis: EigenBasis, targets: TargetSet,
                              config: OctConfig, diss: DissipationModel,
                              initial_field: ControlField | None = None,
                              trace: OctTrace | None = None, callback=None):
    """Gate optimization with forward/backward Lindblad propagation.

    Trajectories are density matrices rho_j from the basis projectors (plus
    the superposition projector for the P functional); multipliers eta_j
    run backward from the target projectors under the adjoint generator.
    The objective is sum_j Tr(W_j rho_j(T)), measured on Hermitian
    coordinates by `population_form`.  The trace's fidelities, and so the
    `fidelity` column of `*_diss_trace.csv`, are the mean target population
    of the gate trajectories, the phase-insensitive surrogate available in
    the density formalism.  They are not the gate fidelity that `fidelity`
    and the process-fidelity trace of `analysis` report.
    """
    frame = InteractionFrame(basis, config.dt)
    d = basis.n_states
    init_vecs, targ_vecs = targets.trajectories(d, config.functional == "P")
    rho0, eta_final = (
        hermitian_coordinates(np.einsum("dt,et->tde", v, v.conj())).reshape(-1, d * d)
        for v in (init_vecs, targ_vecs))
    n_gate = targets.n
    kernel = lindblad_kernel(frame, diss)
    if isinstance(kernel, Lindblad):
        bracket = _matrix_bracket(frame.mu, config.functional, n_gate)
    else:
        bracket = _coordinate_bracket(frame.mu, config.functional)
    target_bras = eta_final * population_form(d)

    def measure(rho):
        pops = np.einsum("tu,tu->t", target_bras, rho)
        return float(np.sum(pops)), float(np.mean(pops[:n_gate]))

    return _run_iterations(basis, config, kernel, lindblad_kernel(frame, diss, adjoint=True),
                           rho0, eta_final, bracket, measure, initial_field, trace, callback)


def _matrix_bracket(mu, functional, n_gate):
    """Update bracket of the dissipative functionals for the per-matrix
    `Lindblad` kernels.  In y = P^* x P, Tr(eta [mu_I, rho]) =
    Tr(y_eta [mu, y_rho]) with the static dipole; for Hermitian y_rho,
    [mu, y_rho] = a^dag - a with a = y_rho mu, so the pairing is
    -2i Im Tr(y_eta a)."""
    d = len(mu)

    def bracket(etas):
        etas_c = etas.conj()

        def pairing(i, rho):
            rho_mu = (rho.reshape(-1, d) @ mu).reshape(rho.shape)
            pair = np.einsum("tde,tde->t", etas_c[i], rho_mu).imag
            if functional == "P":
                return -float(np.sum(pair)), rho_mu
            pops = np.einsum("tde,tde->t", etas_c[i], rho).real
            return -float(np.sum(pops[:n_gate]) * np.sum(pair[:n_gate])), rho_mu

        return pairing

    return bracket


def _coordinate_bracket(mu, functional):
    """Update bracket of the dissipative functionals for the
    `LindbladSuperoperator` kernels, whose states are rows of Hermitian
    coordinates (`propagator.hermitian_coordinates`).

    Tr(X Y) of Hermitian X and Y is sum_u w_u c_u(X) c_u(Y), w the
    population form.  With c(i [mu, y]) = c(y) @ B
    (`propagator.commutator_coordinates`), the pairing
    Im Tr(y_eta y_rho mu) = Tr(y_eta i [mu, y_rho]) / 2 is the bilinear form
    c(eta) @ W @ c(rho), W = w[:, None] * B^T / 2 (Palao & Kosloff, PRA 68,
    062308 (2003)).  Per block, one product gives the bras
    c(eta) @ W of every step, and a step pairs them with rho by one
    multiply-and-sum.  The F functional also weighs the target populations
    Tr(y_eta y_rho) of its trajectories, the gate's N."""
    weights = population_form(len(mu))
    form = weights[:, None] * commutator_coordinates(mu).T / 2

    def bracket(etas):
        if functional == "F":
            pairs = np.stack([etas * weights, etas @ form], axis=1)

            def pairing(i, rho):
                pops, pair = np.add.reduce(pairs[i] * rho, axis=(1, 2))
                return -float(pops * pair), None
        else:
            bras = etas @ form

            def pairing(i, rho):
                return -float(np.vdot(bras[i], rho)), None
        return pairing

    return bracket
