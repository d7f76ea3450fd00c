"""Multi-target optimal control of the ion gate field.

One iteration of the monotonically convergent scheme propagates Lagrange
multipliers backward from the target states under the current field, then
sweeps forward with an immediate per-time-step correction

    E_new(t) = E_old(t) - (sin^2(pi t / T) / alpha0) * Im[ ... ],

where the bracket couples all trajectories.  The transition-probability
functional (P) drives the N basis-state targets plus one superposition
target that pins a common gate phase; the trace functional (F) drives N
targets through a phase-coherent trace product; only the closed gate
optimizer takes F.  The recorded objective is the functional's main term
(the fluence is recorded separately); it is the quantity the incremental
scheme increases monotonically.

Both sweeps use the one field rule of `propagator`: sample n is held
over step n.  The scheme's monotonic convergence is derived for this
rule, and the fidelity recorded for a field is the one
`evolution_operator` measures for it.

The dissipative variant replaces P's state amplitudes by density matrices
propagated with the Lindblad generator and its adjoint, pairing
trajectories through Tr(eta (mu rho - rho mu)).  They enter and leave
the kernels as rows of Hermitian coordinates, and whichever kernel
`propagator.lindblad_kernel` picks gives the pairing and the step under
a corrected sample by its own methods.  With all rates zero it
reproduces the closed-system iteration to rounding (same fields, same
objective column).

All three optimizers run one iteration driver, `_run_iterations`: the
multipliers at t = 0, one `_forward_update` and the evaluation sweep.
Each optimizer supplies only its kernels (the closed `InteractionFrame`
twice, or the `propagator.lindblad_kernel` of a Lindblad generator and of
its adjoint), its trajectories, its update bracket, its measure and its
`multipliers(field, finals)`, which gives the multipliers at t = 0 of
the current field: U^dag targets for the closed gate optimizer, a
backward `sweep` of the targets for the others.  The driver records the
wall time of each multipliers call and of each forward update on the
`OctTrace`.

The closed gate optimizer sweeps no multipliers backward.  In the
rotating variable the backward RK4 step matrix of a held sample is the
adjoint of the forward one, S_b(e) = S_f(e)^dag (to 6e-17 relative at
D = 8 and 1.3e-16 at D = 32 for |e| up to 3e-11), so the backward sweep
from the targets ends at lambda(0) = S_b(e_0) ... S_b(e_{n-1}) targets =
U^dag targets, U the forward propagator of the same field.  Its forward update and its
evaluation sweep step the trajectories together with the basis states
they leave out (P: the N basis states, the superposition and the other
D - N, so 9 columns at desk size and 33 at paper size; F: the D basis
states), in the one product per step they take anyway; the next
iteration's multipliers are then one D x D product.  The state
preparation optimizer keeps its backward sweep: completing its one
column to a basis would step D of them.  Measured with one BLAS thread
(fastest of 10 iterations), that made a paper prep iteration (D = 32,
2,000 steps) 20 % slower, 33.6-34.0 against 28.0-29.1 ms, and a desk
one (10,000 steps), 80.1-84.2 ms, no faster than stepping the one
column backward.  So does the dissipative one,
which would need the whole D^2 map of the Lindblad pulse.

The forward update is sequential in time, since the corrected sample of
step n depends on the states at t_n, but the multipliers ride along under
the old field.  So `_forward_update` works a block of `propagator.BLOCK_STEPS`
steps at a time: one call of the adjoint kernel (`step_rows`) steps the
multipliers through the block, each step written straight into the next
row of the block, and the bracket prepares everything that does not
depend on the states for the whole block at once (for the closed
functionals, the plain bras lam and mu lam of every step, which the
pairing conjugates; for density matrices, the Lindblad kernel's
`commutator_bras`).  There are two brackets, one for amplitudes and one
for density matrices: `_closed_bracket` serves the `InteractionFrame`,
`_density_bracket` either Lindblad kernel, through its
`commutator_bras`, `commutator_pairing` and `held_step`.
Per block it returns `advance`, and a step is one call of it: it pairs
the states with the step's bras, corrects the sample and steps the
states under the corrected sample into the spare buffer.  At desk size a
step costs Python calls more than flops, so merging the pairing, the
correction and the step into one call is what makes it cheaper; the
numpy calls, their operands and their order are those of separate calls,
so every number stays bit for bit.  The multipliers of every block go
into one array per forward update, and each bracket writes its bras into
one array per optimizer run, each made for the first block, the longest
of every forward update, as `step_blocks` does the step operators: at
paper size a fresh array per block would fault its pages in again every
BLOCK_STEPS steps.
"""

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import ConvergenceError, NumericalError, ValidationError
from .gridsim import unitarity_defect
from .propagator import (ControlField, DissipationModel, InteractionFrame,
                         hermitian_coordinates, lindblad_kernel, population_form,
                         step_blocks, sweep)
from .trap import EigenBasis, transition_table
from .units import hz_to_angular_freq_au

MONOTONE_SLACK = 1e-10
GUESS_AMPLITUDE_AU = 1.945e-13   # 0.1 V/m per spectral component
GUESS_DELTAS = (1, 3)            # guess-field transitions: delta n = 1 and 3
# stalled: STALL_ITERATIONS iterations in a row, each a relative gain < STALL_IMPROVEMENT
STALL_IMPROVEMENT = 1e-12
STALL_ITERATIONS = 20


def check_alpha0(alpha0: float, name: str = "alpha0") -> None:
    """The one check of a penalty scale, run by `OctConfig` and, for the
    scales of both functionals, by `RunConfig.validate`."""
    if not 0 < alpha0 < np.inf:
        raise ValidationError(f"{name} must be positive and finite")


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
        if not (0 < self.t_pulse < np.inf and 0 < self.dt < np.inf):
            raise ValidationError("t_pulse and dt must be positive and finite")
        check_alpha0(self.alpha0)
        if not 0 < self.fidelity_goal <= 1:
            raise ValidationError("fidelity_goal must be in (0, 1]")
        if self.functional not in ("F", "P"):
            raise ValidationError("functional must be 'F' or 'P'")
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be non-negative (0 only evaluates)")
        n = self.t_pulse / self.dt   # inf if t_pulse / dt overflows, which round refuses
        if not n < np.inf or abs(n - round(n)) > 1e-9 * n or round(n) < 2:
            raise ValidationError("t_pulse must be an integer multiple (>= 2) of dt")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_pulse / self.dt))


@dataclass(eq=False)
class TargetSet:
    """The gate to realize, expanded into per-trajectory initial/target pairs."""

    gate: np.ndarray

    def __post_init__(self):
        self.gate = np.asarray(self.gate, dtype=complex)
        if not (np.isfinite(self.gate).all() and unitarity_defect(self.gate) <= 1e-8):
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

    `multipliers_s` and `forward_s` hold the wall seconds of the
    optimizer's multipliers call, which gives the multipliers at t = 0,
    and of the forward update of every iteration swept by the last
    optimizer call on this trace.  The multipliers call is one D x D
    product with the propagator of the last forward update for the closed
    gate optimizer (after a forward sweep of the starting field on a
    resumed trace), a backward sweep of the targets for the others.  They
    stay in memory, so artifacts do not depend on timing."""

    iterations: list = dataclass_field(default_factory=list)
    objectives: list = dataclass_field(default_factory=list)
    fidelities: list = dataclass_field(default_factory=list)
    fluences: list = dataclass_field(default_factory=list)
    status: str = "running"
    multipliers_s: list = dataclass_field(default_factory=list)
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
    rotating variable there.  Per block of n steps, one `step_rows` call of
    the adjoint kernel steps the multipliers through the block, row i into
    row i + 1 of n + 1 rows, and `bracket` of the first n rows and the two
    state buffers returns `advance(i, e, w)`, the whole of step i of the
    block: it pairs the states with the step's bras, corrects the sample e
    to e - w * value, steps the states from buffer i % 2 into the other
    under the corrected sample, and returns that.  Row n starts the next
    block, and a block of odd n leaves the states in the second buffer.

    The states may hold more columns than lam, the closed gate
    optimizer's completion of its trajectories to a basis: the pairing
    reads the first lam.shape[-1], and the rest ride along under the new
    field.  The two state buffers are C-contiguous, as the `np.dot` that
    steps into them needs: a rotation at t = 0 returns a new C-contiguous
    array, never its input.
    Returns (new field samples, final states)."""
    new_field = field.copy()
    psi, lam = kernel.rotate_in(psi, 0), adjoint.rotate_in(lam, 0)
    states = psi, np.empty_like(psi)
    rows = None
    for steps, lam_ops in step_blocks(adjoint, field):
        n = len(lam_ops)
        if rows is None:   # the first block is the longest
            rows = np.empty((n + 1,) + lam.shape, lam.dtype)
        lams = rows[:n + 1]
        lams[0] = lam
        adjoint.step_rows(lams, lam_ops)
        lam = lams[n]
        block = slice(steps.start, steps.stop)
        new_field[block] = list(map(bracket(lams[:n], states), range(n),
                                    field[block].tolist(), weight[block].tolist()))
        if n % 2:
            states = states[::-1]
    return new_field, kernel.rotate_out(states[0], 2 * (len(field) - 1))


def _run_iterations(basis, config, kernel, adjoint, initials, bracket, measure, multipliers,
                    initial_field, trace, callback):
    """Iteration driver: stopping rules, trace recording, fault detection.

    Each iteration obtains the multipliers at t = 0 by
    `multipliers(field, finals)`, then runs `_forward_update` from
    `initials` under `kernel`, with the multipliers under `adjoint`.
    finals are the final states of the last forward update or evaluation
    of the current field, None on a resumed trace before its first forward
    update.  `measure(finals)` gives the objective and the fidelity.

    Iteration 0 in the trace is the evaluation of the starting field; the
    monotonic sweeps are iterations 1..max_iterations.  A starting field
    that already meets the fidelity goal, by its evaluation or by the last
    fidelity of the trace it continues, returns without any sweep.
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
    finals = None
    if not len(trace):
        finals = sweep(kernel, initials, field)
        objective, fid = measure(finals)
        trace.append(0, objective, fid, ControlField(field, config.dt).fluence())
    if trace.fidelities[-1] >= config.fidelity_goal:
        trace.status = "converged"
        return ControlField(field, config.dt), trace
    start = trace.iterations[-1] + 1
    trace.multipliers_s, trace.forward_s = [], []
    for it in range(start, config.max_iterations + start):
        t0 = time.perf_counter()
        lam = multipliers(field, finals)
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
        trace.multipliers_s.append(t1 - t0)
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


def _closed_bracket(frame, functional):
    """Update bracket of the closed functionals for the `InteractionFrame`
    kernel frame.  In the rotating variable, <lam|psi> = <y_lam|y_psi> and
    <lam|mu_I psi> = <y_lam|mu y_psi> = <mu y_lam|y_psi> with the static,
    real symmetric dipole mu.  Per block, one copy and one real product of
    mu with the real view give both bras of every step, unconjugated: the
    pairing conjugates them.  It reads a view of the first lam.shape[-1]
    columns of the states, which the closed gate optimizer completes to a
    basis.  P pairs the bras with them trajectory by trajectory in one
    `np.vecdot`, then couples the overlaps by one `np.vdot`; F takes one
    phase-coherent sum over its trajectories, the gate's N, by one
    `np.vdot` per bra (which copies the strided view of N of the D
    columns, 0.4 us per step at D = 8).  The step matrix of the corrected
    sample e is the product of its powers, written into a 5-vector the
    bracket owns, with the C_k, into the kernel's one-step buffer."""
    mu = frame.mu
    c, flat, s = frame.one_step_buffer()
    powers = np.ones(5)
    coherent = functional == "F"
    block = None

    def bracket(lams, states):
        nonlocal block
        if block is None:   # the first block of a forward update is its longest
            block = np.empty((len(lams), 2) + lams.shape[1:], complex)
        pairs = block[:len(lams)]
        pairs[:, 0] = lams
        np.matmul(mu, lams.view(float), out=pairs[:, 1].view(float))
        paired = [psi[..., :lams.shape[-1]] for psi in states]
        red = np.empty((2, lams.shape[-1]), complex)
        overlaps, dipole_overlaps = red

        def advance(i, e, w):
            j = i & 1
            psi = paired[j]
            if coherent:
                overlap = np.vdot(pairs[i, 0], psi)
                value = (overlap.conjugate() * np.vdot(pairs[i, 1], psi)).imag
            else:
                np.vecdot(pairs[i], psi, axis=-2, out=red)
                value = np.vdot(overlaps, dipole_overlaps).imag
            e -= w * float(value)
            powers[1] = e
            powers[2] = e * e
            powers[3] = e ** 3
            powers[4] = e ** 4
            np.dot(powers, c, out=flat)
            np.dot(s, states[j], out=states[1 - j])
            return e

        return advance

    return bracket


def optimize_gate(basis: EigenBasis, targets: TargetSet, config: OctConfig,
                  initial_field: ControlField | None = None,
                  trace: OctTrace | None = None, callback=None):
    """Synthesize the field driving the target gate among the qubit states.

    Returns (ControlField, OctTrace).  The trace records the functional's
    main objective, the gate fidelity of the projected propagator, and the
    field fluence for every iteration, plus a final status string.  Each
    iteration's multipliers are U^dag targets, U the propagator of the
    field that the previous forward update stepped with its trajectories.
    """
    init, targ = targets.trajectories(basis.n_states, config.functional == "P")
    n_gate = targets.n
    d, n_traj = init.shape
    frame = InteractionFrame(basis, config.dt)
    # the trajectories, then the basis states they leave out: the final
    # states hold U e_j for every j, the gate's in the first n_gate columns
    states = np.concatenate((init, np.eye(d, dtype=complex)[:, n_gate:]), axis=1)
    basis_columns = np.r_[:n_gate, n_traj:n_traj + d - n_gate]

    def multipliers(field, finals):
        if finals is None:   # a resumed trace: no evaluation of its starting field
            finals = sweep(frame, states, field)
        return finals[:, basis_columns].conj().T @ targ   # lambda(0) = U^dag targets

    def measure(finals):
        finals = finals[:, :n_traj]
        overlaps = np.einsum("dj,dj->j", targ.conj(), finals)
        if config.functional == "P":
            objective = float(np.sum(np.abs(overlaps) ** 2))
        else:
            objective = float(abs(np.sum(overlaps[:n_gate])) ** 2)
        return objective, fidelity(targets.gate, finals[:n_gate, :n_gate])

    return _run_iterations(basis, config, frame, frame, states,
                           _closed_bracket(frame, config.functional), measure, multipliers,
                           initial_field, trace, callback)


def optimize_state_prep(basis: EigenBasis, target: np.ndarray, config: OctConfig,
                        initial_field: ControlField | None = None,
                        trace: OctTrace | None = None, callback=None):
    """Field preparing the encoded wavepacket from the motional ground state.

    Single-target variant of the P functional, the only one it takes; the
    reported fidelity is the population overlap |<target|psi(T)>|^2,
    insensitive to the global phase.
    """
    if config.functional != "P":
        raise ValidationError("state preparation runs the P functional only")
    c = np.asarray(target, dtype=complex)
    if not abs(np.linalg.norm(c) - 1.0) <= 1e-8:
        raise ValidationError("target amplitudes must be normalized")
    dim = basis.n_states
    if len(c) > dim:
        raise ValidationError("target has more states than the dynamical basis")
    init = np.zeros((dim, 1), dtype=complex)
    init[0, 0] = 1.0
    targ = np.zeros((dim, 1), dtype=complex)
    targ[: len(c), 0] = c
    frame = InteractionFrame(basis, config.dt)

    def multipliers(field, finals):
        return sweep(frame, targ, field, backward=True)

    def measure(finals):
        overlap2 = float(abs(np.vdot(targ[:, 0], finals[:, 0])) ** 2)
        return overlap2, overlap2

    return _run_iterations(basis, config, frame, frame, init, _closed_bracket(frame, "P"),
                           measure, multipliers, initial_field, trace, callback)


# ---------------------------------------------------------------------------
# dissipative variant
# ---------------------------------------------------------------------------

def optimize_gate_dissipative(basis: EigenBasis, targets: TargetSet,
                              config: OctConfig, diss: DissipationModel,
                              initial_field: ControlField | None = None,
                              trace: OctTrace | None = None, callback=None):
    """Gate optimization with forward/backward Lindblad propagation.

    The density form of the P functional, the only one it takes.
    Trajectories are density matrices rho_j from the basis projectors and
    the superposition projector; multipliers eta_j run backward from the
    target projectors under the adjoint generator.
    The objective is sum_j Tr(W_j rho_j(T)), measured on Hermitian
    coordinates by `population_form`.  The trace's fidelities, and so the
    `fidelity` column of `*_diss_trace.csv`, are the mean target population
    of the gate trajectories, the phase-insensitive surrogate available in
    the density formalism.  They are not the gate fidelity that `fidelity`
    and the process-fidelity trace of `analysis` report.
    """
    if config.functional != "P":
        raise ValidationError("the dissipative optimizer runs the P functional only")
    frame = InteractionFrame(basis, config.dt)
    d = basis.n_states
    init_vecs, targ_vecs = targets.trajectories(d, with_superposition=True)
    rho0, eta_final = (
        hermitian_coordinates(np.einsum("dt,et->tde", v, v.conj())).reshape(-1, d * d)
        for v in (init_vecs, targ_vecs))
    n_gate = targets.n
    kernel = lindblad_kernel(frame, diss)
    adjoint = lindblad_kernel(frame, diss, adjoint=True)
    target_bras = eta_final * population_form(d)

    def multipliers(field, finals):
        return sweep(adjoint, eta_final, field, backward=True)

    def measure(rho):
        pops = np.einsum("tu,tu->t", target_bras, rho)
        return float(np.sum(pops)), float(np.mean(pops[:n_gate]))

    return _run_iterations(basis, config, kernel, adjoint, rho0, _density_bracket(kernel),
                           measure, multipliers, initial_field, trace, callback)


def _density_bracket(kernel):
    """Update bracket of the dissipative P functional for either Lindblad
    kernel, whose states are the kernel's rotating variable y.  In y,
    Tr(eta [mu_I, rho]) = Tr(y_eta [mu, y_rho]) with the static dipole,
    and for Hermitian y_rho and y_eta that is -2i Im Tr(y_eta y_rho mu).
    Per block, one `commutator_bras` call of the kernel gives the bras of
    every step; a step pairs them with rho by `commutator_pairing`, which
    gives Im Tr(y_eta y_rho mu), corrects the sample and takes the
    kernel's `held_step` under it into the spare states."""
    pairing, held_step = kernel.commutator_pairing, kernel.held_step
    block = None

    def bracket(etas, states):
        nonlocal block
        if block is None:   # the first block of a forward update is its longest
            block = np.empty_like(etas)
        bras = kernel.commutator_bras(etas, block[:len(etas)])

        def advance(i, e, w):
            j = i & 1
            rho = states[j]
            e -= w * -pairing(bras[i], rho)
            held_step(e, rho, states[1 - j])
            return e

        return advance

    return bracket
