"""The three workloads: seeded inputs, timed stages and output checks.

Each job drives the user path in-process through `iontrapsim.cli.main`,
one stage after another, into a fresh output directory.  The program sees
only the INI and field files made here from the seed.  Jobs are short
(well under a second), so a run holds many of them; see README.md for why.

* desk-gate: `trap`, `gate`, `optimize --functional P` with a small sweep
  budget on a 300-step desk pulse, then `evolution_operator` on the
  written field.  The seed draws the gate's delta_t within 1% of 2 pi / 10.
  A traced run adds one job that runs the full desk pulse to the fidelity
  goal.
* paper-oct: the same at paper dimensions on a 150-step pulse.
* desk-open: `simulate` (one kappa, ten pulses, two packets) of a seeded
  20-step field, `analyze --filter-band`, a short `optimize --dissipative`
  budget, then `fidelity_trace` of a 3-step field over the ten pulses.
"""

import contextlib
import csv
import json
import math
import os
import random
import time
import traceback

import numpy as np

import spans

from iontrapsim import (analysis, cli, config, gridsim, oct as ioct, propagator,
                        serialization, trap)
from iontrapsim.units import TIME_AU_S

KAPPA_AU = 5e-18
DESK_DT_NS = 2.0
PAPER_DT_NS = 0.96
FILTER_BAND_MHZ = ("0.5", "12")
NORM_TOL = 1e-8

# Step counts and sweep budgets.  The optimizer calls back after each
# sweep, so a budget of 3 sweeps gives two timed callback intervals.  FULL
# is what the benchmark measures; TINY is the smoke-test size.  GOAL is the
# desk pulse of the tier, run to the fidelity goal once in a traced
# desk-gate run.
FULL = {
    "desk-gate": {"steps": 150, "max_iterations": 3},
    "paper-oct": {"steps": 80, "max_iterations": 3},
    "desk-open": {"steps": 20, "max_iterations": 3, "check_steps": 3},
}
TINY = {
    "desk-gate": {"steps": 40, "max_iterations": 2},
    "paper-oct": {"steps": 10, "max_iterations": 2},
    "desk-open": {"steps": 4, "max_iterations": 2, "check_steps": 2},
}
GOAL = {"full": {"steps": None, "max_iterations": None},
        "tiny": {"steps": 100, "max_iterations": 2}}
# Each job runs its field check this many times.  On desk-open the check
# runs on a field of its own, `check_steps` long, so that it lasts about as
# long as a sweep (fidelity_trace costs about 5 ms per step over ten pulses).
CHECK_REPEATS = 3


def _gate_delta_t(seed):
    return 2.0 * math.pi / 10.0 * random.Random(seed).uniform(0.99, 1.01)


def _ini(sections):
    lines = []
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in values.items())
        lines.append("")
    return "\n".join(lines)


def _oct_section(size, dt_ns):
    if size["steps"] is None:
        return {}
    return {"t_pulse": f"{size['steps'] * dt_ns!r} ns"}


def seeded_field(basis, steps, dt_au, seed):
    """Guess-field transitions (delta n = 1, 3 among the qubit states)
    with seeded phases under the sin^2 envelope, zero at both ends."""
    rng = np.random.default_rng(seed)
    t = np.arange(steps + 1) * dt_au
    samples = np.zeros(steps + 1)
    for _, _, freq_hz, _ in trap.transition_table(basis, (1, 3)):
        omega = 2.0 * math.pi * TIME_AU_S * freq_hz
        samples += np.sin(omega * t + rng.uniform(0.0, 2.0 * math.pi))
    samples *= ioct.GUESS_AMPLITUDE_AU * np.sin(math.pi * t / t[-1]) ** 2
    samples[0] = samples[-1] = 0.0
    return propagator.ControlField(samples, dt_au)


def generate_inputs(workload, seed, size, indir):
    """Write the workload's INI (and field) file; return their paths and
    the facts the run record needs."""
    os.makedirs(indir, exist_ok=True)
    info = {"seed": seed}
    if workload == "desk-gate":
        info["delta_t_au"] = _gate_delta_t(seed)
        sections = {"run": {"tier": "desk"},
                    "sim": {"delta_t": f"{info['delta_t_au']!r} au"},
                    "oct": _oct_section(size, DESK_DT_NS)}
    elif workload == "paper-oct":
        info["delta_t_au"] = _gate_delta_t(seed)
        sections = {"run": {"tier": "paper"},
                    "sim": {"delta_t": f"{info['delta_t_au']!r} au"},
                    "oct": _oct_section(size, PAPER_DT_NS)}
    elif workload == "desk-open":
        sections = {"run": {"tier": "desk"}, "oct": _oct_section(size, DESK_DT_NS)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    sections = {k: v for k, v in sections.items() if v}
    ini = os.path.join(indir, "run.ini")
    with open(ini, "w") as handle:
        handle.write(_ini(sections))
    info["ini"] = ini
    cfg = config.load_config(ini)
    info["steps"] = int(round(cfg.t_pulse / cfg.oct_dt))
    info["dim"] = cfg.trap.dynamical_size
    info["fidelity_goal"] = cfg.fidelity_goal
    info["max_iterations"] = size["max_iterations"]
    if workload == "desk-open":
        basis = trap.solve_trap(cfg.trap)
        info["field"] = os.path.join(indir, "input_field.csv")
        serialization.save_field(seeded_field(basis, info["steps"], cfg.oct_dt, seed),
                                 info["field"])
        info["check_field"] = os.path.join(indir, "check_field.csv")
        serialization.save_field(seeded_field(basis, size["check_steps"], cfg.oct_dt, seed),
                                 info["check_field"])
        info["basis"] = basis
        info["n_pulses"] = cfg.n_pulses
        grid = gridsim.make_grid(cfg.x_min, cfg.x_max, cfg.grid_points)
        info["gate"] = gridsim.elementary_gate(gridsim.SimSystem(), grid, cfg.delta_t,
                                               cfg.k_substeps)
        info["diss"] = propagator.build_dissipation(basis, KAPPA_AU, cfg.deltas)
    return info


class Job:
    """One pass of a workload's stages into `outdir`, then its checks."""

    def __init__(self, workload, info, outdir, tracer=None):
        self.workload = workload
        self.info = info
        self.outdir = outdir
        self.tracer = tracer
        self.stages = []          # (name, seconds, exit code or None)
        self.failures = []        # (stage, message)
        self.fingerprint = {}
        self.sweeps = None
        self.attempted = 0
        self._stage = None
        self._check_result = None
        self.spans = self.self_times = None   # set after the job

    # ------------------------------------------------------------ stages

    def _timed(self, stage, span_name, func):
        self._stage = stage
        self.attempted += 1
        span = self.tracer.open(span_name) if self.tracer else None
        t0 = time.perf_counter()
        try:
            result = func()
        finally:
            elapsed = time.perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
        return elapsed, result

    def cli_stage(self, name, args, expected):
        argv = [name] + args + ["--config", self.info["ini"], "--out", self.outdir]
        if self.workload == "paper-oct":
            argv.append("--acknowledge-long-run")
        log = os.path.join(self.outdir, "console.log")
        with open(log, "a") as handle, contextlib.redirect_stdout(handle):
            elapsed, code = self._timed(name, f"cli.{name}", lambda: cli.main(argv))
        self.stages.append((name, elapsed, code))
        if code not in expected:
            self.failures.append((name, f"exit code {code}, expected {expected}"))
        return code

    def check_stage(self):
        """The field check a user runs after `optimize` or before trusting
        a field: `evolution_operator` of the written field against the
        written gate, or on desk-open `fidelity_trace` of a short seeded
        field under heating over the tier's pulses."""
        if self.workload == "desk-open":
            def run():
                field = serialization.load_field(self.info["check_field"])
                return analysis.fidelity_trace(field, self.info["basis"], self.info["diss"],
                                               self.info["n_pulses"], self.info["gate"])
        else:
            def run():
                basis = serialization.load_eigenbasis(self.outdir)
                gate = serialization.load_gate(os.path.join(self.outdir, "gate.csv"),
                                               os.path.join(self.outdir, "gate.json"))
                field = serialization.load_field(os.path.join(self.outdir, "gate_p_field.csv"))
                return ioct.fidelity(gate, propagator.evolution_operator(field, basis, gate.n))

        for _ in range(CHECK_REPEATS):
            elapsed, self._check_result = self._timed("check", "bench.check", run)
            self.stages.append(("check", elapsed, None))

    def run(self):
        """Timed stages; an exception ends the job and counts as a failure."""
        os.makedirs(self.outdir, exist_ok=True)
        optimize = ["--functional", "P"]
        if self.info["max_iterations"] is not None:
            optimize += ["--max-iterations", str(self.info["max_iterations"])]
        try:
            if self.workload in ("desk-gate", "paper-oct"):
                self.cli_stage("trap", [], (0,))
                self.cli_stage("gate", [], (0,))
                # the goal job converges; a sweep budget ends with exit code 4
                self.cli_stage("optimize", optimize,
                               (0,) if self.info["max_iterations"] is None else (4,))
            else:
                kappa = ["--kappa", repr(KAPPA_AU)]
                self.cli_stage("simulate", ["--field", self.info["field"]] + kappa, (0,))
                self.cli_stage("analyze", ["--field", self.info["field"],
                                           "--filter-band", *FILTER_BAND_MHZ], (0,))
                self.cli_stage("optimize", optimize + ["--dissipative"] + kappa, (4,))
            self.check_stage()
        except Exception as exc:  # a stage that raises is a failed operation
            traceback.print_exc()
            self.failures.append((self._stage, f"{type(exc).__name__}: {exc}"))

    def stage_times(self, name):
        return [s for n, s, _ in self.stages if n == name]

    def wall_seconds(self):
        return sum(s for _, s, _ in self.stages)

    def sweep_intervals(self):
        """Time from one optimizer callback to the next: one sweep plus its
        evaluation."""
        return [gap for span in self.spans or () if "callbacks" in span["attrs"]
                for gap in spans.callback_intervals(span)[1]]

    # ------------------------------------------------------------ checks

    def _check(self, stage, ok, message):
        if not ok:
            self.failures.append((stage, message))

    def _parse_artifacts(self):
        for name in sorted(os.listdir(self.outdir)):
            path = os.path.join(self.outdir, name)
            try:
                if name.endswith(".json"):
                    with open(path) as handle:
                        json.load(handle)
                elif name.endswith(".csv"):
                    _read_numeric_csv(path)
            except (ValueError, OSError) as exc:
                self.failures.append(("artifacts", f"{name} does not parse: {exc}"))

    def _check_trace(self, field_name, trace_name, status, budget):
        trace = serialization.load_trace(os.path.join(self.outdir, trace_name))
        field = serialization.load_field(os.path.join(self.outdir, field_name))
        self.sweeps = len(trace) - 1
        self._check("optimize", trace.status == status,
                    f"status {trace.status!r}, expected {status!r}")
        self._check("optimize", trace.is_monotonic(), "objective is not monotone")
        if budget is not None:
            self._check("optimize", self.sweeps == budget,
                        f"{self.sweeps} sweeps, budget {budget}")
        self.fingerprint.update(
            final_objective=trace.objectives[-1],
            final_fidelity=trace.final_fidelity,
            field_l2_norm=float(np.linalg.norm(field.samples)),
        )
        return trace, field

    def check(self):
        """Output checks, run outside the timed stages.  Returns True when
        every check held."""
        if self.failures:
            return False
        try:
            self._parse_artifacts()
            if self.workload == "desk-open":
                trace, field = self._check_trace(
                    "gate_p_diss_field.csv", "gate_p_diss_trace.csv",
                    "iteration budget exhausted", self.info["max_iterations"])
                gap = trace.final_fidelity - ioct.fidelity(
                    self.info["gate"],
                    propagator.evolution_operator(field, self.info["basis"],
                                                  self.info["gate"].n))
                self._check_open_artifacts()
            else:
                budget = self.info["max_iterations"]
                status = "converged" if budget is None else "iteration budget exhausted"
                trace, _ = self._check_trace("gate_p_field.csv", "gate_p_trace.csv",
                                             status, budget)
                if budget is None:
                    goal = self.info["fidelity_goal"]
                    self._check("optimize", trace.final_fidelity >= goal,
                                f"final fidelity {trace.final_fidelity} below {goal}")
                gap = trace.final_fidelity - self._check_result
            self.fingerprint["fidelity_gap"] = gap
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            self.failures.append(("checks", f"{type(exc).__name__}: {exc}"))
        return not self.failures

    def _check_open_artifacts(self):
        names = os.listdir(self.outdir)
        trajectories = [n for n in names if n.startswith("closed_trajectory")]
        self._check("simulate", len(trajectories) == 2,
                    f"{len(trajectories)} closed trajectories, expected 2 packets")
        for name in trajectories:
            header, rows = _read_numeric_csv(os.path.join(self.outdir, name))
            col = header.index("norm_or_trace")
            drift = max(abs(r[col] - 1.0) for r in rows)
            self._check("simulate", drift <= NORM_TOL,
                        f"{name}: norm drift {drift:.3e}")
        fid_files = [n for n in names if n.startswith("fidelity_kappa_")]
        self._check("simulate", len(fid_files) == 1,
                    f"{len(fid_files)} fidelity traces, expected one kappa")
        for name in fid_files:
            header, rows = _read_numeric_csv(os.path.join(self.outdir, name))
            col = header.index("fidelity")
            values = [r[col] for r in rows]
            self._check("simulate", all(0.0 <= v <= 1.0 for v in values),
                        f"{name}: fidelity outside [0, 1]")
            self.fingerprint["last_fidelity_trace"] = values[-1]
        checked = np.asarray(self._check_result)
        self._check("check", bool(np.all((checked >= 0.0) & (checked <= 1.0))),
                    "fidelity_trace outside [0, 1]")
        self.fingerprint["check_last_fidelity"] = float(checked[-1])
        self._check("analyze", any(n.endswith("_filtered.csv") for n in names),
                    "no filtered field written")


def _read_numeric_csv(path):
    """Header and float rows of an artifact CSV; raises ValueError on any
    non-numeric cell or ragged row."""
    header, rows = None, []
    with open(path, newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                continue
            cells = next(csv.reader([line]))
            if header is None:
                header = cells
                continue
            if len(cells) != len(header):
                raise ValueError(f"row of {len(cells)} cells under {len(header)} columns")
            rows.append([float(c) for c in cells])
    if header is None or not rows:
        raise ValueError("no data rows")
    return header, rows
