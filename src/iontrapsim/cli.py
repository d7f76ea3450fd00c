"""Command-line pipeline: trap, gate, optimize, simulate, analyze.

Each stage reads the run configuration (tier preset, optionally overlaid
by an INI file), writes its artifacts into the output directory with the
config hash embedded, and prints a short report.  Exit codes: 0 success,
2 configuration/validation error, 3 numerical failure, 4 non-convergence.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis, serialization
from .config import RunConfig, load_config, tier_config
from .encoder import encode
from .errors import ConvergenceError, NumericalError, ValidationError
from .gridsim import SimSystem, elementary_gate, gaussian_packet, make_grid
from .oct import OctConfig, TargetSet, fidelity, optimize_gate, \
    optimize_gate_dissipative, optimize_state_prep
from .propagator import ClosedPulseMap, LindbladPulseMap, QuantumState, build_dissipation
from .trap import solve_trap, transition_table
from .units import TIME_AU_S

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


def _load_run_config(args) -> RunConfig:
    """The tier preset, the INI file over it, then the command's options
    over both: the configuration the run resolves and hashes."""
    if args.config:
        cfg = load_config(args.config, tier=args.tier, outdir=args.out)
    else:
        cfg = tier_config(args.tier or "desk")
        if args.out:
            cfg.outdir = args.out
    if getattr(args, "functional", None):
        cfg.functional = args.functional.upper()
    if getattr(args, "max_iterations", None) is not None:
        cfg.max_iterations = args.max_iterations
    if getattr(args, "kappa", None) is not None:
        cfg.kappas = tuple(args.kappa)
    cfg.validate()
    if cfg.tier == "paper" and not getattr(args, "acknowledge_long_run", False):
        raise ValidationError(
            "the paper tier runs for hours; pass --acknowledge-long-run"
        )
    return cfg


def _meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash, "tier": cfg.tier}


def _build_gate(cfg: RunConfig):
    grid = make_grid(cfg.x_min, cfg.x_max, cfg.grid_points)
    system = SimSystem()
    return grid, system, elementary_gate(system, grid, cfg.delta_t, cfg.k_substeps)


def _oct_config(cfg: RunConfig) -> OctConfig:
    return OctConfig(
        t_pulse=cfg.t_pulse,
        dt=cfg.oct_dt,
        alpha0=cfg.alpha0,
        functional=cfg.functional,
        max_iterations=cfg.max_iterations,
        fidelity_goal=cfg.fidelity_goal,
    )


def cmd_trap(args) -> int:
    cfg = _load_run_config(args)
    basis = solve_trap(cfg.trap)
    paths = serialization.save_eigenbasis(basis, cfg.outdir, _meta(cfg))
    nu_mhz = basis.omega / (2 * np.pi * TIME_AU_S) / 1e6
    print(f"trap: omega = {basis.omega:.6e} a.u. ({nu_mhz:.4f} MHz harmonic)")
    for j, k, freq, dip in transition_table(basis, (1,), min(4, basis.n_qubits)):
        print(f"  {j}->{k}: {freq / 1e6:.4f} MHz, mu = {dip:.2f} a.u.")
    print(f"wrote {', '.join(sorted(paths.values()))}")
    return EXIT_OK


def cmd_gate(args) -> int:
    cfg = _load_run_config(args)
    _, _, gate = _build_gate(cfg)
    path_csv = os.path.join(cfg.outdir, "gate.csv")
    path_json = os.path.join(cfg.outdir, "gate.json")
    serialization.save_gate(gate, path_csv, path_json, _meta(cfg))
    print(
        f"gate: N = {gate.n}, delta_t = {gate.delta_t:.6g} a.u., K = {gate.k_substeps}"
    )
    print(f"unitarity: max |U^dag U - I| = {gate.unitarity_defect():.3e}")
    print(f"wrote {path_csv}, {path_json}")
    return EXIT_OK


def _trace_candidates(field_path: str):
    """Trace files paired with a field file: X.csv -> X_trace.csv, and
    X_field.csv -> X_trace.csv."""
    stem = field_path[:-4] if field_path.endswith(".csv") else field_path
    yield stem + "_trace.csv"
    if stem.endswith("_field"):
        yield stem[: -len("_field")] + "_trace.csv"


def _checkpoint_writer(cfg, outdir, stem, every):
    def callback(iteration, fieldspec, trace):
        if every and (iteration + 1) % every == 0:
            serialization.save_field(
                fieldspec, os.path.join(outdir, f"{stem}_checkpoint.csv"), _meta(cfg)
            )
            serialization.save_trace(
                trace,
                os.path.join(outdir, f"{stem}_checkpoint_trace.csv"),
                _meta(cfg),
            )
        print(
            f"  iter {iteration:5d}  J = {trace.objectives[-1]:.8f}  "
            f"F = {trace.fidelities[-1]:.6f}",
            flush=True,
        )

    return callback


def cmd_optimize(args) -> int:
    cfg = _load_run_config(args)
    basis = solve_trap(cfg.trap)
    oct_cfg = _oct_config(cfg)

    initial_field = trace = None
    if args.resume:
        if not os.path.exists(args.resume):
            raise ValidationError(f"resume file {args.resume} does not exist")
        initial_field = serialization.load_field(args.resume)
        for trace_path in _trace_candidates(args.resume):
            if os.path.exists(trace_path):
                trace = serialization.load_trace(trace_path)
                break

    stem = f"{args.mode}_{cfg.functional.lower()}"
    if args.dissipative:
        stem = f"{stem}_diss"
    callback = _checkpoint_writer(cfg, cfg.outdir, stem, args.checkpoint_every)

    if args.mode == "prep":
        if args.dissipative:
            raise ValidationError("dissipative optimization is defined for the gate")
        sigma, x0 = cfg.packets[0]
        grid, _, _ = _build_gate(cfg)
        target = encode(gaussian_packet(grid, sigma, x0))
        fieldspec, trace = optimize_state_prep(
            basis, target, oct_cfg, initial_field, trace, callback
        )
    else:
        _, _, gate = _build_gate(cfg)
        targets = TargetSet(gate.entries)
        if args.dissipative:
            if not args.kappa or len(args.kappa) > 1:
                raise ValidationError("--dissipative requires exactly one --kappa value")
            diss = build_dissipation(basis, args.kappa[0], cfg.deltas)
            fieldspec, trace = optimize_gate_dissipative(
                basis, targets, oct_cfg, diss, initial_field, trace, callback
            )
        else:
            fieldspec, trace = optimize_gate(
                basis, targets, oct_cfg, initial_field, trace, callback
            )

    serialization.save_field(fieldspec, os.path.join(cfg.outdir, f"{stem}_field.csv"), _meta(cfg))
    serialization.save_trace(trace, os.path.join(cfg.outdir, f"{stem}_trace.csv"), _meta(cfg))
    print(
        f"optimize {args.mode}/{cfg.functional}: {trace.status} after {len(trace)} "
        f"iterations, F = {trace.final_fidelity:.6f}, "
        f"peak = {fieldspec.peak_v_per_m():.3f} V/m"
    )
    if trace.status != "converged":
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _closed_simulation(cfg, pulse_map, grid, c0):
    state = np.zeros(len(pulse_map.final), dtype=complex)
    state[: len(c0)] = c0
    pulses = [np.abs(state[: grid.n]) ** 2]
    times, populations, norms = [], [], []
    for pulse in range(cfg.n_pulses):
        out, stored = pulse_map.apply(state)
        times.append(pulse_map.times + pulse * pulse_map.t_pulse)
        populations.append(np.abs(stored) ** 2)
        norms.append(np.linalg.norm(stored, axis=1) ** 2)
        # absorb the per-pulse integrator drift before concatenating
        state = out / np.linalg.norm(out)
        pulses.append(np.abs(state[: grid.n]) ** 2)
    trajectory = (
        np.concatenate(times),
        np.concatenate(populations),
        np.concatenate(norms),
    )
    return pulses, trajectory


def _dissipative_simulation(cfg, basis, gate, pulse_map, grid, c0):
    c = np.zeros(basis.n_states, dtype=complex)
    c[: len(c0)] = c0
    rho = np.outer(c, c.conj())
    pulses = [np.real(np.diag(rho))[: grid.n].copy()]
    zs = [analysis.mean_position_ion(QuantumState(rho), basis)]
    for _ in range(cfg.n_pulses):
        rho = pulse_map.apply(rho)
        rho = rho / np.trace(rho).real
        pulses.append(np.real(np.diag(rho))[: grid.n].copy())
        zs.append(analysis.mean_position_ion(QuantumState(rho), basis))
    fid_trace = analysis.map_fidelity_trace(pulse_map, cfg.n_pulses, gate)
    return pulses, zs, fid_trace


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    field_path = args.field or os.path.join(cfg.outdir, "gate_p_field.csv")
    if not os.path.exists(field_path):
        raise ValidationError(f"gate field file {field_path} does not exist")
    gate_field = serialization.load_field(field_path)
    basis = solve_trap(cfg.trap)
    grid, _, gate = _build_gate(cfg)
    meta = _meta(cfg)

    closed_map = ClosedPulseMap(gate_field, basis, max(1, gate_field.n_steps // 1000))
    fid = fidelity(gate, closed_map.gate(gate.n))
    print(f"simulate: gate field realizes F = {fid:.6f}")
    # the drift of this map is what each pulse's renormalization removes
    print(f"closed pulse map: max |U^dag U - I| = {closed_map.unitarity_drift():.3e}")

    # closed run for every configured packet; the first one keeps the
    # unsuffixed file names and feeds the dissipative sweep
    c0 = None
    for index, (sigma, x0) in enumerate(cfg.packets):
        packet = gaussian_packet(grid, sigma, x0)
        amplitudes = encode(packet)
        suffix = "" if index == 0 else f"_sigma_{sigma:g}_x0_{x0:g}"
        if index == 0:
            c0 = amplitudes.c
        serialization.save_amplitudes(
            amplitudes,
            os.path.join(cfg.outdir, f"initial_amplitudes{suffix}.csv"),
            meta,
        )
        pulses, (traj_t, traj_pops, traj_norms) = _closed_simulation(
            cfg, closed_map, grid, amplitudes.c
        )
        serialization.save_state_trajectory(
            traj_t, traj_pops, traj_norms,
            os.path.join(cfg.outdir, f"closed_trajectory{suffix}.csv"), meta,
        )
        serialization.save_probability_snapshots(
            pulses, grid,
            os.path.join(cfg.outdir, f"closed_probabilities{suffix}.csv"), meta,
        )
        xs = [analysis.mean_position_sim(p / grid.delta_x, grid) for p in pulses]
        serialization.save_positions(
            xs, os.path.join(cfg.outdir, f"closed_x_mean{suffix}.csv"), meta
        )
        if cfg.n_pulses == 10:
            residual = analysis.periodicity_residual(pulses)
            print(
                f"closed-system periodicity residual (sigma={sigma:g}, "
                f"x0={x0:g}): {residual:.3e}"
            )

    for kappa in cfg.kappas:
        lindblad_map = LindbladPulseMap(gate_field, basis,
                                        build_dissipation(basis, kappa, cfg.deltas))
        pulses_k, zs, fid_k = _dissipative_simulation(
            cfg, basis, gate, lindblad_map, grid, c0
        )
        tag = f"kappa_{kappa:.3e}"
        serialization.save_probability_snapshots(
            pulses_k, grid, os.path.join(cfg.outdir, f"probabilities_{tag}.csv"), meta
        )
        serialization.save_positions(
            zs, os.path.join(cfg.outdir, f"z_mean_{tag}.csv"), meta
        )
        serialization.save_fidelity_trace(
            fid_k, os.path.join(cfg.outdir, f"fidelity_{tag}.csv"), meta
        )
        print(f"kappa = {kappa:.3e}: final-pulse fidelity {fid_k[-1]:.6f}, "
              f"pulse map trace drift {lindblad_map.trace_drift():.3e}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    cfg = _load_run_config(args)
    if not args.field or not os.path.exists(args.field):
        raise ValidationError("analyze requires --field pointing to a field file")
    fieldspec = serialization.load_field(args.field)
    meta = _meta(cfg)
    spec = analysis.spectrum(fieldspec)
    stem = os.path.splitext(os.path.basename(args.field))[0]
    out_spec = os.path.join(cfg.outdir, f"{stem}_spectrum.csv")
    serialization.save_spectrum(spec, out_spec, meta)
    peaks = spec.peak_frequencies()
    print(f"spectrum: {len(peaks)} peaks above 1% of maximum")
    for p in peaks:
        print(f"  {p / 1e6:.4f} MHz")
    print(f"wrote {out_spec}")

    if args.filter_band:
        lo, hi = (v * 1e6 for v in args.filter_band)
        filtered = analysis.bandpass_filter(fieldspec, (lo, hi))
        out_field = os.path.join(cfg.outdir, f"{stem}_filtered.csv")
        serialization.save_field(filtered, out_field, meta)
        print(f"filtered to [{lo / 1e6:.3f}, {hi / 1e6:.3f}] MHz; wrote {out_field}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iontrapsim",
        description="Trapped-ion quantum-dynamics-simulator toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI run file")
        p.add_argument("--tier", choices=("desk", "paper"), help="problem scale")
        p.add_argument("--out", help="output directory")
        p.add_argument(
            "--acknowledge-long-run",
            action="store_true",
            help="required for the paper tier",
        )

    p = sub.add_parser("trap", help="diagonalize the trap and write the eigenbasis")
    common(p)
    p.set_defaults(func=cmd_trap)

    p = sub.add_parser("gate", help="build the elementary evolution operator")
    common(p)
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("optimize", help="synthesize a control field")
    common(p)
    p.add_argument("--mode", choices=("gate", "prep"), default="gate")
    p.add_argument("--functional", choices=("F", "P", "f", "p"))
    p.add_argument("--dissipative", action="store_true")
    p.add_argument("--kappa", type=float, nargs="*", help="rate scale(s), a.u.")
    p.add_argument("--resume", help="field CSV checkpoint to continue from")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--checkpoint-every", type=int, default=25)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run the pulse-train simulation")
    common(p)
    p.add_argument("--field", help="gate field CSV (default: outdir/gate_p_field.csv)")
    p.add_argument("--kappa", type=float, nargs="*", help="override the kappa sweep")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="field spectrum and band-pass filtering")
    common(p)
    p.add_argument("--field", help="field CSV to analyze")
    p.add_argument(
        "--filter-band", type=float, nargs=2, metavar=("LO_MHZ", "HI_MHZ"),
        help="band-pass and re-save the field",
    )
    p.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConvergenceError as exc:
        print(f"optimization fault: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
