"""Command-line pipeline: trap, gate, optimize, simulate, analyze.

Each stage reads the run configuration (tier preset, optionally overlaid
by an INI file), writes its artifacts into the output directory with the
config hash embedded, and prints a short report.  Exit codes: 0 success,
2 configuration/validation error, 3 numerical failure (an optimization
whose objective decreased included), 4 an optimization that stopped short
of its goal.
"""

import argparse
import os
import sys

import numpy as np

from . import analysis, serialization
from .config import RunConfig, load_config
from .encoder import encode
from .errors import ConvergenceError, NumericalError, ValidationError
from .gridsim import SimSystem, elementary_gate, gaussian_packet, make_grid, unitarity_defect
from .oct import TargetSet, fidelity, optimize_gate, optimize_gate_dissipative, \
    optimize_state_prep
from .propagator import ClosedPulseMap, LindbladPulseMap, build_dissipation, check_kappa, \
    pulse_train
from .trap import solve_trap, transition_table
from .units import TIME_AU_S

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_NO_CONVERGENCE = 4


def _load_run_config(args) -> RunConfig:
    """The tier preset, the INI file over it, then the command's options
    over both: the configuration the run resolves and hashes.  The options
    that set a RunConfig field are parsed into the field's name."""
    options = {name: getattr(args, name, None)
               for name in ("tier", "outdir", "functional", "max_iterations", "kappas")}
    if options["kappas"] is not None:
        options["kappas"] = tuple(options["kappas"])
    cfg = load_config(args.config, **{k: v for k, v in options.items() if v is not None})
    if cfg.tier == "paper" and not args.acknowledge_long_run:
        raise ValidationError(
            "the paper tier runs for hours; pass --acknowledge-long-run"
        )
    return cfg


def _meta(cfg: RunConfig) -> dict:
    return {"config_hash": cfg.config_hash, "tier": cfg.tier}


def _build_gate(cfg: RunConfig):
    grid = make_grid(cfg.x_min, cfg.x_max, cfg.grid_points)
    return grid, elementary_gate(SimSystem(), grid, cfg.delta_t, cfg.k_substeps)


def cmd_trap(args) -> int:
    cfg = _load_run_config(args)
    basis = solve_trap(cfg.trap)
    paths = serialization.save_eigenbasis(basis, cfg.outdir, _meta(cfg))
    nu_mhz = basis.params.omega / (2 * np.pi * TIME_AU_S) / 1e6
    print(f"trap: omega = {basis.params.omega:.6e} a.u. ({nu_mhz:.4f} MHz harmonic)")
    for j, k, freq, dip in transition_table(basis, (1,), min(4, basis.n_qubits)):
        print(f"  {j}->{k}: {freq / 1e6:.4f} MHz, mu = {dip:.2f} a.u.")
    print(f"wrote {', '.join(sorted(paths.values()))}")
    return EXIT_OK


def cmd_gate(args) -> int:
    cfg = _load_run_config(args)
    _, gate = _build_gate(cfg)
    path_csv = os.path.join(cfg.outdir, "gate.csv")
    path_json = os.path.join(cfg.outdir, "gate.json")
    serialization.save_gate(gate, path_csv, path_json, _meta(cfg))
    print(
        f"gate: N = {gate.n}, delta_t = {gate.delta_t:.6g} a.u., K = {gate.k_substeps}"
    )
    print(f"unitarity: max |U^dag U - I| = {unitarity_defect(gate.entries):.3e}")
    print(f"wrote {path_csv}, {path_json}")
    return EXIT_OK


def _save_run(cfg, stem, fieldspec, trace):
    """The run's record: `<stem>_field.csv` and `<stem>_trace.csv`."""
    serialization.save_field(fieldspec, os.path.join(cfg.outdir, f"{stem}_field.csv"), _meta(cfg))
    serialization.save_trace(trace, os.path.join(cfg.outdir, f"{stem}_trace.csv"), _meta(cfg))


def _checkpoint_writer(cfg, stem, every, measure):
    """Prints each iteration; saves the run's record after every, 2 every, ..."""
    def callback(iteration, fieldspec, trace):
        if every and iteration % every == 0:
            _save_run(cfg, stem, fieldspec, trace)
        print(
            f"  iter {iteration:5d}  J = {trace.objectives[-1]:.8f}  "
            f"{measure} = {trace.fidelities[-1]:.6f}",
            flush=True,
        )

    return callback


def cmd_optimize(args) -> int:
    cfg = _load_run_config(args)
    if args.checkpoint_every < 0:
        raise ValidationError("--checkpoint-every must be non-negative (0 saves at the end only)")
    # refused before the trap solve; the two optimizers refuse F themselves too
    if args.mode == "prep" and args.dissipative:
        raise ValidationError("dissipative optimization is defined for the gate")
    if cfg.functional != "P" and (args.mode == "prep" or args.dissipative):
        optimizer = "state preparation" if args.mode == "prep" else "the dissipative optimizer"
        raise ValidationError(f"{optimizer} runs the P functional only")
    if args.dissipative and len(cfg.kappas) != 1:
        raise ValidationError(
            "--dissipative requires exactly one kappa (--kappa K or [dissipation] kappa = K)"
        )
    basis = solve_trap(cfg.trap)
    oct_cfg = cfg.oct_config()

    stem = f"{args.mode}_{cfg.functional.lower()}" + ("_diss" if args.dissipative else "")
    # a dissipative run measures the mean target population, not a gate fidelity
    measure = "population" if args.dissipative else "F"

    # only this run's own field continues the trace beside it; any other
    # field starts a new trace, whose iteration 0 evaluates that field
    initial_field = trace = None
    if args.resume:
        if not os.path.exists(args.resume):
            raise ValidationError(f"resume file {args.resume} does not exist")
        initial_field = serialization.load_field(args.resume)
        trace_path = os.path.join(os.path.dirname(args.resume), f"{stem}_trace.csv")
        if os.path.basename(args.resume) == f"{stem}_field.csv" and os.path.exists(trace_path):
            trace = serialization.load_trace(trace_path)
    callback = _checkpoint_writer(cfg, stem, args.checkpoint_every, measure)

    if args.mode == "prep":
        sigma, x0 = cfg.packets[0]
        grid = make_grid(cfg.x_min, cfg.x_max, cfg.grid_points)
        target = encode(gaussian_packet(grid, sigma, x0), grid)
        fieldspec, trace = optimize_state_prep(
            basis, target, oct_cfg, initial_field, trace, callback
        )
    else:
        _, gate = _build_gate(cfg)
        targets = TargetSet(gate.entries)
        if args.dissipative:
            diss = build_dissipation(basis, cfg.kappas[0], cfg.deltas)
            fieldspec, trace = optimize_gate_dissipative(
                basis, targets, oct_cfg, diss, initial_field, trace, callback
            )
        else:
            fieldspec, trace = optimize_gate(
                basis, targets, oct_cfg, initial_field, trace, callback
            )

    _save_run(cfg, stem, fieldspec, trace)
    print(
        f"optimize {args.mode}/{cfg.functional}: {trace.status} after {trace.iterations[-1]} "
        f"iterations, {measure} = {trace.final_fidelity:.6f}, "
        f"peak = {fieldspec.peak_v_per_m():.3f} V/m"
    )
    if trace.status != "converged":
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load_run_config(args)
    field_path = args.field or os.path.join(cfg.outdir, "gate_p_field.csv")
    if not os.path.exists(field_path):
        raise ValidationError(f"gate field file {field_path} does not exist")
    gate_field = serialization.load_field(field_path)
    basis = solve_trap(cfg.trap)
    grid, gate = _build_gate(cfg)
    meta = _meta(cfg)

    closed_map = ClosedPulseMap(gate_field, basis, max(1, gate_field.n_steps // 1000))
    fid = fidelity(gate, closed_map.gate(gate.n))
    print(f"simulate: gate field realizes F = {fid:.6f}")
    # bounds the norm drift each pulse of the trains below adds and keeps
    print(f"closed pulse map: max |U^dag U - I| = {unitarity_defect(closed_map.final):.3e}")

    # closed run for every configured packet; the first one keeps the
    # unsuffixed file names and feeds the dissipative sweep
    for index, (sigma, x0) in enumerate(cfg.packets):
        c = encode(gaussian_packet(grid, sigma, x0), grid)
        suffix = "" if index == 0 else f"_sigma_{sigma:g}_x0_{x0:g}"
        serialization.save_amplitudes(
            c, os.path.join(cfg.outdir, f"initial_amplitudes{suffix}.csv"), meta
        )
        state = np.zeros(basis.n_states, dtype=complex)
        state[: len(c)] = c
        if index == 0:
            rho0 = np.outer(state, state.conj())
        states = pulse_train(closed_map, state, cfg.n_pulses)
        pulses = np.abs(states[:, : grid.n]) ** 2
        # the snapshots of pulse l are those of the state entering it
        stored = np.array([closed_map.snapshots @ s for s in states[:-1]])
        serialization.save_state_trajectory(
            (closed_map.times + closed_map.t_pulse * np.arange(cfg.n_pulses)[:, None]).ravel(),
            np.abs(stored.reshape(-1, basis.n_states)) ** 2,
            np.linalg.norm(stored, axis=2).ravel() ** 2,
            os.path.join(cfg.outdir, f"closed_trajectory{suffix}.csv"), meta,
        )
        serialization.save_probability_snapshots(
            pulses, grid,
            os.path.join(cfg.outdir, f"closed_probabilities{suffix}.csv"), meta,
        )
        xs = [analysis.mean_position_sim(p, grid) for p in pulses]
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
        rhos = pulse_train(lindblad_map, rho0, cfg.n_pulses)
        fid_k = analysis.map_fidelity_trace(lindblad_map, cfg.n_pulses, gate)
        tag = f"kappa_{kappa:.3e}"
        serialization.save_probability_snapshots(
            rhos.diagonal(axis1=1, axis2=2).real[:, : grid.n], grid,
            os.path.join(cfg.outdir, f"probabilities_{tag}.csv"), meta
        )
        serialization.save_positions(
            [analysis.mean_position_ion(rho, basis) for rho in rhos],
            os.path.join(cfg.outdir, f"z_mean_{tag}.csv"), meta
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
    print(f"spectrum: {len(peaks)} peaks above {analysis.PEAK_THRESHOLD:.0%} of maximum")
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
        p.add_argument("--out", dest="outdir", metavar="OUT", help="output directory")
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
    p.add_argument("--functional", type=str.upper, choices=("F", "P"))
    p.add_argument("--dissipative", action="store_true")
    p.add_argument("--kappa", dest="kappas", type=float, nargs="*", metavar="KAPPA",
                   help="rate scale(s), a.u.")
    p.add_argument("--resume", metavar="FIELD", help="field CSV to start from "
                   "(this run's own <stem>_field.csv also continues its trace)")
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--checkpoint-every", type=int, default=25, metavar="N", help="save "
                   "field and trace after iterations N, 2N, ... (0: at the end only)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="run the pulse-train simulation")
    common(p)
    p.add_argument("--field", help="gate field CSV (default: outdir/gate_p_field.csv)")
    p.add_argument("--kappa", dest="kappas", type=float, nargs="*", metavar="KAPPA",
                   help="override the kappa sweep")
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


def _parse_args(parser, argv):
    """argparse's parse_args, except that a number left over by a command
    that took --kappa (spelled out or abbreviated) is checked as a kappa.
    argparse takes a value such as -1e-18 or -inf for an unknown option (its
    negative-number test has no exponent, in Python 3.10 to 3.13) and would
    stop with "unrecognized arguments", a message that does not name kappa."""
    args, extras = parser.parse_known_args(argv)
    if getattr(args, "kappas", None) is not None:
        for token in extras:
            try:
                value = float(token)
            except ValueError:
                continue
            check_kappa(value)
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = _parse_args(parser, argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ConvergenceError as exc:
        # nothing is saved after the last checkpoint, so no later stage
        # may go on with its field, as one may after exit 4
        print(f"optimization fault: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
