"""iontrapsim benchmark: one workload, measured end to end or layer by layer.

    python3 perfbench/run.py --workload desk-gate --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The package is imported from `src/` of
that checkout; nothing is installed.  Short jobs run one at a time in this
process (a closed loop with one client) until `--seconds` have passed,
at least one job.  Every job's outputs are checked after its timed stages.

With `--trace 0` the last stdout line carries the end-to-end metrics: the
fastest of the run's many short operations (see README.md for why the
fastest), and the median set-up.  With `--trace 1` it carries the
per-layer metrics taken from spans around the package's public functions.
Both write a run record (environment, fingerprints, spans) to
`perfbench/.out/`.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
OUT = os.path.join(ROOT, "perfbench", ".out")
SETUP_SAMPLES = 13         # this process plus twelve fresh interpreters
WORKLOADS = ("desk-gate", "paper-oct", "desk-open")

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_ms": "ms",
    "check_ms": "ms",
    "peak_rss_mb": "MB",
}
LAYERS = ("trap", "gridsim", "oct", "propagator", "analysis", "serialization",
          "cli")
PER_LAYER_UNITS = {
    "oct.sweep_s": "s",
    "oct.step_us": "us",
    "oct.diss_sweep_s": "s",
    "oct.start_s": "s",
    "oct.goal_s": "s",
    "oct.goal_iterations": "count",
    "oct.fidelity_gap": "1",
    "propagator.lindblad_s": "s",
    "propagator.lindblad_calls": "count",
    "propagator.tdse_s": "s",
    "propagator.tdse_calls": "count",
    "propagator.evolution_operator_s": "s",
    "analysis.fidelity_trace_s": "s",
    "analysis.spectrum_s": "s",
    "analysis.bandpass_s": "s",
    "serialization.write_s": "s",
    "serialization.read_s": "s",
    "serialization.bytes_written": "B",
    "serialization.files_written": "count",
    "trap.solve_s": "s",
    "trap.solve_calls": "count",
    "gridsim.gate_s": "s",
    "gridsim.gate_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
# span name -> (time metric, call-count metric or None)
SPAN_METRICS = {
    "propagator.propagate_lindblad": ("propagator.lindblad_s", "propagator.lindblad_calls"),
    "propagator.propagate_tdse": ("propagator.tdse_s", "propagator.tdse_calls"),
    "propagator.evolution_operator": ("propagator.evolution_operator_s", None),
    "analysis.fidelity_trace": ("analysis.fidelity_trace_s", None),
    "analysis.spectrum": ("analysis.spectrum_s", None),
    "analysis.bandpass_filter": ("analysis.bandpass_s", None),
    "trap.solve_trap": ("trap.solve_s", "trap.solve_calls"),
    "gridsim.elementary_gate": ("gridsim.gate_s", "gridsim.gate_calls"),
}
CLOSED_OPTIMIZERS = ("oct.optimize_gate", "oct.optimize_state_prep")
DISSIPATIVE_OPTIMIZER = "oct.optimize_gate_dissipative"
OPTIMIZERS = CLOSED_OPTIMIZERS + (DISSIPATIVE_OPTIMIZER,)


def _use_checkout_sources():
    """Put the checkout's `src/` first on the path; refuse to run without it
    rather than measure some other copy of the package."""
    if not os.path.isfile(os.path.join(SRC, "iontrapsim", "__init__.py")):
        sys.exit(f"perfbench: no iontrapsim sources in {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def setup(workload, seed, size_name, indir):
    """Imports plus generation of the seeded inputs; returns (seconds, info)."""
    t0 = time.perf_counter()
    _use_checkout_sources()
    import iontrapsim.cli  # noqa: F401  (the import a CLI user pays)
    import workloads

    size = getattr(workloads, size_name.upper())[workload]
    info = workloads.generate_inputs(workload, seed, size, indir)
    elapsed = time.perf_counter() - t0
    package = os.path.dirname(os.path.abspath(iontrapsim.__file__))
    if package != os.path.join(SRC, "iontrapsim"):
        sys.exit(f"perfbench: imported iontrapsim from {package}, not {SRC}")
    return elapsed, info


def setup_in_fresh_interpreter(args, indir):
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", indir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- metrics

def timed_samples(jobs):
    """Seconds of each sweep and each field check of the run."""
    return {
        "sweep_ms": [t for job in jobs for t in job.sweep_intervals()],
        "check_ms": [t for job in jobs for t in job.stage_times("check")],
    }


def end_to_end(jobs, setup_samples):
    """The fastest of the run's sweeps and field checks, and the median
    set-up."""
    metrics = {"setup_s": statistics.median(setup_samples)}
    for name, times in timed_samples(jobs).items():
        metrics[name] = 1e3 * min(times) if times else 0.0
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def distribution(times):
    """Sample count, fastest, median and the highest percentile with ten
    samples beyond it, in ms."""
    ordered = sorted(times)
    n = len(ordered)
    row = {"samples": n, "fastest": 1e3 * ordered[0], "median": 1e3 * statistics.median(ordered)}
    if n > 10:
        row[f"p{100 * (n - 10) / n:.1f}"] = 1e3 * ordered[n - 11]
    return row


def per_layer(job, span_cost):
    """Layer metrics of one traced job, from its spans."""
    m = {k: 0 if unit == "count" else 0.0 for k, unit in PER_LAYER_UNITS.items()}
    closed, dissipative, steps = [], [], None
    for s in job.spans:
        name, duration = s["name"], s["end"] - s["start"]
        own_key = name.split(".", 1)[0] + ".self_s"
        if own_key in m:
            m[own_key] += job.self_times[s["id"]]
        if name in SPAN_METRICS:
            time_key, count_key = SPAN_METRICS[name]
            m[time_key] += duration
            if count_key:
                m[count_key] += 1
        elif name.startswith("serialization.save_"):
            m["serialization.write_s"] += duration
            m["serialization.bytes_written"] += s["attrs"].get("bytes", 0)
            m["serialization.files_written"] += s["attrs"].get("files", 0)
        elif name.startswith("serialization.load_"):
            m["serialization.read_s"] += duration
        elif name in CLOSED_OPTIMIZERS or name == DISSIPATIVE_OPTIMIZER:
            first, later = spans.callback_intervals(s)
            if first is None:
                continue
            m["oct.start_s"] += first - (statistics.median(later) if later else first)
            if name == DISSIPATIVE_OPTIMIZER:
                dissipative.extend(later)
            else:
                closed.extend(later)
                steps = s["attrs"].get("steps") or steps
    if closed:
        m["oct.sweep_s"] = statistics.median(closed)
        if steps:
            m["oct.step_us"] = m["oct.sweep_s"] / steps * 1e6
    if dissipative:
        m["oct.diss_sweep_s"] = statistics.median(dissipative)
    m["oct.fidelity_gap"] = job.fingerprint.get("fidelity_gap", 0.0)
    m["trace.wall_s"] = job.wall_seconds()
    m["trace.spans"] = len(job.spans)
    m["trace.overhead_s"] = len(job.spans) * span_cost
    return m


def median_metrics(rows):
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


# ------------------------------------------------------------- run record

def _cache_sizes():
    """Cache level -> bytes for cpu0, from sysfs (unified and data caches)."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as h:
                level = int(h.read())
            with open(os.path.join(base, entry, "type")) as h:
                kind = h.read().strip()
            with open(os.path.join(base, entry, "size")) as h:
                text = h.read().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
        sizes[f"L{level}"] = int(text.rstrip("KMG")) * scale
    return sizes


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=30,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip()


def _pulse_record(info, caches):
    # the optimizer's (2 steps + 1, D) complex phase table
    phase_table = (2 * info["steps"] + 1) * info["dim"] * 16
    return {
        "pulse_steps": info["steps"],
        "dynamical_size": info["dim"],
        "phase_table_bytes": phase_table,
        "phase_table_over_L2": phase_table / caches["L2"] if "L2" in caches else None,
        "phase_table_over_L3": phase_table / caches["L3"] if "L3" in caches else None,
    }


def run_record(info, goal_info=None):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _cache_sizes()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                        "THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "git_revision": _git_revision(),
        "seed": info["seed"],
        "delta_t_au": info.get("delta_t_au"),
        "pulse": _pulse_record(info, caches),
        "goal_pulse": _pulse_record(goal_info, caches) if goal_info else None,
    }


# -------------------------------------------------------------------- main

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: smoke-test step counts (perfbench/selfcheck.py)")
    parser.add_argument("--probe-setup", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if args.probe_setup:
        elapsed, _ = setup(args.workload, args.seed, args.size, args.probe_setup)
        print(repr(elapsed))
        return 0

    run_dir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, run_dir):
    elapsed, info = setup(args.workload, args.seed, args.size,
                          os.path.join(run_dir, "inputs"))
    samples = [elapsed]
    import workloads

    # A traced run wraps every listed function; an untraced one only the
    # optimizers, whose callback marks time the sweeps (a few us a sweep).
    tracer = spans.Tracer()
    undo = spans.install(tracer, only=None if args.trace else OPTIMIZERS)
    span_cost = spans.span_cost_s() if args.trace else 0.0

    def run_job(job_info, name):
        job = workloads.Job(args.workload, job_info, os.path.join(run_dir, name), tracer)
        tracer.reset()
        tracer.enabled = True
        job.run()
        tracer.enabled = False
        job.spans, job.self_times = tracer.spans, tracer.self_times()
        job.check()
        shutil.rmtree(job.outdir, ignore_errors=True)
        return job

    # Set-up is sampled in fresh interpreters spread over the run, so that
    # its median covers the same stretch of time as the jobs.
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    jobs, goal_job = [], None
    t_start = time.perf_counter()
    try:
        while True:
            now = time.perf_counter() - t_start
            if len(samples) - 1 < probes and now >= (len(samples) - 1) * args.seconds / probes:
                samples.append(setup_in_fresh_interpreter(
                    args, os.path.join(run_dir, f"probe{len(samples)}")))
                continue
            if jobs and now >= args.seconds:
                break
            jobs.append(run_job(info, f"job{len(jobs)}"))
        if args.trace and args.workload == "desk-gate":
            size = workloads.GOAL[args.size]
            goal_info = workloads.generate_inputs(args.workload, args.seed, size,
                                                  os.path.join(run_dir, "goal-inputs"))
            goal_job = run_job(goal_info, "goal")
    finally:
        spans.uninstall(undo)

    everything = jobs + ([goal_job] if goal_job else [])
    attempted = sum(job.attempted for job in everything)
    failed = sum(min(job.attempted, len({stage for stage, _ in job.failures}))
                 for job in everything)
    if args.trace:
        metrics = median_metrics([per_layer(job, span_cost) for job in jobs])
        if goal_job:
            metrics["oct.goal_s"] = sum(goal_job.stage_times("optimize"))
            metrics["oct.goal_iterations"] = goal_job.sweeps or 0
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(jobs, samples)
        units = END_TO_END_UNITS

    record = {
        "workload": args.workload,
        "trace": args.trace,
        "size": args.size,
        "environment": run_record(info, goal_job.info if goal_job else None),
        "setup_samples_s": samples,
        "jobs": [{
            "goal": job is goal_job,
            "stages": job.stages,
            "sweeps": job.sweeps,
            "failures": job.failures,
            "fingerprint": job.fingerprint,
            "spans": job.spans,
        } for job in everything],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "distributions": {k: distribution(v) for k, v in timed_samples(jobs).items() if v},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs={len(jobs)} record={os.path.relpath(path, ROOT)}")
    for key, value in metrics.items():
        print(f"  {key:34s} {value!r} {units[key]}")
    for key, row in record["distributions"].items():
        print(f"  {key:34s} " + ", ".join(
            f"{k} {v}" if k == "samples" else f"{k} {v:.4f}" for k, v in row.items()))
    print(f"  {'error_rate':34s} {failed / attempted!r} 1 "
          f"({failed} of {attempted} operations failed)")
    for job in everything:
        for stage, message in job.failures:
            print(f"  FAILED {stage}: {message}")
    for fingerprint in sorted({json.dumps(job.fingerprint) for job in jobs}):
        print(f"  fingerprint {fingerprint}")
    if goal_job:
        print(f"  goal fingerprint {json.dumps(goal_job.fingerprint)}")
    if args.trace:
        stage_wall = sum(s for job in everything for _, s, _ in job.stages)
        own = sum(sum(job.self_times.values()) for job in everything)
        print(f"  stage wall {stage_wall!r} s; layer self times sum to {own!r} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
