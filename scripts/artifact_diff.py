#!/usr/bin/env python3
"""Run the desk CLI pipeline into a directory, or compare two such runs.

    python3 scripts/artifact_diff.py run OUT [--short] [--src DIR]
    python3 scripts/artifact_diff.py compare A B

`run` runs the desk pipeline in this process, with one BLAS thread when
started as a script, into OUT, which must not exist or be empty (exit 2
otherwise, so that no file of an earlier run is compared): trap; gate;
optimize P, F, prep and `--dissipative --kappa 1e-17`, 5 iterations
each; `simulate --kappa 1e-16 5e-18`; `analyze --filter-band 0.5 12` of
the P field; then 2 more iterations of P resumed from its field, which
rewrite `gate_p_field.csv` and `gate_p_trace.csv`.  `simulate` and
`analyze` read the P field of the same run, so a change that moves that
field moves their artifacts too.  An optimize that stops on its
iteration budget (exit 4) counts as run.
`--short` runs the same stages on a 100-step pulse with 2 iterations
each, in well under a second.  `--src` names the package source to run,
by default the `src` beside this script, so the same script can run a
parent checkout's package.

`compare` reports every artifact of A against B: identical bytes, or,
for a CSV or JSON artifact, the largest deviation of each numeric column
relative to that column's peak in A.  Provenance, the `#` lines of a CSV
and the text values of a JSON file, is compared apart.  It exits 1 when
a column moves by more than TOLERANCE relative, when a provenance line,
a text column or a column's shape differs, or when a file appears or
disappears; else 0.  Compare runs of one host only: another BLAS may
round differently.

Only the Python standard library and numpy are used.
"""

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import tempfile

if __name__ == "__main__":
    # numpy reads the BLAS thread count when it loads, below
    for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
TOLERANCE = 1e-12   # relative to a column's peak: the "no number moves" bound
FULL_ITERATIONS = 5
SHORT_ITERATIONS = 2
SHORT_INI = "[oct]\nt_pulse = 200 ns\n"   # 100 steps of the desk's 2 ns


def stages(iterations):
    """The pipeline's CLI argument lists, without --config, --tier and --out."""
    budget = ["--max-iterations", str(iterations)]
    return [
        ["trap"],
        ["gate"],
        ["optimize", "--functional", "P"] + budget,
        ["optimize", "--functional", "F"] + budget,
        ["optimize", "--mode", "prep"] + budget,
        ["optimize", "--dissipative", "--kappa", "1e-17"] + budget,
        ["simulate", "--kappa", "1e-16", "5e-18"],
        ["analyze", "--field", "{out}/gate_p_field.csv", "--filter-band", "0.5", "12"],
        # the run's own P field continues its trace: no evaluation of its
        # starting field, so the first multipliers come from a forward sweep
        ["optimize", "--functional", "P", "--resume", "{out}/gate_p_field.csv",
         "--max-iterations", "2"],
    ]


def run(out, short=False, src=None):
    """Run the pipeline into out; 0, 1 naming the stage that failed, or 2
    if out is not empty."""
    if os.path.exists(out) and os.listdir(out):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    src = os.path.abspath(src or os.path.join(ROOT, "src"))
    if src not in sys.path:
        sys.path.insert(0, src)
    from iontrapsim import cli

    with tempfile.TemporaryDirectory() as tmp:
        common = ["--tier", "desk", "--out", out]
        if short:
            ini = os.path.join(tmp, "short.ini")
            with open(ini, "w") as handle:
                handle.write(SHORT_INI)
            common += ["--config", ini]
        for stage in stages(SHORT_ITERATIONS if short else FULL_ITERATIONS):
            argv = [arg.format(out=out) for arg in stage] + common
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            if code not in ((cli.EXIT_OK, cli.EXIT_NO_CONVERGENCE) if stage[0] == "optimize"
                            else (cli.EXIT_OK,)):
                print(f"{' '.join(stage)}: exit {code}", file=sys.stderr)
                return 1
    print(f"ran {os.path.dirname(cli.__file__)} into {out}: "
          f"{len(os.listdir(out))} artifacts")
    return 0


def _numbers(values):
    """The values as a float array, or None if one of them is not a number."""
    try:
        return np.array([float(v) for v in values])
    except (TypeError, ValueError):
        return None


def read_csv(path):
    """(provenance lines, {column: values}) of a CSV artifact: its `#`
    lines, and each column of the table below its header."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    provenance = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    return provenance, {name: [row[i] for row in body] for i, name in enumerate(header)}


def read_json(path):
    """(provenance, {column: values}) of a JSON artifact: its text and
    boolean values by path, and each number or list of numbers by path."""
    provenance, columns = [], {}

    def walk(value, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, f"{path}.{key}" if path else key)
        elif isinstance(value, list) and value and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in value):
            columns[path] = value
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(item, f"{path}[{i}]")
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            columns[path] = [value]
        else:
            provenance.append(f"{path}={json.dumps(value)}")

    with open(path) as handle:
        walk(json.load(handle), "")
    return provenance, columns


def relative_deviation(a, b):
    """max |b - a| over max |a|: 0 if equal, inf if a is all zero and b not."""
    diff = np.abs(b - a).max(initial=0.0)
    peak = np.abs(a).max(initial=0.0)
    return float(diff / peak) if peak else (0.0 if diff == 0 else float("inf"))


def compare_file(a, b):
    """(failed, lines) of one artifact present in both runs."""
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() == fb.read():
            return False, ["identical"]
    reader = {".csv": read_csv, ".json": read_json}.get(os.path.splitext(a)[1])
    if reader is None:
        return True, ["bytes differ"]
    (prov_a, cols_a), (prov_b, cols_b) = reader(a), reader(b)
    failed, lines = False, []
    if prov_a != prov_b:
        failed = True
        lines += [f"provenance {x!r} -> {y!r}" for x, y in zip(prov_a, prov_b) if x != y]
        if len(prov_a) != len(prov_b):
            lines.append(f"provenance lines {len(prov_a)} -> {len(prov_b)}")
    if list(cols_a) != list(cols_b):
        return True, lines + [f"columns {list(cols_a)} -> {list(cols_b)}"]
    deviations = []
    for name in cols_a:
        x, y = _numbers(cols_a[name]), _numbers(cols_b[name])
        if x is None or y is None or x.shape != y.shape:
            if cols_a[name] != cols_b[name]:
                failed = True
                lines.append(f"column {name} differs")
            continue
        dev = relative_deviation(x, y)
        failed |= not dev <= TOLERANCE
        deviations.append(f"{name} {dev:.3g}")
    lines.append("largest deviation relative to the column's peak: " + ", ".join(deviations))
    return failed, lines


def compare(a, b):
    """(exit code, report lines) of the runs in directories a and b."""
    files_a, files_b = set(os.listdir(a)), set(os.listdir(b))
    report, failed = [], False
    for name in sorted(files_a | files_b):
        if name not in files_b:
            failed = True
            report.append(f"{name}: gone (only in {a})")
        elif name not in files_a:
            failed = True
            report.append(f"{name}: new (only in {b})")
        else:
            file_failed, lines = compare_file(os.path.join(a, name), os.path.join(b, name))
            failed |= file_failed
            report.append(f"{name}: " + "; ".join(lines))
    moved = sum(not line.endswith(": identical") for line in report)
    report.append(f"{len(files_a | files_b)} files, {moved} not identical, "
                  + ("FAILED" if failed else f"every column within {TOLERANCE:g}"))
    return int(failed), report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run the desk pipeline into OUT")
    p.add_argument("out", metavar="OUT")
    p.add_argument("--short", action="store_true", help="100 steps, 2 iterations")
    p.add_argument("--src", help="package source to run (default: src beside this script)")
    p = sub.add_parser("compare", help="compare the artifacts of two runs")
    p.add_argument("a", metavar="A")
    p.add_argument("b", metavar="B")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.out, args.short, args.src)
    for path in (args.a, args.b):
        if not os.path.isdir(path):
            print(f"{path} is not a directory", file=sys.stderr)
            return 2
    code, report = compare(args.a, args.b)
    print("\n".join(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
