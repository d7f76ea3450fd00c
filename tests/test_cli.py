import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from iontrapsim import ControlField, SimSystem, elementary_gate, encode, evolution_operator, \
    fidelity, gaussian_packet, make_grid, solve_trap
from iontrapsim.cli import _load_run_config, build_parser, main
from iontrapsim.config import load_config, parse_quantity, tier_config
from iontrapsim.errors import ValidationError
from iontrapsim.propagator import ClosedPulseMap
from iontrapsim.serialization import _read_table, load_eigenbasis, load_field, load_gate, \
    load_trace, save_field
from iontrapsim.units import TIME_AU_S

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
DESK_INI = """
[run]
tier = desk

[trap]
primitive_size = 50
dynamical_size = 8
computational_size = 4

[sim]
n_pulses = 2

[oct]
t_pulse = 20 us
dt = 2 ns
max_iterations = 3

[dissipation]
kappa = 1e-16 au
"""

# Run in a fresh interpreter that can import CPython's built-in SHA-256
# module under neither of its names, so that `config` takes hashlib's.
_HASHLIB_FALLBACK = """
import hashlib, json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from iontrapsim import config
assert config.sha256 is hashlib.sha256
print(json.dumps([config.tier_config(tier).config_hash for tier in ("desk", "paper")]))
"""


class TestConfigParsing:
    def test_quantity_units(self):
        assert parse_quantity("96 us", "time") == pytest.approx(96e-6 / TIME_AU_S)
        assert parse_quantity("960 ps", "time") == pytest.approx(960e-12 / TIME_AU_S)
        assert parse_quantity("3.5828e-14") == 3.5828e-14

    def test_rejects_garbage(self):
        with pytest.raises(ValidationError):
            parse_quantity("fast", "time")
        with pytest.raises(ValidationError):
            parse_quantity("96 parsec", "time")
        with pytest.raises(ValidationError):
            parse_quantity("nan us", "time")
        with pytest.raises(ValidationError):
            parse_quantity("inf")

    def test_tier_presets(self):
        desk = tier_config("desk")
        assert desk.trap.computational_size == 4
        paper = tier_config("paper")
        assert paper.trap.computational_size == 16
        assert paper.t_pulse == pytest.approx(96e-6 / TIME_AU_S)
        assert round(paper.t_pulse / paper.oct_dt) == 100_000

    def test_ini_overlay(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(DESK_INI)
        cfg = load_config(str(path))
        assert cfg.trap.dynamical_size == 8
        assert cfg.n_pulses == 2
        assert cfg.max_iterations == 3
        assert cfg.kappas == (1e-16,)
        assert cfg.config_hash != "defaults"

    def test_config_hash_follows_resolved_config(self):
        """The hash is taken after the command's options are laid over the
        tier preset: distinct presets and distinct options give distinct
        hashes, and the output directory does not enter it."""
        desk, paper = tier_config("desk"), tier_config("paper")
        assert len({desk.config_hash, paper.config_hash, "defaults"}) == 3

        def resolved_hash(*options):
            args = build_parser().parse_args(["optimize", *options])
            return _load_run_config(args).config_hash

        hashes = [
            resolved_hash(),
            resolved_hash("--max-iterations", "3"),
            resolved_hash("--max-iterations", "4"),
            resolved_hash("--functional", "F"),
            resolved_hash("--kappa", "1e-16"),
        ]
        assert hashes[0] == desk.config_hash
        assert len(set(hashes)) == len(hashes)
        assert resolved_hash("--out", "elsewhere") == hashes[0]

    def test_config_hash_is_sha256_of_the_sorted_json(self):
        """The hash is the first 16 hex digits of the SHA-256 of the sorted
        JSON of the resolved values, the output directory left out."""
        for tier in ("desk", "paper"):
            cfg = tier_config(tier)
            values = dict(vars(cfg))
            del values["outdir"]
            text = json.dumps(values, sort_keys=True, default=vars)
            assert cfg.config_hash == hashlib.sha256(text.encode()).hexdigest()[:16]
        assert tier_config("desk").config_hash == "2bb5818eae98759b"

    def test_config_hash_without_the_built_in_sha256(self):
        """A Python built without the built-in SHA-256 module falls back to
        hashlib and gives the same hashes."""
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        result = subprocess.run([sys.executable, "-c", _HASHLIB_FALLBACK], env=env,
                                capture_output=True, text=True, check=True)
        assert json.loads(result.stdout) == [tier_config(t).config_hash
                                             for t in ("desk", "paper")]

    def test_inconsistent_mapping_rejected(self, tmp_path):
        """The grid has one point per computational state, so its size is
        no key of its own."""
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\ngrid_points = 8\n")
        with pytest.raises(ValidationError, match="unknown key 'grid_points'"):
            load_config(str(path), tier="desk")
        assert load_config(tier="desk").grid_points == 4

    def test_readme_example_loads(self, tmp_path):
        """The INI example in the README resolves through the key table."""
        with open(os.path.join(REPO, "README.md")) as handle:
            blocks = re.findall(r"```ini\n(.*?)```", handle.read(), re.S)
        assert len(blocks) == 1
        path = tmp_path / "readme.ini"
        path.write_text(blocks[0])
        cfg = load_config(str(path))
        assert cfg.trap.dynamical_size == 8
        assert cfg.fidelity_goal == 0.995
        assert cfg.kappas == (1e-18, 5e-18, 1e-17)

    def test_paper_script_commands_resolve(self):
        """Every `iontrapsim` command of the paper script parses and
        resolves its paper-tier configuration (no trap is solved)."""
        with open(os.path.join(REPO, "scripts", "reproduce_paper.sh")) as handle:
            script = handle.read()
        ack = re.search(r"^ACK=(\S+)$", script, re.M).group(1)
        script = script.replace("\\\n", " ").replace("$ACK", ack).replace("$OUT", "runs/p")
        commands = [shlex.split(line) for line in script.splitlines()
                    if line.startswith("iontrapsim ")]
        assert len(commands) == 9
        parser = build_parser()
        for argv in commands:
            args = parser.parse_args(argv[1:])
            cfg = _load_run_config(args)
            assert (cfg.tier, cfg.outdir) == ("paper", "runs/p"), argv

    @pytest.mark.parametrize("status, ran", [(4, 9), (2, 3), (3, 3)])
    def test_paper_script_runs_on_past_an_optimize_exit_4(self, tmp_path, status, ran):
        """With a stub `iontrapsim` first on PATH that logs its argv and
        exits `status` for `optimize`, the paper script runs all nine
        commands past an exit 4 (an optimize short of its goal) and stops
        with the status of the first optimize that exits 2 or 3."""
        stub = tmp_path / "bin" / "iontrapsim"
        stub.parent.mkdir()
        stub.write_text('#!/bin/sh\necho "$@" >> "$STUB_LOG"\n'
                        f'[ "$1" = optimize ] && exit {status}\nexit 0\n')
        stub.chmod(0o755)
        log = tmp_path / "argv.log"
        env = dict(os.environ, PATH=f"{stub.parent}{os.pathsep}{os.environ['PATH']}",
                   STUB_LOG=str(log))
        result = subprocess.run(
            ["bash", os.path.join(REPO, "scripts", "reproduce_paper.sh"), str(tmp_path / "out")],
            env=env, capture_output=True, text=True, check=False,
        )
        stages = ["trap", "gate", "optimize", "optimize", "optimize", "simulate", "analyze",
                  "analyze", "optimize"]
        assert [line.split()[0] for line in log.read_text().splitlines()] == stages[:ran]
        assert result.returncode == (0 if status == 4 else status), result.stderr

    def test_console_script_runs_main_and_passes_its_exit_code(self, tmp_path):
        """The paper script runs the `iontrapsim` console script, which
        pyproject.toml makes `iontrapsim.cli:main`, and reads its exit codes:
        run as a program, `trap` exits 0 and an optimize that stops short of
        its goal exits 4."""
        with open(os.path.join(REPO, "pyproject.toml")) as handle:
            assert re.search(r'^\[project\.scripts\]\niontrapsim = "iontrapsim\.cli:main"$',
                             handle.read(), re.M)
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 200 ns\n")   # 100 steps of the desk's 2 ns
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
        for argv, status in ((["trap"], 0),
                             (["optimize", "--config", str(ini), "--max-iterations", "0"], 4)):
            result = subprocess.run(
                [sys.executable, "-m", "iontrapsim.cli", *argv, "--out", str(tmp_path / "out")],
                env=env, capture_output=True, text=True, check=False,
            )
            assert result.returncode == status, result.stderr


class TestCliCommands:
    def test_trap_writes_deterministic_outputs(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["trap", "--tier", "desk", "--out", out1]) == 0
        assert main(["trap", "--tier", "desk", "--out", out2]) == 0
        assert sorted(os.listdir(out1)) == ["basis.json", "z_matrix.csv"]
        for name in ("basis.json", "z_matrix.csv"):
            with open(os.path.join(out1, name), "rb") as f1, \
                    open(os.path.join(out2, name), "rb") as f2:
                assert f1.read() == f2.read()
        assert "MHz" in capsys.readouterr().out

    @pytest.mark.parametrize("tier", ["desk", "paper"])
    def test_field_check_on_trap_output_is_bit_identical(self, tmp_path, request, tier):
        """The field check on a `trap` output directory, `evolution_operator`
        of a field on the loaded basis and its gate fidelity, equals the one
        on the basis `solve_trap` returns, bit for bit."""
        out = str(tmp_path / tier)
        assert main(["trap", "--tier", tier, "--out", out, "--acknowledge-long-run"]) == 0
        cfg = tier_config(tier)
        gate = request.getfixturevalue(f"{tier}_gate")
        field = ControlField(np.random.default_rng(3).normal(scale=1e-12, size=200), cfg.oct_dt)
        n = cfg.trap.computational_size
        loaded = evolution_operator(field, load_eigenbasis(out), n)
        solved = evolution_operator(field, solve_trap(cfg.trap), n)
        assert loaded.tobytes() == solved.tobytes()
        assert fidelity(gate, loaded) == fidelity(gate, solved)

    def test_gate_reports_unitarity(self, tmp_path, capsys):
        out = str(tmp_path / "g")
        assert main(["gate", "--tier", "desk", "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "gate.csv"))
        assert "unitarity" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[trap]\nprimitive_size = 10\ndynamical_size = 32\n")
        assert main(["trap", "--config", str(bad), "--out", str(tmp_path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_zero_oct_step_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[oct]\ndt = 0 ns\n")
        code = main([
            "optimize", "--config", str(bad), "--tier", "desk",
            "--out", str(tmp_path), "--max-iterations", "1",
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini",
        ["[oct]\ndt = 0 ns\n", "[oct]\nt_pulse = -1 us\n", "[sim]\npackets = nan:0\n",
         "[dissipation]\nkappa =\n", "[oct]\nmax_iteration = 5\n", "[optimise]\nalpha0_p = 1\n",
         "[trap]\nprimitive_size = fifty\n", "[oct]\nfidelity_goal = high\n",
         "[dissipation]\ndeltas = 1.5, 3\n", None, "max_iterations = 5\n",
         "[oct]\nmax_iterations = 5\nmax_iterations = 6\n", "[dissipation]\ndeltas = 0\n",
         "[sim]\npackets = -1:0\n", "[sim]\nx_min = 4\nx_max = -4\n", "[sim]\nk_substeps = 0\n",
         "[dissipation]\nkappa = 1e-18, -1e-18\n", "[dissipation]\nkappa = nan\n",
         "[trap]\ncharge = 0\n", "[trap]\ncharge = -1\n", "[oct]\nalpha0_f = -1\n",
         "[oct]\nfunctional = F\nalpha0_p = -1\n", "[dissipation]\ndeltas = 1, 9\n",
         "[DEFAULT]\ntier = paper\nn_pulses = 3\n", "[DEFAULT]\nn_pulses = 3\n[sim]\n",
         "[DEFAULT]\nn_pulses = 3\n[run]\ntier = desk\n"],
        ids=["zero-dt", "negative-pulse", "nan-packet", "empty-kappa", "unknown-key",
             "unknown-section", "non-integer-count", "non-numeric-goal", "fractional-delta",
             "missing-file", "no-section-header", "duplicate-key", "zero-delta",
             "negative-sigma", "inverted-grid", "zero-substeps", "negative-kappa", "nan-kappa",
             "zero-charge", "negative-charge", "negative-alpha0-f-under-p",
             "negative-alpha0-p-under-f", "delta-beyond-dynamical", "default-section-alone",
             "default-section-beside-sim", "default-section-beside-run"],
    )
    def test_bad_config_values_exit_2(self, tmp_path, capsys, ini):
        """Rejected on load, whichever command reads the file, with one
        line on stderr."""
        bad = tmp_path / "bad.ini"
        if ini is not None:
            bad.write_text(ini)
        code = main([
            "trap", "--config", str(bad), "--tier", "desk", "--out", str(tmp_path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err

    def test_paper_tier_needs_acknowledgment(self, tmp_path, capsys):
        assert main(["trap", "--tier", "paper", "--out", str(tmp_path)]) == 2
        assert "acknowledge" in capsys.readouterr().err

    def test_missing_field_file_exits_2(self, tmp_path):
        assert main(["simulate", "--tier", "desk", "--out", str(tmp_path)]) == 2

    def test_dissipative_without_kappa_exits_2(self, tmp_path):
        code = main([
            "optimize", "--tier", "desk", "--out", str(tmp_path),
            "--mode", "gate", "--dissipative", "--max-iterations", "1",
        ])
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "optimize"])
    def test_kappa_without_values_exits_2(self, tmp_path, capsys, command):
        """`--kappa` given no values is refused, not read as the preset's."""
        code = main([command, "--tier", "desk", "--out", str(tmp_path), "--kappa"])
        assert code == 2
        assert "kappa" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["optimize", "--dissipative"]])
    @pytest.mark.parametrize("spelling, kappa", [
        # the full spelling keeps the bare value as its id
        pytest.param(spelling, kappa, id=kappa if spelling == "--kappa" else f"{spelling} {kappa}")
        for spelling in ("--kappa", "--kap") for kappa in ("nan", "-1.0", "-1e-18")])
    def test_bad_kappa_option_exits_2_before_writing(self, tmp_path, capsys, command, spelling,
                                                     kappa):
        """A --kappa that is not finite and non-negative is refused on load,
        before the first artifact is written."""
        field = tmp_path / "gate_p_field.csv"
        save_field(ControlField(np.zeros(3), 1e3), str(field))
        out = tmp_path / "out"
        field_option = "--field" if command[0] == "simulate" else "--resume"
        code = main(command + ["--tier", "desk", "--out", str(out), field_option, str(field),
                               spelling, kappa])
        assert code == 2
        assert "kappa must be finite and non-negative" in capsys.readouterr().err
        assert not out.exists()

    def test_stray_number_exits_2_as_unrecognized(self, tmp_path, capsys):
        """A number without --kappa is no kappa: argparse refuses it."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--tier", "desk", "--out", str(tmp_path / "out"), "-1e-18"])
        assert exc.value.code == 2
        assert "unrecognized arguments: -1e-18" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dissipative_with_two_kappas_exits_2(self, tmp_path):
        code = main([
            "optimize", "--tier", "desk", "--out", str(tmp_path),
            "--mode", "gate", "--dissipative", "--kappa", "1e-18", "5e-18",
            "--max-iterations", "1",
        ])
        assert code == 2

    @pytest.mark.parametrize("argv", [["--dissipative", "--kappa", "1e-17"], ["--mode", "prep"]],
                             ids=["dissipative", "prep"])
    def test_f_outside_the_closed_gate_exits_2_before_writing(self, tmp_path, capsys, argv):
        """F is the closed gate's functional only: the dissipative and the
        prep optimizer refuse it rather than run it as P."""
        out = tmp_path / "out"
        code = main(["optimize", "--tier", "desk", "--out", str(out), "--functional", "F",
                     "--max-iterations", "1"] + argv)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1, err
        assert "P functional only" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--functional", "F", "--mode", "prep"], "state preparation runs the P functional only"),
        (["--functional", "F", "--dissipative", "--kappa", "1e-17"],
         "the dissipative optimizer runs the P functional only"),
        (["--mode", "prep", "--dissipative", "--kappa", "1e-17"],
         "dissipative optimization is defined for the gate"),
        (["--dissipative", "--kappa", "1e-17", "5e-18"],
         "--dissipative requires exactly one kappa (--kappa K or [dissipation] kappa = K)")],
        ids=["prep-f", "dissipative-f", "prep-dissipative", "dissipative-two-kappas"])
    def test_refusals_come_before_the_trap_solve(self, tmp_path, capsys, monkeypatch, argv,
                                                 message):
        """A combination no optimizer runs is refused before any trap solve
        or packet encoding."""
        from iontrapsim import cli

        def no_solve(*args, **kwargs):
            raise AssertionError("solve_trap called")

        monkeypatch.setattr(cli, "solve_trap", no_solve)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["optimize", "--tier", "desk", "--out", str(out),
                         "--max-iterations", "1"] + argv)
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not [w for w in caught if "packet leaks off-grid" in str(w.message)]
        assert not out.exists()

    @pytest.mark.parametrize("argv, stem, measure", [
        ([], "gate_p", "F"), (["--mode", "prep"], "prep_p", "F"),
        (["--dissipative", "--kappa", "1e-17"], "gate_p_diss", "population")],
        ids=["closed", "prep", "dissipative"])
    def test_console_names_the_measure(self, tmp_path, capsys, argv, stem, measure):
        """Closed and prep runs print their fidelity as F; a dissipative run
        prints its mean target population under its own name, on every
        iteration line and on the final line."""
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = str(tmp_path / "o")
        main(["optimize", "--config", str(ini), "--tier", "desk", "--out", out,
              "--max-iterations", "2"] + argv)
        trace = load_trace(os.path.join(out, f"{stem}_trace.csv"))
        field = load_field(os.path.join(out, f"{stem}_field.csv"))
        want = [f"  iter {i:5d}  J = {j:.8f}  {measure} = {f:.6f}" for i, j, f in
                zip(trace.iterations[1:], trace.objectives[1:], trace.fidelities[1:])]
        want.append(f"optimize {stem[:4]}/P: {trace.status} after {trace.iterations[-1]} "
                    f"iterations, {measure} = {trace.final_fidelity:.6f}, "
                    f"peak = {field.peak_v_per_m():.3f} V/m")
        assert capsys.readouterr().out.splitlines() == want

    def test_optimize_budget_exhaustion_exits_4(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        code = main([
            "optimize", "--tier", "desk", "--out", out,
            "--functional", "P", "--max-iterations", "2",
            "--checkpoint-every", "1",
        ])
        assert code == 4
        assert os.path.exists(os.path.join(out, "gate_p_field.csv"))
        assert os.path.exists(os.path.join(out, "gate_p_trace.csv"))
        assert not [name for name in os.listdir(out) if "checkpoint" in name]

    def test_decreased_objective_exits_3(self, tmp_path, capsys, monkeypatch):
        """An objective that decreased is a numerical failure, not a run
        short of its goal: exit 3 with its `optimization fault:` line, and
        no field or trace beyond the last checkpoint (none here)."""
        from iontrapsim import oct as ioct

        monkeypatch.setattr(ioct, "_no_decrease", lambda before, after: False)
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = tmp_path / "d"
        code = main(["optimize", "--config", str(ini), "--tier", "desk", "--out", str(out),
                     "--max-iterations", "2"])
        assert code == 3
        assert "optimization fault: objective decreased" in capsys.readouterr().err
        assert not (out / "gate_p_field.csv").exists()

    def test_checkpoint_every_counts_iterations(self, tmp_path, capsys, monkeypatch):
        """`--checkpoint-every 2` saves the run's own record after
        iterations 2, 4, ..., its trace marked running, and once more at
        the end; the report counts the sweeps, not the trace rows."""
        from iontrapsim import cli
        from iontrapsim.serialization import load_trace

        saved, save_run = [], cli._save_run

        def recording_save_run(cfg, stem, fieldspec, trace):
            save_run(cfg, stem, fieldspec, trace)
            on_disk = load_trace(os.path.join(cfg.outdir, f"{stem}_trace.csv"))
            saved.append((on_disk.iterations[-1], on_disk.status))

        monkeypatch.setattr(cli, "_save_run", recording_save_run)
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = str(tmp_path / "c")
        args = ["optimize", "--config", str(ini), "--tier", "desk", "--out", out,
                "--max-iterations", "5"]
        assert main(args + ["--checkpoint-every", "2"]) == 4
        assert saved == [(2, "running"), (4, "running"), (5, "iteration budget exhausted")]
        assert load_trace(os.path.join(out, "gate_p_trace.csv")).iterations == list(range(6))
        assert "iteration budget exhausted after 5 iterations" in capsys.readouterr().out
        assert main(args + ["--checkpoint-every", "-1"]) == 2
        assert "checkpoint-every" in capsys.readouterr().err

    def test_zero_max_iterations_only_evaluates(self, tmp_path):
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = str(tmp_path / "z")
        code = main([
            "optimize", "--config", str(ini), "--tier", "desk", "--out", out,
            "--functional", "P", "--max-iterations", "0",
        ])
        assert code == 4
        from iontrapsim.serialization import load_trace

        trace = load_trace(os.path.join(out, "gate_p_trace.csv"))
        assert trace.iterations == [0]
        assert trace.status == "iteration budget exhausted"

    def test_negative_max_iterations_exits_2(self, tmp_path, capsys):
        code = main([
            "optimize", "--tier", "desk", "--out", str(tmp_path),
            "--max-iterations", "-3",
        ])
        assert code == 2
        assert "max_iterations" in capsys.readouterr().err

    def test_zero_pulses_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[sim]\nn_pulses = 0\n")
        code = main([
            "simulate", "--config", str(ini), "--tier", "desk", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "n_pulses" in capsys.readouterr().err

    def test_simulate_reports_map_drift_and_reruns_identically(self, tmp_path, capsys):
        """The drift of each pulse map goes to the console only, and no
        renormalization is reported; the artifacts of a rerun are
        byte-identical."""
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        field = os.path.join(str(tmp_path / "f"), "gate_p_field.csv")
        main([
            "optimize", "--config", str(ini), "--tier", "desk", "--out",
            str(tmp_path / "f"), "--max-iterations", "0",
        ])
        capsys.readouterr()
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        for out in outs:
            assert main([
                "simulate", "--config", str(ini), "--tier", "desk", "--out", out,
                "--field", field, "--kappa", "1e-16", "5e-18",
            ]) == 0
        console = capsys.readouterr().out
        assert console.count("closed pulse map: max |U^dag U - I| = ") == 2
        assert console.count("pulse map trace drift") == 4
        assert "renormaliz" not in console
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    def test_closed_trajectory_keeps_the_accumulated_norm(self, tmp_path, desk_converged):
        """The closed train is not renormalized: at the start of pulse l the
        `norm_or_trace` of closed_trajectory.csv is ||U^l psi||^2 of the
        map's U(t_pulse), and after the first pulse it differs from 1 by
        more than rounding."""
        field_path = str(tmp_path / "gate_p_field.csv")
        save_field(desk_converged["P"][0], field_path)
        out = str(tmp_path / "s")
        assert main(["simulate", "--tier", "desk", "--out", out, "--field", field_path,
                     "--kappa", "1e-18"]) == 0
        cfg = tier_config("desk")
        grid = make_grid(cfg.x_min, cfg.x_max, cfg.grid_points)
        basis = solve_trap(cfg.trap)
        u = ClosedPulseMap(load_field(field_path), basis).final
        state = np.zeros(basis.n_states, dtype=complex)
        state[: grid.n] = encode(gaussian_packet(grid, *cfg.packets[0]), grid)
        want = []
        for _ in range(cfg.n_pulses):
            want.append(np.linalg.norm(state) ** 2)
            state = u @ state
        _, data, _ = _read_table(os.path.join(out, "closed_trajectory.csv"))
        got = data[:, -1].reshape(cfg.n_pulses, -1)[:, 0]
        assert np.abs(got - want).max() <= 1e-12
        assert np.abs(got[1:] - 1.0).min() > 1e-12

    def test_simulate_reports_evolution_operator_fidelity(self, tmp_path, capsys):
        """The `realizes F` line, now read off the closed pulse map, prints
        the fidelity `evolution_operator` measures for the field."""
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n[sim]\nn_pulses = 2\n")
        out = str(tmp_path / "s")
        main([
            "optimize", "--config", str(ini), "--tier", "desk", "--out", out,
            "--max-iterations", "1",
        ])
        capsys.readouterr()
        field_path = os.path.join(out, "gate_p_field.csv")
        assert main([
            "simulate", "--config", str(ini), "--tier", "desk", "--out", out,
            "--field", field_path, "--kappa", "1e-16",
        ]) == 0
        cfg = tier_config("desk")
        basis = solve_trap(cfg.trap)
        gate = elementary_gate(SimSystem(), make_grid(cfg.x_min, cfg.x_max, cfg.grid_points),
                               cfg.delta_t, cfg.k_substeps)
        want = fidelity(gate, evolution_operator(load_field(field_path), basis, gate.n))
        assert f"simulate: gate field realizes F = {want:.6f}\n" in capsys.readouterr().out

    def test_closed_x_mean_reads_the_probabilities(self, tmp_path, capsys):
        """Each row of a `closed_x_mean*.csv` is sum x_j p_j dx over the
        same pulse's rows of the matching `closed_probabilities*.csv`."""
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = str(tmp_path / "s")
        main([
            "optimize", "--config", str(ini), "--tier", "desk", "--out", out,
            "--max-iterations", "0",
        ])
        assert main([
            "simulate", "--config", str(ini), "--tier", "desk", "--out", out,
            "--field", os.path.join(out, "gate_p_field.csv"), "--kappa", "1e-16",
        ]) == 0
        capsys.readouterr()
        cfg = tier_config("desk")
        dx = make_grid(cfg.x_min, cfg.x_max, cfg.grid_points).delta_x
        for suffix in ("", "_sigma_0.5_x0_-0.75"):
            _, means, _ = _read_table(os.path.join(out, f"closed_x_mean{suffix}.csv"))
            _, probs, _ = _read_table(os.path.join(out, f"closed_probabilities{suffix}.csv"))
            assert len(means) == cfg.n_pulses + 1
            for pulse, x_mean in means:
                rows = probs[probs[:, 0] == pulse]
                assert len(rows) == cfg.grid_points
                assert x_mean == pytest.approx(np.sum(rows[:, 2] * rows[:, 3]) * dx,
                                               abs=1e-12)

    def test_dissipative_checkpoint_resumes(self, tmp_path):
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = str(tmp_path / "d")
        args = [
            "optimize", "--config", str(ini), "--tier", "desk", "--out", out,
            "--functional", "P", "--dissipative", "--kappa", "1e-17",
            "--max-iterations", "1", "--checkpoint-every", "1",
        ]
        assert main(args) == 4
        field = os.path.join(out, "gate_p_diss_field.csv")
        assert sorted(os.listdir(out)) == ["gate_p_diss_field.csv", "gate_p_diss_trace.csv"]
        assert main(args + ["--resume", field]) == 4
        from iontrapsim.serialization import load_trace

        trace = load_trace(os.path.join(out, "gate_p_diss_trace.csv"))
        assert trace.iterations == [0, 1, 2]

    def test_dissipative_takes_kappa_from_config(self, tmp_path):
        """A one-kappa `[dissipation]` section works like `--kappa`: the
        same resolved configuration, byte-identical artifacts."""
        short = "[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n"
        (tmp_path / "ini.ini").write_text(short + "[dissipation]\nkappa = 1e-17\n")
        (tmp_path / "opt.ini").write_text(short)
        outs = [str(tmp_path / "ini"), str(tmp_path / "opt")]
        common = ["optimize", "--tier", "desk", "--dissipative", "--max-iterations", "1"]
        assert main(common + ["--config", str(tmp_path / "ini.ini"), "--out", outs[0]]) == 4
        assert main(common + ["--config", str(tmp_path / "opt.ini"), "--out", outs[1],
                              "--kappa", "1e-17"]) == 4
        names = sorted(os.listdir(outs[0]))
        assert "gate_p_diss_field.csv" in names and names == sorted(os.listdir(outs[1]))
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

    def test_resume_continues_monotonically(self, tmp_path):
        out = str(tmp_path / "r")
        main([
            "optimize", "--tier", "desk", "--out", out,
            "--functional", "P", "--max-iterations", "2",
        ])
        code = main([
            "optimize", "--tier", "desk", "--out", out,
            "--functional", "P", "--max-iterations", "2",
            "--resume", os.path.join(out, "gate_p_field.csv"),
        ])
        assert code == 4  # still short of the fidelity goal
        from iontrapsim.serialization import load_trace

        trace = load_trace(os.path.join(out, "gate_p_trace.csv"))
        assert trace.iterations == [0, 1, 2, 3, 4]
        assert all(
            b >= a - 1e-10 for a, b in zip(trace.objectives, trace.objectives[1:])
        )

    @pytest.mark.parametrize(
        "first, first_stem, resumed, resumed_stem",
        [(["--functional", "F"], "gate_f", ["--functional", "P"], "gate_p"),
         (["--functional", "P"], "gate_p", ["--dissipative", "--kappa", "1e-17"],
          "gate_p_diss")],
        ids=["other-functional", "closed-field-dissipative"],
    )
    def test_resume_from_another_run_starts_a_new_trace(self, tmp_path, capsys, first,
                                                        first_stem, resumed, resumed_stem):
        """A field written by another kind of run is a starting point only:
        the resumed run's trace begins with that field's evaluation under
        its own measure, and the other run's trace is left as it was."""
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        out = str(tmp_path / "x")
        common = ["optimize", "--config", str(ini), "--tier", "desk", "--out", out]
        assert main(common + first + ["--max-iterations", "2"]) == 4
        field = os.path.join(out, f"{first_stem}_field.csv")
        assert main(common + resumed + ["--max-iterations", "1", "--resume", field]) == 4
        assert "optimization fault" not in capsys.readouterr().err
        from iontrapsim.serialization import load_trace

        assert load_trace(os.path.join(out, f"{resumed_stem}_trace.csv")).iterations == [0, 1]
        assert load_trace(os.path.join(out, f"{first_stem}_trace.csv")).iterations == [0, 1, 2]

    def test_resume_of_a_converged_run_sweeps_no_more(self, tmp_path):
        """Resuming a run whose trace already meets the goal returns
        without a sweep: the field's data rows stay as they were and the
        trace gains no row."""
        ini = tmp_path / "easy.ini"
        ini.write_text("[oct]\nt_pulse = 0.4 us\ndt = 2 ns\nfidelity_goal = 0.28\n")
        out = str(tmp_path / "c")
        common = ["optimize", "--config", str(ini), "--tier", "desk", "--out", out]
        assert main(common) == 0
        field, trace = (os.path.join(out, f"gate_p_{name}.csv") for name in ("field", "trace"))

        def data_rows(path):
            with open(path) as handle:
                return [line for line in handle if not line.startswith("#")]

        field_rows, trace_rows = data_rows(field), data_rows(trace)
        assert len(trace_rows) > 2    # the goal takes at least one sweep
        assert main(common + ["--resume", field, "--max-iterations", "5"]) == 0
        assert data_rows(field) == field_rows
        assert data_rows(trace) == trace_rows

    def test_resume_with_other_sample_spacing_exits_2(self, tmp_path, capsys):
        """A field of the configured sample count but another spacing is
        refused, not resampled onto the configured grid."""
        (tmp_path / "a.ini").write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n")
        (tmp_path / "b.ini").write_text("[oct]\nt_pulse = 0.4 us\ndt = 4 ns\n")
        out = str(tmp_path / "s")
        common = ["optimize", "--tier", "desk", "--out", out, "--max-iterations", "1"]
        assert main(common + ["--config", str(tmp_path / "a.ini")]) == 4
        capsys.readouterr()
        assert main(common + ["--config", str(tmp_path / "b.ini"),
                              "--resume", os.path.join(out, "gate_p_field.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "sample spacing" in err, err

    def test_full_pipeline_with_simulation(self, tmp_path, capsys):
        ini = tmp_path / "run.ini"
        ini.write_text(DESK_INI)
        out = str(tmp_path / "p")
        main(["gate", "--config", str(ini), "--out", out])
        main(["optimize", "--config", str(ini), "--out", out, "--functional", "P"])
        code = main([
            "simulate", "--config", str(ini), "--out", out,
            "--field", os.path.join(out, "gate_p_field.csv"),
            "--kappa", "1e-16",
        ])
        assert code == 0
        combined = capsys.readouterr().out
        assert "realizes F" in combined
        for name in (
            "initial_amplitudes.csv",
            "closed_trajectory.csv",
            "closed_probabilities.csv",
            "closed_x_mean.csv",
            "closed_probabilities_sigma_0.5_x0_-0.75.csv",
            "probabilities_kappa_1.000e-16.csv",
            "z_mean_kappa_1.000e-16.csv",
            "fidelity_kappa_1.000e-16.csv",
        ):
            assert os.path.exists(os.path.join(out, name)), name

    def test_analyze_spectrum_and_filter(self, tmp_path, capsys):
        out = str(tmp_path / "an")
        main([
            "optimize", "--tier", "desk", "--out", out,
            "--functional", "P", "--max-iterations", "1",
        ])
        field = os.path.join(out, "gate_p_field.csv")
        code = main([
            "analyze", "--tier", "desk", "--out", out, "--field", field,
            "--filter-band", "0.5", "12.0",
        ])
        assert code == 0
        assert "peaks" in capsys.readouterr().out
        assert os.path.exists(os.path.join(out, "gate_p_field_spectrum.csv"))
        assert os.path.exists(os.path.join(out, "gate_p_field_filtered.csv"))

    def test_every_writer_is_deterministic(self, tmp_path, capsys):
        """Every artifact of the desk pipeline, written twice: the same
        names, the same bytes, LF line endings, and the mode a plain `open`
        gives under the umask."""
        ini = tmp_path / "short.ini"
        ini.write_text("[oct]\nt_pulse = 0.2 us\ndt = 2 ns\n[sim]\nn_pulses = 2\n")
        outs = [str(tmp_path / "a"), str(tmp_path / "b")]
        optimize = ["optimize", "--max-iterations", "1"]
        old_umask = os.umask(0o022)
        try:
            for out in outs:
                field = os.path.join(out, "gate_p_field.csv")
                for argv in (
                    ["trap"], ["gate"], optimize + ["--checkpoint-every", "1"],
                    optimize + ["--functional", "F"], optimize + ["--mode", "prep"],
                    optimize + ["--dissipative", "--kappa", "1e-17"],
                    ["simulate", "--field", field, "--kappa", "1e-16", "5e-18"],
                    ["analyze", "--field", field, "--filter-band", "0.5", "12"],
                ):
                    assert main(argv + ["--config", str(ini), "--tier", "desk",
                                        "--out", out]) in (0, 4), argv
        finally:
            os.umask(old_umask)
        capsys.readouterr()
        names = sorted(os.listdir(outs[0]))
        assert len(names) == 28 and names == sorted(os.listdir(outs[1]))
        for name in names:
            paths = [os.path.join(out, name) for out in outs]
            with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
                data = a.read()
                assert data == b.read(), name
            assert b"\r" not in data, name
            assert all(os.stat(path).st_mode & 0o777 == 0o644 for path in paths), name


def _replace_cell(line_no, col, value):
    def edit(lines):
        cells = lines[line_no].split(",")
        cells[col] = value
        lines[line_no] = ",".join(cells)
    return edit


def _drop_last_cell(line_no):
    def edit(lines):
        lines[line_no] = lines[line_no].rsplit(",", 1)[0]
    return edit


def _drop_last_column(lines):
    lines[:] = [line if line.startswith("#") else line.rsplit(",", 1)[0] for line in lines]


def _keep_meta_only(lines):
    lines[:] = [line for line in lines if line.startswith("#")]


def _set_times(time_of_row):
    """Rewrite the t_au cell of every data row i to time_of_row(i)."""
    def edit(lines):
        for line_no in range(3, len(lines)):
            _replace_cell(line_no, 0, repr(time_of_row(line_no - 3)))(lines)
    return edit


def _truncate(n_chars):
    def edit(lines):
        lines[:] = ["\n".join(lines)[:n_chars]]
    return edit


def _as_trace(lines):
    """The file an optimize writes beside its field: its trace."""
    lines[:] = ["# status=converged", "iteration,objective,fidelity,fluence_au",
                "0,0.25,0.5,0", "1,0.5,0.75,1e-20", "2,0.75,0.875,2e-20"]


def _edit_json(change):
    def edit(lines):
        payload = json.loads("\n".join(lines))
        change(payload)
        lines[:] = json.dumps(payload, indent=2).splitlines()
    return edit


# (file, edit of its lines, error message pattern); the field file has two
# meta lines and a header, so lines[4] is its second data row, line 5
MALFORMED = {
    "non_numeric_cell": ("gate_p_field.csv", _replace_cell(4, 1, "abc"),
                         r"gate_p_field\.csv, line 5: 'abc' is not a number"),
    "ragged_row": ("gate_p_field.csv", _drop_last_cell(4),
                   r"gate_p_field\.csv, line 5: 3 cells, the header has 4"),
    "missing_header": ("gate_p_field.csv", _keep_meta_only,
                       r"gate_p_field\.csv has no header line"),
    "constant_times": ("gate_p_field.csv", _set_times(lambda i: 40.0),
                       r"gate_p_field\.csv has times t_au that do not increase"),
    "falling_times": ("gate_p_field.csv", _set_times(lambda i: 400.0 - 40.0 * i),
                      r"gate_p_field\.csv has times t_au that do not increase"),
    "uneven_times": ("gate_p_field.csv", _replace_cell(4, 0, "41.0"),
                     r"gate_p_field\.csv is not uniformly sampled"),
    "single_sample": ("gate_p_field.csv", lambda lines: lines.__delitem__(slice(4, None)),
                      r"gate_p_field\.csv has fewer than two \(t_au, e_au\) samples"),
    "short_gate": ("gate.csv", lambda lines: lines.pop(), r"gate\.csv does not hold"),
    "gate_index_out_of_range": ("gate.csv", _replace_cell(-1, 1, "4"), r"gate\.csv does not hold"),
    "gate_duplicate_pair": ("gate.csv", _replace_cell(-1, 1, "2"), r"gate\.csv does not hold"),
    "wrong_z_matrix": ("z_matrix.csv", _drop_last_column, r"z_matrix\.csv holds a 8x7 matrix"),
    "truncated_gate_json": ("gate.json", _truncate(40), r"gate\.json is not a gate sidecar"),
    "basis_without_energies": ("basis.json", _edit_json(lambda p: p.pop("energies_au")),
                               r"basis\.json is not a basis sidecar: KeyError"),
    "basis_unknown_param": ("basis.json", _edit_json(lambda p: p["params"].update(extra=1.0)),
                            r"basis\.json is not a basis sidecar: TypeError"),
    "nan_gate_cell": ("gate.csv", _replace_cell(4, 2, "nan"),
                      r"gate\.csv, line 5: 'nan' is not finite"),
    "inf_z_matrix_cell": ("z_matrix.csv", _replace_cell(4, 3, "inf"),
                          r"z_matrix\.csv, line 5: 'inf' is not finite"),
    "asymmetric_z_matrix": ("z_matrix.csv", _replace_cell(4, 3, "98.16"),
                            r"z_matrix\.csv holds a matrix that is not exactly symmetric"),
    "negative_charge": ("basis.json", _edit_json(lambda p: p["params"].update(charge=-1.0)),
                        r"basis\.json is not a basis sidecar: .*charge and k must be positive"),
    "nan_energy": ("basis.json", _edit_json(lambda p: p["energies_au"].__setitem__(0, math.nan)),
                   r"basis\.json holds a non-finite energy"),
    "trace_as_field": ("gate_p_field.csv", _as_trace,
                       r"gate_p_field\.csv has a header that does not begin t_au,e_au$"),
}


@pytest.fixture(scope="module")
def desk_artifacts(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("artifacts"))
    assert main(["trap", "--tier", "desk", "--out", out]) == 0
    assert main(["gate", "--tier", "desk", "--out", out]) == 0
    save_field(ControlField(np.linspace(0.0, 1e-13, 11), dt=40.0),
               os.path.join(out, "gate_p_field.csv"), {"config_hash": "x", "tier": "desk"})
    return out


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_artifact_exits_2(tmp_path, capsys, desk_artifacts, case):
    """A malformed artifact or JSON sidecar is a ValidationError naming
    the file (and the line, for a bad cell or row).  No CLI command loads
    the gate or the basis (they are rebuilt from the config), so those cases
    check the loaders; every field-loading command exits 2 with one line."""
    name, edit, message = MALFORMED[case]
    out = str(tmp_path / "art")
    shutil.copytree(desk_artifacts, out)
    path = os.path.join(out, name)
    with open(path, newline="") as handle:
        lines = handle.read().splitlines()
    edit(lines)
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join(lines) + "\r\n")

    if name in ("gate.csv", "gate.json"):
        with pytest.raises(ValidationError, match=message):
            load_gate(os.path.join(out, "gate.csv"), os.path.join(out, "gate.json"))
    elif name in ("z_matrix.csv", "basis.json"):
        with pytest.raises(ValidationError, match=message):
            load_eigenbasis(out)
    else:
        capsys.readouterr()
        for argv in (["analyze", "--field", path], ["simulate", "--field", path],
                     ["optimize", "--resume", path]):
            assert main(argv + ["--tier", "desk", "--out", out]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and re.search(message, err), err
