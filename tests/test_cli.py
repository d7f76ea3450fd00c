import os

import numpy as np
import pytest

from iontrapsim.cli import _load_run_config, build_parser, main
from iontrapsim.config import load_config, parse_quantity, tier_config
from iontrapsim.errors import ValidationError
from iontrapsim.units import TIME_AU_S

DESK_INI = """
[run]
tier = desk

[trap]
primitive_size = 50
dynamical_size = 8
computational_size = 4

[sim]
grid_points = 4
n_pulses = 2

[oct]
t_pulse = 20 us
dt = 2 ns
max_iterations = 3

[dissipation]
kappa = 1e-16 au
"""


class TestConfigParsing:
    def test_quantity_units(self):
        assert parse_quantity("96 us", "time") == pytest.approx(96e-6 / TIME_AU_S)
        assert parse_quantity("960 ps", "time") == pytest.approx(960e-12 / TIME_AU_S)
        assert parse_quantity("3.5828e-14") == 3.5828e-14
        assert parse_quantity("0.1 Vpm", "field") == pytest.approx(1.9447e-13, rel=1e-3)
        assert parse_quantity("2.77 MHz", "frequency") == pytest.approx(
            4.208e-10, rel=1e-3
        )

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

    def test_inconsistent_mapping_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[sim]\ngrid_points = 8\n")
        with pytest.raises(ValidationError):
            load_config(str(path), tier="desk")


class TestCliCommands:
    def test_trap_writes_deterministic_outputs(self, tmp_path, capsys):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["trap", "--tier", "desk", "--out", out1]) == 0
        assert main(["trap", "--tier", "desk", "--out", out2]) == 0
        for name in ("basis.json", "vectors.csv", "z_matrix.csv", "dipole.csv"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2
        assert "MHz" in capsys.readouterr().out

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
        ["[oct]\ndt = 0 ns\n", "[oct]\nt_pulse = -1 us\n", "[sim]\npackets = nan:0\n"],
        ids=["zero-dt", "negative-pulse", "nan-packet"],
    )
    def test_bad_config_values_exit_2(self, tmp_path, capsys, ini):
        """Rejected on load, whichever command reads the file."""
        bad = tmp_path / "bad.ini"
        bad.write_text(ini)
        code = main([
            "trap", "--config", str(bad), "--tier", "desk", "--out", str(tmp_path),
        ])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

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

    def test_dissipative_with_two_kappas_exits_2(self, tmp_path):
        code = main([
            "optimize", "--tier", "desk", "--out", str(tmp_path),
            "--mode", "gate", "--dissipative", "--kappa", "1e-18", "5e-18",
            "--max-iterations", "1",
        ])
        assert code == 2

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
        assert os.path.exists(os.path.join(out, "gate_p_checkpoint.csv"))
        assert os.path.exists(os.path.join(out, "gate_p_checkpoint_trace.csv"))

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
        """The drift of each pulse map goes to the console only; the
        artifacts of a rerun are byte-identical."""
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
        names = sorted(os.listdir(outs[0]))
        assert names == sorted(os.listdir(outs[1]))
        for name in names:
            with open(os.path.join(outs[0], name), "rb") as a, \
                    open(os.path.join(outs[1], name), "rb") as b:
                assert a.read() == b.read(), name

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
        checkpoint = os.path.join(out, "gate_p_diss_checkpoint.csv")
        assert os.path.exists(checkpoint)
        assert os.path.exists(os.path.join(out, "gate_p_diss_checkpoint_trace.csv"))
        assert not os.path.exists(os.path.join(out, "gate_p_checkpoint.csv"))
        assert main(args + ["--resume", checkpoint]) == 4
        from iontrapsim.serialization import load_trace

        trace = load_trace(os.path.join(out, "gate_p_diss_trace.csv"))
        assert trace.iterations == [0, 1, 2]

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
