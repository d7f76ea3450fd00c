"""Run configuration: INI files with unit-suffixed quantities, tier presets.

Every physical value in a config file carries an explicit unit suffix
(`96 us`, `960 ps`, `1.945e-13 au`, `0.1 Vpm`); parsing converts to atomic
units at this boundary and nothing else in the package ever sees SI.
"""

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field, replace

from .errors import ValidationError
from .trap import TrapParams
from .units import FIELD_AU_V_PER_M, TIME_AU_S

_TIME_UNITS = {
    "au": 1.0,
    "s": 1.0 / TIME_AU_S,
    "ms": 1e-3 / TIME_AU_S,
    "us": 1e-6 / TIME_AU_S,
    "ns": 1e-9 / TIME_AU_S,
    "ps": 1e-12 / TIME_AU_S,
}
_FIELD_UNITS = {"au": 1.0, "vpm": 1.0 / FIELD_AU_V_PER_M}
_FREQ_UNITS = {
    "au": 1.0,
    "hz": 2.0 * math.pi * TIME_AU_S,
    "khz": 2.0 * math.pi * TIME_AU_S * 1e3,
    "mhz": 2.0 * math.pi * TIME_AU_S * 1e6,
}
_UNIT_TABLES = {"time": _TIME_UNITS, "field": _FIELD_UNITS, "frequency": _FREQ_UNITS,
                "plain": {"au": 1.0}}


def parse_quantity(text: str, kind: str = "plain") -> float:
    """Parse '96 us' style values into atomic units."""
    parts = str(text).strip().split()
    if not parts or len(parts) > 2:
        raise ValidationError(f"cannot parse quantity {text!r}")
    try:
        value = float(parts[0])
    except ValueError as exc:
        raise ValidationError(f"cannot parse number in {text!r}") from exc
    if not math.isfinite(value):
        raise ValidationError(f"quantity {text!r} is not finite")
    unit = parts[1].lower() if len(parts) == 2 else "au"
    table = _UNIT_TABLES[kind]
    if unit not in table:
        raise ValidationError(f"unknown {kind} unit {unit!r} in {text!r}")
    return value * table[unit]


def _parse_list(text: str, kind: str = "plain"):
    return [parse_quantity(tok, kind) for tok in str(text).split(",") if tok.strip()]


@dataclass
class RunConfig:
    """Everything one pipeline run needs, in atomic units."""

    tier: str = "desk"
    outdir: str = "runs/desk"
    trap: TrapParams = field(default_factory=TrapParams)
    # simulated system / grid
    x_min: float = -4.0
    x_max: float = 4.0
    grid_points: int = 16
    delta_t: float = 2.0 * math.pi / 10.0
    k_substeps: int = 10
    n_pulses: int = 10
    packets: tuple = ((1.0, -0.75), (0.5, -0.75))
    # optimization
    t_pulse: float = 96e-6 / TIME_AU_S
    oct_dt: float = 960e-12 / TIME_AU_S
    alpha0_p: float = 1e15
    alpha0_f: float = 4e15
    functional: str = "P"
    max_iterations: int = 1500
    fidelity_goal: float = 0.99999
    # dissipation
    kappas: tuple = (1e-18, 5e-18, 1e-17)
    deltas: tuple = (1, 3)

    @property
    def config_hash(self) -> str:
        """Hash of every resolved value but the output directory."""
        values = dict(vars(self))
        del values["outdir"]
        text = json.dumps(values, sort_keys=True, default=vars)   # vars: the TrapParams
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    @property
    def alpha0(self) -> float:
        return self.alpha0_p if self.functional == "P" else self.alpha0_f

    def validate(self) -> None:
        self.trap.validate()
        if self.tier not in ("desk", "paper"):
            raise ValidationError(f"unknown tier {self.tier!r}")
        if self.grid_points != self.trap.computational_size:
            raise ValidationError(
                "the state-per-point mapping needs exactly one computational "
                f"state per grid point; got {self.grid_points} points and "
                f"{self.trap.computational_size} states"
            )
        if self.functional not in ("F", "P"):
            raise ValidationError("functional must be 'F' or 'P'")
        if not (self.t_pulse > 0 and self.oct_dt > 0):
            raise ValidationError("t_pulse and the OCT time step must be positive")
        if self.n_pulses < 1:
            raise ValidationError("n_pulses must be at least 1")
        if self.max_iterations < 0:
            raise ValidationError("max_iterations must be non-negative (0 only evaluates)")
        if not self.kappas:
            raise ValidationError("kappa needs at least one value")


def desk_config() -> RunConfig:
    """Reduced problem: 4 qubit states in an 8-state dynamical space,
    20 us pulses sampled in 10,000 steps."""
    return RunConfig(
        tier="desk",
        outdir="runs/desk",
        trap=TrapParams(primitive_size=50, dynamical_size=8, computational_size=4),
        grid_points=4,
        t_pulse=20e-6 / TIME_AU_S,
        oct_dt=2e-9 / TIME_AU_S,
        alpha0_p=5e14,
        alpha0_f=2e15,
        max_iterations=500,
        fidelity_goal=0.995,
    )


def paper_config() -> RunConfig:
    """Full problem: 16 qubit states in a 32-state dynamical space,
    96 us pulses sampled in 100,000 steps."""
    return RunConfig(tier="paper", outdir="runs/paper")


def tier_config(tier: str) -> RunConfig:
    if tier == "desk":
        return desk_config()
    if tier == "paper":
        return paper_config()
    raise ValidationError(f"unknown tier {tier!r}")


def load_config(path: str, tier: str | None = None, outdir: str | None = None) -> RunConfig:
    """Read an INI run file on top of its tier preset."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path) as handle:
        text = handle.read()
    parser.read_string(text)

    run = parser["run"] if parser.has_section("run") else {}
    cfg = tier_config(tier or run.get("tier", "desk"))
    if "out" in run:
        cfg.outdir = run["out"]

    if parser.has_section("trap"):
        t = parser["trap"]
        cfg.trap = replace(
            cfg.trap,
            mass=parse_quantity(t.get("mass", str(cfg.trap.mass))),
            charge=parse_quantity(t.get("charge", str(cfg.trap.charge))),
            k=parse_quantity(t.get("k", str(cfg.trap.k))),
            k_quart=parse_quantity(t.get("k_quart", str(cfg.trap.k_quart))),
            primitive_size=t.getint("primitive_size", cfg.trap.primitive_size),
            dynamical_size=t.getint("dynamical_size", cfg.trap.dynamical_size),
            computational_size=t.getint(
                "computational_size", cfg.trap.computational_size
            ),
        )
    if parser.has_section("sim"):
        s = parser["sim"]
        cfg.x_min = parse_quantity(s.get("x_min", str(cfg.x_min)))
        cfg.x_max = parse_quantity(s.get("x_max", str(cfg.x_max)))
        cfg.grid_points = s.getint("grid_points", cfg.grid_points)
        cfg.delta_t = parse_quantity(s.get("delta_t", str(cfg.delta_t)), "time")
        cfg.k_substeps = s.getint("k_substeps", cfg.k_substeps)
        cfg.n_pulses = s.getint("n_pulses", cfg.n_pulses)
        if "packets" in s:
            packets = []
            for token in s["packets"].split(","):
                sigma, _, x0 = token.partition(":")
                packets.append((parse_quantity(sigma), parse_quantity(x0)))
            cfg.packets = tuple(packets)
    if parser.has_section("oct"):
        o = parser["oct"]
        cfg.t_pulse = parse_quantity(o.get("t_pulse", f"{cfg.t_pulse} au"), "time")
        cfg.oct_dt = parse_quantity(o.get("dt", f"{cfg.oct_dt} au"), "time")
        cfg.alpha0_p = parse_quantity(o.get("alpha0_p", str(cfg.alpha0_p)))
        cfg.alpha0_f = parse_quantity(o.get("alpha0_f", str(cfg.alpha0_f)))
        cfg.functional = o.get("functional", cfg.functional).upper()
        cfg.max_iterations = o.getint("max_iterations", cfg.max_iterations)
        cfg.fidelity_goal = o.getfloat("fidelity_goal", cfg.fidelity_goal)
    if parser.has_section("dissipation"):
        d = parser["dissipation"]
        if "kappa" in d:
            cfg.kappas = tuple(_parse_list(d["kappa"]))
        if "deltas" in d:
            cfg.deltas = tuple(int(v) for v in _parse_list(d["deltas"]))

    if tier is not None:
        cfg.tier = tier
    if outdir is not None:
        cfg.outdir = outdir
    cfg.validate()
    return cfg
