"""Run configuration: tier presets, INI run files, unit-suffixed quantities.

A time in a config file may carry a unit suffix (`96 us`, `960 ps`); a
bare number is read as atomic units.  Parsing converts to atomic units at
this boundary and nothing else in the package ever sees SI.

`RunConfig.config_hash` is computed with CPython's built-in SHA-256 module,
so that no process of the package loads OpenSSL's libcrypto (3.4 MB of
peak memory) through `hashlib`.
"""

import configparser
import json
import math
from dataclasses import dataclass, field, replace

# The built-in module is _sha2 from 3.12 on and _sha256 before; a build
# that leaves the built-in hashes out falls back to hashlib.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from .errors import ValidationError
from .gridsim import Grid, check_sigma, check_substeps
from .oct import OctConfig, check_alpha0
from .propagator import check_kappa
from .trap import TrapParams, check_deltas
from .units import TIME_AU_S

_TIME_UNITS = {
    "au": 1.0,
    "s": 1.0 / TIME_AU_S,
    "ms": 1e-3 / TIME_AU_S,
    "us": 1e-6 / TIME_AU_S,
    "ns": 1e-9 / TIME_AU_S,
    "ps": 1e-12 / TIME_AU_S,
}
_UNIT_TABLES = {"time": _TIME_UNITS, "plain": {"au": 1.0}}


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


def _parse_list(text: str, parse=parse_quantity) -> tuple:
    return tuple(parse(tok) for tok in text.split(","))


def _time(text: str) -> float:
    return parse_quantity(text, "time")


def _packet(text: str) -> tuple:
    sigma, _, x0 = text.partition(":")
    return parse_quantity(sigma), parse_quantity(x0)


@dataclass
class RunConfig:
    """Everything one pipeline run needs, in atomic units."""

    tier: str = "desk"
    outdir: str = "runs/desk"
    trap: TrapParams = field(default_factory=TrapParams)
    # simulated system / grid
    x_min: float = -4.0
    x_max: float = 4.0
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
        """First 16 hex digits of the SHA-256 of every resolved value but
        the output directory, as JSON with sorted keys."""
        values = dict(vars(self))
        del values["outdir"]
        text = json.dumps(values, sort_keys=True, default=vars)   # vars: the TrapParams
        return sha256(text.encode()).hexdigest()[:16]

    @property
    def grid_points(self) -> int:
        """The state-per-point mapping puts one computational state on
        each grid point."""
        return self.trap.computational_size

    def oct_config(self) -> OctConfig:
        """The optimizer's parameters of this run; builds and so checks them."""
        return OctConfig(
            t_pulse=self.t_pulse,
            dt=self.oct_dt,
            alpha0=self.alpha0_p if self.functional == "P" else self.alpha0_f,
            functional=self.functional,
            max_iterations=self.max_iterations,
            fidelity_goal=self.fidelity_goal,
        )

    def validate(self) -> None:
        self.trap.validate()
        for name in ("alpha0_p", "alpha0_f"):   # the other functional's too
            check_alpha0(getattr(self, name), name)
        self.oct_config()
        # the checks the grid, the gate and the packets make when built
        Grid(self.x_min, self.x_max, self.grid_points)
        check_substeps(self.k_substeps)
        for sigma, _ in self.packets:
            check_sigma(sigma)
        if self.n_pulses < 1:
            raise ValidationError("n_pulses must be at least 1")
        if not self.kappas:
            raise ValidationError("kappa needs at least one value")
        for kappa in self.kappas:
            check_kappa(kappa)
        check_deltas(self.deltas, self.trap.dynamical_size)


# What each tier sets over RunConfig's defaults, which are the paper's problem.
_PRESETS = {
    # reduced problem: 4 qubit states in an 8-state dynamical space,
    # 20 us pulses sampled in 10,000 steps
    "desk": dict(
        trap=TrapParams(primitive_size=50, dynamical_size=8, computational_size=4),
        t_pulse=20e-6 / TIME_AU_S,
        oct_dt=2e-9 / TIME_AU_S,
        alpha0_p=5e14,
        alpha0_f=2e15,
        max_iterations=500,
        fidelity_goal=0.995,
    ),
    # full problem: 16 qubit states in a 32-state dynamical space,
    # 96 us pulses sampled in 100,000 steps
    "paper": {},
}

# section -> key -> (attribute, parser); the [trap] keys set TrapParams
# fields, all others RunConfig fields.
_KEYS = {
    "run": {"tier": ("tier", str), "out": ("outdir", str)},
    "trap": {
        "mass": ("mass", parse_quantity),
        "charge": ("charge", parse_quantity),
        "k": ("k", parse_quantity),
        "k_quart": ("k_quart", parse_quantity),
        "primitive_size": ("primitive_size", int),
        "dynamical_size": ("dynamical_size", int),
        "computational_size": ("computational_size", int),
    },
    "sim": {
        "x_min": ("x_min", parse_quantity),
        "x_max": ("x_max", parse_quantity),
        "delta_t": ("delta_t", _time),
        "k_substeps": ("k_substeps", int),
        "n_pulses": ("n_pulses", int),
        "packets": ("packets", lambda text: _parse_list(text, _packet)),
    },
    "oct": {
        "t_pulse": ("t_pulse", _time),
        "dt": ("oct_dt", _time),
        "alpha0_p": ("alpha0_p", parse_quantity),
        "alpha0_f": ("alpha0_f", parse_quantity),
        "functional": ("functional", str.upper),
        "max_iterations": ("max_iterations", int),
        "fidelity_goal": ("fidelity_goal", parse_quantity),
    },
    "dissipation": {
        "kappa": ("kappas", _parse_list),
        "deltas": ("deltas", lambda text: _parse_list(text, int)),
    },
}


def tier_config(tier: str) -> RunConfig:
    """The preset of a tier, not yet validated."""
    if tier not in _PRESETS:
        raise ValidationError(f"unknown tier {tier!r}")
    return RunConfig(tier=tier, outdir=f"runs/{tier}", **_PRESETS[tier])


def _read_ini(path: str) -> tuple:
    """The RunConfig and the TrapParams values an INI run file sets.  An
    unknown section or key, or a value that does not parse, is an error."""
    # no header names the section "", so [DEFAULT] is refused as unknown below
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        with open(path) as handle:
            parser.read_file(handle)
    except (OSError, UnicodeDecodeError, configparser.Error) as exc:
        # configparser's messages span lines; the CLI reports one line
        raise ValidationError(f"cannot read {path}: {' '.join(str(exc).split())}") from exc
    values, trap = {}, {}
    for section in parser.sections():
        if section not in _KEYS:
            raise ValidationError(f"{path}: unknown section [{section}]")
        for key, text in parser[section].items():
            if key not in _KEYS[section]:
                raise ValidationError(f"{path}: unknown key {key!r} in [{section}]")
            attr, parse = _KEYS[section][key]
            try:
                value = parse(text)
            except ValueError as exc:   # int's, or parse_quantity's ValidationError
                raise ValidationError(f"{path}: [{section}] {key}: {exc}") from None
            (trap if section == "trap" else values)[attr] = value
    return values, trap


def load_config(path: str | None = None, **options) -> RunConfig:
    """Resolve a run's configuration: the tier preset, the INI run file at
    `path` over it, then `options` (RunConfig fields, such as a command's
    options) over both, validated once."""
    values, trap = _read_ini(path) if path else ({}, {})
    values.update(options)
    cfg = tier_config(values.get("tier", "desk"))
    cfg = replace(cfg, trap=replace(cfg.trap, **trap), **values)
    cfg.validate()
    return cfg
