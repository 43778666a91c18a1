"""Run configuration: INI-style parsing with line-accurate error reporting.

Sections: [grid], [physics], [time], [init], [noise], [output].  '#' starts
a comment.  All validation problems in a file are collected and reported
in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .ebm import SURFACE_TRACE, TRANSPORT_VARIANTS

# the nominal temporal order of each time scheme; `ebpe mms` fails a
# scheme whose measured order falls more than 0.1 below it
SCHEME_ORDERS = {"imex_euler": 1.0, "cnab2": 2.0}
SCHEMES = tuple(SCHEME_ORDERS)
IC_KINDS = ("zero", "uniform", "single_mode", "random_smooth")


class ConfigError(ValueError):
    """Carries every validation message found in one parsing pass."""

    def __init__(self, messages: list[str]):
        self.messages = list(messages)
        super().__init__("\n".join(self.messages))


@dataclass
class RunConfig:
    nx: int = 16
    ny: int = 16
    nz: int = 16

    beta1: float = 0.38
    beta2: float = 0.68
    rho_ref: float = 0.0
    q0: float = 1.0
    q1: float = 0.0
    radiation_on: bool = True
    transport: str = SURFACE_TRACE
    freeze_velocity: bool = False

    dt: float = 1e-3
    t_end: float = 0.1
    scheme: str = "imex_euler"

    ic_kind: str = "zero"
    ic_amplitude: float = 0.5
    ic_seed: int = 0
    ic_decay: float = 3.0
    ic_value: float = 0.0

    noise_sigma: float = 0.0
    noise_decay: float = 2.0
    noise_seed: int = 0

    cadence: int = 1
    out_dir: str | None = None
    monitors_on: bool = False
    c_led: float = 50.0
    h1_growth_rate: float = 50.0
    h1_margin: float = 100.0

    def n_steps(self) -> int:
        if self.t_end == 0.0:
            return 0
        return int(round(self.t_end / self.dt))

    def with_seed(self, seed: int) -> "RunConfig":
        """Override both the initial-condition and noise seeds."""
        return replace(self, ic_seed=seed, noise_seed=seed)


_BOOL_WORDS = {
    "true": True, "on": True, "yes": True, "1": True,
    "false": False, "off": False, "no": False, "0": False,
}


def _to_bool(s: str) -> bool:
    try:
        return _BOOL_WORDS[s.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean (on/off/true/false), got {s!r}")


def _to_int(s: str) -> int:
    return int(s, 0)


def _choice(options):
    def convert(s: str) -> str:
        if s not in options:
            raise ValueError(f"expected one of {options}, got {s!r}")
        return s
    return convert


_SCHEMA = {
    "grid": {"nx": ("nx", _to_int), "ny": ("ny", _to_int), "nz": ("nz", _to_int)},
    "physics": {
        "beta1": ("beta1", float),
        "beta2": ("beta2", float),
        "rho_ref": ("rho_ref", float),
        "q0": ("q0", float),
        "q1": ("q1", float),
        "radiation": ("radiation_on", _to_bool),
        "transport": ("transport", _choice(TRANSPORT_VARIANTS)),
        "freeze_velocity": ("freeze_velocity", _to_bool),
    },
    "time": {
        "dt": ("dt", float),
        "t_end": ("t_end", float),
        "scheme": ("scheme", _choice(SCHEMES)),
    },
    "init": {
        "kind": ("ic_kind", _choice(IC_KINDS)),
        "amplitude": ("ic_amplitude", float),
        "seed": ("ic_seed", _to_int),
        "decay": ("ic_decay", float),
        "value": ("ic_value", float),
    },
    "noise": {
        "sigma": ("noise_sigma", float),
        "decay": ("noise_decay", float),
        "seed": ("noise_seed", _to_int),
    },
    "output": {
        "cadence": ("cadence", _to_int),
        "dir": ("out_dir", str),
        "monitors": ("monitors_on", _to_bool),
        "c_led": ("c_led", float),
        "h1_growth_rate": ("h1_growth_rate", float),
        "h1_margin": ("h1_margin", float),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    cfg = RunConfig()
    errors: list[str] = []
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        if section is None:
            errors.append(f"line {lineno}: key outside of any known section")
            continue
        key, _, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        schema = _SCHEMA[section]
        if key not in schema:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        attr, convert = schema[key]
        try:
            setattr(cfg, attr, convert(value))
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")

    errors.extend(validate_config(cfg))
    if errors:
        raise ConfigError(errors)
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Cross-field constraint checks; returns messages, empty when valid."""
    errors: list[str] = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            errors.append(f"{f.name} must be finite, got {value}")
    for name, n in (("nx", cfg.nx), ("ny", cfg.ny)):
        if n < 4 or n % 2 != 0:
            errors.append(f"{name} must be even and >= 4, got {n}")
    if cfg.nz < 4:
        errors.append(f"nz must be >= 4, got {cfg.nz}")
    if not (0.0 < cfg.beta1 < cfg.beta2):
        errors.append(
            f"co-albedo bounds require 0 < beta1 < beta2, "
            f"got beta1={cfg.beta1}, beta2={cfg.beta2}"
        )
    if cfg.q0 <= 0.0 or abs(cfg.q1) >= 1.0:
        errors.append(
            f"insolation must stay positive: need q0 > 0 and |q1| < 1, "
            f"got q0={cfg.q0}, q1={cfg.q1}"
        )
    if cfg.dt <= 0.0:
        errors.append(f"dt must be positive, got {cfg.dt}")
    if cfg.t_end < 0.0:
        errors.append(f"t_end must be >= 0, got {cfg.t_end}")
    elif 0.0 < cfg.t_end < math.inf and 0.0 < cfg.dt < math.inf:
        n = round(cfg.t_end / cfg.dt)
        if n < 1 or abs(n * cfg.dt - cfg.t_end) > 1e-9 * max(1.0, cfg.t_end):
            errors.append(
                f"t_end={cfg.t_end} must be a whole number of steps of dt={cfg.dt}"
            )
    if cfg.noise_sigma < 0.0:
        errors.append(f"noise sigma must be >= 0, got {cfg.noise_sigma}")
    if cfg.noise_decay < 2.0:
        errors.append(
            f"noise decay exponent must be >= 2 for boundary-noise regularity, "
            f"got {cfg.noise_decay}"
        )
    if cfg.noise_sigma > 0.0 and cfg.transport == SURFACE_TRACE:
        errors.append(
            "boundary noise requires transport=vertical_average "
            "(surface-trace transport is a deterministic-only variant)"
        )
    for name, seed in (("ic_seed", cfg.ic_seed), ("noise_seed", cfg.noise_seed)):
        if seed < 0:
            errors.append(f"{name} must be >= 0, got {seed}")
    if cfg.cadence < 1:
        errors.append(f"cadence must be >= 1, got {cfg.cadence}")
    for name, value in (("c_led", cfg.c_led), ("h1_growth_rate", cfg.h1_growth_rate)):
        if value < 0.0:
            errors.append(f"{name} must be >= 0, got {value}")
    if cfg.h1_margin <= 0.0:
        errors.append(f"h1_margin must be > 0, got {cfg.h1_margin}")
    if cfg.ic_amplitude < 0.0:
        errors.append(f"initial-condition amplitude must be >= 0, got {cfg.ic_amplitude}")
    return errors
