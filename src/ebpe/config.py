"""Run configuration: INI-style parsing with line-accurate error reporting.

Sections: [grid], [physics], [time], [init], [noise], [output].  '#' starts
a comment.  Each key is declared once, on its `RunConfig` field: `_key`
names the section, the converter and, when it differs from the field's
name, the key; the parser's table is derived from those fields.  A key
may be set once per file: a repeated key is an error, though a section
header may repeat with new keys.  All validation problems in a file are
collected and reported in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

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


def _key(section: str, default, converter, key: str | None = None):
    """A field read from `key` (the field's name when None) of [section]."""
    return field(default=default,
                 metadata={"section": section, "converter": converter, "key": key})


@dataclass
class RunConfig:
    nx: int = _key("grid", 16, _to_int)
    ny: int = _key("grid", 16, _to_int)
    nz: int = _key("grid", 16, _to_int)

    beta1: float = _key("physics", 0.38, float)
    beta2: float = _key("physics", 0.68, float)
    rho_ref: float = _key("physics", 0.0, float)
    q0: float = _key("physics", 1.0, float)
    q1: float = _key("physics", 0.0, float)
    radiation_on: bool = _key("physics", True, _to_bool, "radiation")
    transport: str = _key("physics", SURFACE_TRACE, _choice(TRANSPORT_VARIANTS))
    freeze_velocity: bool = _key("physics", False, _to_bool)

    dt: float = _key("time", 1e-3, float)
    t_end: float = _key("time", 0.1, float)
    scheme: str = _key("time", "imex_euler", _choice(SCHEMES))

    ic_kind: str = _key("init", "zero", _choice(IC_KINDS), "kind")
    ic_amplitude: float = _key("init", 0.5, float, "amplitude")
    ic_seed: int = _key("init", 0, _to_int, "seed")
    ic_decay: float = _key("init", 3.0, float, "decay")
    ic_value: float = _key("init", 0.0, float, "value")

    noise_sigma: float = _key("noise", 0.0, float, "sigma")
    noise_decay: float = _key("noise", 2.0, float, "decay")
    noise_seed: int = _key("noise", 0, _to_int, "seed")

    cadence: int = _key("output", 1, _to_int)
    out_dir: str | None = _key("output", None, str, "dir")
    monitors_on: bool = _key("output", False, _to_bool, "monitors")
    c_led: float = _key("output", 50.0, float)
    h1_growth_rate: float = _key("output", 50.0, float)
    h1_margin: float = _key("output", 100.0, float)

    def n_steps(self) -> int:
        if self.t_end == 0.0:
            return 0
        return int(round(self.t_end / self.dt))

    def with_seed(self, seed: int) -> "RunConfig":
        """Override both the initial-condition and noise seeds."""
        return replace(self, ic_seed=seed, noise_seed=seed)


# (section, key) -> the RunConfig field it sets
_FIELDS = {(f.metadata["section"], f.metadata["key"] or f.name): f for f in fields(RunConfig)}
_SECTIONS = {section for section, _ in _FIELDS}
# the float keys whose finiteness `validate_config` checks itself; the
# noise keys' rules are `noise_errors`
_FLOATS = tuple(f.name for f in fields(RunConfig) if isinstance(f.default, float)
                and f.name not in ("noise_sigma", "noise_decay"))


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration; raises ConfigError."""
    cfg = RunConfig()
    errors: list[str] = []
    set_on: dict[str, int] = {}  # field name -> the line that last set it
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SECTIONS:
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
        f = _FIELDS.get((section, key))
        if f is None:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{section}]")
            continue
        if f.name in set_on:
            errors.append(f"line {lineno}: key {key!r} in section [{section}] "
                          f"already set on line {set_on[f.name]}")
        set_on[f.name] = lineno
        try:
            setattr(cfg, f.name, f.metadata["converter"](value))
        except ValueError as exc:
            errors.append(f"line {lineno}: bad value for {key!r}: {exc}")

    validate_config(cfg, errors)
    return cfg


def whole_steps(t_end: float, dt: float) -> bool:
    """Whether t_end is one or more whole steps of dt, to 1e-9 * max(1, t_end)."""
    n = round(t_end / dt)
    return n >= 1 and abs(n * dt - t_end) <= 1e-9 * max(1.0, t_end)


def noise_errors(sigma: float, decay: float) -> list[str]:
    """The rules of the boundary noise's amplitude and spectral decay, which
    `validate_config` and `stochastic.NoiseSpec` both apply: the message
    of each rule that sigma or decay breaks.  Both are finite, sigma >= 0,
    and decay >= 2, which makes the surface solution's H1 norm uniform in
    resolution (the noise's sum of |q|^2 |xi|^2 grows as log N at 2)."""
    errors = []
    for name, value in (("sigma", sigma), ("decay", decay)):
        if not math.isfinite(value):
            errors.append(f"noise {name} must be finite, got {value}")
    if sigma < 0.0:
        errors.append(f"noise sigma must be >= 0, got {sigma}")
    if decay < 2.0:
        errors.append(f"noise decay exponent must be >= 2 for boundary-noise regularity, "
                      f"got {decay}")
    return errors


def validate_config(cfg: RunConfig, errors: list[str] | None = None) -> None:
    """Every field's checks, alone and across fields: raises ConfigError with
    `errors` (a parser's, first) and theirs, if any.  Each driver's set-up
    calls it first, so a config built in code meets a parsed one's rules."""
    errors = list(errors or ())
    for name in _FLOATS:
        if not math.isfinite(getattr(cfg, name)):
            errors.append(f"{name} must be finite, got {getattr(cfg, name)}")
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
        if not whole_steps(cfg.t_end, cfg.dt):
            errors.append(
                f"t_end={cfg.t_end} must be a whole number of steps of dt={cfg.dt}"
            )
    errors += noise_errors(cfg.noise_sigma, cfg.noise_decay)
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
    if errors:
        raise ConfigError(errors)
