"""Plain-text key=value configuration shared by the command line tools.

Model parameters use bare keys (alpha, beta, ...); solver, simulation and
report keys are dotted (grid.n, sim.seed, fb.x_max). '#' starts a comment,
full-line or trailing. Every key has a default, so an empty file is a valid
configuration. Unknown keys are rejected: a typo silently falling back to a
default would be worse than an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import DEFAULTS, ModelParams, validate


class ConfigError(ValueError):
    """Malformed line, unknown key, or a value that fails validation."""


def _parse_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {text!r}") from None


def _parse_float(key, text):
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key}: expected a finite number, got {text!r}")
    return value


def _parse_floats(key, text):
    parts = [p.strip() for p in text.split(",") if p.strip()]
    return tuple(_parse_float(key, p) for p in parts)


# key -> (parser, default). Model keys are handled separately through
# model.validate so that their constraints are reported together.
_REGISTRY = {
    "grid.x_max": (_parse_float, 1.0),
    "grid.n": (_parse_int, 2001),
    "howard.tol": (_parse_float, 1e-9),
    "howard.max_iter": (_parse_int, 200),
    "sim.dt": (_parse_float, 1e-3),
    "sim.horizon": (_parse_float, 200.0),
    "sim.n_paths": (_parse_int, 10_000),
    "sim.seed": (_parse_int, 42),
    "sim.x0": (_parse_float, 0.1),
    "sweep.sigmas": (_parse_floats, (1.5, 1.85, 2.2)),
    "fb.x_min": (_parse_float, 0.0),
    "fb.x_max": (_parse_float, 5.5),
    "fb.x_n": (_parse_int, 111),
    "fb.t_max": (_parse_float, 25.0),
    "fb.t_n": (_parse_int, 251),
    "voi.x_max": (_parse_float, 0.95),
    "voi.x_n": (_parse_int, 96),
}


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    grid_x_max: float
    grid_n: int
    howard_tol: float
    howard_max_iter: int
    sim_dt: float
    sim_horizon: float
    sim_n_paths: int
    sim_seed: int
    sim_x0: float
    sweep_sigmas: tuple
    fb_x_min: float
    fb_x_max: float
    fb_x_n: int
    fb_t_max: float
    fb_t_n: int
    voi_x_max: float
    voi_x_n: int
    snapshot: dict = field(compare=False)


def parse_lines(lines, source="<config>"):
    """key=value lines to a raw string mapping; '#' comments allowed."""
    raw = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {line.strip()!r}")
        key, value = text.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def parse_file(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_lines(fh, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None


def parse_overrides(pairs):
    """--set style key=value strings; later entries override earlier ones."""
    raw = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override {pair!r}: expected key=value")
        key, value = pair.split("=", 1)
        raw[key.strip()] = value.strip()
    return raw


def build(raw) -> RunConfig:
    """Typed, validated configuration from a raw string mapping."""
    model_raw = dict(DEFAULTS)
    values = {key: default for key, (_, default) in _REGISTRY.items()}
    for key, text in raw.items():
        if key in DEFAULTS:
            model_raw[key] = _parse_float(key, text)
        elif key in _REGISTRY:
            parser, _ = _REGISTRY[key]
            values[key] = parser(key, text)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    try:
        params = validate(model_raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    if not values["grid.x_max"] > 0.0:
        raise ConfigError("grid.x_max must be > 0")
    if values["grid.n"] < 3:
        raise ConfigError("grid.n must be >= 3")
    if not values["howard.tol"] > 0.0:
        raise ConfigError("howard.tol must be > 0")
    if values["howard.max_iter"] < 1:
        raise ConfigError("howard.max_iter must be >= 1")
    if not values["sim.dt"] > 0.0:
        raise ConfigError("sim.dt must be > 0")
    if not values["sim.horizon"] > 0.0:
        raise ConfigError("sim.horizon must be > 0")
    # SimConfig.n_steps = round(horizon / dt), and round(0.5) is 0
    if not 0.5 < values["sim.horizon"] / values["sim.dt"] < math.inf:
        raise ConfigError("sim.horizon / sim.dt must round to a finite number of Euler steps >= 1")
    if values["sim.n_paths"] < 1:
        raise ConfigError("sim.n_paths must be >= 1")
    if not 0 <= values["sim.seed"] < 2**64:
        raise ConfigError("sim.seed must fit in 64 bits")
    if any(s <= 0.0 for s in values["sweep.sigmas"]):
        raise ConfigError("sweep.sigmas must all be > 0")
    for key in ("fb.x_n", "fb.t_n", "voi.x_n"):
        if values[key] < 2:
            raise ConfigError(f"{key} must be >= 2")
    if not values["fb.x_min"] >= 0.0:
        raise ConfigError("fb.x_min must be >= 0")
    if values["fb.x_max"] <= values["fb.x_min"]:
        raise ConfigError("fb.x_max must exceed fb.x_min")
    if not values["fb.t_max"] > 0.0:
        raise ConfigError("fb.t_max must be > 0")
    if not 0.0 < values["voi.x_max"] <= values["grid.x_max"]:
        raise ConfigError("voi.x_max must lie in (0, grid.x_max]")

    snapshot = {key: f"{val:.17g}" for key, val in model_raw.items()}
    for key in _REGISTRY:
        val = values[key]
        if isinstance(val, tuple):
            snapshot[key] = ",".join(f"{s:.17g}" for s in val)
        elif isinstance(val, int):
            snapshot[key] = str(val)
        else:
            snapshot[key] = f"{val:.17g}"

    # RunConfig's fields are the registry keys with '.' spelled '_'
    fields = {key.replace(".", "_"): val for key, val in values.items()}
    return RunConfig(params=params, snapshot=snapshot, **fields)


def load(path=None, overrides=()) -> RunConfig:
    raw = parse_file(path) if path is not None else {}
    raw.update(parse_overrides(overrides))
    return build(raw)
