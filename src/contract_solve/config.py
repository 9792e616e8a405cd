"""Plain-text key=value configuration shared by the command line tools.

Model parameters use bare keys (alpha, beta, ...); solver, simulation and
report keys are dotted (grid.n, sim.seed, fb.x_max). '#' starts a comment,
full-line or trailing. Every key has a default, so an empty file is a valid
configuration. Unknown keys are rejected: a typo silently falling back to a
default would be worse than an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields

from . import hjbvi
from .hjbvi import Grid
from .model import DEFAULTS, ModelParams, validate
from .simulate import SimConfig


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


@dataclass(frozen=True)
class RunConfig:
    """A validated run configuration. sim holds the sim.* keys but sim.x0, as
    a SimConfig with its defaults and rules. Every other dotted key is the
    field of its name with the first '.' spelled '_' (grid.x_max is
    grid_x_max), whose default and type (int, float or tuple of floats) give
    the key's default and parser. grid is Grid.make(grid.x_max, grid.n), which
    checks those keys. Model keys go through model.validate, so that their
    constraints are reported together."""

    params: ModelParams
    snapshot: dict = field(compare=False)
    grid: Grid = field(compare=False)
    grid_x_max: float = hjbvi.DEFAULT_X_MAX
    grid_n: int = hjbvi.DEFAULT_N
    howard_tol: float = hjbvi.DEFAULT_TOL
    howard_max_iter: int = hjbvi.DEFAULT_MAX_ITER
    sim: SimConfig = SimConfig()
    sim_x0: float = 0.1
    sweep_sigmas: tuple = (1.5, 1.85, 2.2)
    fb_x_min: float = 0.0
    fb_x_max: float = 5.5
    fb_x_n: int = 111
    fb_t_max: float = 25.0
    fb_t_n: int = 251
    voi_x_max: float = 0.95
    voi_x_n: int = 96


_PARSERS = {int: _parse_int, float: _parse_float, tuple: _parse_floats}
_KEYS = {f.name.replace("_", ".", 1): f.default for f in fields(RunConfig)
         if f.name not in ("params", "snapshot", "grid", "sim")}
_KEYS.update((f"sim.{g.name}", g.default) for g in fields(SimConfig))


def _checked(prefix, make, **kwargs):
    """make(**kwargs), its ValueError re-raised as a ConfigError naming prefix + keyword."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(re.sub(rf"\b({'|'.join(kwargs)})\b", rf"{prefix}\1", str(exc))) from None


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
    values = dict(_KEYS)
    for key, text in raw.items():
        if key in DEFAULTS:
            model_raw[key] = _parse_float(key, text)
        elif key in _KEYS:
            values[key] = _PARSERS[type(_KEYS[key])](key, text)
        else:
            raise ConfigError(f"unknown config key {key!r}")

    try:
        params = validate(model_raw)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grid = _checked("grid.", Grid.make, x_max=values["grid.x_max"], n=values["grid.n"])
    _checked("howard.", hjbvi.check_limits, tol=values["howard.tol"],
             max_iter=values["howard.max_iter"])
    flat = {key.replace(".", "_"): val for key, val in values.items()}
    sim = _checked("sim.", SimConfig, **{g.name: flat.pop(f"sim_{g.name}")
                                         for g in fields(SimConfig)})
    if not values["sweep.sigmas"]:
        raise ConfigError("sweep.sigmas must list at least one sigma")
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
    for key, val in values.items():
        if isinstance(val, tuple):
            snapshot[key] = ",".join(f"{s:.17g}" for s in val)
        elif isinstance(val, int):
            snapshot[key] = str(val)
        else:
            snapshot[key] = f"{val:.17g}"

    return RunConfig(params=params, snapshot=snapshot, grid=grid, sim=sim, **flat)


def load(path=None, overrides=()) -> RunConfig:
    raw = parse_file(path) if path is not None else {}
    raw.update(parse_overrides(overrides))
    return build(raw)
