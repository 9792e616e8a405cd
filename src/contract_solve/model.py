"""Economic primitives shared by every solver in the suite.

The principal pays a rent stream to an agent whose effort a moves expected
output through a bounded concave impact function phi, at a convex private
cost h, while the agent values consumption through a strictly concave
utility U satisfying Inada conditions. The model has one parametric form,

    phi(a) = phi_max * (1 - exp(-alpha a))
    h(a)   = exp(beta a) - 1
    U(x)   = c * x**p,  0 < p < 1

for which every derivative and inverse used downstream is available in
closed form. ModelParams is a flat record of the nine scalars (phi_max,
alpha, beta, c, p, lam, delta, sigma, x_reserve) with these primitives as
methods; the solvers' closed forms read its fields directly.

The contract implements effort through the agent's best response. Loaded
with z units of promised-value volatility per unit of output noise, the
agent maximizes -h(a) + z phi(a)/sigma over a >= 0, whose first-order
condition z = sigma h'(a)/phi'(a) is ModelParams.exposure. That ratio starts
at exposure(0) > 0, so effort_response, the maximizer, inverts exposure
above exposure(0) and is 0 at or below it; exposure(0) itself is the
exposure the solver and the simulation use at zero effort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Baseline calibration used when a config file leaves keys unset.
DEFAULTS = {
    "alpha": 0.1,
    "beta": 0.1,
    "phi_max": 3.0,
    "c": 1.0,
    "p": 0.25,
    "lambda": 0.2,
    "delta": 0.08,
    "sigma": 1.85,
    "x_reserve": 0.1,
}

MODEL_KEYS = tuple(DEFAULTS)


class InvalidParam(NamedTuple):
    name: str
    constraint: str


class InvalidParams(ValueError):
    """Raised by validate(); carries every violated constraint, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        msg = "; ".join(f"{v.name}: {v.constraint}" for v in self.violations)
        super().__init__(f"invalid parameters: {msg}")


@dataclass(frozen=True)
class ModelParams:
    """The nine model scalars, with phi, h, U and their derivatives as methods.

    validate() is the checked constructor; dataclasses.replace derives
    variants. lam >= delta > 0 is the standing impatience assumption (the
    principal discounts no faster than the agent), sigma > 0 keeps output
    informative about effort.
    """

    phi_max: float
    alpha: float
    beta: float
    c: float
    p: float
    lam: float
    delta: float
    sigma: float
    x_reserve: float

    def phi(self, a):
        """phi(a) = phi_max (1 - e^{-alpha a}): bounded, increasing, concave."""
        return self.phi_max * -np.expm1(-self.alpha * np.asarray(a, dtype=float))

    def dphi(self, a):
        return self.phi_max * self.alpha * np.exp(-self.alpha * np.asarray(a, dtype=float))

    def h(self, a):
        """h(a) = e^{beta a} - 1: increasing, strictly convex, h(0) = 0."""
        return np.expm1(self.beta * np.asarray(a, dtype=float))

    def dh(self, a):
        return self.beta * np.exp(self.beta * np.asarray(a, dtype=float))

    def u(self, x):
        """U(x) = c x^p with 0 < p < 1: strictly concave, Inada at 0 and infinity."""
        return self.c * np.asarray(x, dtype=float) ** self.p

    def du(self, x):
        return self.c * self.p * np.asarray(x, dtype=float) ** (self.p - 1.0)

    def u_inv(self, y):
        return (np.asarray(y, dtype=float) / self.c) ** (1.0 / self.p)

    def du_inv(self, y):
        # (U')^{-1}(y) = (y / (p c))^{1/(p-1)}, decreasing on (0, inf)
        return (np.asarray(y, dtype=float) / (self.p * self.c)) ** (1.0 / (self.p - 1.0))

    def cost_impact_ratio(self, a):
        """h'(a) / phi'(a): strictly increasing since h is convex and phi concave."""
        return self.dh(a) / self.dphi(a)

    def exposure(self, a):
        """sigma h'(a)/phi'(a), positive at a = 0: the state's noise loading in
        the simulation, and the PDE's diffusion is half its square."""
        return self.sigma * self.cost_impact_ratio(a)

    def effort_response(self, z):
        """The agent's best response to exposure z >= 0: the argmax over a >= 0
        of -h(a) + z phi(a)/sigma, ln(phi_max alpha z/(sigma beta))/(alpha + beta)
        above exposure(0) and 0 at or below it. z < 0 raises ValueError."""
        z = np.asarray(z, dtype=float)
        if np.any(z < 0.0):
            raise ValueError("exposure must be >= 0")
        y = self.phi_max * self.alpha * (z / self.sigma) / self.beta
        return (1.0 / (self.alpha + self.beta)) * np.log(np.maximum(y, 1.0))


def validate(raw) -> ModelParams:
    """Check a raw key->value mapping and build ModelParams.

    Collects every violated constraint into one InvalidParams rejection
    instead of stopping at the first. lam < delta is a rejection, not a
    warning.
    """
    violations = []
    vals = {}
    for key in MODEL_KEYS:
        if key not in raw:
            violations.append(InvalidParam(key, "missing"))
            continue
        try:
            v = float(raw[key])
        except (TypeError, ValueError):
            violations.append(InvalidParam(key, "not a number"))
            continue
        if not math.isfinite(v):
            violations.append(InvalidParam(key, "must be finite"))
            continue
        vals[key] = v
    for key in raw:
        if key not in MODEL_KEYS:
            violations.append(InvalidParam(str(key), "unknown parameter"))

    def check(name, ok, constraint):
        if name in vals and not ok:
            violations.append(InvalidParam(name, constraint))

    check("alpha", vals.get("alpha", 1.0) > 0.0, "alpha > 0")
    check("beta", vals.get("beta", 1.0) > 0.0, "beta > 0")
    check("phi_max", vals.get("phi_max", 1.0) > 0.0, "phi_max > 0")
    check("c", vals.get("c", 1.0) > 0.0, "c > 0")
    check("p", 0.0 < vals.get("p", 0.5) < 1.0, "0 < p < 1")
    check("delta", vals.get("delta", 1.0) > 0.0, "delta > 0")
    if "lambda" in vals and "delta" in vals and not vals["lambda"] >= vals["delta"]:
        violations.append(InvalidParam("lambda", "lambda >= delta"))
    check("sigma", vals.get("sigma", 1.0) > 0.0, "sigma > 0")
    check("x_reserve", vals.get("x_reserve", 0.0) >= 0.0, "x_reserve >= 0")

    if violations:
        raise InvalidParams(violations)

    # the config key "lambda" is a Python keyword; the field is lam
    return ModelParams(lam=vals.pop("lambda"), **vals)


def default_params() -> ModelParams:
    return validate(DEFAULTS)
