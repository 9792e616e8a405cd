"""Full-information contract: Lagrange multiplier, schedules, offer decision.

With observable effort the optimal rent and effort paths are deterministic:

    R_t = (U')^{-1}(e^{(lam-delta) t} / m)
    A_t = (h'/phi')^{-1}(e^{(lam-delta) t} / m)  clamped at 0

where the multiplier m solves G(m) = x, G being the discounted agent payoff

    G(m) = int_0^inf e^{-lam s} [U(R_s) - h(A_s)] ds.

The principal offers the contract iff the discounted surplus
I(m) = int_0^inf e^{-delta s} (phi(A_s) - R_s) ds is positive. G is
increasing and I decreasing in m, so the multiplier and the largest
reservation value at which the contract is ever offered each come from one
bracketed bisection. Production evaluates both integrals in closed form,
split at the time the effort clamp releases.

reservation_integral computes G a second way, by adaptive composite 15-point
Gauss-Legendre quadrature truncated where an explicit tail bound drops below
1e-10. No production path calls it; it is the independent route the tests
compare the closed form against, and it stays out of the package namespace.
It builds its Gauss-Legendre rule per call, so numpy.polynomial and the
eigensolver leggauss calls stay out of every process that never integrates
(about 1.6 MiB of peak memory). Schedule factors are evaluated in log
space: e^{(lam-delta) t} alone overflows long before the truncation cap,
while log R_t and A_t are linear in t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams

T_CAP = 1e4  # hard ceiling on the truncation horizon
_TAIL = 1e-10  # tail mass allowed beyond the truncation point
_PANEL_TOL = 1e-9  # per-panel acceptance for the adaptive refinement
_PANEL_BUDGET = 40000  # max panels before giving up

_LAGRANGE_TOL = 1e-9  # |G(m) - x| at solve_lagrange's multiplier
_BOUNDARY_TOL = 1e-4  # continuation_boundary's resolution in x, to first order


class QuadratureFailure(RuntimeError):
    """Adaptive quadrature exhausted its refinement budget."""


class BracketFailure(RuntimeError):
    """Root bracketing or bisection failed within the allowed range."""


class TauStar(Enum):
    ZERO = "ZERO"
    INFINITY = "INFINITY"


@dataclass(frozen=True)
class FirstBestSolution:
    """Multiplier and offer decision for one reservation value; the schedules
    are schedules(params, lambda_lag, t)."""

    x: float
    lambda_lag: float
    tau_star: TauStar
    value: float  # discounted principal surplus; 0 when tau_star is ZERO


def _batch_panels(f, lo, hi):
    """15-point Gauss-Legendre values of f over each [lo_i, hi_i], vectorized."""
    gl_nodes, gl_weights = np.polynomial.legendre.leggauss(15)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    nodes = half[:, None] * gl_nodes[None, :] + mid[:, None]
    vals = f(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ gl_weights)


def _adaptive_gauss_legendre(f, breakpoints, panel_tol=_PANEL_TOL, budget=_PANEL_BUDGET):
    """Integrate f over [breakpoints[0], breakpoints[-1]].

    Whole panels and their two-half refinements are evaluated in batches;
    a panel is accepted when the refinement agrees with the whole-panel rule
    to panel_tol, otherwise its halves are queued again. Deterministic: the
    queue is processed in a fixed order.
    """
    lo = np.asarray(breakpoints[:-1], dtype=float)
    hi = np.asarray(breakpoints[1:], dtype=float)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    span = float(breakpoints[-1]) - float(breakpoints[0])

    whole = _batch_panels(f, lo, hi)
    used = lo.size
    total = 0.0
    while lo.size:
        used += 2 * lo.size
        if used > budget:
            raise QuadratureFailure(f"panel budget {budget} exhausted")
        mid = 0.5 * (lo + hi)
        left = _batch_panels(f, lo, mid)
        right = _batch_panels(f, mid, hi)
        refined = left + right
        ok = np.abs(refined - whole) <= panel_tol
        if np.any(~ok & (hi - lo < 1e-12 * span)):
            raise QuadratureFailure("panel refinement stalled below resolution")
        total += float(np.sum(refined[ok]))
        bad = ~ok
        lo = np.concatenate([lo[bad], mid[bad]])
        hi = np.concatenate([mid[bad], hi[bad]])
        whole = np.concatenate([left[bad], right[bad]])
    return total


def _log_growth(params, lambda_lag, t):
    """ln of e^{(lam-delta) t} / lambda_lag, the common schedule argument."""
    return (params.lam - params.delta) * np.asarray(t, dtype=float) - math.log(lambda_lag)


def _schedule_pieces(params: ModelParams, lambda_lag: float, t):
    """(rent, effort, ln_rent) at times t, stable for arbitrarily large t."""
    ln_y = _log_growth(params, lambda_lag, t)
    ln_rent = (ln_y - math.log(params.p * params.c)) / (params.p - 1.0)
    rent = np.exp(ln_rent)
    effort = np.maximum(
        0.0,
        (math.log(params.phi_max * params.alpha / params.beta) + ln_y)
        / (params.alpha + params.beta),
    )
    return rent, effort, ln_rent


def schedules(params: ModelParams, lambda_lag: float, t):
    """Rent R_t, effort A_t (clamped at 0) and surplus rate H_t = phi(A_t) - R_t."""
    if lambda_lag <= 0.0:
        raise ValueError("lambda_lag must be positive")
    rent, effort, _ = _schedule_pieces(params, lambda_lag, t)
    h_profile = params.phi(effort) - rent
    return rent, effort, h_profile


def _truncation_time(bound: float, exp_rate: float, div_rate: float) -> float:
    """Smallest T with e^{-exp_rate T} * bound / div_rate < _TAIL, capped at T_CAP.

    bound dominates the integrand's non-exponential factor, so the remaining
    mass past T is below _TAIL. A non-finite bound falls back to the cap
    (conservative: the extra panels sit where the integrand is already zero).
    """
    if not math.isfinite(bound):
        return T_CAP
    t_star = (math.log(bound) - math.log(div_rate) - math.log(_TAIL)) / exp_rate
    return min(T_CAP, max(0.0, t_star))


def _effort_kink_time(params: ModelParams, lambda_lag: float) -> float:
    """Time at which the effort clamp releases (A_t crosses 0), or 0.0."""
    gap = math.log(lambda_lag * params.beta / (params.phi_max * params.alpha))
    if gap <= 0.0 or params.lam == params.delta:
        return 0.0
    return gap / (params.lam - params.delta)


def _integration_breakpoints(params, lambda_lag, t_star):
    kink = _effort_kink_time(params, lambda_lag)
    points = [0.0]
    if 0.0 < kink < t_star:
        points.append(kink)
    points.append(t_star)
    # cut long smooth stretches into <= 20-unit panels up front
    refined = []
    for seg_lo, seg_hi in zip(points[:-1], points[1:]):
        k = max(1, int(math.ceil((seg_hi - seg_lo) / 20.0)))
        refined.extend(np.linspace(seg_lo, seg_hi, k + 1)[:-1])
    refined.append(points[-1])
    return refined


def _cost_bound(params: ModelParams, lambda_lag: float) -> float:
    """phi_max + R_0 + h(A_{T_CAP}), the factor bound for the agent integrand."""
    rent0, _, _ = _schedule_pieces(params, lambda_lag, 0.0)
    _, effort_cap, _ = _schedule_pieces(params, lambda_lag, T_CAP)
    with np.errstate(over="ignore"):
        return params.phi_max + float(rent0) + float(params.h(effort_cap))


def reservation_integral(params: ModelParams, lambda_lag: float) -> float:
    """G(m) = int_0^inf e^{-lam s} [U(R_s) - h(A_s)] ds by adaptive quadrature.

    The test oracle for closed_form_G; strictly increasing in m, absolute
    error <= 1e-8.
    """
    if lambda_lag <= 0.0:
        raise ValueError("lambda_lag must be positive")
    lam = params.lam
    p, c, beta = params.p, params.c, params.beta

    def integrand(s):
        _, effort, ln_rent = _schedule_pieces(params, lambda_lag, s)
        util = c * np.exp(-lam * s + p * ln_rent)
        cost = np.where(
            effort > 0.0,
            np.exp(-lam * s + beta * effort) - np.exp(-lam * s),
            0.0,
        )
        return util - cost

    t_star = _truncation_time(
        _cost_bound(params, lambda_lag),
        exp_rate=max(params.lam, params.delta),
        div_rate=min(params.lam, params.delta),
    )
    return _adaptive_gauss_legendre(integrand, _integration_breakpoints(params, lambda_lag, t_star))


def closed_form_G(params: ModelParams, lambda_lag: float) -> float:
    """Piecewise closed form of G, the production route.

    Writing q = phi_max alpha / (beta m):

        term1 = c / ((p c m)^{p/(p-1)} (lam - p/(p-1) (lam-delta)))
        m <= phi_max alpha / beta:
            G = term1 + 1/lam - q^{beta/(alpha+beta)} (alpha+beta)/(lam alpha + beta delta)
        m  > phi_max alpha / beta:
            G = term1 + q^{lam/(lam-delta)} (1/lam - (alpha+beta)/(lam alpha + beta delta))
            (bracket killed when lam = delta: effort stays clamped forever)
    """
    if lambda_lag <= 0.0:
        raise ValueError("lambda_lag must be positive")
    lam, delta = params.lam, params.delta
    p, c = params.p, params.c
    alpha, beta, phi_max = params.alpha, params.beta, params.phi_max

    ppm1 = p / (p - 1.0)
    term1 = c / ((p * c * lambda_lag) ** ppm1 * (lam - ppm1 * (lam - delta)))
    q = phi_max * alpha / (beta * lambda_lag)
    if lambda_lag <= phi_max * alpha / beta:
        return term1 + 1.0 / lam - q ** (beta / (alpha + beta)) * (alpha + beta) / (
            lam * alpha + beta * delta
        )
    if lam == delta:
        return term1
    return term1 + q ** (lam / (lam - delta)) * (
        1.0 / lam - (alpha + beta) / (lam * alpha + beta * delta)
    )


def _bracket_bisect(f, target: float, tol: float, what: str) -> float:
    """m > 0 with |f(m) - target| <= tol.

    f must lie below target for small m and above it for large m. Grows a
    bracket from m = 1 by factors of 8 within [1e-12, 1e12], then bisects it.
    """
    lo = hi = 1.0
    f_lo = f_hi = f(1.0)
    while f_lo > target:
        lo /= 8.0
        if lo < 1e-12:
            raise BracketFailure(f"no lower bracket above 1e-12 for {what}")
        f_lo = f(lo)
    while f_hi < target:
        hi *= 8.0
        if hi > 1e12:
            raise BracketFailure(f"no upper bracket below 1e12 for {what}")
        f_hi = f(hi)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid - target) <= tol:
            return mid
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    raise BracketFailure("bisection did not reach tolerance in 200 steps")


def solve_lagrange(params: ModelParams, x: float) -> float:
    """Multiplier m with |G(m) - x| <= _LAGRANGE_TOL, by bisection on closed_form_G.

    Accepts x >= 0: G ranges below 0 for small m, so x = 0 is solvable even
    though the contract itself only binds for positive reservation values.
    """
    if not (x >= 0.0):
        raise ValueError("reservation value x must be >= 0")
    return _bracket_bisect(lambda m: closed_form_G(params, m), x, _LAGRANGE_TOL, f"x={x}")


def _offer_integral(params: ModelParams, lambda_lag: float) -> float:
    """Closed form of I(m) = int_0^inf e^{-delta s} (phi(A_s) - R_s) ds, the offer criterion.

    With q = phi_max alpha / (beta m), gamma = alpha / (alpha + beta) and
    mu = lam - delta, I = E - (p c m)^{1/(1-p)} / (delta + mu/(1-p)), where
    the effort term splits at the kink like closed_form_G:

        m <= phi_max alpha / beta:  E = phi_max [1/delta - q^{-gamma} / (delta + gamma mu)]
        m  > phi_max alpha / beta:  E = phi_max q^{delta/mu} [1/delta - 1/(delta + gamma mu)]
                                    (E = 0 when lam = delta: effort stays clamped forever)

    Decreasing in m.
    """
    lam, delta = params.lam, params.delta
    p, c = params.p, params.c
    alpha, beta, phi_max = params.alpha, params.beta, params.phi_max

    mu = lam - delta
    gamma = alpha / (alpha + beta)
    rent = (p * c * lambda_lag) ** (1.0 / (1.0 - p)) / (delta + mu / (1.0 - p))
    q = phi_max * alpha / (beta * lambda_lag)
    if lambda_lag <= phi_max * alpha / beta:
        return phi_max * (1.0 / delta - q ** -gamma / (delta + gamma * mu)) - rent
    if lam == delta:
        return -rent
    return phi_max * q ** (delta / mu) * (1.0 / delta - 1.0 / (delta + gamma * mu)) - rent


def principal_value_fb(params: ModelParams, x: float) -> FirstBestSolution:
    """First-best solution at reservation value x.

    The contract is offered (tau_star = INFINITY) iff the discounted surplus
    I(x) is strictly positive; an exact tie reports ZERO.
    """
    m = solve_lagrange(params, x)
    surplus = _offer_integral(params, m)
    offered = surplus > 0.0
    return FirstBestSolution(
        x=float(x),
        lambda_lag=m,
        tau_star=TauStar.INFINITY if offered else TauStar.ZERO,
        value=surplus if offered else 0.0,
    )


def continuation_boundary(params: ModelParams) -> float:
    """Largest reservation value at which the contract is still offered.

    Roots the decreasing surplus m -> I(m) once and returns G at the root.
    The surplus falls with the reservation value at rate dI/dx = -m (the
    envelope theorem), so stopping at |I(m)| / m <= _BOUNDARY_TOL resolves x
    to _BOUNDARY_TOL to first order.
    """
    m = _bracket_bisect(lambda m: -_offer_integral(params, m) / m, 0.0, _BOUNDARY_TOL,
                        "the offer boundary")
    x_max = closed_form_G(params, m)
    if x_max < 0.0:
        raise BracketFailure("surplus is non-positive at every reservation value x >= 0")
    return x_max
