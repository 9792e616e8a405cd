"""Agent best response to a volatility exposure.

When the contract loads z units of promised-value volatility per unit of
output noise, the agent picks effort maximizing

    psi(a, z) = -h(a) + z phi(a) / sigma.

The first-order condition z/sigma = h'(a)/phi'(a) pins the interior optimum;
the ratio h'/phi' starts at h'(0)/phi'(0) > 0, so exposures below
sigma h'(0)/phi'(0) cannot beat a = 0 and the best response snaps to zero.
This makes effort_from_z / z_from_effort mutually inverse on
{0} union (sigma h'(0)/phi'(0), infinity), not on all of R+.
"""

from __future__ import annotations

import numpy as np

from .model import ModelParams, ratio_inverse


def hamiltonian_psi(params: ModelParams, a, z):
    """Agent flow payoff -h(a) + z phi(a) / sigma."""
    a = np.asarray(a, dtype=float)
    z = np.asarray(z, dtype=float)
    if np.any(a < 0.0):
        raise ValueError("effort must be >= 0")
    return -params.h(a) + z * params.phi(a) / params.sigma


def exposure_threshold(params: ModelParams) -> float:
    """Smallest z that induces positive effort: sigma h'(0)/phi'(0)."""
    return params.sigma * float(params.cost_impact_ratio(0.0))


def effort_from_z(params: ModelParams, z):
    """Best-response effort to exposure z; 0 at or below the threshold."""
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("exposure must be >= 0")
    thresh = exposure_threshold(params)
    interior = z > thresh
    a = np.zeros_like(z)
    if np.any(interior):
        a[interior] = ratio_inverse(params, z[interior] / params.sigma)
    if a.ndim == 0:
        return float(a)
    return a


def z_from_effort(params: ModelParams, a):
    """Exposure sustaining effort a: sigma h'(a)/phi'(a), and 0 at a = 0."""
    a = np.asarray(a, dtype=float)
    if np.any(a < 0.0):
        raise ValueError("effort must be >= 0")
    z = np.where(a > 0.0, params.exposure(a), 0.0)
    if z.ndim == 0:
        return float(z)
    return z
