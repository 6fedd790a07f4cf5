"""Self-similar reference profiles for du/dt = Laplacian(u**p).

The stationary profile of the rescaled flow is, up to the mass normalization
constant c_star,

    degenerate (p > 1):  B(x) = (c_star - |x|^2)_+ ** (1/(p-1))
    singular  (p < 1):   B(x) = (c_star + |x|^2) ** (1/(p-1))

with unit mass. The source-type solution of the original flow is a dilation
of B in the mu-scaling, mu = 2 + d(p-1). All reference functionals admit
closed forms in terms of c_star; build_reference evaluates them and verifies
mass/second-moment/entropy against adaptive quadrature before returning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .grid import sphere_area
from .params import ModelParams, ExponentSet, derive_exponents, unmet


def normalization_constant(params: ModelParams) -> float:
    """Mass-normalizing constant c_star of the stationary profile.

    Computed in log space via lgamma so large 1/(p-1) stays stable.
    """
    d, p = params.d, params.p
    half_log_pi = 0.5 * d * math.log(math.pi)
    if p > 1.0:
        beta = 1.0 / (p - 1.0)
        log_bracket = half_log_pi + math.lgamma(beta + 1.0) - math.lgamma(beta + 1.0 + d / 2.0)
        return math.exp(-log_bracket / (beta + d / 2.0))
    alpha = 1.0 / (1.0 - p)
    log_bracket = half_log_pi + math.lgamma(alpha - d / 2.0) - math.lgamma(alpha)
    return math.exp(log_bracket / (alpha - d / 2.0))


def profile_density(r: np.ndarray | float, params: ModelParams, c_star: float | None = None) -> np.ndarray:
    """Unit-mass stationary profile evaluated at radii r >= 0."""
    if c_star is None:
        c_star = normalization_constant(params)
    r = np.asarray(r, dtype=float)
    p = params.p
    if p > 1.0:
        return np.maximum(c_star - r * r, 0.0) ** (1.0 / (p - 1.0))
    return (c_star + r * r) ** (1.0 / (p - 1.0))


def self_similar_density(
    r: np.ndarray | float,
    t: float,
    params: ModelParams,
    c_star: float | None = None,
) -> np.ndarray:
    """Source-type solution at time t > 0, evaluated at radii r.

    u(t, x) = t^(-d/mu) * kappa^(-d) * B(x / (kappa t^(1/mu))), which solves
    the flow with unit mass for every t; its second-moment functional grows
    exactly like t^(2/mu).
    """
    return _self_similar(r, t, params, derive_exponents(params), c_star)


def _self_similar(r: np.ndarray | float, t: float, params: ModelParams, ex: ExponentSet,
                  c_star: float | None) -> np.ndarray:
    if t <= 0.0:
        raise ValueError(f"self-similar density requires t > 0, got {t}")
    scale = ex.kappa * t ** (1.0 / ex.mu)
    r = np.asarray(r, dtype=float)
    return scale ** (-params.d) * profile_density(r / scale, params, c_star=c_star)


@dataclass(frozen=True)
class BarenblattReference:
    """Stationary profile with its closed-form functional values.

    theta, entropy, fisher are the profile's second-moment functional
    Theta = (1/d) int |x|^2 B, generalized entropy E = int B^p, and relative
    Fisher information I = int B |grad (p/(p-1)) B^(p-1)|^2. h_star and
    j_star are the scale-invariant combinations Theta^(-eta/2) E and
    E^(sigma-1) I; theta_star = kappa^2 * theta is the second-moment level
    of the source-type solution at t = 1. For parameters with infinite
    second moment (p <= d/(d+2)) the divergent values are +inf and the
    scale-invariant combinations are nan. c_gn is the sharp interpolation
    constant when the (d, p) pair admits one, else None.
    """

    params: ModelParams
    exponents: ExponentSet
    c_star: float
    theta: float
    entropy: float
    fisher: float
    h_star: float
    j_star: float
    theta_star: float
    c_gn: float | None

    def profile(self, r: np.ndarray | float) -> np.ndarray:
        return profile_density(r, self.params, c_star=self.c_star)

    def self_similar(self, r: np.ndarray | float, t: float) -> np.ndarray:
        return _self_similar(r, t, self.params, self.exponents, self.c_star)


def reference_functionals(params: ModelParams, c_star: float | None = None) -> dict[str, float]:
    """Closed-form mass, second moment, entropy, Fisher information of B."""
    d, p = params.d, params.p
    if c_star is None:
        c_star = normalization_constant(params)
    denom = (d + 2.0) * p - d
    if p < 1.0 and denom <= 0.0:
        return {"mass": 1.0, "theta": math.inf, "entropy": math.inf, "fisher": math.inf}
    theta = c_star * abs(p - 1.0) / denom
    entropy = 2.0 * p / abs(p - 1.0) * theta
    fisher = (2.0 * p / (p - 1.0)) ** 2 * d * theta
    return {"mass": 1.0, "theta": theta, "entropy": entropy, "fisher": fisher}


def _quad_moment(params: ModelParams, c_star: float, weight: str) -> float:
    """Adaptive-quadrature value of a radial profile integral.

    weight: 'mass' -> B, 'theta' -> (r^2/d) B, 'entropy' -> B^p.
    """
    d, p = params.d, params.p
    area = sphere_area(d)

    def integrand(r: float) -> float:
        b = float(profile_density(r, params, c_star=c_star))
        if weight == "theta":
            b *= r * r / d
        elif weight == "entropy":
            b = b**p
        return area * r ** (d - 1) * b

    edge = math.sqrt(c_star)
    if p > 1.0:
        val, _ = integrate.quad(integrand, 0.0, edge, limit=200)
        return val
    inner, _ = integrate.quad(integrand, 0.0, 10.0 * edge, limit=200)
    # Substituting t = 1/r turns the power-law tail into an integrable
    # endpoint singularity t**(eps-1); the adaptive rule resolves that even
    # when eps is tiny and no direct cutoff could reach the tail mass.
    outer, _ = integrate.quad(
        lambda t: integrand(1.0 / t) / (t * t), 0.0, 1.0 / (10.0 * edge),
        limit=200)
    return inner + outer


def build_reference(params: ModelParams, verify: bool = True) -> BarenblattReference:
    """Construct the reference, cross-checking closed forms by quadrature."""
    ex = derive_exponents(params)
    c_star = normalization_constant(params)
    vals = reference_functionals(params, c_star=c_star)
    if verify:
        mass_q = _quad_moment(params, c_star, "mass")
        if abs(mass_q - 1.0) > 1e-8:
            raise RuntimeError(f"profile mass {mass_q} deviates from 1 beyond tolerance")
        if ex.moments_finite:
            for key in ("theta", "entropy"):
                q = _quad_moment(params, c_star, key)
                if abs(q - vals[key]) > 1e-8 * abs(vals[key]):
                    raise RuntimeError(
                        f"closed-form {key} {vals[key]} disagrees with quadrature {q}"
                    )
    theta, entropy, fisher = vals["theta"], vals["entropy"], vals["fisher"]
    if math.isfinite(theta):
        h_star = theta ** (-ex.eta / 2.0) * entropy
        j_star = entropy ** (ex.sigma - 1.0) * fisher
        theta_star = ex.kappa**2 * theta
    else:
        h_star = j_star = theta_star = math.nan
    c_gn = None
    if unmet(params, "gn_conversion", "remainder_window") is None:
        from .gn import gn_exponent, sharp_constant_from_j

        assert ex.gn_q is not None
        gn_theta = gn_exponent(params.d, ex.gn_q)
        c_gn = sharp_constant_from_j(j_star, gn_theta, params.p)
    return BarenblattReference(
        params=params,
        exponents=ex,
        c_star=c_star,
        theta=theta,
        entropy=entropy,
        fisher=fisher,
        h_star=h_star,
        j_star=j_star,
        theta_star=theta_star,
        c_gn=c_gn,
    )
