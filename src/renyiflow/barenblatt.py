"""Self-similar reference profiles for du/dt = Laplacian(u**p).

The stationary profile of the rescaled flow is, up to the mass normalization
constant c_star,

    degenerate (p > 1):  B(x) = (c_star - |x|^2)_+ ** (1/(p-1))
    singular  (p < 1):   B(x) = (c_star + |x|^2) ** (1/(p-1))

with unit mass. The source-type solution of the original flow is a dilation
of B in the mu-scaling, mu = 2 + d(p-1). All reference functionals admit
closed forms in terms of c_star; build_reference evaluates them and verifies
mass, second moment and entropy by quadrature before returning.

The quadrature needs nothing beyond numpy. Each checked integral is
area * int r^a (c_star -+ r^2)^(+-g) dr. The exact change of variable
r = sqrt(c_star) sin(theta) (p > 1) or sqrt(c_star) tan(theta) (p < 1) turns
it into a constant times the integral of sin^a cos^(e-1) over [0, pi/2], and
so also folds the power-law tail of p < 1 onto a finite interval.
Gauss-Legendre on [0, pi/4] and [pi/4, pi/2] then integrates smooth
functions, apart from the endpoint factor cos^(e-1) at pi/2. When e < 3,
y = cos(theta) and the exact integral of the singular term y^(e-1) take that
factor out (Davis & Rabinowitz, Methods of Numerical Integration, 2nd ed.,
1984, ch. 2-3). The nodes are built at the first build_reference, not at
import, by Newton's method on the Legendre recurrence.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache

import numpy as np

from .grid import sphere_area
from .params import ModelParams, ExponentSet, ParameterDomainError, derive_exponents, unmet


def normalization_constant(params: ModelParams) -> float:
    """Mass-normalizing constant c_star of the stationary profile.

    Computed in log space via lgamma so large 1/(p-1) stays stable. Raises
    ParameterDomainError when c_star exceeds the double range, as it does
    for p just above the mass-loss threshold max(0, 1 - 2/d) at d >= 2.
    """
    d, p = params.d, params.p
    half_log_pi = 0.5 * d * math.log(math.pi)
    if p > 1.0:
        beta = 1.0 / (p - 1.0)
        log_bracket = half_log_pi + math.lgamma(beta + 1.0) - math.lgamma(beta + 1.0 + d / 2.0)
        log_c = -log_bracket / (beta + d / 2.0)
    else:
        alpha = 1.0 / (1.0 - p)
        log_bracket = half_log_pi + math.lgamma(alpha - d / 2.0) - math.lgamma(alpha)
        log_c = log_bracket / (alpha - d / 2.0)
    try:
        return math.exp(log_c)
    except OverflowError:
        raise ParameterDomainError(
            f"p = {p} is too close to the mass-loss threshold at d = {d}: the "
            f"profile constant c_star = exp({log_c:.6g}) exceeds the double range"
        ) from None


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


def _self_similar(r: np.ndarray | float, t: float | Sequence[float], params: ModelParams,
                  ex: ExponentSet, c_star: float | None) -> np.ndarray:
    """The source-type solution at radii r and time t, or at each of a
    sequence of k times as a (k, r.size) block. The scale and amplitude of
    each time are Python floats, so a row has the bits of its own call."""
    one = np.ndim(t) == 0
    times = [t] if one else list(t)
    for s in times:
        if s <= 0.0:
            raise ValueError(f"self-similar density requires t > 0, got {s}")
    scale = [ex.kappa * s ** (1.0 / ex.mu) for s in times]
    amplitude = [c ** (-params.d) for c in scale]
    r = np.asarray(r, dtype=float)
    if one:
        return amplitude[0] * profile_density(r / scale[0], params, c_star=c_star)
    return (np.array(amplitude)[:, None]
            * profile_density(r / np.array(scale)[:, None], params, c_star=c_star))


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

    def self_similar(self, r: np.ndarray | float, t: float | Sequence[float]) -> np.ndarray:
        return _self_similar(r, t, self.params, self.exponents, self.c_star)

    def match_time(self, theta: float) -> float:
        """Time s = (theta / theta_star)**(mu/2) at which the source-type
        solution has second moment theta."""
        return (theta / self.theta_star) ** (0.5 * self.exponents.mu)


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


# Gauss-Legendre nodes per piece. Over d from 1 to 8 and p from just
# above max(0, 1 - 2/d) to 100, the worst relative error against the closed
# forms is 1.6e-12, except where rounding dominates: within 1e-3 of p = 1
# (4e-12 at p = 0.9996), and at the threshold p = d/(d+2) of finite moments,
# where the closed forms themselves cancel.
_NODES = 200


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@cache
def _gauss_legendre(n: int = _NODES) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [0, 1], built on first use.

    Newton's method on P_n from Tricomi's estimates cos(pi (k - 1/4) /
    (n + 1/2)) of the nonnegative roots, with weights
    2 / ((1 - x^2) P_n'(x)^2). No eigen-solver, so no LAPACK: the nodes
    match leggauss(n) to 1.1e-16 and the weights are closer to 40-digit
    values than leggauss's own (2.6e-13 against 2.2e-11 at the end nodes).
    """
    x = np.cos(math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # ascending on [-1, 1]; an odd n keeps its root at 0 once
    x = np.concatenate((-x, x[::-1][n % 2:]))
    w = np.concatenate((w, w[::-1][n % 2:]))
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss(f, lo: float, hi: float) -> float:
    """Integral of the vectorized f over [lo, hi] by the rule."""
    s, w = _gauss_legendre()
    return (hi - lo) * float(w @ f(lo + (hi - lo) * s))


def _quad_moment(params: ModelParams, c_star: float, weight: str) -> float:
    """Gauss-Legendre value of a radial profile integral.

    weight: 'mass' -> B, 'theta' -> (r^2/d) B, 'entropy' -> B^p. The integral
    is area * int r^a (c -+ r^2)^(+-g) dr with a = d - 1 (d + 1 for theta)
    and g = 1/|p-1| (p/|p-1| for entropy). An exact change of variable maps
    it to area * c^k * int_0^(pi/2) sin^a(t) cos^(e-1)(t) dt:

    - p > 1: r = sqrt(c) sin(t), c - r^2 = c cos^2(t), k = (a+1)/2 + g and
      e = 2g + 2;
    - p < 1: r = sqrt(c) tan(t), c + r^2 = c / cos^2(t), k = (a+1)/2 - g and
      e = 2g - a - 1 > 0; the power-law tail r -> inf becomes t -> pi/2.

    Nothing is cut off, so only the Gauss rule approximates, and it sees
    smooth functions. On [0, pi/4] sin^a cos^(e-1) is analytic (a is whole);
    a large e (p near 1) confines it to t of a few 1/sqrt(e), so that piece
    splits at 10/sqrt(e). On [pi/4, pi/2] the one singular factor is
    cos^(e-1) at pi/2. For e >= 3 it has two continuous derivatives. For
    e < 3, y = cos(t) gives int_0^y0 h(y) y^(e-1) dy with
    h = (1 - y^2)^((a-1)/2) and y0 = cos(pi/4); the singular part
    h(0) y^(e-1) integrates exactly to y0^e / e, and the rule takes the rest,
    (h(y) - 1) y^(e-1) = O(y^(e+1)). That holds for tiny e too, where the
    tail carries almost all the mass.
    """
    d, p = params.d, params.p
    a = d + 1 if weight == "theta" else d - 1
    g = (p if weight == "entropy" else 1.0) / abs(p - 1.0)
    if p > 1.0:
        scale, e = c_star ** ((a + 1) / 2.0 + g), 2.0 * g + 2.0
    else:
        scale, e = c_star ** ((a + 1) / 2.0 - g), 2.0 * g - a - 1.0
    bump = lambda t: np.sin(t) ** a * np.cos(t) ** (e - 1.0)
    quarter = 0.25 * math.pi
    split = min(quarter, 10.0 / math.sqrt(e))
    total = _gauss(bump, 0.0, split) + _gauss(bump, split, quarter)
    if e < 3.0:
        rest = lambda y: np.expm1((a - 1) / 2.0 * np.log1p(-y * y)) * y ** (e - 1.0)
        y0 = math.sqrt(0.5)
        total += y0**e / e + _gauss(rest, 0.0, y0)
    else:
        total += _gauss(bump, quarter, 2.0 * quarter)
    val = sphere_area(d) * scale * total
    return val / d if weight == "theta" else val


def build_reference(params: ModelParams) -> BarenblattReference:
    """Construct the reference, cross-checking closed forms by quadrature."""
    ex = derive_exponents(params)
    c_star = normalization_constant(params)
    vals = reference_functionals(params, c_star=c_star)
    mass_q = _quad_moment(params, c_star, "mass")
    if abs(mass_q - 1.0) > 1e-8:
        raise RuntimeError(f"profile mass {mass_q} deviates from 1 beyond tolerance")
    if unmet(params, "finite_moments") is None:
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
