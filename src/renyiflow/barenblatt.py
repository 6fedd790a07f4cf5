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
import, by Newton's method on the Legendre recurrence (grid._gauss_legendre,
which project_initial also reads).
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import _gauss_legendre, sphere_area
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


def profile_density(r: np.ndarray | float, params: ModelParams,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Unit-mass stationary profile evaluated at radii r >= 0, written into
    out when given (which may be r itself); a scalar for a scalar r."""
    c_star = normalization_constant(params)
    r = np.asarray(r, dtype=float)
    p = params.p
    # in place, the operations of max(c_star - r**2, 0)**(1/(p-1)) for p > 1
    # and (c_star + r**2)**(1/(p-1)) for p < 1
    out = np.multiply(r, r, out=np.empty(r.shape) if out is None else out)
    if p > 1.0:
        np.subtract(c_star, out, out=out)
        np.maximum(out, 0.0, out=out)
    else:
        out += c_star
    out **= 1.0 / (p - 1.0)
    return out if out.ndim else out[()]


def self_similar_density(r: np.ndarray | float, t: float | Sequence[float],
                         params: ModelParams, out: np.ndarray | None = None) -> np.ndarray:
    """Source-type solution at time t > 0, evaluated at radii r (of r's
    shape, a scalar for a scalar r), or at each of a sequence of k times as
    a (k, r.size) block; either is written into out, of (k, r.size) with
    k = 1 for a single time, when given.

    u(t, x) = t^(-d/mu) * kappa^(-d) * B(x / (kappa t^(1/mu))), which solves
    the flow with unit mass for every t; its second-moment functional grows
    exactly like t^(2/mu). The scale and amplitude of each time are Python
    floats, so a row has the bits of its own call.
    """
    ex = derive_exponents(params)
    one = np.ndim(t) == 0
    times = [t] if one else list(t)
    for s in times:
        if not s > 0.0:  # a NaN fails it too
            raise ValueError(f"self-similar density requires t > 0, got {s}")
    scale = [ex.kappa * s ** (1.0 / ex.mu) for s in times]
    amplitude = [c ** (-params.d) for c in scale]
    r = np.asarray(r, dtype=float)
    # row by row, as a call on a (k, 1) column would buffer the whole block
    block = np.empty((len(times), r.size)) if out is None else out
    for row, c in zip(block, scale):
        np.divide(r.reshape(-1), c, out=row)
    profile_density(block, params, out=block)
    for row, a in zip(block, amplitude):
        row *= a
    return block[0].reshape(r.shape)[()] if one else block


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
    scale-invariant combinations are nan.
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

    def match_time(self, theta: float) -> float:
        """Time s = (theta / theta_star)**(mu/2) at which the source-type
        solution has second moment theta."""
        return (theta / self.theta_star) ** (0.5 * self.exponents.mu)


def reference_functionals(params: ModelParams) -> dict[str, float]:
    """Closed-form mass, second moment, entropy, Fisher information of B."""
    d, p = params.d, params.p
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


def _gauss(f, lo: float, hi: float) -> float:
    """Integral of the vectorized f over [lo, hi] by the rule."""
    s, w = _gauss_legendre(_NODES)
    return (hi - lo) * float(w @ f(lo + (hi - lo) * s))


def _quad_moment(params: ModelParams, weight: str) -> float:
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
    c_star = normalization_constant(params)
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


# A cross-check that fails within this distance of p = d/(d+2) or p = 1 is
# the closed forms' and the rule's lost digits, not a fault: on a scan of
# d <= 10 the 1e-8 gates failed up to 2.2e-7 from 1 and 7e-9 from d/(d+2),
# and passed from 1e-6 on.
_THRESHOLD_REACH = 1e-5


def _gate_failure(params: ModelParams, what: str) -> Exception:
    """The error of a failed cross-check: a ParameterDomainError naming the
    threshold when p lies within _THRESHOLD_REACH of d/(d+2) or 1, else a
    RuntimeError (the closed forms or the rule are wrong)."""
    d, p = params.d, params.p
    name, value = min((f"d/(d+2) = {d / (d + 2):.6g}", d / (d + 2)), ("1", 1.0),
                      key=lambda nv: abs(p - nv[1]))
    if abs(p - value) <= _THRESHOLD_REACH:
        return ParameterDomainError(
            f"p = {p} is too close to {name} at d = {d} for the reference profile: {what}")
    return RuntimeError(what)


def build_reference(params: ModelParams) -> BarenblattReference:
    """Construct the reference, cross-checking closed forms by quadrature to
    1e-8 (_gate_failure says what a failed cross-check raises)."""
    ex = derive_exponents(params)
    c_star = normalization_constant(params)
    vals = reference_functionals(params)
    mass_q = _quad_moment(params, "mass")
    if abs(mass_q - 1.0) > 1e-8:
        raise _gate_failure(params, f"profile mass {mass_q} deviates from 1 beyond tolerance")
    if unmet(params, "finite_moments") is None:
        for key in ("theta", "entropy"):
            q = _quad_moment(params, key)
            if abs(q - vals[key]) > 1e-8 * abs(vals[key]):
                raise _gate_failure(
                    params, f"closed-form {key} {vals[key]} disagrees with quadrature {q}")
    theta, entropy, fisher = vals["theta"], vals["entropy"], vals["fisher"]
    if math.isfinite(theta):
        h_star = theta ** (-ex.eta / 2.0) * entropy
        j_star = entropy ** (ex.sigma - 1.0) * fisher
        theta_star = ex.kappa**2 * theta
    else:
        h_star = j_star = theta_star = math.nan
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
    )
