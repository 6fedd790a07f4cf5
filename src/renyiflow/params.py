"""Model parameters, derived exponents and the regime-hypothesis table for
radial nonlinear diffusion.

The evolution is du/dt = Laplacian(u**p) for a nonnegative density u on R^d,
restricted here to radially symmetric data. Admissible exponents split into
the degenerate regime p > 1 (compactly supported profiles, free boundary)
and the singular regime 1 - 2/d < p < 1 (strictly positive profiles with
power-law tails). p = 1 is plain heat flow and is excluded; at or below
1 - 2/d mass escapes in finite time and the scaling structure breaks down.

Inside the admissible range each result holds on its own window of p.
HYPOTHESES names those windows once, each as a predicate on (d, p) with the
condition it states; every regime gate in the package reads it through
`unmet` (which window fails, if any) or `require` (raise RegimeError).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable


class ParameterDomainError(ValueError):
    """Raised for parameters outside the basic domain (d, p positivity etc.)."""


class RegimeError(ValueError):
    """Raised when p falls in the excluded diffusion regime for dimension d."""


@dataclass(frozen=True)
class ModelParams:
    """Dimension and nonlinearity exponent, validated on construction."""

    d: int
    p: float

    def __post_init__(self) -> None:
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise ParameterDomainError(f"dimension must be an int, got {self.d!r}")
        if self.d < 1:
            raise ParameterDomainError(f"dimension must be >= 1, got {self.d}")
        if not math.isfinite(self.p) or self.p <= 0.0:
            raise ParameterDomainError(f"exponent p must be finite and > 0, got {self.p}")
        if self.p == 1.0:
            raise RegimeError("p = 1 is linear heat flow; use p != 1")
        if self.p <= 1.0 - 2.0 / self.d:
            raise RegimeError(
                f"p = {self.p} is at or below the mass-loss threshold "
                f"1 - 2/d = {1.0 - 2.0 / self.d} for d = {self.d}"
            )

    @property
    def regime(self) -> str:
        return "degenerate" if self.p > 1.0 else "singular"


@dataclass(frozen=True)
class ExponentSet:
    """Scaling exponents derived from (d, p).

    mu:    self-similar time exponent, mu = 2 + d*(p - 1); Theta along the
           self-similar solution grows like t**(2/mu).
    eta:   d*(1 - p) = 2 - mu.
    sigma: entropy-power exponent, sigma = 2/(d*(1-p)) - 1; satisfies
           sigma * d * (1 - p) = mu.
    kappa: ratio of the delay-normalized second moment to the profile's,
           kappa = |2*mu*p/(p-1)|**(1/mu).
    gn_q:  Lebesgue index of the interpolation family, 1/(2p - 1); only
           meaningful for p > 1/2 (None otherwise).
    """

    mu: float
    eta: float
    sigma: float
    kappa: float
    gn_q: float | None


def derive_exponents(params: ModelParams) -> ExponentSet:
    d, p = params.d, params.p
    mu = 2.0 + d * (p - 1.0)
    eta = d * (1.0 - p)
    sigma = 2.0 / (d * (1.0 - p)) - 1.0
    kappa = abs(2.0 * mu * p / (p - 1.0)) ** (1.0 / mu)
    gn_q = 1.0 / (2.0 * p - 1.0) if unmet(params, "gn_conversion") is None else None
    return ExponentSet(mu=mu, eta=eta, sigma=sigma, kappa=kappa, gn_q=gn_q)


# Slack below which the p >= 1 - 1/d window edge is still admitted:
# float(2/3) sits one ulp below 1 - float(1/3).
EDGE_TOL = 1e-12

# name -> (predicate on (d, p), the condition it states; {edge} is 1 - 1/d
# and {moment} is d/(d+2) at the given d)
HYPOTHESES: dict[str, tuple[Callable[[int, float], bool], str]] = {
    "fast_diffusion": (lambda d, p: p < 1.0, "fast diffusion p < 1"),
    # Sign of the trace-free remainder: concavity of the entropy power and
    # the delay drop bound. Holds for every p > 1, and for every p at d = 1.
    "remainder_window": (lambda d, p: p >= 1.0 - 1.0 / d - EDGE_TOL,
                         "the remainder-sign window p >= 1 - 1/d = {edge:.6g}"),
    # Moment-ratio envelope and the integral upper bound on the delay.
    "envelope_window": (lambda d, p: 1.0 - 1.0 / d - EDGE_TOL <= p < 1.0,
                        "the fast-diffusion window 1 - 1/d <= p < 1"),
    # Second moment and entropy of the stationary profile; always finite
    # for p > 1.
    "finite_moments": (lambda d, p: p > d / (d + 2.0),
                       "a finite profile second moment, p > d/(d+2) = {moment:.6g}"),
    "gn_conversion": (lambda d, p: p > 0.5,
                      "p > 1/2 so the conversion exponent q = 1/(2p-1) exists"),
}


def unmet(params: ModelParams, *names: str) -> str | None:
    """The first of the named hypotheses that fails at (d, p), spelled out,
    or None when all of them hold."""
    d, p = params.d, params.p
    for name in names:
        holds, condition = HYPOTHESES[name]
        if not holds(d, p):
            stated = condition.format(edge=1.0 - 1.0 / d, moment=d / (d + 2.0))
            return f"{stated} (got p = {p:.6g}, d = {d})"
    return None


def require(params: ModelParams, what: str, *names: str) -> None:
    """Raise RegimeError naming the first unmet hypothesis of `what`."""
    reason = unmet(params, *names)
    if reason is not None:
        raise RegimeError(f"{what} needs {reason}")
