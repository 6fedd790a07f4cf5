"""Fast elementwise powers for the rational exponents the flows use.

np.power with a fractional exponent is ~10x slower than a sqrt/cbrt chain
and sits on the solver's hot path, so the common p values get special cases.

pow_fn(p) maps u to u**p. pow_pair(p, floor) serves the step kernel: it
fills w = u**p and the stability factor f = max(u, floor)**|p-1| from one
shared root of u. Taking the root is the expensive part, and since every
root is monotone the floor can be applied to it rather than to u.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


def pow_fn(p: float) -> Callable[[np.ndarray], np.ndarray]:
    if p == 1.0:
        return lambda u: u
    if p == 2.0:
        return lambda u: u * u
    if p == 3.0:
        return lambda u: u * u * u
    if p == 1.5:
        return lambda u: u * np.sqrt(u)
    if p == 0.5:
        return np.sqrt
    if p == 0.25:
        return lambda u: np.sqrt(np.sqrt(u))
    if p == 0.75:
        return lambda u: np.sqrt(u) * np.sqrt(np.sqrt(u))
    if abs(p - 2.0 / 3.0) < 1e-14:
        return lambda u: np.cbrt(u * u)
    if abs(p - 1.0 / 3.0) < 1e-14:
        return np.cbrt
    if abs(p - 1.0 / 6.0) < 1e-14:
        return lambda u: np.cbrt(np.sqrt(u))
    if p == -0.25:
        return lambda u: 1.0 / np.sqrt(np.sqrt(u))
    if abs(p + 1.0 / 3.0) < 1e-14:
        return lambda u: 1.0 / np.cbrt(u)
    if p == -0.5:
        return lambda u: 1.0 / np.sqrt(u)
    if p == -1.0:
        return lambda u: 1.0 / u
    return lambda u: u**p


PowPair = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def _pair_two(floor: float) -> PowPair:
    def pair(u, w, f):
        np.multiply(u, u, out=w)
        np.maximum(u, floor, out=f)
    return pair


def _pair_three(floor: float) -> PowPair:
    def pair(u, w, f):
        np.multiply(u, u, out=w)
        w *= u
        np.maximum(u, floor, out=f)
        f *= f
    return pair


def _pair_three_halves(floor: float) -> PowPair:
    sf = np.sqrt(floor)

    def pair(u, w, f):
        np.sqrt(u, out=f)
        np.multiply(u, f, out=w)
        np.maximum(f, sf, out=f)
    return pair


def _pair_half(floor: float) -> PowPair:
    sf = np.sqrt(floor)

    def pair(u, w, f):
        np.sqrt(u, out=w)
        np.maximum(w, sf, out=f)
    return pair


def _pair_quarter(floor: float) -> PowPair:
    # f = u**(3/4) = sqrt(u) * u**(1/4)
    tf = floor**0.75

    def pair(u, w, f):
        np.sqrt(u, out=f)
        np.sqrt(f, out=w)
        f *= w
        np.maximum(f, tf, out=f)
    return pair


def _pair_three_quarters(floor: float) -> PowPair:
    qf = np.sqrt(np.sqrt(floor))

    def pair(u, w, f):
        np.sqrt(u, out=w)
        np.sqrt(w, out=f)
        w *= f
        np.maximum(f, qf, out=f)
    return pair


def _pair_two_thirds(floor: float) -> PowPair:
    cf = np.cbrt(floor)

    def pair(u, w, f):
        np.cbrt(u, out=f)
        np.multiply(f, f, out=w)
        np.maximum(f, cf, out=f)
    return pair


def _pair_third(floor: float) -> PowPair:
    cf = np.cbrt(floor)

    def pair(u, w, f):
        np.cbrt(u, out=w)
        np.maximum(w, cf, out=f)
        f *= f
    return pair


def _pair_sixth(floor: float) -> PowPair:
    # f = u**(5/6) = sqrt(u) * (u**(1/6))**2
    sf = np.sqrt(floor)
    tf = sf * np.cbrt(sf) ** 2

    def pair(u, w, f):
        np.sqrt(u, out=f)
        np.cbrt(f, out=w)
        f *= w
        f *= w
        np.maximum(f, tf, out=f)
    return pair


_PAIRS = (
    (2.0, _pair_two),
    (3.0, _pair_three),
    (1.5, _pair_three_halves),
    (0.5, _pair_half),
    (0.25, _pair_quarter),
    (0.75, _pair_three_quarters),
    (2.0 / 3.0, _pair_two_thirds),
    (1.0 / 3.0, _pair_third),
    (1.0 / 6.0, _pair_sixth),
)
# The exponents pow_pair has a shared root for: every one pow_fn tabulates
# that can be a flow exponent. Its negative ones occur only as p - 1 in the
# functionals, and p = 1 (heat flow) is excluded by ModelParams.
PAIR_EXPONENTS = tuple(q for q, _ in _PAIRS)


def pow_pair(p: float, floor: float) -> PowPair:
    """pair(u, w, f) writes u**p into w and max(u, floor)**|p-1| into f.

    u must be nonnegative; w and f are preallocated arrays shaped like u.
    """
    for q, make in _PAIRS:
        if abs(p - q) < 1e-14:
            return make(floor)
    e = abs(p - 1.0)

    def pair(u, w, f):
        np.power(u, p, out=w)
        np.maximum(u, floor, out=f)
        np.power(f, e, out=f)
    return pair
