"""Elementwise u**p by one rational-root rule, ~10x faster than np.power.

p = k/n, where n has a root chain, is a product of u, r = u**(1/n) and
h = sqrt(u), the first root of every even chain. With j, m = divmod(|k|, n) it
is h * r**(m - n/2) * u**j if n is even and m >= n/2, else r**m * u**j,
multiplied left to right and inverted if k < 0, while its worst-case relative
error stays within 1e-15 (ROOT_EXPONENTS); any other p uses np.power. pow_pair,
for the solver's step, adds max(u**|p-1|, floor**|p-1|) from the same roots:
max(u, floor)**|p-1| bit for bit, since roots and rounded products are monotone.
"""
from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

_U, _H, _R, _W, _F, _P, _E, _G = range(8)  # slots: u, roots, outputs, p, |p-1|, floor**|p-1|
# n: (root chain, worst relative error of r in units of 2**-53): sqrt rounds
# correctly, np.cbrt gets one ulp (1.02 measured), a root divides prior error
_CHAINS = {
    1: ((), 0.0),
    2: (((np.sqrt, _H),), 1.0),
    3: (((np.cbrt, _R),), 2.0),
    4: (((np.sqrt, _H), (np.sqrt, _R)), 1.0 / 2.0 + 1.0),
    6: (((np.sqrt, _H), (np.cbrt, _R)), 1.0 / 3.0 + 2.0),
}


def _rule(p: float) -> tuple[int, tuple[int, ...], bool] | None:
    """(n, factors, invert): u**p is the factors' product, inverted if invert; or None."""
    if not abs(p) <= 11.0:  # the error bound fails beyond 11, and for inf or nan
        return None
    # p = k/n in lowest terms: n is the smallest denominator making p*n whole
    n = min((n for n in _CHAINS if abs(p * n - round(p * n)) < 1e-14 * n), default=0)
    k = round(p * n)
    if k == 0:
        return None
    j, m = divmod(abs(k), n)
    half = n % 2 == 0 and 2 * m >= n
    factors = (_H,) * half + (_R,) * (m - half * n // 2) + (_U,) * j
    # h is off by 1 unit and r by _CHAINS[n][1]; each product and 1/x add 1
    error = half + factors.count(_R) * _CHAINS[n][1] + len(factors) - 1 + (k < 0)
    return (n, factors, k < 0) if error <= 1e-15 * 2.0**53 else None


ROOT_EXPONENTS = tuple(sorted({k / n for n in _CHAINS for k in range(-11 * n, 11 * n + 1)
                               if _rule(k / n) is not None}))


def _steps(p: float, pair: bool) -> tuple[list, int]:
    """Steps (ufunc, slot, slot or None, out) for u**p and, if pair, f; and u**p's slot."""
    rule, rule_e = _rule(p), _rule(abs(p - 1.0))
    if rule is None or (pair and rule_e is None):
        steps = [(np.power, _U, _E, _F), (np.maximum, _F, _G, _F)] if pair else []
        return steps + [(np.power, _U, _P, _W)], _W
    n, factors, invert = rule
    # the last root goes straight into w if w reads it among its first two
    # factors, before w is first written; other roots get new arrays
    chain = _CHAINS[n][0]
    home = {chain[-1][1]: _W} if chain and chain[-1][1] not in factors[2:] else {}
    steps, source = [], _U
    for root, slot in chain:
        steps.append((root, source, None, home.get(slot, slot)))
        source = home.get(slot, slot)
    for names, out in ([(rule_e[1], _F)] if pair else []) + [(factors, _W)]:
        result, *rest = (home.get(slot, slot) for slot in names)
        for slot in rest:
            steps.append((np.multiply, result, slot, out))
            result = out
        if out == _F:
            steps.append((np.maximum, result, _G, _F))
    if invert:
        steps.append((np.reciprocal, result, None, _W))
        result = _W
    return steps, result


def _run(steps: list, s: list) -> list:
    for ufunc, a, b, out in steps:
        if b is None:
            s[out] = ufunc(s[a], out=s[out])
        else:
            s[out] = ufunc(s[a], s[b], out=s[out])
    return s


@cache  # the diagnostics ask for the same few exponents at every record
def pow_fn(p: float) -> Callable[..., np.ndarray]:
    """(u, out=None) -> u**p for an array u (not a scalar), written into out
    when given (for p > 0); u itself when p = 1."""
    steps, result = _steps(p, pair=False)
    return lambda u, out=None: _run(steps, [u, None, None, out, None, p])[result]


def pow_pair(p: float, floor: float) -> Callable[..., list]:
    """pair(u, w, f) writes u**p into w and max(u, floor)**|p-1| into f (u >= 0, p > 0)."""
    e = abs(p - 1.0)
    g = float(pow_fn(e)(np.array([floor]))[0])
    steps, _ = _steps(p, pair=True)  # for p > 0, u**p always lands in w
    return lambda u, w, f: _run(steps, [u, None, None, w, f, p, e, g])
