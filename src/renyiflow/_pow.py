"""Elementwise u**p by one rational-root rule, ~10x faster than np.power.

p = k/n, where n has a root chain, is a product of u, r = u**(1/n) and
h = sqrt(u), the first root of every even chain. With j, m = divmod(|k|, n) it
is h * r**(m - n/2) * u**j if n is even and m >= n/2, else r**m * u**j,
multiplied left to right and inverted if k < 0, while its worst-case relative
error stays within 1e-15 (ROOT_EXPONENTS); any other p uses np.power. pow_fn is
the one path to u**p: the solver's steps, its stability factor
max(u, floor)**|p-1| and the diagnostics all call it.
"""
from __future__ import annotations

from functools import cache
from typing import Callable

import numpy as np

_U, _H, _R, _W, _P = range(5)  # slots: u, roots, output, p
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


def _steps(p: float) -> tuple[list, int]:
    """Steps (ufunc, slot, slot or None, out) for u**p, and its slot."""
    rule = _rule(p)
    if rule is None:
        return [(np.power, _U, _P, _W)], _W
    n, factors, invert = rule
    # the last root goes straight into w if w reads it among its first two
    # factors, before w is first written; other roots get new arrays
    chain = _CHAINS[n][0]
    home = {chain[-1][1]: _W} if chain and chain[-1][1] not in factors[2:] else {}
    steps, source = [], _U
    for root, slot in chain:
        steps.append((root, source, None, home.get(slot, slot)))
        source = home.get(slot, slot)
    result, *rest = (home.get(slot, slot) for slot in factors)
    for slot in rest:
        steps.append((np.multiply, result, slot, _W))
        result = _W
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
    steps, result = _steps(p)
    return lambda u, out=None: _run(steps, [u, None, None, out, p])[result]

