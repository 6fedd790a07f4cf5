from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

import renyiflow as rf
from renyiflow import solver
from renyiflow._pow import ROOT_EXPONENTS, _rule, pow_fn

# the flow exponents (p = 1, heat flow, is not one) the rule serves with
# u**p finite for u up to 1e100
PAIR_EXPONENTS = tuple(q for q in ROOT_EXPONENTS if 0.0 < q <= 3.0 and q != 1.0)
# exponents the rule does not serve: u**p and the factor fall back to np.power
FALLBACK_EXPONENTS = (0.6, 1.7)

pair_inputs = dict(
    p=st.sampled_from(PAIR_EXPONENTS + FALLBACK_EXPONENTS),
    floor=st.one_of(st.just(0.0), st.floats(1e-12, 1.0)),
    above=st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100)),
                   min_size=1, max_size=40),
    below=st.lists(st.floats(1e-6, 1.0, exclude_max=True), max_size=10),
)


def _exact(p: float) -> tuple[np.longdouble, np.longdouble]:
    """p and |p - 1| in extended precision: the rational an exponent the
    rule serves stands for, or the float itself for a fallback exponent."""
    q = Fraction(p).limit_denominator(6) if p in ROOT_EXPONENTS else Fraction(p)
    e = abs(q - 1)
    return (np.longdouble(q.numerator) / q.denominator,
            np.longdouble(e.numerator) / e.denominator)


@given(**pair_inputs)
def test_kernel_powers_match_extended_precision(p, floor, above, below):
    # the solver's w = u**p and floored stability factor max(u, floor)**|p-1|
    # to ~4 ulp, for exact zeros and for values under the floor too; cells
    # of 1.0 pad u to the 16 cells a grid needs
    u = np.array(above + [floor * b for b in below])
    u = np.concatenate((u, np.ones(max(0, 16 - u.size))))
    kernel = solver._Kernel(rf.build_grid(1, 1.0, u.size), rf.ModelParams(1, p), 0.9, floor)
    np.copyto(kernel.u, u)
    kernel.load()
    w, f = kernel.w, kernel.stability_factor()
    exponent, stability = _exact(p)
    exact_u = u.astype(np.longdouble)
    np.testing.assert_allclose(w, exact_u**exponent, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(
        f, np.maximum(exact_u, np.longdouble(floor)) ** stability, rtol=1e-15, atol=0.0)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_pow_fn_matches_extended_precision(t):
    # every exponent the rule serves, on u from 1e-300 to 1e100 wherever
    # u**p is a normal double (no partial product under- or overflows
    # there), plus exact zeros when p > 0
    for p in ROOT_EXPONENTS:
        lo, hi = max(-300.0, -300.0 / abs(p)), min(100.0, 300.0 / abs(p))
        u = 10.0 ** (lo + (hi - lo) * np.array(t))
        if p > 0.0:
            u = np.append(u, 0.0)
        np.testing.assert_allclose(pow_fn(p)(u), u.astype(np.longdouble) ** _exact(p)[0],
                                   rtol=1e-15, atol=0.0, err_msg=f"p = {p}")


def test_served_exponents_are_frozen():
    # random inputs seldom reach the rule's worst-case error bound, so the
    # tests above would pass with a looser budget; the served set pins it
    # (a budget of 3e-15 would serve 176 exponents)
    assert len(ROOT_EXPONENTS) == 102
    assert (ROOT_EXPONENTS[0], ROOT_EXPONENTS[-1]) == (-9.0, 10.0)
    by_denominator = {}
    for p in ROOT_EXPONENTS:
        n = Fraction(p).limit_denominator(6).denominator
        by_denominator[n] = by_denominator.get(n, 0) + 1
    assert by_denominator == {1: 19, 2: 17, 3: 24, 4: 26, 6: 16}
    for p in (17 / 6, -17 / 6, -11 / 6):
        assert p not in ROOT_EXPONENTS and _rule(p) is None
        u = np.array([0.5, 2.0, 3.0])
        assert pow_fn(p)(u).tobytes() == np.power(u, p).tobytes()
