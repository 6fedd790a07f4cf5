"""Interpolation quotients and sharp constants.

The exponent formulas are checked against the invariances that define them:
the quotient must not move under dilations or amplitude scalings of the test
function (machine-exact here because both grids are scaled copies), and the
hand-reduced values at simple indices pin the algebra.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renyiflow as rf
from renyiflow.gn import (
    TestFunction as GnTestFunction,
    _lcg_uniforms,
    extremality_test,
    gn_constant_report,
    sharp_constant,
)
from renyiflow.params import RegimeError


def gaussian_quotient(d, q, lam):
    grid = rf.build_grid(d, 30.0 * lam, 2000)
    w = np.exp(-((grid.centers / lam) ** 2) / 2.0)
    return rf.gn_quotient(GnTestFunction(grid, w), q)


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    q=st.floats(min_value=0.15, max_value=2.8).filter(lambda q: abs(q - 1.0) > 0.05),
    lam=st.floats(min_value=0.5, max_value=4.0),
)
def test_exponent_makes_quotient_dilation_invariant(d, q, lam):
    base = gaussian_quotient(d, q, 1.0)
    scaled = gaussian_quotient(d, q, lam)
    assert scaled == pytest.approx(base, rel=1e-12)


def test_quotient_amplitude_invariant():
    grid = rf.build_grid(2, 30.0, 1000)
    w = np.exp(-(grid.centers**2) / 2.0)
    a = rf.gn_quotient(GnTestFunction(grid, w), 1.5)
    b = rf.gn_quotient(GnTestFunction(grid, 3.7 * w), 1.5)
    assert b == pytest.approx(a, rel=1e-13)


def test_exponent_hand_values():
    assert rf.gn_exponent(3, 2.0) == pytest.approx(0.5, rel=1e-15)
    assert rf.gn_exponent(3, 3.0) == pytest.approx(1.0, rel=1e-15)
    assert rf.gn_exponent(1, 2.0) == pytest.approx(0.1, rel=1e-15)
    assert rf.gn_exponent(1, 1.0 / 3.0) == pytest.approx(3.0 / 8.0, rel=1e-14)


def test_exponent_rejections():
    with pytest.raises(RegimeError):
        rf.gn_exponent(3, 3.5)     # beyond the endpoint d/(d-2)
    with pytest.raises(RegimeError):
        rf.gn_exponent(2, 1.0)     # q = 1 excluded
    with pytest.raises(RegimeError):
        rf.gn_exponent(2, -0.5)
    with pytest.raises(ValueError):
        rf.gn_exponent(2, math.nan)


def test_family_from_diffusion_exponent(ref_pm1, ref_fd3):
    rep_pm = gn_constant_report(ref_pm1)
    assert rep_pm["q"] == ref_pm1.exponents.gn_q == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert rep_pm["branch"] == "GN2"
    rep_fd = gn_constant_report(ref_fd3)
    assert rep_fd["q"] == pytest.approx(3.0, rel=1e-12)   # the endpoint index
    assert rep_fd["branch"] == "GN1"
    # no q = 1/(2p-1) at p <= 1/2
    ref_low = rf.build_reference(rf.ModelParams(1, 0.4))
    assert ref_low.exponents.gn_q is None
    for measure in (gn_constant_report, extremality_test):
        with pytest.raises(RegimeError, match="p > 1/2"):
            measure(ref_low)
    # q exists below the remainder window, but there is no sharp constant
    ref = rf.build_reference(rf.ModelParams(3, 0.62))
    assert sharp_constant(ref) is None
    with pytest.raises(RegimeError):
        gn_constant_report(ref)


@pytest.mark.parametrize("key", ["pm1", "fd3"])
def test_sharp_constant_dual_path(key, params_pm1, params_fd3, ref_pm1, ref_fd3):
    params, ref = ((params_pm1, ref_pm1) if key == "pm1"
                   else (params_fd3, ref_fd3))
    report = gn_constant_report(ref)
    assert report["rel_discrepancy"] <= 1e-3
    assert report["c_gn"] == pytest.approx(sharp_constant(ref), rel=1e-12)
    frozen = {"pm1": 1.470273503554807, "fd3": 2.340492275042014}[key]
    assert report["c_gn"] == pytest.approx(frozen, rel=1e-9)
    # the asymptote-normalized reading differs by the fixed algebraic factor
    factor = ((2.0 * params.p - 1.0) / (2.0 * params.p)) ** report["theta"]
    assert report["c_gn"] == pytest.approx(report["asymptote_form"] * factor, rel=1e-12)


def test_sharp_constant_formula(ref_pm1):
    # d = 1, p = 2: q = 1/3, theta = 3/8 and ((2p-1)/(2p))**2 = 9/16
    assert sharp_constant(ref_pm1) == pytest.approx(
        (ref_pm1.j_star * 9.0 / 16.0) ** (3.0 / 16.0), rel=1e-15)


# Produced by this code path; test_acceptance confirms them by adaptive
# quadrature of the profile.
FROZEN_SHARP_CONSTANTS = {
    (1, 2.0): 1.470273503554807,
    (1, 1.5): 1.2323983985328129,
    (2, 0.75): 1.213822382466043,
    (3, 2.0 / 3.0): 2.340492275042014,
    (3, 2.0): 2.450155421884758,
}


@pytest.mark.parametrize("d,p", sorted(FROZEN_SHARP_CONSTANTS))
def test_sharp_constant_frozen_values(d, p):
    ref = rf.build_reference(rf.ModelParams(d, p))
    assert sharp_constant(ref) == pytest.approx(FROZEN_SHARP_CONSTANTS[(d, p)], rel=1e-9)


def test_extremality_deterministic(ref_pm1):
    a = extremality_test(ref_pm1, seed=11)
    b = extremality_test(ref_pm1, seed=11)
    c = extremality_test(ref_pm1, seed=12)
    assert a["gaps"] == b["gaps"]
    assert a["gaps"] != c["gaps"]


def test_extremality_gap_and_slope(ref_pm1):
    ext = extremality_test(ref_pm1)
    assert len(ext["gaps"]) == 20
    assert ext["min_gap"] > 0.0
    assert abs(ext["slope"] - 2.0) <= 0.3
    assert ext["min_gap"] >= -1e-6 * ext["q0"]


def test_lcg_documented_recurrence():
    xs = []
    x = 7
    for _ in range(4):
        x = (1664525 * x + 1013904223) % 2**32
        xs.append(x / 2.0**32)
    assert _lcg_uniforms(7, 4) == xs
    assert all(0.0 <= u < 1.0 for u in xs)


def test_test_function_validation():
    grid = rf.build_grid(1, 2.0, 32)
    with pytest.raises(ValueError):
        GnTestFunction(grid, -np.ones(grid.n))
    with pytest.raises(ValueError):
        GnTestFunction(grid, np.ones(5))
    with pytest.raises(ValueError):
        rf.gn_quotient(GnTestFunction(grid, np.zeros(grid.n)), 0.5)


def test_deficit_regime_gates(run_pm1_gaussian):
    from renyiflow.gn import deficit_identity_check

    with pytest.raises(RegimeError):
        deficit_identity_check(run_pm1_gaussian)
    # the same records read against a (d, p) below the remainder window
    ref = rf.build_reference(rf.ModelParams(3, 0.55))
    with pytest.raises(RegimeError):
        deficit_identity_check(replace(run_pm1_gaussian, reference=ref))


def _deficit_windows_by_loop(trajectory):
    """fpp_worst and fpp_count of the concavity-rate identity, scored one
    window at a time: the reference the array form must reproduce bit for
    bit."""
    from renyiflow.gn import FPP_SIGNIFICANCE_REL

    p, sigma = trajectory.reference.params.p, trajectory.reference.exponents.sigma
    t = np.array([r.t for r in trajectory.records])
    e = np.array([r.entropy for r in trajectory.records])
    rem = np.array([r.remainder for r in trajectory.records])
    f = np.array([r.f_power for r in trajectory.records])
    h = np.diff(t)
    rhs = sigma * (1.0 - p) ** 2 * e ** (sigma - 2.0) * rem
    eps = float(np.finfo(float).eps)
    resolved = []
    for k in range(1, len(t) - 1):
        hl, hr = h[k - 1], h[k]
        if abs(hl - hr) > 1e-9 * max(hl, hr):
            continue
        noise = 4.0 * eps * abs(f[k]) / (hl * hr)
        if abs(rhs[k]) < 1e4 * noise:
            continue
        if float(np.ptp(rhs[k - 1:k + 2])) > 0.5 * abs(rhs[k]):
            continue
        resolved.append(k)
    worst, count = 0.0, 0
    if resolved:
        floor = FPP_SIGNIFICANCE_REL * max(abs(rhs[k]) for k in resolved)
        for k in resolved:
            if abs(rhs[k]) < floor:
                continue
            lhs = -(f[k + 1] - 2.0 * f[k] + f[k - 1]) / (h[k - 1] * h[k])
            target = 0.25 * float(rhs[k - 1] + 2.0 * rhs[k] + rhs[k + 1])
            worst = max(worst, abs(lhs - target) / abs(target))
            count += 1
    return worst, count


def test_deficit_windows_match_the_per_window_loop(run_fd3_mixture):
    from renyiflow.gn import deficit_identity_check

    rep = deficit_identity_check(run_fd3_mixture)
    worst, count = _deficit_windows_by_loop(run_fd3_mixture)
    assert count >= 10
    assert (rep["fpp_worst"], rep["fpp_count"]) == (worst, count)


def test_deficit_windows_skip_uneven_gaps_and_unresolved_windows(ref_fd3):
    # E = 1 and R = 9 make -F'' = sigma (1-p)**2 R = 1 at d = 3, p = 2/3, and
    # F = t - t**2/2 has exactly that second derivative. The gap 0.3 -> 0.5
    # is twice the others, which rules out the windows at 0.3 and 0.5; R
    # doubles at the last record, so the window before it varies by 100%.
    # The four windows left hold the identity to rounding; scoring an uneven
    # window would read an error above 1, the varying one 0.2.
    from renyiflow.gn import deficit_identity_check

    t = [0.0, 0.1, 0.2, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9]
    rem = [9.0] * 8 + [18.0]
    template = rf.FunctionalRecord(*(0.0,) * 16)
    records = [replace(template, t=tk, entropy=1.0, remainder=rk,
                       f_power=tk - 0.5 * tk * tk, j_scale=1.0)
               for tk, rk in zip(t, rem)]
    traj = rf.Trajectory(ref_fd3, records=records)
    rep = deficit_identity_check(traj)
    assert rep["fpp_count"] == 4
    assert rep["fpp_worst"] <= 1e-9
    assert (rep["fpp_worst"], rep["fpp_count"]) == _deficit_windows_by_loop(traj)
