"""Interpolation quotients and sharp constants.

The exponent formulas are checked against the invariances that define them:
the quotient must not move under dilations or amplitude scalings of the test
function (machine-exact here because both grids are scaled copies), and the
hand-reduced values at simple indices pin the algebra.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renyiflow as rf
from renyiflow.gn import (
    GnParams,
    TestFunction as GnTestFunction,
    _lcg_uniforms,
    extremality_test,
    gn_constant_report,
    gn_params_for,
    sharp_constant_from_j,
)
from renyiflow.params import RegimeError


def gaussian_quotient(d, q, lam):
    theta = rf.gn_exponent(d, q)
    gn = GnParams(q=q, theta=theta, branch="GN1" if q > 1.0 else "GN2")
    grid = rf.build_grid(d, 30.0 * lam, 2000)
    w = np.exp(-((grid.centers / lam) ** 2) / 2.0)
    return rf.gn_quotient(GnTestFunction(grid, w), gn, d)


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
    theta = rf.gn_exponent(2, 1.5)
    gn = GnParams(q=1.5, theta=theta, branch="GN1")
    grid = rf.build_grid(2, 30.0, 1000)
    w = np.exp(-(grid.centers**2) / 2.0)
    a = rf.gn_quotient(GnTestFunction(grid, w), gn, 2)
    b = rf.gn_quotient(GnTestFunction(grid, 3.7 * w), gn, 2)
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


def test_family_from_diffusion_exponent(params_pm1, params_fd3):
    gn_pm = gn_params_for(params_pm1)
    assert gn_pm.q == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert gn_pm.branch == "GN2"
    gn_fd = gn_params_for(params_fd3)
    assert gn_fd.q == pytest.approx(3.0, rel=1e-12)   # the endpoint index
    assert gn_fd.branch == "GN1"
    with pytest.raises(RegimeError):
        gn_params_for(rf.ModelParams(1, 0.4))


@pytest.mark.parametrize("key", ["pm1", "fd3"])
def test_sharp_constant_dual_path(key, params_pm1, params_fd3, ref_pm1, ref_fd3):
    params, ref = ((params_pm1, ref_pm1) if key == "pm1"
                   else (params_fd3, ref_fd3))
    report = gn_constant_report(params, ref)
    assert report["rel_discrepancy"] <= 1e-3
    assert report["c_gn"] == pytest.approx(ref.c_gn, rel=1e-12)
    frozen = {"pm1": 1.470273503554807, "fd3": 2.340492275042014}[key]
    assert report["c_gn"] == pytest.approx(frozen, rel=1e-9)
    # the asymptote-normalized reading differs by the fixed algebraic factor
    factor = ((2.0 * params.p - 1.0) / (2.0 * params.p)) ** report["theta"]
    assert report["c_gn"] == pytest.approx(report["asymptote_form"] * factor, rel=1e-12)


def test_sharp_constant_formula():
    assert sharp_constant_from_j(16.0, 0.5, 1.0) == pytest.approx(
        (16.0 * 0.25) ** 0.25, rel=1e-15)


def test_extremality_deterministic(params_pm1, ref_pm1):
    a = extremality_test(params_pm1, ref_pm1, seed=11)
    b = extremality_test(params_pm1, ref_pm1, seed=11)
    c = extremality_test(params_pm1, ref_pm1, seed=12)
    assert a["gaps"] == b["gaps"]
    assert a["gaps"] != c["gaps"]


def test_extremality_gap_and_slope(params_pm1, ref_pm1):
    ext = extremality_test(params_pm1, ref_pm1)
    assert len(ext["gaps"]) == 20
    assert ext["min_gap"] > 0.0
    assert abs(ext["slope"] - 2.0) <= 0.3
    assert ext["min_gap"] >= -1e-6 * ext["q0"]


def test_extremality_argument_validation(params_pm1, ref_pm1):
    with pytest.raises(ValueError):
        extremality_test(params_pm1, ref_pm1, n_perturbations=3)
    with pytest.raises(ValueError):
        extremality_test(params_pm1, ref_pm1, n_perturbations=0)


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
        rf.gn_quotient(GnTestFunction(grid, np.zeros(grid.n)),
                       GnParams(q=0.5, theta=0.25, branch="GN2"), 1)


def test_deficit_regime_gates(run_pm1_gaussian, params_pm1, ref_pm1):
    from renyiflow.gn import deficit_identity_check

    with pytest.raises(RegimeError):
        deficit_identity_check(run_pm1_gaussian, params_pm1, ref_pm1)
    params = rf.ModelParams(3, 0.55)
    ref = rf.build_reference(params)
    with pytest.raises(RegimeError):
        deficit_identity_check(run_pm1_gaussian, params, ref)
