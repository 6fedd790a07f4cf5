"""Reference-profile construction against frozen values and quadrature.

The frozen constants below were produced by this code path and then
independently confirmed by adaptive quadrature of the defining integrals
(see test_acceptance for the full five-pair quadrature sweep); they pin the
closed forms against regressions at 1e-9 relative. build_reference's own
cross-check (Gauss-Legendre after exact substitutions, numpy only) is held
to the closed forms over a (d, p) sweep and to scipy's adaptive quadrature.
"""
import math
import re

import numpy as np
import pytest
from scipy import integrate

import renyiflow as rf
from renyiflow import barenblatt
from renyiflow.barenblatt import _quad_moment, normalization_constant, reference_functionals
from renyiflow.gn import sharp_constant
from renyiflow.grid import sphere_area

FROZEN = {
    (1, 2.0): dict(c_star=0.8254818122236569, theta=0.1650963624447314,
                   entropy=0.6603854497789255, fisher=2.641541799115702,
                   h_star=0.2683281572999749, j_star=13.888888888888877,
                   theta_star=0.8653497421844454),
    (1, 1.5): dict(c_star=0.9745149602290473, theta=0.13921642288986388,
                   entropy=0.8352985373391832, fisher=5.0117912240350995,
                   h_star=0.5102280595341138, j_star=14.755116598079573,
                   theta_star=1.2149641903211008),
    (2, 0.75): dict(c_star=1.015491297563259, theta=0.25387282439081477,
                    entropy=1.5232369463448885, fisher=18.278843356138662,
                    h_star=2.1459194266698822, j_star=42.41150082346217,
                    theta_star=4.752690796150474),
    (3, 2.0 / 3.0): dict(c_star=1.825968029843779, theta=1.825968029843781,
                         entropy=7.303872119375123, fisher=87.64646543250146,
                         h_star=5.4051353801269855, j_star=87.64646543250146,
                         theta_star=29.21548847750049),
    (3, 2.0): dict(c_star=0.8134681616584949, theta=0.11620973737978499,
                   entropy=0.46483894951913995, fisher=5.578067394229679,
                   h_star=0.01841476965077809, j_star=43.02065922024854,
                   theta_star=0.38517183091245316),
}


@pytest.mark.parametrize("d,p", sorted(FROZEN))
def test_frozen_reference_values(d, p):
    ref = rf.build_reference(rf.ModelParams(d, p))
    for field, value in FROZEN[(d, p)].items():
        assert getattr(ref, field) == pytest.approx(value, rel=1e-9), field


@pytest.mark.parametrize("d,p", sorted(FROZEN))
def test_profile_ratio_is_unity(d, p):
    # Theta * I = d * E^2 exactly on the stationary profile
    ref = rf.build_reference(rf.ModelParams(d, p))
    q = ref.theta * ref.fisher / (d * ref.entropy**2)
    assert abs(q - 1.0) <= 1e-12


def test_c_star_open_form_d2():
    # d=2, p=3/4: alpha = 4, the lgamma route reduces to (pi/3)**(1/3)
    c = normalization_constant(rf.ModelParams(2, 0.75))
    assert c == pytest.approx((math.pi / 3.0) ** (1.0 / 3.0), rel=1e-14)


@pytest.mark.parametrize("d,p", [(3, 0.3334), (2, 1e-4), (4, 0.5004)])
def test_c_star_beyond_double_range_is_a_domain_error(d, p):
    # ModelParams admits these p, just above max(0, 1 - 2/d), but c_star
    # exceeds the double range: a ParameterDomainError naming p, not an
    # OverflowError from math.exp
    with pytest.raises(rf.ParameterDomainError, match=f"p = {p} .* c_star"):
        normalization_constant(rf.ModelParams(d, p))


def test_profile_support():
    params = rf.ModelParams(1, 2.0)
    ref = rf.build_reference(params)
    edge = math.sqrt(ref.c_star)
    r = np.array([0.0, 0.5 * edge, edge + 1e-9, 2.0 * edge])
    b = ref.profile(r)
    assert b[0] > b[1] > 0.0
    assert b[2] == 0.0 and b[3] == 0.0

    fast = rf.build_reference(rf.ModelParams(3, 2.0 / 3.0))
    b = fast.profile(np.array([0.0, 10.0, 1e4]))
    assert np.all(b > 0.0)
    # tail decays like r**(2/(p-1)) = r**-6
    assert b[2] / b[1] == pytest.approx((10.0 / 1e4) ** 6, rel=1e-3)


def test_self_similar_mass_and_moment_scaling():
    params = rf.ModelParams(1, 2.0)
    ref = rf.build_reference(params)
    ex = ref.exponents
    for t in (0.5, 1.0, 2.0):
        edge = ex.kappa * t ** (1.0 / ex.mu) * math.sqrt(ref.c_star)
        mass, _ = integrate.quad(lambda r: 2.0 * ref.self_similar(r, t), 0.0, edge)
        assert mass == pytest.approx(1.0, abs=1e-10)
        theta, _ = integrate.quad(
            lambda r: 2.0 * r * r * ref.self_similar(r, t), 0.0, edge)
        assert theta == pytest.approx(
            ref.theta_star * t ** (2.0 / ex.mu), rel=1e-10)


def test_self_similar_requires_positive_time():
    params = rf.ModelParams(1, 2.0)
    with pytest.raises(ValueError):
        rf.self_similar_density(1.0, 0.0, params)
    with pytest.raises(ValueError):
        rf.self_similar_density(1.0, -1.0, params)


def test_infinite_moment_regime():
    # d=3, p=0.55 < 3/5: second moment diverges, scale-invariant values nan
    ref = rf.build_reference(rf.ModelParams(3, 0.55))
    assert ref.theta == math.inf
    assert math.isnan(ref.h_star) and math.isnan(ref.j_star)
    assert sharp_constant(ref) is None


def test_near_critical_tail_still_verifies():
    # p barely above 1 - 2/d: the profile decays like r**(-2/(1-p)), too slow
    # for any direct cutoff; the quadrature cross-check must still pass
    ref = rf.build_reference(rf.ModelParams(2, 0.01))
    assert ref.c_star > 1e200
    assert ref.theta == math.inf


def test_functionals_infinite_below_moment_threshold():
    vals = reference_functionals(rf.ModelParams(3, 0.55))
    assert vals["theta"] == math.inf and vals["entropy"] == math.inf


def _sweep_ps(d):
    """p from just above max(0, 1 - 2/d) through both regimes up to 100, and
    just above d/(d+2), where the second moment becomes finite. Points right
    at d/(d+2) are left out: there the closed forms for theta and entropy
    divide by (d+2)p - d and lose every digit to cancellation."""
    lo = max(0.0, 1.0 - 2.0 / d)
    below = lo + (1.0 - lo) * np.array([0.01, 0.03, 0.07, 0.15, 0.25, 0.35, 0.45, 0.55,
                                        0.65, 0.75, 0.85, 0.95, 0.99, 0.999])
    return [float(p) for p in np.concatenate(
        [below, [d / (d + 2.0) + 1e-4], np.geomspace(1.001, 100.0, 25)])]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 8])
def test_quadrature_matches_closed_forms(d):
    # measured worst: 1.6e-12, and 4e-12 within 1e-3 of p = 1 (rounding)
    worst = 0.0
    for p in _sweep_ps(d):
        params = rf.ModelParams(d, p)
        vals = reference_functionals(params)
        for key in ("mass", "theta", "entropy"):
            if math.isfinite(vals[key]):
                q = _quad_moment(params, key)
                worst = max(worst, abs(q - vals[key]) / vals[key])
    assert worst <= 1e-10


@pytest.mark.parametrize("d,p", [(3, 0.34), (8, 0.76), (3, 0.600001), (5, 0.7142867),
                                 (3, 0.99999), (3, 1.000001), (8, 1.000001)])
def test_cross_check_holds_near_thresholds(d, p):
    # a vanishing e (p -> 1 - 2/d, p -> d/(d+2)) or a huge one (p -> 1)
    # must not cost the cross-check its 1e-8 budget
    rf.build_reference(rf.ModelParams(d, p))


def _scipy_moment(d, p, weight):
    """The same integral by adaptive quadrature of the profile formula, the
    power-law tail under r = 1/t."""
    params = rf.ModelParams(d, p)
    c_star = normalization_constant(params)

    def integrand(r):
        b = float(rf.profile_density(r, params))
        b = b**p if weight == "entropy" else b * r * r / d if weight == "theta" else b
        return sphere_area(d) * r ** (d - 1) * b

    opts = dict(limit=400, epsabs=0.0, epsrel=1e-13)
    edge = math.sqrt(c_star)
    if p > 1.0:
        return integrate.quad(integrand, 0.0, edge, **opts)[0]
    inner = integrate.quad(integrand, 0.0, 10.0 * edge, **opts)[0]
    outer = integrate.quad(lambda t: integrand(1.0 / t) / (t * t), 0.0, 0.1 / edge, **opts)[0]
    return inner + outer


@pytest.mark.parametrize("d,p", [(1, 0.3), (1, 3.0), (2, 0.6), (2, 1.2), (3, 0.7),
                                 (3, 2.0), (4, 0.8), (5, 0.9), (5, 10.0), (8, 0.85),
                                 (8, 1.5)])
def test_quadrature_matches_scipy_quad(d, p):
    params = rf.ModelParams(d, p)
    for key in ("mass", "theta", "entropy"):
        if math.isfinite(reference_functionals(params)[key]):
            want = _scipy_moment(d, p, key)
            assert _quad_moment(params, key) == pytest.approx(want, rel=1e-10), key


@pytest.mark.parametrize("d,p", [(1, 2.0), (3, 2.0 / 3.0)])
@pytest.mark.parametrize("key", ["theta", "entropy"])
def test_closed_form_off_by_1e_7_is_caught(monkeypatch, d, p, key):
    exact = barenblatt.reference_functionals

    def skewed(params):
        vals = exact(params)
        vals[key] *= 1.0 + 1e-7
        return vals

    monkeypatch.setattr(barenblatt, "reference_functionals", skewed)
    with pytest.raises(RuntimeError, match=f"closed-form {key}"):
        rf.build_reference(rf.ModelParams(d, p))


@pytest.mark.parametrize("d,p", [(1, 2.0), (3, 2.0 / 3.0)])
def test_normalization_off_by_1e_7_is_caught(monkeypatch, d, p):
    exact = barenblatt.normalization_constant
    monkeypatch.setattr(barenblatt, "normalization_constant",
                        lambda params: exact(params) * (1.0 + 1e-7))
    with pytest.raises(RuntimeError, match="profile mass"):
        rf.build_reference(rf.ModelParams(d, p))


@pytest.mark.parametrize("d,p,near", [(3, 0.600000001, "d/(d+2) = 0.6"), (1, 1.0000001, "1"),
                                      (5, 1.0 - 1e-9, "1")])
def test_cross_check_fails_near_thresholds_as_domain_error(d, p, near):
    # within reach of d/(d+2) or 1 the 1e-8 gates fail on lost digits, not
    # on a fault: the parameters are out of the reference's domain
    match = f"too close to {re.escape(near)} at d = {d}"
    with pytest.raises(rf.ParameterDomainError, match=match):
        rf.build_reference(rf.ModelParams(d, p))
