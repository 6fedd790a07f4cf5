"""Reference-profile construction against frozen values and quadrature.

The frozen constants below were produced by this code path and then
independently confirmed by adaptive quadrature of the defining integrals
(see test_acceptance for the full five-pair quadrature sweep); they pin the
closed forms against regressions at 1e-9 relative.
"""
import math

import numpy as np
import pytest
from scipy import integrate

import renyiflow as rf
from renyiflow.barenblatt import normalization_constant, reference_functionals

FROZEN = {
    (1, 2.0): dict(c_star=0.8254818122236569, theta=0.1650963624447314,
                   entropy=0.6603854497789255, fisher=2.641541799115702,
                   h_star=0.2683281572999749, j_star=13.888888888888877,
                   theta_star=0.8653497421844454, c_gn=1.470273503554807),
    (1, 1.5): dict(c_star=0.9745149602290473, theta=0.13921642288986388,
                   entropy=0.8352985373391832, fisher=5.0117912240350995,
                   h_star=0.5102280595341138, j_star=14.755116598079573,
                   theta_star=1.2149641903211008, c_gn=1.2323983985328129),
    (2, 0.75): dict(c_star=1.015491297563259, theta=0.25387282439081477,
                    entropy=1.5232369463448885, fisher=18.278843356138662,
                    h_star=2.1459194266698822, j_star=42.41150082346217,
                    theta_star=4.752690796150474, c_gn=1.213822382466043),
    (3, 2.0 / 3.0): dict(c_star=1.825968029843779, theta=1.825968029843781,
                         entropy=7.303872119375123, fisher=87.64646543250146,
                         h_star=5.4051353801269855, j_star=87.64646543250146,
                         theta_star=29.21548847750049, c_gn=2.340492275042014),
    (3, 2.0): dict(c_star=0.8134681616584949, theta=0.11620973737978499,
                   entropy=0.46483894951913995, fisher=5.578067394229679,
                   h_star=0.01841476965077809, j_star=43.02065922024854,
                   theta_star=0.38517183091245316, c_gn=2.450155421884758),
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
    assert ref.c_gn is None


def test_near_critical_tail_still_verifies():
    # p barely above 1 - 2/d: the profile decays like r**(-2/(1-p)), too slow
    # for any direct cutoff; the quadrature cross-check must still pass
    ref = rf.build_reference(rf.ModelParams(2, 0.01))
    assert ref.c_star > 1e200
    assert ref.theta == math.inf


def test_functionals_infinite_below_moment_threshold():
    vals = reference_functionals(rf.ModelParams(3, 0.55))
    assert vals["theta"] == math.inf and vals["entropy"] == math.inf
