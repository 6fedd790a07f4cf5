import math

import pytest
from hypothesis import given, strategies as st

from renyiflow import ModelParams, ParameterDomainError, RegimeError
from renyiflow.checks import CHECK_HYPOTHESES
from renyiflow.params import derive_exponents, unmet


def valid_pairs():
    return st.integers(min_value=1, max_value=3).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.floats(min_value=max(0.05, 1.0 - 2.0 / d + 0.05), max_value=4.0).filter(
                lambda p: abs(p - 1.0) > 1e-6),
        )
    )


@given(valid_pairs())
def test_exponent_identities(pair):
    d, p = pair
    ex = derive_exponents(ModelParams(d, p))
    assert ex.mu == pytest.approx(2.0 + d * (p - 1.0), rel=1e-14)
    assert ex.eta == pytest.approx(2.0 - ex.mu, abs=1e-14)
    # sigma * d(1-p) = mu ties the entropy-power exponent to the time scaling
    assert ex.sigma * d * (1.0 - p) == pytest.approx(ex.mu, rel=1e-12)
    assert ex.kappa ** ex.mu == pytest.approx(abs(2.0 * ex.mu * p / (p - 1.0)), rel=1e-10)
    if p > 0.5:
        assert ex.gn_q == pytest.approx(1.0 / (2.0 * p - 1.0), rel=1e-14)
    else:
        assert ex.gn_q is None


def test_frozen_exponents_pm():
    ex = derive_exponents(ModelParams(1, 2.0))
    assert (ex.mu, ex.eta, ex.sigma) == (3.0, -1.0, -3.0)
    assert ex.kappa == pytest.approx(12.0 ** (1.0 / 3.0), rel=1e-15)
    assert ex.gn_q == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert unmet(ModelParams(1, 2.0), "remainder_window", "finite_moments") is None


def test_frozen_exponents_fd():
    ex = derive_exponents(ModelParams(3, 2.0 / 3.0))
    assert ex.mu == pytest.approx(1.0, abs=1e-15)
    assert ex.eta == pytest.approx(1.0, abs=1e-15)
    assert ex.sigma == pytest.approx(1.0, abs=1e-12)
    assert ex.kappa == pytest.approx(4.0, rel=1e-14)
    assert ex.gn_q == pytest.approx(3.0, rel=1e-14)
    # float(2/3) sits one ulp below 1 - float(1/3); the window gate must
    # still admit the endpoint
    params = ModelParams(3, 2.0 / 3.0)
    assert 2.0 / 3.0 < 1.0 - 1.0 / 3.0
    assert unmet(params, "remainder_window") is None
    assert unmet(params, "finite_moments") is None


@pytest.mark.parametrize("d,p,t1,t2,mom", [
    (1, 0.4, True, True, True),     # d=1 admits every p > 0
    (3, 0.65, False, True, True),   # below 1 - 1/d but above 3/5
    (3, 0.55, False, False, False),  # moments diverge below d/(d+2)
    (2, 0.51, True, True, True),
    (3, 2.0, True, True, True),
])
def test_validity_flags(d, p, t1, t2, mom):
    # t1: theorem1's remainder window, t2: theorem2's hypotheses, mom: a
    # finite profile second moment, each read off the HYPOTHESES table
    params = ModelParams(d, p)
    assert (unmet(params, "remainder_window") is None) is t1
    assert (unmet(params, *CHECK_HYPOTHESES["theorem2"]) is None) is t2
    assert (unmet(params, "finite_moments") is None) is mom


def test_regime_labels():
    assert ModelParams(1, 2.0).regime == "degenerate"
    assert ModelParams(3, 2.0 / 3.0).regime == "singular"


@pytest.mark.parametrize("d,p,err", [
    (0, 2.0, ParameterDomainError),
    (-1, 2.0, ParameterDomainError),
    (1, 0.0, ParameterDomainError),
    (1, -0.5, ParameterDomainError),
    (1, math.nan, ParameterDomainError),
    (1, math.inf, ParameterDomainError),
    (1, 1.0, RegimeError),
    (3, 1.0 / 3.0, RegimeError),   # exactly the mass-loss threshold
    (3, 0.2, RegimeError),
    (2, -0.1, ParameterDomainError),
])
def test_rejections(d, p, err):
    with pytest.raises(err):
        ModelParams(d, p)


def test_dimension_must_be_int():
    with pytest.raises(ParameterDomainError):
        ModelParams(1.5, 2.0)
    with pytest.raises(ParameterDomainError):
        ModelParams(True, 2.0)
