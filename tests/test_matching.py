import math

import numpy as np
import pytest

import renyiflow as rf
from renyiflow._pow import pow_fn
from renyiflow.functionals import _relative_entropy
from renyiflow.matching import (
    MatchingError,
    delay_lower_bound,
    envelope_worst,
    q_envelope,
)
from renyiflow.params import RegimeError


def test_match_scale_closed_form(ref_pm1):
    ex = ref_pm1.exponents
    assert ref_pm1.match_time(ref_pm1.theta_star) == pytest.approx(1.0, rel=1e-14)
    theta2 = ref_pm1.theta_star * 2.0 ** (2.0 / ex.mu)
    assert ref_pm1.match_time(theta2) == pytest.approx(2.0, rel=1e-12)
    # the delay tau = s - t at t = 0.5
    assert ref_pm1.match_time(theta2) - 0.5 == pytest.approx(1.5, rel=1e-12)


def best_match_scale_numeric(state, reference):
    """Minimize s -> relative entropy of state to the profile at s by
    golden-section search, an oracle for the closed-form moment match.

    The bracket is [s0/10, 10*s0] around the moment match s0; the divergence
    is strictly convex near its minimum, so the search is well posed. Fails
    if the minimum sits on the bracket edge.
    """
    u, p = state.u[None], reference.params.p
    up = pow_fn(p)(u)
    scratch = np.empty((5, state.grid.n))
    s0 = rf.diagnostics([state], reference)[0].s_match
    lo, hi = 0.1 * s0, 10.0 * s0

    def phi(s):
        return float(_relative_entropy(state.grid, u, up, [s], p, reference, scratch)[0])

    invphi = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = phi(c), phi(d)
    while b - a > 1e-8 * s0:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = phi(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = phi(d)
    s = 0.5 * (a + b)
    assert lo + 0.005 * (hi - lo) < s < hi - 0.005 * (hi - lo), "no interior best match"
    return s


def test_numeric_match_agrees_with_moment_match(params_pm1, ref_pm1):
    grid = rf.build_grid(1, 5.0, 800)
    state = rf.project_initial(
        lambda r: rf.self_similar_density(r, 1.0, params_pm1), grid)
    s_closed = rf.diagnostics([state], ref_pm1)[0].s_match
    s_num = best_match_scale_numeric(state, ref_pm1)
    assert s_num == pytest.approx(s_closed, rel=1e-4)


def test_envelope_algebra():
    assert q_envelope(1.0, 2.0, 5.0) == 1.0
    # decreasing in theta_t, approaching 1 from above
    vals = [q_envelope(1.5, 1.0, th) for th in (1.0, 2.0, 10.0, 1e6)]
    assert vals[0] == pytest.approx(1.5, rel=1e-14)
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        q_envelope(0.9, 1.0, 1.0)
    with pytest.raises(ValueError):
        q_envelope(1.5, -1.0, 1.0)
    with pytest.raises(MatchingError):
        q_envelope(2.0, 1.0, 0.4)  # moment decreased below admissible range


def test_envelope_of_an_array_is_the_scalar_envelope_bit_for_bit():
    theta = np.array([1.0, 1.0 + 1e-12, 2.0 / 3.0 + 1.0, 7.25, 1e6, 1e200])
    for q0, theta0 in ((1.0, 1.0), (1.5, 1.0), (1.0 + 1e-9, 0.7), (1e66, 0.5)):
        qbar = q_envelope(q0, theta0, theta)
        assert qbar.tobytes() == np.array(
            [q_envelope(q0, theta0, float(th)) for th in theta]).tobytes()
    with pytest.raises(ValueError, match="second moments"):
        q_envelope(1.5, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(MatchingError):
        q_envelope(2.0, 1.0, np.array([1.0, 0.4]))


def test_envelope_window_gate(run_pm1_gaussian):
    # p = 2 > 1 is outside the fast-diffusion window: no envelope
    with pytest.raises(RegimeError):
        envelope_worst(run_pm1_gaussian)


def test_delay_report_porous_medium(run_pm1_gaussian):
    report = rf.build_delay_report(run_pm1_gaussian)
    tau_tol = 1e-3 * abs(report.tau_series[0])
    # p > 1: tau nondecreasing toward the self-similar clock
    assert report.monotone_worst <= tau_tol
    assert report.drop_slack >= 0.0
    assert report.flat_worst is None
    assert report.tau_series[-1] >= report.tau_series[0] - tau_tol


def test_delay_report_fast_diffusion(run_fd3_gaussian):
    report = rf.build_delay_report(run_fd3_gaussian)
    tau_tol = 1e-3 * abs(report.tau_series[0])
    assert report.monotone_worst <= tau_tol   # tau nonincreasing for p < 1
    assert report.drop_bound > 0.0     # strict lower bound on the total drop
    assert report.drop_slack >= 0.0
    # the envelope dominates the measured ratio and the integral bound
    # dominates the measured delay, pointwise
    env_worst, upper_worst = envelope_worst(run_fd3_gaussian)
    assert env_worst <= 1e-3
    assert upper_worst <= tau_tol


def test_delay_flat_on_self_similar_run(run_pm1_barenblatt):
    report = rf.build_delay_report(run_pm1_barenblatt, expected_tau=1.0)
    assert report.flat_worst <= 1e-3
    # data already on the profile: degenerate quadratic bound collapses to 0
    assert report.drop_bound == 0.0


def test_drop_bound_degenerate_on_profile(params_pm1, ref_pm1):
    grid = rf.build_grid(1, 5.0, 800)
    state = rf.project_initial(
        lambda r: rf.self_similar_density(r, 1.0, params_pm1), grid)
    rec = rf.diagnostics([state], ref_pm1)[0]
    assert delay_lower_bound(rec, ref_pm1, h_prime=1.0) == 0.0


def test_drop_bound_window_gate():
    # d=3, p=0.65 sits below the 1 - 1/d window edge
    params = rf.ModelParams(3, 0.65)
    ref = rf.build_reference(params)
    grid = rf.build_grid(3, 100.0, 200, stretch=1.02)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    rec = rf.diagnostics([state], ref)[0]
    with pytest.raises(RegimeError):
        delay_lower_bound(rec, ref, h_prime=1.0)
