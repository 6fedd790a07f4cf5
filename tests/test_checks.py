import math

import numpy as np
import pytest

import renyiflow as rf
from renyiflow import checks, matching
from renyiflow.checks import (
    CHECK_NAMES, compatible_checks, incompatibility, run_checks)
from renyiflow.matching import MatchingError


def test_check_vocabulary():
    assert CHECK_NAMES == ("theorem1", "theorem2", "theorem3", "theorem3bis",
                           "prop_t4", "gn", "deficit")


@pytest.mark.parametrize("d,p,expected", [
    # p > 1: everything except the fast-diffusion-only checks
    (1, 2.0, ("theorem1", "theorem2", "theorem3", "theorem3bis", "gn")),
    # the full fast-diffusion window admits all seven
    (3, 2.0 / 3.0, CHECK_NAMES),
    # below 1 - 1/d and below the moment threshold: h_star is not finite,
    # so not even the H-comparison applies
    (3, 0.55, ()),
    # d=1 low exponent: remainder sign holds for every p, but the
    # interpolation conversion needs p > 1/2
    (1, 0.4, ("theorem1", "theorem2", "theorem3", "theorem3bis",
              "prop_t4", "deficit")),
    # d/(d+2) < p < 1 - 1/d: the best match exists but the remainder has no
    # sign, so only the H-comparison and the drift of tau remain
    (3, 0.63, ("theorem2", "theorem3")),
    (5, 0.75, ("theorem2", "theorem3")),
])
def test_compatible_subsets(d, p, expected):
    assert compatible_checks(rf.ModelParams(d, p)) == expected


def test_incompatibility_names_the_hypothesis():
    assert "p > 1/2" in incompatibility("gn", rf.ModelParams(3, 0.4))
    assert "1 - 1/d" in incompatibility("theorem1", rf.ModelParams(3, 0.55))
    assert "d/(d+2)" in incompatibility("theorem3", rf.ModelParams(3, 0.55))
    assert "fast diffusion" in incompatibility("deficit", rf.ModelParams(1, 2.0))
    assert "1 - 1/d <= p < 1" in incompatibility("prop_t4", rf.ModelParams(1, 2.0))
    assert "d/(d+2)" in incompatibility("theorem2", rf.ModelParams(3, 0.55))
    assert "1 - 1/d" in incompatibility("gn", rf.ModelParams(3, 0.63))
    assert "1 - 1/d" in incompatibility("theorem3bis", rf.ModelParams(3, 0.63))


@pytest.mark.parametrize("d,p", [(3, 0.63), (4, 0.72), (5, 0.75)])
def test_admitted_checks_run_below_remainder_window(d, p):
    # every check admitted between d/(d+2) and 1 - 1/d must evaluate there
    # instead of tripping a regime gate further down
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, 1000.0, 120, stretch=1.06)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    traj = rf.evolve(state, 0.2, params, rf.SolverConfig(record_every=0.05))
    ref = rf.build_reference(params)
    for name in compatible_checks(params):
        (res,) = run_checks((name,), traj, params, ref)
        assert res.applicable, name


def test_unknown_check_name():
    with pytest.raises(ValueError):
        incompatibility("theorem9", rf.ModelParams(1, 2.0))


def test_inapplicable_check_is_skipped(run_pm1_gaussian, params_pm1, ref_pm1):
    (res,) = run_checks(("deficit",), run_pm1_gaussian, params_pm1, ref_pm1)
    assert res.applicable is False
    assert res.passed is None and res.slack is None
    assert "fast diffusion" in res.details["reason"]


def test_clause_shape(run_pm1_barenblatt, params_pm1, ref_pm1):
    (res,) = run_checks(("theorem2",), run_pm1_barenblatt, params_pm1, ref_pm1)
    assert res.applicable and res.passed
    clauses = res.details["clauses"]
    assert set(clauses) == {"h_monotone", "h_limit_side"}
    for clause in clauses.values():
        assert set(clause) == {"measured", "tolerance", "margin", "passed"}
        assert isinstance(clause["measured"], float)
        assert clause["tolerance"] > 0.0
    # slack is the minimum margin over clauses, tolerance the binding one's
    binding = min(clauses.values(), key=lambda c: c["margin"])
    assert res.slack == binding["margin"]
    assert res.tolerance == binding["tolerance"]


def test_corpus_checks_pass(corpus):
    for name, (traj, params, ref, expected_tau) in corpus.items():
        for check in compatible_checks(params):
            if check == "deficit" and name == "fd3_gaussian":
                # thin initial tails leave the remainder quadrature
                # unresolved early on; the mixture run covers this check
                continue
            (res,) = run_checks((check,), traj, params, ref, expected_tau=expected_tau)
            assert res.passed, (name, check, res.slack, res.details)


def test_tau_flat_clause_present_only_with_expectation(
        run_pm1_barenblatt, params_pm1, ref_pm1):
    (with_tau,) = run_checks(("theorem3",), run_pm1_barenblatt, params_pm1, ref_pm1,
                             expected_tau=1.0)
    assert "tau_flat" in with_tau.details["clauses"]
    (without,) = run_checks(("theorem3",), run_pm1_barenblatt, params_pm1, ref_pm1)
    assert "tau_flat" not in without.details["clauses"]


def test_tol_scale_tightens_and_loosens(run_pm1_barenblatt, params_pm1, ref_pm1):
    # a vanishing tolerance budget must fail the rate identities, and a huge
    # one must pass them, through the same code path
    (tight,) = run_checks(("theorem1",), run_pm1_barenblatt, params_pm1, ref_pm1,
                          tol_scale=1e-12)
    assert not tight.passed
    (loose,) = run_checks(("theorem1",), run_pm1_barenblatt, params_pm1, ref_pm1,
                          tol_scale=1e6)
    assert loose.passed


def test_tol_scale_multiplies_every_clause_tolerance(corpus):
    # the tol_scale factor reaches every clause of every admitted check,
    # with no tolerance fixed outside it
    for name, (traj, params, ref, expected_tau) in corpus.items():
        names = compatible_checks(params)
        base = run_checks(names, traj, params, ref, expected_tau=expected_tau)
        doubled = run_checks(names, traj, params, ref, tol_scale=2.0,
                             expected_tau=expected_tau)
        for one, two in zip(base, doubled):
            c1, c2 = one.details["clauses"], two.details["clauses"]
            assert set(c1) == set(c2), (name, one.name)
            for clause in c1:
                assert c2[clause]["tolerance"] == 2.0 * c1[clause]["tolerance"], (
                    name, one.name, clause)


def test_gn_check_reports_seed(run_pm1_barenblatt, params_pm1, ref_pm1):
    (res,) = run_checks(("gn",), run_pm1_barenblatt, params_pm1, ref_pm1, gn_seed=99)
    assert res.passed
    assert res.details["seed"] == 99
    assert res.details["n_perturbations"] == 20
    assert set(res.details["clauses"]) == {
        "constant_dual_path", "perturbation_gap", "gap_growth_rate"}


def test_delay_report_built_once_per_run_checks(
        monkeypatch, run_fd3_mixture, params_fd3, ref_fd3):
    # theorem3, theorem3bis and prop_t4 all read one DelayReport
    calls = []
    real = checks.build_delay_report

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "build_delay_report", counted)
    names = compatible_checks(params_fd3)
    assert {"theorem3", "theorem3bis", "prop_t4"} <= set(names)
    results = run_checks(names, run_fd3_mixture, params_fd3, ref_fd3)
    assert [r.name for r in results] == list(names)
    assert len(calls) == 1


def test_theorem3_does_not_evaluate_the_envelope(
        monkeypatch, run_fd3_gaussian, params_fd3, ref_fd3):
    # only prop_t4 reads the envelope, so a broken envelope cannot fail
    # a theorem3 verdict
    def broken(*args, **kwargs):
        raise MatchingError("envelope evaluated")

    monkeypatch.setattr(matching, "q_envelope", broken)
    (res,) = run_checks(("theorem3",), run_fd3_gaussian, params_fd3, ref_fd3)
    assert res.passed
    with pytest.raises(MatchingError, match="envelope evaluated"):
        run_checks(("prop_t4",), run_fd3_gaussian, params_fd3, ref_fd3)


def test_prop_t4_fails_loudly_on_huge_initial_ratio():
    # a d = 1, p = 0.4 Gaussian starts at q ~ 1.1e66, where the envelope
    # denominator q0 theta(t) - (q0 - 1) theta0 has no significant digits
    # left: the check raises instead of judging a NaN
    params = rf.ModelParams(1, 0.4)
    ref = rf.build_reference(params)
    grid = rf.build_grid(1, 40.0, 160)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    traj = rf.evolve(state, 1e-3, params, rf.SolverConfig(), reference=ref)
    assert math.isfinite(traj.records[0].q_ratio) and traj.records[0].q_ratio > 1e60
    with pytest.raises(MatchingError, match="envelope denominator"):
        run_checks(("prop_t4",), traj, params, ref)
