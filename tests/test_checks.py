import math
from dataclasses import replace

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
    # at or below d/(d+2) E of the source-type solution is infinite, so not
    # even theorem1 applies where the remainder has its sign
    (1, 0.3, ()),
    (2, 0.5, ()),
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
    for name in compatible_checks(params):
        (res,) = run_checks((name,), traj)
        assert res.applicable, name


def test_unknown_check_name():
    with pytest.raises(ValueError):
        incompatibility("theorem9", rf.ModelParams(1, 2.0))


def test_inapplicable_check_is_skipped(run_pm1_gaussian):
    (res,) = run_checks(("deficit",), run_pm1_gaussian)
    assert res.applicable is False
    assert res.passed is None and res.slack is None
    assert "fast diffusion" in res.details["reason"]


def test_clause_shape(run_pm1_barenblatt):
    (res,) = run_checks(("theorem2",), run_pm1_barenblatt)
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
    for name, (traj, expected_tau) in corpus.items():
        for check in compatible_checks(traj.reference.params):
            if check == "deficit" and name == "fd3_gaussian":
                # thin initial tails leave the remainder quadrature
                # unresolved early on; the mixture run covers this check
                continue
            (res,) = run_checks((check,), traj, expected_tau=expected_tau)
            assert res.passed, (name, check, res.slack, res.details)


def test_theorem1_judges_concavity_between_equal_intervals():
    # F is concave here (divided second differences -6.98, -2.27, -0.49,
    # -0.33, -0.39), but the plain second difference across the unequal
    # intervals 0 -> 0.1 -> 0.4 and 0.7 -> 1 reads +0.40 relative; the two
    # equal-interval windows at 0.5 and 0.6 read -7.7e-4
    params = rf.ModelParams(1, 2.0)
    grid = rf.build_grid(1, 6.0, 400)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    uniform = rf.evolve(state, 1.0, params, rf.SolverConfig(record_every=0.1))
    # the records at t = 0, 0.1, 0.4, 0.5, 0.6, 0.7 and 1
    traj = replace(uniform, records=[uniform.records[k] for k in (0, 1, 4, 5, 6, 7, 10)])
    assert np.allclose(traj.series("t"), [0.0, 0.1, 0.4, 0.5, 0.6, 0.7, 1.0], atol=1e-12)
    (res,) = run_checks(("theorem1",), traj)
    assert res.passed, res.details["clauses"]
    assert res.details["clauses"]["f_concave"]["measured"] < 0.0


def test_theorem1_fails_a_convex_f(run_pm1_gaussian):
    # F = exp(10 t) is increasing and convex: on the 0.0125 record
    # intervals its relative second difference is about (10 h)**2 = 0.016
    records = [r._replace(f_power=math.exp(10.0 * r.t)) for r in run_pm1_gaussian.records]
    (res,) = run_checks(("theorem1",), replace(run_pm1_gaussian, records=records))
    clauses = res.details["clauses"]
    assert res.passed is False
    assert clauses["f_concave"]["passed"] is False
    assert clauses["f_increasing"]["passed"] is True


def test_tau_flat_clause_present_only_with_expectation(run_pm1_barenblatt):
    (with_tau,) = run_checks(("theorem3",), run_pm1_barenblatt, expected_tau=1.0)
    assert "tau_flat" in with_tau.details["clauses"]
    (without,) = run_checks(("theorem3",), run_pm1_barenblatt)
    assert "tau_flat" not in without.details["clauses"]


def test_tol_scale_tightens_and_loosens(run_pm1_barenblatt):
    # a vanishing tolerance budget must fail the rate identities, and a huge
    # one must pass them, through the same code path
    (tight,) = run_checks(("theorem1",), run_pm1_barenblatt, tol_scale=1e-12)
    assert not tight.passed
    (loose,) = run_checks(("theorem1",), run_pm1_barenblatt, tol_scale=1e6)
    assert loose.passed


def test_tol_scale_multiplies_every_clause_tolerance(corpus):
    # the tol_scale factor reaches every clause of every admitted check,
    # with no tolerance fixed outside it
    for name, (traj, expected_tau) in corpus.items():
        names = compatible_checks(traj.reference.params)
        base = run_checks(names, traj, expected_tau=expected_tau)
        doubled = run_checks(names, traj, tol_scale=2.0, expected_tau=expected_tau)
        for one, two in zip(base, doubled):
            c1, c2 = one.details["clauses"], two.details["clauses"]
            assert set(c1) == set(c2), (name, one.name)
            for clause in c1:
                assert c2[clause]["tolerance"] == 2.0 * c1[clause]["tolerance"], (
                    name, one.name, clause)


def test_gn_check_reports_seed(run_pm1_barenblatt):
    (res,) = run_checks(("gn",), run_pm1_barenblatt, gn_seed=99)
    assert res.passed
    assert res.details["seed"] == 99
    assert res.details["n_perturbations"] == 20
    assert set(res.details["clauses"]) == {
        "constant_dual_path", "perturbation_gap", "gap_growth_rate"}


def test_delay_report_built_once_per_run_checks(
        monkeypatch, run_fd3_mixture):
    # theorem3, theorem3bis and prop_t4 all read one DelayReport
    calls = []
    real = checks.build_delay_report

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(checks, "build_delay_report", counted)
    names = compatible_checks(run_fd3_mixture.reference.params)
    assert {"theorem3", "theorem3bis", "prop_t4"} <= set(names)
    results = run_checks(names, run_fd3_mixture)
    assert [r.name for r in results] == list(names)
    assert len(calls) == 1


def test_theorem3_does_not_evaluate_the_envelope(monkeypatch, run_fd3_gaussian):
    # only prop_t4 reads the envelope, so a broken envelope cannot fail
    # a theorem3 verdict
    def broken(*args, **kwargs):
        raise MatchingError("envelope evaluated")

    monkeypatch.setattr(matching, "q_envelope", broken)
    (res,) = run_checks(("theorem3",), run_fd3_gaussian)
    assert res.passed
    (res,) = run_checks(("prop_t4",), run_fd3_gaussian)
    assert res.applicable and res.passed is False
    assert "envelope evaluated" in res.details["reason"]


def test_prop_t4_fails_loudly_on_huge_initial_ratio():
    # a d = 1, p = 0.4 Gaussian starts at q ~ 1.1e66, where the envelope
    # denominator q0 theta(t) - (q0 - 1) theta0 has no significant digits
    # left: the envelope raises instead of judging a NaN, and the check
    # fails with that reason instead of crashing the run
    params = rf.ModelParams(1, 0.4)
    grid = rf.build_grid(1, 40.0, 160)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    traj = rf.evolve(state, 1e-3, params, rf.SolverConfig())
    assert math.isfinite(traj.records[0].q_ratio) and traj.records[0].q_ratio > 1e60
    with pytest.raises(MatchingError, match="envelope denominator"):
        matching.envelope_worst(traj)
    (res,) = run_checks(("prop_t4",), traj)
    assert res.applicable and res.passed is False
    assert res.slack is None and res.tolerance is None
    assert res.details["reason"].startswith("not evaluable: envelope denominator")
