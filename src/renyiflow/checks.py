"""Named verification checks evaluated on recorded trajectories.

Each check bundles the inequalities and identities one verdict stands for,
returning measured slacks next to the tolerances they are judged against.
CHECKS is the one table of checks: per name, the hypotheses of the
params.HYPOTHESES table that every function its verdict calls requires, and
the function that measures it. Its names form the config vocabulary
(CHECK_NAMES); `incompatibility` reads its hypotheses, and both the config
parser (reject at parse time) and the runner (mark inapplicable) share it.

This module is the only verdict layer: matching and gn return measurements,
and every tolerance (the named constants below) and pass/fail decision
lives here. Sign and monotonicity clauses use one-sided margins of 1e-3 of
the quantity's own scale (floored at 1e-8), derivative identities use the
relative tolerances stated per clause. Each check reads the trajectory
alone (its records and reference) and returns its clauses as
(measured, tolerance) pairs; run_checks judges every clause, in one place,
against tolerance * tol_scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .gn import DEFAULT_SEED, deficit_identity_check, extremality_test, gn_constant_report
from .grid import uniform_interior
from .matching import MatchingError, build_delay_report, envelope_worst
from .params import ModelParams, unmet

__all__ = [
    "CHECKS",
    "CHECK_NAMES",
    "CheckResult",
    "incompatibility",
    "compatible_checks",
    "run_checks",
]

# Derivative identities (theorem1) judge centered differences against these
# relative tolerances; the entropy production carries the largest
# discretization error of the three because I is a gradient quadrature.
THETA_RATE_TOL = 1e-2
ENTROPY_RATE_TOL = 2e-2
MOMENT_RATE_TOL = 1e-2

# One-sided floor for q >= 1 at recorded times.
Q_LOWER_TOL = 1e-6

# deficit: overshoot of the budget J(0) - j_star as a fraction of j_star,
# and the relative tolerance of the -F'' identity on resolved windows.
BUDGET_TOL_REL = 1e-3
CONCAVITY_RATE_TOL = 5e-2

# One-sided scale fractions for concavity / monotonicity clauses.
SIGN_TOL_REL = 1e-3
SIGN_TOL_FLOOR = 1e-8

# gn clause gates: dual-path constant agreement, perturbation gap floor
# (relative to the extremal's quotient) and the admissible band for the
# small-amplitude gap growth rate.
GN_CONSTANT_TOL = 1e-3
GN_GAP_TOL_REL = 1e-6
GN_SLOPE_TARGET = 2.0
GN_SLOPE_BAND = 0.3


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one named check.

    slack is the minimum normalized margin over the check's clauses,
    (tolerance - measured) / tolerance, so positive means every clause
    holds with room and -1 means a clause missed by its full tolerance.
    tolerance is the binding clause's tolerance in its own units; details
    carries every clause's measured value, tolerance, and margin. A check
    that does not apply, or whose measurement cannot be evaluated on the
    trajectory, has no clauses: slack and tolerance are None and
    details["reason"] says why (passed is None and False respectively).
    """

    name: str
    applicable: bool
    passed: bool | None
    slack: float | None
    tolerance: float | None
    details: dict


def incompatibility(name: str, params: ModelParams) -> str | None:
    """The violated hypothesis keeping `name` from running at (d, p), or None."""
    if name not in CHECK_NAMES:
        raise ValueError(f"unknown check {name!r}; valid names: {', '.join(CHECK_NAMES)}")
    reason = unmet(params, *CHECKS[name][0])
    return None if reason is None else f"{name} needs {reason}"


def compatible_checks(params: ModelParams) -> tuple[str, ...]:
    """The subset of CHECK_NAMES that can run at (d, p); expansion of 'all'."""
    return tuple(n for n in CHECK_NAMES if incompatibility(n, params) is None)


def _clause(measured: float, tolerance: float) -> dict:
    margin = (tolerance - measured) / tolerance if tolerance > 0.0 else float("-inf")
    return {
        "measured": float(measured),
        "tolerance": float(tolerance),
        "margin": float(margin),
        "passed": bool(measured <= tolerance),
    }


# A check's clauses before judgement: name -> (measured, tolerance), the
# tolerance at tol_scale = 1.
Clauses = dict[str, tuple[float, float]]


def _finish(name: str, clauses: Clauses, extra: dict, tol_scale: float) -> CheckResult:
    judged = {key: _clause(measured, tolerance * tol_scale)
              for key, (measured, tolerance) in clauses.items()}
    worst = min(judged.values(), key=lambda c: c["margin"])
    return CheckResult(
        name=name,
        applicable=True,
        passed=all(c["passed"] for c in judged.values()),
        slack=worst["margin"],
        tolerance=worst["tolerance"],
        details={"clauses": judged, **extra},
    )


def _sign_tol(scale: float) -> float:
    return max(SIGN_TOL_FLOOR, SIGN_TOL_REL * abs(scale))


def _rate_clause(t, series, target, k) -> float:
    num = (series[k + 1] - series[k - 1]) / (t[k + 1] - t[k - 1])
    return float(np.max(np.abs(num - target[k]) / np.abs(target[k])))


def _check_theorem1(trajectory, **_) -> tuple[Clauses, dict]:
    """Entropy-production complex: the production identities at recorded
    times, q >= 1, the remainder's regime sign, concavity of F, F strictly
    increasing, and J nonincreasing (with its gap to the extremal value
    reported). These all hang on the same remainder sign, hence one verdict.
    The identities and the concavity of F are judged on the windows between
    two equal record intervals (grid.uniform_interior).
    """
    t = trajectory.series("t")
    theta = trajectory.series("theta")
    entropy = trajectory.series("entropy")
    fisher = trajectory.series("fisher")
    gmom = trajectory.series("g_power")
    hren = trajectory.series("h_renyi")
    q = trajectory.series("q_ratio")
    rem = trajectory.series("remainder")
    f = trajectory.series("f_power")
    j = trajectory.series("j_scale")
    reference = trajectory.reference
    ex = reference.exponents
    p = reference.params.p

    clauses: Clauses = {}
    k = uniform_interior(t)
    if k.size:
        clauses["theta_rate"] = (_rate_clause(t, theta, 2.0 * entropy, k), THETA_RATE_TOL)
        clauses["entropy_rate"] = (
            _rate_clause(t, entropy, (1.0 - p) * fisher, k), ENTROPY_RATE_TOL)
        clauses["moment_rate"] = (_rate_clause(t, gmom, ex.mu * hren, k), MOMENT_RATE_TOL)
    clauses["q_lower"] = (float(np.max(1.0 - q)), Q_LOWER_TOL)
    # R >= 0 in the fast-diffusion window; for p > 1 both remainder
    # coefficients flip sign, so R <= 0 and the scale ratio still decays.
    signed = rem if p < 1.0 else -rem
    clauses["remainder_sign"] = (
        float(np.max(-signed)), _sign_tol(float(np.max(np.abs(rem)))))
    if k.size:
        # F is concave in both regimes: -F'' carries sigma * R, whose factors
        # flip sign together across p = 1. The plain second difference has
        # the sign of F'' only between equal intervals.
        d2f = f[k + 1] - 2.0 * f[k] + f[k - 1]
        clauses["f_concave"] = (float(np.max(d2f / np.abs(f[k]))), SIGN_TOL_REL)
    clauses["f_increasing"] = (
        float(np.max(-np.diff(f))), _sign_tol(float(np.max(np.abs(f)))))
    clauses["j_monotone"] = (
        float(np.max(np.diff(j))), _sign_tol(float(np.max(np.abs(j)))))
    j_rel_gap = abs(j[-1] - reference.j_star) / reference.j_star
    return clauses, {
        "n_rate_windows": int(k.size),
        "n_records": len(trajectory.records),
        "j_rel_gap": float(j_rel_gap),
    }


def _check_theorem2(trajectory, **_) -> tuple[Clauses, dict]:
    """Scale-invariant entropy power: H moves monotonically toward its
    extremal value and stays on the regime's side of it."""
    h = trajectory.series("h_renyi")
    p = trajectory.reference.params.p
    h_star = trajectory.reference.h_star

    dh = np.diff(h)
    scale = np.maximum(np.abs(h[:-1]), np.abs(h[1:]))
    side = h - h_star if p < 1.0 else h_star - h
    clauses: Clauses = {
        "h_monotone": (float(np.max(-(1.0 - p) * dh / scale)), SIGN_TOL_REL),
        "h_limit_side": (float(np.max(side)), SIGN_TOL_REL * abs(h_star)),
    }
    return clauses, {
        "h_final": float(h[-1]),
        "h_star": float(h_star),
    }


def _delay_check(trajectory, *, name, delay_report, **_) -> tuple[Clauses, dict]:
    report = delay_report()
    tau0 = float(report.tau_series[0])
    tau_tol = SIGN_TOL_REL * abs(tau0)
    clauses: Clauses = {}
    if name == "theorem3":
        clauses["tau_monotone"] = (report.monotone_worst, tau_tol)
        if report.flat_worst is not None:
            clauses["tau_flat"] = (report.flat_worst, tau_tol)
    elif name == "theorem3bis":
        # drop_slack = measured - bound; nonnegative passes, no extra tolerance
        # beyond the one-sided noise floor.
        clauses["drop_lower_bound"] = (-report.drop_slack, _sign_tol(abs(tau0)))
    else:  # prop_t4
        env_worst, upper_worst = envelope_worst(trajectory)
        clauses["ratio_envelope"] = (env_worst, SIGN_TOL_REL)
        clauses["delay_upper_bound"] = (upper_worst, tau_tol)
    return clauses, {
        "tau0": tau0,
        "drop_bound": report.drop_bound,
        "drop_measured": report.drop_measured,
    }


def _check_gn(trajectory, *, gn_seed, **_) -> tuple[Clauses, dict]:
    const = gn_constant_report(trajectory.reference)
    ext = extremality_test(trajectory.reference, seed=gn_seed)
    slope_err = (abs(ext["slope"] - GN_SLOPE_TARGET)
                 if math.isfinite(ext["slope"]) else float("inf"))
    clauses: Clauses = {
        "constant_dual_path": (const["rel_discrepancy"], GN_CONSTANT_TOL),
        "perturbation_gap": (-ext["min_gap"], GN_GAP_TOL_REL * ext["q0"]),
        "gap_growth_rate": (slope_err, GN_SLOPE_BAND),
    }
    return clauses, {
        "c_gn": const["c_gn"],
        "quotient": const["quotient"],
        "asymptote_form": const["asymptote_form"],
        "theta": const["theta"],
        "q": const["q"],
        "slope": ext["slope"],
        "n_perturbations": ext["n_perturbations"],
        "seed": ext["seed"],
    }


def _check_deficit(trajectory, **_) -> tuple[Clauses, dict]:
    rep = deficit_identity_check(trajectory)
    p_series = rep["p_series"]
    clauses: Clauses = {
        "partial_nondecreasing": (
            rep["monotone_worst"], _sign_tol(float(np.max(np.abs(p_series))))),
        "budget_bound": (rep["bound_worst"], BUDGET_TOL_REL * trajectory.reference.j_star),
        "concavity_rate_identity": (rep["fpp_worst"], CONCAVITY_RATE_TOL),
    }
    return clauses, {
        "partial_final": float(p_series[-1]),
        "raw_final": float(rep["p_raw_series"][-1]),
        "budget": rep["budget"],
        "fraction": rep["fraction"],
        "fpp_windows": rep["fpp_count"],
        "low_confidence": rep["low_confidence"],
    }


# name -> (hypotheses, measurement), in the order reports list checks. The
# hypotheses are those of every function the verdict calls, most specific
# first so that a request like gn at p = 0.4 names the p > 1/2 conversion
# rather than a downstream window. theorem2 judges H against the profile's
# h_star, which is finite only with the profile's second moment; theorem3
# reads only the drift of tau, so it runs wherever the best match exists,
# also below 1 - 1/d.
CHECKS: dict[str, tuple[tuple[str, ...], Callable[..., tuple[Clauses, dict]]]] = {
    "theorem1": (("remainder_window",), _check_theorem1),
    "theorem2": (("finite_moments",), _check_theorem2),
    "theorem3": (("finite_moments",), partial(_delay_check, name="theorem3")),
    "theorem3bis": (("remainder_window", "finite_moments"),
                    partial(_delay_check, name="theorem3bis")),
    "prop_t4": (("envelope_window", "finite_moments"), partial(_delay_check, name="prop_t4")),
    "gn": (("gn_conversion", "remainder_window", "finite_moments"), _check_gn),
    "deficit": (("fast_diffusion", "remainder_window", "finite_moments"), _check_deficit),
}
CHECK_NAMES = tuple(CHECKS)


def run_checks(names, trajectory, tol_scale: float = 1.0,
               expected_tau: float | None = None,
               gn_seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Evaluate named checks on one trajectory, in order, at the (d, p) of
    its reference, judging every clause against its tolerance times
    tol_scale. theorem3, theorem3bis and prop_t4 read one DelayReport,
    built on first use and shared; only prop_t4 measures the envelope
    inequalities."""
    delay_report = cache(lambda: build_delay_report(trajectory, expected_tau=expected_tau))

    params = trajectory.reference.params
    results = []
    for name in names:
        reason = incompatibility(name, params)
        if reason is not None:
            results.append(CheckResult(name=name, applicable=False, passed=None,
                                       slack=None, tolerance=None,
                                       details={"reason": reason}))
            continue
        try:
            clauses, extra = CHECKS[name][1](trajectory, gn_seed=gn_seed,
                                             delay_report=delay_report)
        except MatchingError as e:
            # e.g. prop_t4's envelope denominator with no digits left when
            # q(0) is huge: the claim is not verified, so the check fails
            results.append(CheckResult(name=name, applicable=True, passed=False,
                                       slack=None, tolerance=None,
                                       details={"reason": f"not evaluable: {e}"}))
            continue
        results.append(_finish(name, clauses, extra, tol_scale))
    return results
