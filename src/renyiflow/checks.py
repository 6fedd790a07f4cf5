"""Named verification checks evaluated on recorded trajectories.

Each check bundles the inequalities and identities one verdict stands for,
returning measured slacks next to the tolerances they are judged against.
Check names form the config vocabulary (CHECK_NAMES). CHECK_HYPOTHESES
lists, per check, the hypotheses of the params.HYPOTHESES table that every
function its verdict calls requires; `incompatibility` reads that map, and
both the config parser (reject at parse time) and the runner (mark
inapplicable) share it.

This module is the only verdict layer: matching and gn return measurements,
and every tolerance (the named constants below) and pass/fail decision
lives here. Sign and monotonicity clauses use one-sided margins of 1e-3 of
the quantity's own scale (floored at 1e-8), derivative identities use the
relative tolerances stated per clause; `tol_scale` multiplies every tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .barenblatt import BarenblattReference
from .gn import DEFAULT_SEED, deficit_identity_check, extremality_test, gn_constant_report
from .grid import uniform_interior
from .matching import build_delay_report, envelope_worst
from .params import ModelParams, unmet

__all__ = [
    "CHECK_NAMES",
    "CHECK_HYPOTHESES",
    "CheckResult",
    "incompatibility",
    "compatible_checks",
    "run_checks",
]

CHECK_NAMES = (
    "theorem1",
    "theorem2",
    "theorem3",
    "theorem3bis",
    "prop_t4",
    "gn",
    "deficit",
)

# Hypotheses of every function each verdict calls, most specific first so
# that a request like gn at p = 0.4 names the p > 1/2 conversion rather than
# a downstream window. theorem2 judges H against the profile's h_star, which
# is finite only with the profile's second moment; theorem3 reads only the
# drift of tau, so it runs wherever the best match exists, also below
# 1 - 1/d.
CHECK_HYPOTHESES: dict[str, tuple[str, ...]] = {
    "theorem1": ("remainder_window",),
    "theorem2": ("finite_moments",),
    "theorem3": ("finite_moments",),
    "theorem3bis": ("remainder_window", "finite_moments"),
    "prop_t4": ("envelope_window", "finite_moments"),
    "gn": ("gn_conversion", "remainder_window", "finite_moments"),
    "deficit": ("fast_diffusion", "remainder_window", "finite_moments"),
}

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
# (relative to the extremal's quotient), the admissible band for the
# small-amplitude gap growth rate, and the number of seeded perturbations.
GN_CONSTANT_TOL = 1e-3
GN_GAP_TOL_REL = 1e-6
GN_SLOPE_TARGET = 2.0
GN_SLOPE_BAND = 0.3
GN_PERTURBATIONS = 20


@dataclass(frozen=True)
class CheckResult:
    """Verdict of one named check.

    slack is the minimum normalized margin over the check's clauses,
    (tolerance - measured) / tolerance, so positive means every clause
    holds with room and -1 means a clause missed by its full tolerance.
    tolerance is the binding clause's tolerance in its own units; details
    carries every clause's measured value, tolerance, and margin.
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
    reason = unmet(params, *CHECK_HYPOTHESES[name])
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


def _finish(name: str, clauses: dict[str, dict], extra: dict | None = None) -> CheckResult:
    worst = min(clauses.values(), key=lambda c: c["margin"])
    details: dict = {"clauses": clauses}
    if extra:
        details.update(extra)
    return CheckResult(
        name=name,
        applicable=True,
        passed=all(c["passed"] for c in clauses.values()),
        slack=worst["margin"],
        tolerance=worst["tolerance"],
        details=details,
    )


def _sign_tol(scale: float, tol_scale: float) -> float:
    return max(SIGN_TOL_FLOOR, SIGN_TOL_REL * abs(scale)) * tol_scale


def _rate_clause(t, series, target, k) -> float:
    num = (series[k + 1] - series[k - 1]) / (t[k + 1] - t[k - 1])
    return float(np.max(np.abs(num - target[k]) / np.abs(target[k])))


def _check_theorem1(trajectory, params, reference, tol_scale, **_) -> CheckResult:
    """Entropy-production complex: the production identities at recorded
    times, q >= 1, the remainder's regime sign, concavity of F, F strictly
    increasing, and J nonincreasing (with its gap to the extremal value
    reported). These all hang on the same remainder sign, hence one verdict.
    """
    recs = trajectory.records
    t = trajectory.times()
    theta = trajectory.series("theta")
    entropy = trajectory.series("entropy")
    fisher = trajectory.series("fisher")
    gmom = trajectory.series("g_power")
    hren = trajectory.series("h_renyi")
    q = trajectory.series("q_ratio")
    rem = trajectory.series("remainder")
    f = trajectory.series("f_power")
    j = trajectory.series("j_scale")
    ex = reference.exponents
    p = params.p

    clauses: dict[str, dict] = {}
    k = uniform_interior(t)
    if k.size:
        clauses["theta_rate"] = _clause(
            _rate_clause(t, theta, 2.0 * entropy, k), THETA_RATE_TOL * tol_scale)
        clauses["entropy_rate"] = _clause(
            _rate_clause(t, entropy, (1.0 - p) * fisher, k), ENTROPY_RATE_TOL * tol_scale)
        clauses["moment_rate"] = _clause(
            _rate_clause(t, gmom, ex.mu * hren, k), MOMENT_RATE_TOL * tol_scale)
    clauses["q_lower"] = _clause(float(np.max(1.0 - q)), Q_LOWER_TOL * tol_scale)
    # R >= 0 in the fast-diffusion window; for p > 1 both remainder
    # coefficients flip sign, so R <= 0 and the scale ratio still decays.
    signed = rem if p < 1.0 else -rem
    clauses["remainder_sign"] = _clause(
        float(np.max(-signed)), _sign_tol(float(np.max(np.abs(rem))), tol_scale))
    if len(t) >= 3:
        # F is concave in both regimes: -F'' carries sigma * R, whose factors
        # flip sign together across p = 1.
        d2f = f[2:] - 2.0 * f[1:-1] + f[:-2]
        clauses["f_concave"] = _clause(
            float(np.max(d2f / np.abs(f[1:-1]))), SIGN_TOL_REL * tol_scale)
    f_tol = _sign_tol(float(np.max(np.abs(f))), tol_scale)
    clauses["f_increasing"] = _clause(float(np.max(-np.diff(f))), f_tol)
    j_tol = _sign_tol(float(np.max(np.abs(j))), tol_scale)
    clauses["j_monotone"] = _clause(float(np.max(np.diff(j))), j_tol)
    j_rel_gap = abs(j[-1] - reference.j_star) / reference.j_star
    return _finish("theorem1", clauses, {
        "n_rate_windows": int(k.size),
        "n_records": len(recs),
        "j_rel_gap": float(j_rel_gap),
    })


def _check_theorem2(trajectory, params, reference, tol_scale, **_) -> CheckResult:
    """Scale-invariant entropy power: H moves monotonically toward its
    extremal value and stays on the regime's side of it."""
    h = trajectory.series("h_renyi")
    p = params.p

    clauses: dict[str, dict] = {}
    dh = np.diff(h)
    scale = np.maximum(np.abs(h[:-1]), np.abs(h[1:]))
    clauses["h_monotone"] = _clause(
        float(np.max(-(1.0 - p) * dh / scale)), SIGN_TOL_REL * tol_scale)
    h_star = reference.h_star
    side = h - h_star if p < 1.0 else h_star - h
    clauses["h_limit_side"] = _clause(
        float(np.max(side)), SIGN_TOL_REL * abs(h_star) * tol_scale)
    return _finish("theorem2", clauses, {
        "h_final": float(h[-1]),
        "h_star": float(h_star),
    })


def _delay_check(trajectory, params, reference, tol_scale, *, name,
                 delay_report, **_) -> CheckResult:
    report = delay_report()
    tau0 = float(report.tau_series[0])
    tau_tol = SIGN_TOL_REL * abs(tau0) * tol_scale
    clauses: dict[str, dict] = {}
    if name == "theorem3":
        clauses["tau_monotone"] = _clause(report.monotone_worst, tau_tol)
        if report.flat_worst is not None:
            clauses["tau_flat"] = _clause(report.flat_worst, tau_tol)
    elif name == "theorem3bis":
        # drop_slack = measured - bound; nonnegative passes, no extra tolerance
        # beyond the one-sided noise floor.
        clauses["drop_lower_bound"] = _clause(
            -report.drop_slack, _sign_tol(abs(tau0), tol_scale))
    else:  # prop_t4
        env_worst, upper_worst = envelope_worst(trajectory, params, reference)
        clauses["ratio_envelope"] = _clause(env_worst, SIGN_TOL_REL * tol_scale)
        clauses["delay_upper_bound"] = _clause(upper_worst, tau_tol)
    return _finish(name, clauses, {
        "tau0": tau0,
        "drop_bound": report.drop_bound,
        "drop_measured": report.drop_measured,
    })


def _check_gn(trajectory, params, reference, tol_scale, *, gn_seed, **_) -> CheckResult:
    const = gn_constant_report(params, reference)
    ext = extremality_test(params, reference, n_perturbations=GN_PERTURBATIONS,
                           seed=gn_seed)
    clauses: dict[str, dict] = {}
    clauses["constant_dual_path"] = _clause(
        const["rel_discrepancy"], GN_CONSTANT_TOL * tol_scale)
    clauses["perturbation_gap"] = _clause(
        -ext["min_gap"], GN_GAP_TOL_REL * tol_scale * ext["q0"])
    slope_err = (abs(ext["slope"] - GN_SLOPE_TARGET)
                 if math.isfinite(ext["slope"]) else float("inf"))
    clauses["gap_growth_rate"] = _clause(slope_err, GN_SLOPE_BAND * tol_scale)
    return _finish("gn", clauses, {
        "c_gn": const["c_gn"],
        "quotient": const["quotient"],
        "asymptote_form": const["asymptote_form"],
        "theta": const["theta"],
        "q": const["q"],
        "slope": ext["slope"],
        "n_perturbations": ext["n_perturbations"],
        "seed": ext["seed"],
    })


def _check_deficit(trajectory, params, reference, tol_scale, **_) -> CheckResult:
    rep = deficit_identity_check(trajectory, params, reference)
    p_series = rep["p_series"]
    clauses: dict[str, dict] = {}
    p_tol = _sign_tol(float(np.max(np.abs(p_series))), tol_scale)
    clauses["partial_nondecreasing"] = _clause(rep["monotone_worst"], p_tol)
    clauses["budget_bound"] = _clause(
        rep["bound_worst"], BUDGET_TOL_REL * reference.j_star * tol_scale)
    clauses["concavity_rate_identity"] = _clause(
        rep["fpp_worst"], CONCAVITY_RATE_TOL * tol_scale)
    return _finish("deficit", clauses, {
        "partial_final": float(p_series[-1]),
        "raw_final": float(rep["p_raw_series"][-1]),
        "budget": rep["budget"],
        "fraction": rep["fraction"],
        "fpp_windows": rep["fpp_count"],
        "low_confidence": rep["low_confidence"],
    })


_RUNNERS: dict[str, Callable[..., CheckResult]] = {
    "theorem1": _check_theorem1,
    "theorem2": _check_theorem2,
    "theorem3": partial(_delay_check, name="theorem3"),
    "theorem3bis": partial(_delay_check, name="theorem3bis"),
    "prop_t4": partial(_delay_check, name="prop_t4"),
    "gn": _check_gn,
    "deficit": _check_deficit,
}


def run_checks(names, trajectory, params: ModelParams,
               reference: BarenblattReference, tol_scale: float = 1.0,
               expected_tau: float | None = None,
               gn_seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Evaluate named checks in order. theorem3, theorem3bis and prop_t4 read
    one DelayReport, built on first use and shared; only prop_t4 measures
    the envelope inequalities."""
    report = None

    def delay_report():
        nonlocal report
        if report is None:
            report = build_delay_report(trajectory, params, reference,
                                        expected_tau=expected_tau)
        return report

    results = []
    for name in names:
        reason = incompatibility(name, params)
        if reason is not None:
            results.append(CheckResult(name=name, applicable=False, passed=None,
                                       slack=None, tolerance=None,
                                       details={"reason": reason}))
            continue
        results.append(_RUNNERS[name](trajectory, params, reference, tol_scale,
                                      gn_seed=gn_seed, delay_report=delay_report))
    return results
