"""Best-matching self-similar scale, delay, and its two-sided bounds.

The match time s(t) = (Theta(t)/Theta_star)**(mu/2) is the time at which the
self-similar solution has the same second moment as the state; the delay
tau(t) = s(t) - t measures how far the state runs ahead of (p < 1) or behind
(p > 1) the self-similar clock. tau is monotone along the flow, its total
drop admits a quadratic lower bound in the initial data where the remainder
has its sign (p >= 1 - 1/d), and in the fast-diffusion window
1 - 1/d <= p < 1 a moment-ratio envelope gives a computable upper bound on
tau(t). The windows are the params.HYPOTHESES entries.

This module measures; checks turns its worst violations into verdicts.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .barenblatt import BarenblattReference
from .functionals import FunctionalRecord
from .grid import cumulative_trapezoid
from .params import require, unmet

# Relative H-gap and Cauchy-Schwarz slack below which the quadratic drop
# bound is treated as degenerate (initial data already at the profile up to
# discretization noise); the bound there is below quadrature error.
DEGENERATE_REL = 1e-3


class MatchingError(RuntimeError):
    """Raised when a matching search or bound evaluation degenerates."""


def delay_lower_bound(record0: FunctionalRecord, reference: BarenblattReference,
                      h_prime: float) -> float:
    """Quadratic lower bound on the total delay drop |tau(0) - tau(inf)|.

    The drop equals (1/H_star) * integral of (H_star - H(t)); since the gap
    closes at initial rate H'(0) and |tau(0)-tau(t)| is nondecreasing, the
    triangle with base t_star = (H_star - H(0))/H'(0) and height the initial
    gap is always captured:

        bound = t_star * |H_star - H(0)| / (2 H_star).

    h_prime is the measured initial slope H'(0); build_delay_report reads it
    off the first recorded interval. Initial data already at the profile up
    to discretization noise (relative H-gap or Cauchy-Schwarz slack below
    DEGENERATE_REL) return 0.0 rather than a 0/0 artifact.
    """
    require(reference.params, "delay drop bound", "remainder_window", "finite_moments")
    d = reference.params.d
    h_star = reference.h_star
    gap = h_star - record0.h_renyi
    denom = record0.theta * record0.fisher - d * record0.entropy**2
    if (abs(gap) <= DEGENERATE_REL * h_star or denom <= DEGENERATE_REL * d * record0.entropy**2
            or h_prime == 0.0):
        return 0.0
    t_star = gap / h_prime
    if t_star <= 0.0:
        # measured slope contradicts the monotone direction: noise floor
        return 0.0
    return t_star * abs(gap) / (2.0 * h_star)


def q_envelope(q0: float, theta0: float, theta_t: float | np.ndarray) -> float | np.ndarray:
    """Envelope q_bar(t) = q0 theta(t) / (q0 theta(t) - (q0 - 1) theta0),
    at each second moment theta_t (a float for a float).

    Decreases from q0 toward 1 as the second moment grows; dominates the
    trajectory's moment/entropy/information ratio in the fast-diffusion
    window. The elementwise operations give each entry the bits of its own
    scalar call.
    """
    if q0 < 1.0 - 1e-9:
        raise ValueError(f"envelope needs q0 >= 1, got {q0}")
    theta_t = np.asarray(theta_t, dtype=float)
    if theta0 <= 0.0 or (theta_t <= 0.0).any():
        raise ValueError("second moments must be positive")
    denom = q0 * theta_t - (q0 - 1.0) * theta0
    if (denom <= 0.0).any():
        raise MatchingError(
            "envelope denominator nonpositive: second moment decreased "
            "below the admissible range (numerical violation)"
        )
    qbar = q0 * theta_t / denom
    return qbar if qbar.ndim else float(qbar)


def _records_of(trajectory) -> Sequence[FunctionalRecord]:
    recs = trajectory.records
    if len(recs) < 2:
        raise ValueError("need at least two records")
    return recs


def _upper_series(trajectory, qbar: np.ndarray) -> np.ndarray:
    """Integral upper bound on tau at each recorded time.

        tau(t) <= tau0 * exp( int_0^t ds / (s + Theta0/(mu E0)
                              - (eta/mu) int_0^s (q_bar - 1)) ) - t

    evaluated with trapezoid rules on the recorded time stamps. For data
    starting on the self-similar solution q_bar == 1 and the log integral
    telescopes to tau(t) = tau0 exactly. Raises MatchingError if the inner
    denominator becomes nonpositive (recording cadence too coarse).
    """
    ex = trajectory.reference.exponents
    rec0 = trajectory.records[0]
    t = trajectory.series("t") - rec0.t
    inner = cumulative_trapezoid(qbar - 1.0, t)
    denom = t + rec0.theta / (ex.mu * rec0.entropy) - (ex.eta / ex.mu) * inner
    if (denom <= 0.0).any():
        raise MatchingError(
            "inner denominator of the delay bound became nonpositive; "
            "record more often"
        )
    outer = cumulative_trapezoid(1.0 / denom, t)
    return rec0.tau * np.exp(outer) - t


def envelope_worst(trajectory) -> tuple[float, float]:
    """Largest violations (positive = violated) over the recorded times of
    q <= q_bar, the envelope from the initial record, and of tau <= its
    integral upper bound."""
    require(trajectory.reference.params, "delay envelope", "envelope_window",
            "finite_moments")
    rec0 = _records_of(trajectory)[0]
    qbar = q_envelope(rec0.q_ratio, rec0.theta, trajectory.series("theta"))
    q = trajectory.series("q_ratio")
    tau = trajectory.series("tau")
    return (float((q - qbar).max()),
            float((tau - _upper_series(trajectory, qbar)).max()))


@dataclass(frozen=True)
class DelayReport:
    """Delay measurements of one trajectory. Each *_worst is the largest
    violation of its inequality (positive = violated): the wrong-way step
    of tau and |tau - expected_tau| (None unless given). The drop bound
    needs the remainder-sign window; outside it the drop fields are None.
    The envelope inequalities are measured by envelope_worst."""

    tau_series: np.ndarray
    monotone_worst: float
    flat_worst: float | None
    drop_bound: float | None
    drop_measured: float      # |tau(0) - tau(T)|
    drop_slack: float | None  # drop_measured - drop_bound


def build_delay_report(trajectory, expected_tau: float | None = None) -> DelayReport:
    """Measure the delay inequalities on one recorded trajectory.

    The initial slope H'(0) entering the drop bound is estimated from the
    first recorded interval. Tolerances and verdicts belong to checks.
    """
    params = trajectory.reference.params
    require(params, "delay report", "finite_moments")
    recs = _records_of(trajectory)
    tau = trajectory.series("tau")

    dtau = np.diff(tau)
    # p < 1: tau nonincreasing; p > 1: tau nondecreasing
    monotone_worst = float(dtau.max()) if params.p < 1.0 else float(-dtau.min())
    flat_worst = None
    if expected_tau is not None:
        flat_worst = float(np.abs(tau - expected_tau).max())

    measured = abs(tau[0] - tau[-1])
    bound = drop_slack = None
    if unmet(params, "remainder_window") is None:
        h_prime = (recs[1].h_renyi - recs[0].h_renyi) / (recs[1].t - recs[0].t)
        bound = delay_lower_bound(recs[0], trajectory.reference, h_prime=h_prime)
        drop_slack = measured - bound

    return DelayReport(
        tau_series=tau, monotone_worst=monotone_worst, flat_worst=flat_worst,
        drop_bound=bound, drop_measured=measured, drop_slack=drop_slack,
    )
