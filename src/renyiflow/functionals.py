"""Integral functionals of radial densities and their scale-invariant ratios.

All quantities are discretized on the same finite-volume grid the solver
uses: cell averages for volume integrals, face-centered differences for
gradient integrals. The moment/entropy/information ratio q_ratio is computed
by a discretization that mirrors the continuum Cauchy-Schwarz argument
term-for-term over a single set of face weights, so q_ratio >= 1 holds for
every nonnegative state by construction (up to round-off), not just in the
continuum limit.

diagnostics is the one public path to the per-record functionals. It
takes a block of k states on one grid, and each functional's formula lives
in one private kernel that takes the (k, n) arrays it reads (u**p, the
potential v, the live-face mask, ...) as arguments, with per-record
scalars as (k, 1) columns: one numpy call serves k records, whose fixed
call cost would otherwise dominate at n ~ 1000. diagnostics builds each of
those arrays once per block and feeds every kernel, and the grid-only
arrays come cached from RadialGrid. A row's results do not depend on its
block: sums run along rows (pairwise, as on a lone array), dot products
are np.vecdot (one ddot per row), and sums over a masked subset of a row
are taken row by row. The kernels assume their caller has silenced divide
and invalid warnings: vacuum cells make v infinite, and the masks then
discard those faces.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial

import numpy as np

from ._pow import pow_fn
from .barenblatt import BarenblattReference
from .grid import DensityState, RadialGrid, sphere_area
from .params import ModelParams, require, unmet

# Cells below this fraction of max(u) are excluded from second-derivative
# stencils; their v = p/(p-1) u**(p-1) values are dominated by floor noise,
# and 1e-6 clips a few percent. The cut also keeps the zero-flux wall's mass
# pile-up of fast-diffusion runs out of R: on the fd3_mixture run (Euler
# steps at cfl 0.85) a cut at 1e-28 leaves the windows at t <= 1.5 as they
# are but moves the -F'' target at t = 3 from 3.12e-4 to 6.74e-4, and with
# no cut the concavity-rate clause reads 0.080. So late in such runs R
# depends on this level.
REMAINDER_MASK_REL = 1e-12
# Faces where either cell sits below this fraction of max(u) are excluded
# from gradient quadratures unless their log-slope is neighbor-consistent
# (see _live_faces). The advancing tail front leaves per-step transport
# noise many decades below the smooth profile (the smooth/rough transition
# sits near 1e-20 of max); fractional powers of u amplify those steps into
# O(1) slopes of u**(p-1/2) while the true integrand there is below
# working precision.
DUST_REL = 1e-15
# A face counts as smooth when its log-slope differs from a neighboring
# face's by at most this fraction; genuine profiles vary by O(dr/r) per
# face (a few percent here) while front noise alternates flat/cliff.
SMOOTH_SLOPE_REL = 0.25
# Fraction of the fallback Fisher sum allowed to come from floored cells
# before the value is flagged as unreliable.
FISHER_FLOOR_SHARE = 0.01
# Share of the remainder quadrature near the support edge (p > 1) that
# triggers the boundary-accuracy flag.
REMAINDER_BOUNDARY_SHARE = 0.10
# E's far-field tail is fitted only on runs whose fit window starts at least
# this many root-mean-square radii out, at the widest the run can reach
# (whole_space_entropy). There u r**(2/(1-p)) of the self-similar profile
# is within 1/FAR_FIELD_BULK_FACTOR**2 of its limit A at d = 3, p = 2/3,
# whose root-mean-square radius is sqrt(3) times its core radius.
FAR_FIELD_BULK_FACTOR = 10.0


@dataclass(frozen=True)
class FunctionalRecord:
    """One diagnostic snapshot along a trajectory.

    Invariants (exact by construction, so they recompose to ~1e-12):
    h_renyi = theta**(-eta/2) * entropy and j_scale = entropy**(sigma-1) * fisher.
    """

    t: float
    dt: float
    mass: float
    theta: float
    entropy: float
    fisher: float
    f_power: float
    g_power: float
    h_renyi: float
    j_scale: float
    q_ratio: float
    s_match: float
    tau: float
    rel_entropy: float
    remainder: float
    tail_frac: float
    flags: tuple[str, ...] = ()


# Divide/invalid warnings the kernels' masked-out cells raise; one block per
# entry point, since entering np.errstate costs about 3 us.
_quiet = partial(np.errstate, divide="ignore", invalid="ignore")


def _potential(g: RadialGrid, u: np.ndarray,
               p: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v = p/(p-1) u**(p-1) (infinite on vacuum cells when p < 1), its
    differences across the n-1 interior faces, and its face slopes."""
    v = (p / (p - 1.0)) * pow_fn(p - 1.0)(u)
    dv = v[:, 1:] - v[:, :-1]
    return v, dv, dv / g.center_gaps


def _second_moment(g: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Theta = (1/d) integral of |x|^2 u of the cell averages u, per row of a
    block (a scalar for one state's u)."""
    return np.vecdot(u, g.moment_weights) / g.d


def _live_faces(u: np.ndarray, u_max: np.ndarray, drc: np.ndarray) -> np.ndarray:
    """Faces admitted to gradient quadratures.

    A face is live when both cells sit above DUST_REL * max(u), or below
    that level but with a log-slope within SMOOTH_SLOPE_REL of a
    neighboring face's. The level cut alone would also discard the genuine
    power-law tail of fast-diffusion states, whose gradient integrals
    converge slowly in radius; those faces are smooth while front noise
    alternates between flat and cliff faces, so neighbor consistency
    separates signal from noise independently of level.
    """
    above = u >= DUST_REL * u_max
    level = above[:, :-1] & above[:, 1:]
    if u.shape[1] < 3:
        return level
    log_u = np.log(u)
    slopes = log_u[:, 1:] - log_u[:, :-1]
    slopes /= drc
    jump = np.abs(slopes[:, 1:] - slopes[:, :-1])
    dev = np.empty_like(slopes)
    dev[:, 0] = jump[:, 0]
    dev[:, -1] = jump[:, -1]
    np.minimum(jump[:, :-1], jump[:, 1:], out=dev[:, 1:-1])
    smooth = np.isfinite(slopes) & (dev <= SMOOTH_SLOPE_REL * np.abs(slopes))
    return level | smooth


def _fisher(g: RadialGrid, u: np.ndarray, u_max: np.ndarray, live: np.ndarray,
            params: ModelParams) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """I = integral u |grad v|^2, v = p/(p-1) u**(p-1).

    For p > 1/2 this is written as (2p/(2p-1))^2 integral |grad u**(p-1/2)|^2,
    which stays finite cell-by-cell even where u underflows to zero. For
    p <= 1/2 that substitution is unavailable and the integrand u**(2p-3)
    |grad u|^2 needs a floor on u; the result is flagged when floored cells
    carry more than FISHER_FLOOR_SHARE of the sum.

    Some data have no finite I at all. At p = 0.4 a Gaussian u = exp(-r^2)
    has the integrand p^2 4 r^2 exp(0.2 r^2), so its whole-space I is
    infinite and the box's is set by its outermost cells. The enormous q of
    such a datum (4.8e65 at t = 0 for d = 1, r_max = 40, 160 cells) is the
    datum's, not the live-face mask's: dropping the faces of subnormal
    cells from _live_faces only moves it to 2.1e63.
    """
    p = params.p
    drc = g.center_gaps
    if unmet(params, "gn_conversion") is None:
        wt = pow_fn(p - 0.5)(u)
        slope = np.where(live, (wt[:, 1:] - wt[:, :-1]) / drc, 0.0)
        coef = (2.0 * p / (2.0 * p - 1.0)) ** 2
        return coef * np.vecdot(slope * slope, g.gap_weights), [()] * u.shape[0]
    floor = 1e-10 * u_max
    uf = 0.5 * (u[:, :-1] + u[:, 1:])
    floored = live & (uf < floor)
    uf_safe = np.maximum(uf, floor)
    slope = np.where(live, (u[:, 1:] - u[:, :-1]) / drc, 0.0)
    contrib = (p * p) * uf_safe ** (2.0 * p - 3.0) * slope * slope * g.gap_weights
    total = contrib.sum(axis=1)
    # the floored share sums the selected faces alone, row by row: a masked
    # row sum would group the pairwise summation differently
    flags = [("fisher_floor",) if t > 0.0 and float(c[f].sum()) > FISHER_FLOOR_SHARE * t
             else () for c, f, t in zip(contrib, floored, total.tolist())]
    return total, flags


def _q_ratio(g: RadialGrid, u: np.ndarray, w: np.ndarray, dv: np.ndarray,
             v_slope: np.ndarray, live: np.ndarray) -> tuple[list[float], list[tuple[str, ...]]]:
    """q = Theta * I / (d * E^2) discretized so that q >= 1 is exact.

    Over live interior faces, using the mean-value face density
    u_f = (u_+^p - u_-^p) / (v_+ - v_-) (the exact chain-rule factor
    turning grad v into grad u**p) and the face slope g_f = (v_+ - v_-)/dr,
    the three sums

        A = sum W u_f r_f^2,  B = sum W u_f g_f^2,  S = sum W u_f r_f g_f

    are the quadratures of d*Theta, I, and integral(u x.grad v) = -d*E with
    a common positive weight, so S^2 <= A B is the Cauchy-Schwarz inequality
    of finite sums and q = A B / S^2 >= 1 identically. Faces where v is
    infinite or flat (pairs of vacuum cells) are masked. Each row's g_f is
    divided by 2**(e//2), e the binary exponent of its max|g_f|, before
    squaring: q is homogeneous of degree zero in g_f and a power of two
    scales exactly, so q keeps its value while steep tail faces
    (|g_f| ~ 2e192 in a d = 1, p = 0.4 Gaussian) do not overflow B.
    """
    dw = w[:, 1:] - w[:, :-1]
    sloped = live & np.isfinite(dv) & (dv != 0.0)
    flat = live & ~sloped
    uf = np.divide(dw, dv, out=np.zeros_like(dv), where=sloped)
    np.copyto(uf, u[:, :-1], where=flat)
    gf = np.where(sloped, v_slope, 0.0)
    gf *= np.array([[2.0 ** -(math.frexp(x)[1] // 2)] for x in np.abs(gf).max(axis=1).tolist()])

    wu = g.gap_weights * uf
    a = np.vecdot(wu, g.gap_mids_sq).tolist()
    b = np.vecdot(wu, gf * gf).tolist()
    s = np.vecdot(wu, g.gap_mids * gf).tolist()
    q = [ai * bi / (si * si) if si != 0.0 else math.inf for ai, bi, si in zip(a, b, s)]
    return q, [() if si != 0.0 else ("q_degenerate",) for si in s]


def _remainder(g: RadialGrid, u: np.ndarray, u_max: np.ndarray, w: np.ndarray,
               v: np.ndarray, v_slope: np.ndarray, entropy: np.ndarray,
               params: ModelParams) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """R = E [(sigma-1) int u^p (lap v - m)^2 + 2/(1-p) int u^p |D^2v - (lap v/d) Id|^2].

    v = p/(p-1) u**(p-1); m is the u^p-weighted mean of lap v over the
    stencil mask, which makes the first term a true variance (it vanishes
    identically on the self-similar profile, whose v is quadratic in r).
    Radial form of the traceless Hessian norm: (1 - 1/d)(v'' - v'/r)^2; the
    anisotropy term is identically zero for d = 1.

    Nonnegative in the fast-diffusion range (sigma >= 1), nonpositive for
    p > 1. Cells below REMAINDER_MASK_REL * max(u) are excluded; for p > 1
    the result is flagged when stencils within three cells of the support
    edge carry more than REMAINDER_BOUNDARY_SHARE of the quadrature.
    """
    p = params.p
    d = params.d
    k, n = u.shape
    if n < 3:
        raise ValueError("remainder needs at least 3 cells")
    sigma = 2.0 / (d * (1.0 - p)) - 1.0

    mask = u >= REMAINDER_MASK_REL * u_max
    c = g.centers
    h_m, h_p, h_sum = g.stencil_gaps
    # one-sided slopes of v on either side of each cell, two views of one
    # array: the inner one of cell 0 uses the even reflection v(-r) = v(r),
    # the outer one of the last cell has no neighbor
    slopes = np.empty((k, n + 1))
    slopes[:, 1:n] = v_slope
    slopes[:, 0] = (v[:, 0] - v[:, 0]) / h_m[0]
    slopes[:, n] = np.nan
    slope_m, slope_p = slopes[:, :-1], slopes[:, 1:]

    # cells whose stencil (the cell and its neighbors) is unmasked
    pairs = mask[:, :-1] & mask[:, 1:]
    valid = np.zeros((k, n), dtype=bool)
    valid[:, 0] = pairs[:, 0]
    np.logical_and(pairs[:, :-1], pairs[:, 1:], out=valid[:, 1:-1])

    # masked-out cells may overflow; np.where(valid, ...) discards them. The
    # in-place steps are the operations of v1 = (h_m s_p + h_p s_m) / h_sum,
    # v2 = 2 (s_p - s_m) / h_sum and lap = v2 + (d - 1) v1 / r, in order.
    with np.errstate(over="ignore"):
        v1 = h_m * slope_p
        v1 += h_p * slope_m
        v1 /= h_sum
        v2 = slope_p - slope_m
        v2 *= 2.0
        v2 /= h_sum
        lap = (d - 1) * v1
        lap /= c
        lap += v2
        aniso_sq = None
        if d > 1:
            aniso_sq = v1 / c
            np.subtract(v2, aniso_sq, out=aniso_sq)
            aniso_sq = np.where(valid, np.square(aniso_sq, out=aniso_sq), 0.0)

    wgt = np.where(valid, w * g.volumes, 0.0)
    lap_v = np.where(valid, lap, 0.0)
    e_masked = wgt.sum(axis=1)
    # rows with e_masked <= 0 divide by zero here; they read 0 below
    m_hat = np.vecdot(wgt, lap_v) / e_masked
    spread = lap_v - m_hat[:, None]
    np.square(spread, out=spread)
    var_term = np.vecdot(wgt, spread)
    aniso_term = 0.0
    if aniso_sq is not None:
        aniso_term = (1.0 - 1.0 / d) * np.vecdot(wgt, aniso_sq)
    empty = e_masked <= 0.0
    value = np.where(empty, 0.0, entropy * (
        (sigma - 1.0) * var_term + (2.0 / (1.0 - p)) * aniso_term))

    flags: list[tuple[str, ...]] = [("remainder_empty",) if e else () for e in empty.tolist()]
    if p > 1.0:
        contrib = wgt * abs(sigma - 1.0) * spread
        if aniso_sq is not None:
            contrib = contrib + wgt * abs(2.0 / (1.0 - p)) * (1.0 - 1.0 / d) * aniso_sq
        total = contrib.sum(axis=1).tolist()
        # cells whose 3-wide neighborhood touches a masked-out cell
        near = np.zeros((k, n), dtype=bool)
        bad = ~mask
        for off in range(-3, 4):
            lo = max(0, -off)
            hi = n - max(0, off)
            near[:, lo:hi] |= bad[:, lo + off:hi + off]
        edge = valid & near
        for i in np.flatnonzero(~empty).tolist():
            # the edge share sums the selected cells alone, row by row (see
            # _fisher)
            if total[i] > 0.0 and (float(contrib[i][edge[i]].sum()) / total[i]
                                   > REMAINDER_BOUNDARY_SHARE):
                flags[i] = ("remainder_boundary",)
    return value, flags


def _relative_entropy(g: RadialGrid, u: np.ndarray, up: np.ndarray, s: list[float],
                      p: float, reference: BarenblattReference) -> np.ndarray:
    """Per row of u (up = u**p), the Bregman divergence of the entropy
    between u and the self-similar solution at that row's time s:
    1/(p-1) int [u^p - U^p - p U^(p-1) (u - U)].

    The integrand is pointwise nonnegative for every p in the admissible
    range, so the value is a genuine divergence (zero iff u = U a.e.).
    """
    for si in s:
        if not si > 0.0:
            raise ValueError(f"match time must be positive, got {si}")
    cap_u = reference.self_similar(g.centers, s)
    cap_up = pow_fn(p)(cap_u)
    # in place, the operations of
    # (u**p - U**p - p U**(p-1) (u - U)) / (p - 1) in order
    if p > 1.0:
        slope = p * pow_fn(p - 1.0)(cap_u)
    else:
        # U > 0 everywhere in the fast-diffusion range, so U**(p-1) is finite
        slope = p * cap_up
        slope /= cap_u
    slope *= u - cap_u
    integrand = up - cap_up
    integrand -= slope
    integrand /= p - 1.0
    return np.vecdot(integrand, g.volumes)


def whole_space_entropy(state: DensityState, reference: BarenblattReference,
                        t_end: float) -> bool:
    """Whether the records of a run from state to t_end read E over the
    whole space (diagnostics' whole_space), decided once per run so the
    tail cannot switch on or off between records.

    Yes for fast diffusion in the remainder window with finite moments when
    the fit window [r_c/10, r_c) of _whole_space_entropy starts at least
    FAR_FIELD_BULK_FACTOR times beyond the root-mean-square radius
    sqrt(d theta* s**(2/mu)) of the matched profile at s = s0 + t_end - t0,
    s0 the datum's match time: the delay s - t does not grow for p < 1, so
    no record's match time exceeds that s. A small box, whose window holds
    the bulk of the density, keeps the box E.
    """
    if unmet(reference.params, "fast_diffusion", "remainder_window",
             "finite_moments") is not None:
        return False
    g = state.grid
    theta = float(_second_moment(g, state.u))
    if not theta > 0.0:
        return False
    s_end = reference.match_time(theta) + t_end - state.t
    rms = math.sqrt(g.d * reference.theta_star * s_end ** (2.0 / reference.exponents.mu))
    c, _, _ = g.far_field_window
    return bool(0.1 * g.edges[c] >= FAR_FIELD_BULK_FACTOR * rms)


def _whole_space_entropy(g: RadialGrid, u: np.ndarray, w: np.ndarray, p: float) -> np.ndarray:
    """E over the whole space for d/(d+2) < p < 1, p >= 1 - 1/d.

    Below r_c (RadialGrid.far_field_window) E sums u**p V over the cells.
    Beyond it the universal far field u = A r**(-2/(1-p)) integrates to
    omega_d A**p r_c**(-k) / k, k = 2p/(1-p) - d > 0, with A the (lower)
    median of u r**(2/(1-p)) over the nonempty cells with centers in
    [r_c/10, r_c), taken in logarithms so no power of r overflows for p
    near 1. With no nonempty cell there, there is no tail. The box alone
    misses a tail whose second time derivative is 8 pi kappa**2 / r_max on
    the d = 3, p = 2/3 profile: 5% of the smallest -F'' the deficit check
    admits on the fd3 grid.
    """
    c, lo, log_r = g.far_field_window
    box = np.vecdot(w[:, :c], g.volumes[:c]).tolist()
    window = u[:, lo:c]
    filled = np.count_nonzero(window, axis=1)
    log_a = np.log(window)  # -inf on empty cells, which sort first
    log_a += (2.0 / (1.0 - p)) * log_r
    log_a.sort()
    k = 2.0 * p / (1.0 - p) - g.d
    log_rc = math.log(g.edges[c])
    out = []
    for b, row, f in zip(box, log_a, filled.tolist()):
        if f:
            a = float(row[row.size - f + (f - 1) // 2])
            b += sphere_area(g.d) * math.exp(p * a - k * log_rc) / k
        out.append(b)
    return np.array(out)


def diagnostics(states: Sequence[DensityState], reference: BarenblattReference,
                dts: Sequence[float] | None = None,
                whole_space: bool = False) -> list[FunctionalRecord]:
    """The record of every tracked functional of each state, for states on
    one grid, with dts their record dt (nan when not given).

    The states go through every kernel together, as one (k, n) block, and
    the arrays several functionals read are built once and shared by their
    kernels. Each record has the same bits whatever block it is evaluated
    in: the kernels' numpy calls act on each row as on a lone array, and
    per-record scalars are Python floats. A single state is
    diagnostics([state], reference)[0].

    With whole_space (fast diffusion in the remainder window with finite
    moments only; see whole_space_entropy) the entropy is the whole-space
    E, box cells plus the fitted far-field tail (_whole_space_entropy);
    otherwise, and for theta, the remainder's integrals and the match time
    always, the integrals run over the box.
    """
    params = reference.params
    if whole_space:
        require(params, "whole-space entropy",
                "fast_diffusion", "remainder_window", "finite_moments")
    g = states[0].grid
    if any(state.grid is not g for state in states):
        raise ValueError("diagnostics needs states on one grid")
    ex = reference.exponents
    p = params.p
    u = np.array([state.u for state in states])

    u_max = u.max(axis=1, keepdims=True)
    w = pow_fn(p)(u)
    moment = u * g.moment_weights
    moment_total = moment.sum(axis=1).tolist()
    moment_tail = moment[:, g.moment_tail_start:].sum(axis=1).tolist()
    moment_edge = moment[:, g.moment_edge_start:].sum(axis=1).tolist()

    mass = np.vecdot(u, g.volumes).tolist()
    theta = _second_moment(g, u).tolist()
    with _quiet():
        if whole_space:
            entropy = _whole_space_entropy(g, u, w, p)
        else:
            entropy = np.vecdot(w, g.volumes)
        v, dv, v_slope = _potential(g, u, p)
        live = _live_faces(u, u_max, g.center_gaps)
        fisher, flags_f = _fisher(g, u, u_max, live, params)
        q_ratio, flags_q = _q_ratio(g, u, w, dv, v_slope, live)
        remainder, flags_r = _remainder(g, u, u_max, w, v, v_slope, entropy, params)

    nan = float("nan")
    matched = unmet(params, "finite_moments") is None and math.isfinite(reference.theta_star)
    if matched:
        s_match = [reference.match_time(x) for x in theta]
        rel_ent = _relative_entropy(g, u, w, s_match, p, reference).tolist()
    else:
        s_match = rel_ent = [nan] * len(states)

    entropy, fisher, remainder = entropy.tolist(), fisher.tolist(), remainder.tolist()
    records = []
    for i, state in enumerate(states):
        e, th, s, total = entropy[i], theta[i], s_match[i], moment_total[i]
        flags = [*flags_f[i], *flags_q[i], *flags_r[i]]
        if not matched:
            flags.append("moments_infinite")
        if total > 0.0 and moment_edge[i] > 0.10 * total:
            flags.append("low_confidence_moments")
        records.append(FunctionalRecord(
            t=state.t, dt=nan if dts is None else dts[i], mass=mass[i], theta=th,
            entropy=e, fisher=fisher[i], f_power=e**ex.sigma,
            g_power=th ** (0.5 * ex.mu), h_renyi=th ** (-0.5 * ex.eta) * e,
            j_scale=e ** (ex.sigma - 1.0) * fisher[i], q_ratio=q_ratio[i],
            s_match=s, tau=s - state.t, rel_entropy=rel_ent[i], remainder=remainder[i],
            # the share of the second moment beyond r_max / 2
            tail_frac=moment_tail[i] / total if total > 0.0 else 0.0,
            flags=tuple(sorted(set(flags))),
        ))
    return records
