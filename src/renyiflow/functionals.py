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
slopes of the potential v, the live-face mask, ...) as arguments, with
per-record scalars as (k, 1) columns: one numpy call serves k records,
whose fixed call cost would otherwise dominate at n ~ 1000. diagnostics
builds each of those arrays once per block and feeds every kernel, and the
grid-only arrays come cached from RadialGrid. A row's results do not
depend on its block: sums run along rows (pairwise, as on a lone array),
dot products are np.vecdot (one ddot per row), and sums over a masked
subset of a row are taken row by row. The kernels assume their caller has
silenced divide and invalid warnings: vacuum cells make v infinite, and the
masks then discard those faces.

A block allocates no array of its size (numpy's buffer of a call that
broadcasts a grid array or a (k, 1) column aside, at most 8192 doubles).
Every array it needs, the stacked states included, lives in one
module-level workspace (_workspace), built once and reused by every block,
so no two threads may evaluate diagnostics at once: 7 float and
5 boolean arrays of k (n + 1) entries, 769,332 bytes at
solver.record_block's k = 12 for n = 1050. The kernels write into it with
out= and where= and work in the first k rows, so a partial block or a lone
state takes the same path. They carve contiguous (k, m) arrays from it
(_rows): at (16, 1050) a numpy call runs about twice as fast on contiguous
operands, as one flat loop, as on strided views. So a face array, the
n - 1 interior faces of each row, is (k, n) with no face in its last
column (0, or False in a mask), and a difference across faces is one flat
call over the cells (_across_faces). Blocks that allocated their
temporaries lost the gain of more than 4 rows to page faults, not to the
L1 cache: above glibc's trim threshold the freed top of the heap went back
to the system after each block and the next block faulted it in again. An
fd3_exact_dense evolve (4,001 records) took 150,899-176,726 minor faults in
16-row blocks that allocated, and 740-1,021 with the workspace.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import partial
from typing import NamedTuple

import numpy as np

from ._pow import pow_fn
from .barenblatt import BarenblattReference, self_similar_density
from .grid import DensityState, RadialGrid, sphere_area
from .params import ModelParams, require, unmet

# Cells below this fraction of max(u) are excluded from second-derivative
# stencils; their v = p/(p-1) u**(p-1) values are dominated by floor noise,
# and 1e-6 clips a few percent. The cut also keeps the zero-flux wall's mass
# pile-up of fast-diffusion runs out of R: on the fd3_mixture run (Euler
# steps at CFL 0.85) a cut at 1e-28 leaves the windows at t <= 1.5 as they
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


class FunctionalRecord(NamedTuple):
    """One diagnostic snapshot along a trajectory, immutable; its first
    len(CSV_COLUMNS) fields are a trajectory.csv row, in column order.

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


# trajectory.csv's header, a column for each of the record's first 15
# fields in order (E for entropy, I for fisher, ..., R for remainder)
CSV_COLUMNS = ("t", "dt", "mass", "theta", "E", "I", "F", "G", "H", "J",
               "q", "s", "tau", "rel_entropy", "R")
# every field but flags: the columns of a RecordTable, in order
RECORD_NUMBERS = FunctionalRecord._fields[:-1]
_COLUMN = {name: j for j, name in enumerate(RECORD_NUMBERS)}


class RecordTable(Sequence[FunctionalRecord]):
    """Records kept as one read-only float64 table, a row per record and a
    column per RECORD_NUMBERS field, beside each record's flags.

    A record is built only where one is read: an index (negative too)
    gives its FunctionalRecord, with the table's bits as Python floats; a
    slice gives a table of the rows it selects; and column(name) gives one
    field of every record without building any. A row takes 8 bytes per
    number, where a FunctionalRecord of boxed floats takes about 550 in all.
    """

    __slots__ = ("values", "flags")

    def __init__(self, values: np.ndarray, flags: Sequence[tuple[str, ...]]) -> None:
        """values: float64 (len(flags), len(RECORD_NUMBERS)), kept as a
        read-only view."""
        self.values = values.view()
        self.values.flags.writeable = False
        self.flags = tuple(flags)

    @classmethod
    def pack(cls, records: Iterable[FunctionalRecord]) -> RecordTable:
        """The table of the given records, in order."""
        records = list(records)
        values = np.array([rec[:-1] for rec in records], dtype=np.float64)
        return cls(values.reshape(len(records), len(RECORD_NUMBERS)),
                   [rec.flags for rec in records])

    def __len__(self) -> int:
        return len(self.flags)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RecordTable(self.values[i], self.flags[i])
        return FunctionalRecord(*self.values[i].tolist(), self.flags[i])

    def column(self, name: str) -> np.ndarray:
        """The field name of every record, as a new array."""
        return self.values[:, _COLUMN[name]].copy()


# Divide/invalid warnings the kernels' masked-out cells raise; one block per
# entry point, since entering np.errstate costs about 3 us.
_quiet = partial(np.errstate, divide="ignore", invalid="ignore")

# The workspace of a diagnostics block: _FLOATS float and _MASKS boolean
# flat arrays (_workspace), from which each kernel carves the contiguous
# (k, m) arrays it writes (_rows).
_FLOATS, _MASKS = 7, 5
_ws = (np.empty((_FLOATS, 0)), np.empty((_MASKS, 0), dtype=bool))


def _workspace(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The workspace, (_FLOATS, >= size) floats and (_MASKS, >= size)
    booleans. It is built anew only when a block needs more entries per
    array than it holds; otherwise each block finds it as the last one left
    it, so every kernel writes each entry it reads before reading it."""
    global _ws
    if _ws[0].shape[1] < size:
        _ws = (np.empty((_FLOATS, size)), np.empty((_MASKS, size), dtype=bool))
    return _ws


def _rows(buf: np.ndarray, k: int, m: int) -> np.ndarray:
    """The first k*m entries of the flat workspace array buf as a
    contiguous (k, m) array."""
    return buf[:k * m].reshape(k, m)


def _across_faces(ufunc: np.ufunc, x: np.ndarray, out: np.ndarray,
                  pad: float | bool = 0.0) -> np.ndarray:
    """ufunc(x[:, 1:], x[:, :-1]) into the face array out, for cells x
    (both contiguous (k, n)): one flat call, which pairs the last cell of a
    row with the first of the next in the last column, where no face is;
    that column is then set to pad."""
    flat = x.reshape(-1)
    ufunc(flat[1:], flat[:-1], out=out.reshape(-1)[:-1])
    out[:, -1] = pad
    return out


def _potential(g: RadialGrid, u: np.ndarray, p: float, dv: np.ndarray,
               slopes: np.ndarray, scratch: Sequence[np.ndarray]) -> None:
    """v = p/(p-1) u**(p-1) (infinite on vacuum cells when p < 1), in
    scratch[0]; its differences across the faces into the face array dv;
    and into the flat slopes, k n + 1 entries, its one-sided slopes on
    either side of each cell, so that slopes[:-1] and slopes[1:] as (k, n)
    arrays hold every cell's inner and outer slope. The outer slope of cell
    j < n-1 is the face slope dv / center_gaps; the inner one of cell 0
    comes from the even reflection v(-r) = v(r) (0, or nan where v is
    infinite). The outer slope of a row's last cell, which has no outer
    neighbor, is the next row's inner one (0 in the last row): it is read
    only beside h_p = nan, which makes every stencil there nan."""
    k, n = u.shape
    v, *roots = (_rows(a, k, n) for a in scratch[:3])
    np.multiply(pow_fn(p - 1.0)(u, out=v, roots=roots), p / (p - 1.0), out=v)
    _across_faces(np.subtract, v, dv)
    np.divide(dv, g.padded_faces[0], out=slopes[1:].reshape(k, n))
    slopes[:-1:n] = (v[:, 0] - v[:, 0]) / g.stencil_gaps[0][0]


def _second_moment(g: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Theta = (1/d) integral of |x|^2 u of the cell averages u, per row of a
    block (a scalar for one state's u)."""
    return np.vecdot(u, g.moment_weights) / g.d


def _live_faces(u: np.ndarray, u_max: np.ndarray, drc: np.ndarray, live: np.ndarray,
                scratch: Sequence[np.ndarray], masks: Sequence[np.ndarray]) -> None:
    """The faces admitted to gradient quadratures, into the face mask live
    (drc the padded center gaps).

    A face is live when both cells sit above DUST_REL * max(u), or below
    that level but with a log-slope within SMOOTH_SLOPE_REL of a
    neighboring face's. The level cut alone would also discard the genuine
    power-law tail of fast-diffusion states, whose gradient integrals
    converge slowly in radius; those faces are smooth while front noise
    alternates between flat and cliff faces, so neighbor consistency
    separates signal from noise independently of level.
    """
    k, n = u.shape
    above = np.greater_equal(u, DUST_REL * u_max, out=_rows(masks[0], k, n))
    _across_faces(np.logical_and, above, live, False)
    log_u = np.log(u, out=_rows(scratch[0], k, n))
    slopes = _across_faces(np.subtract, log_u, _rows(scratch[1], k, n))
    slopes /= drc
    # jump[:, j] = |slopes[:, j+1] - slopes[:, j]| for j < n-2, and each
    # face's dev the smaller jump beside it (the one jump of an end face)
    jump = _across_faces(np.subtract, slopes, _rows(scratch[2], k, n))
    np.abs(jump, out=jump)
    dev = _rows(scratch[0], k, n)  # log_u is spent
    np.minimum(jump.reshape(-1)[:-1], jump.reshape(-1)[1:], out=dev.reshape(-1)[1:])
    dev[:, 0] = jump[:, 0]
    dev[:, n - 2] = jump[:, n - 3]
    bound = np.abs(slopes, out=jump)  # jump is spent
    bound *= SMOOTH_SLOPE_REL
    smooth = np.isfinite(slopes, out=_rows(masks[0], k, n))
    smooth &= np.less_equal(dev, bound, out=_rows(masks[1], k, n))
    live |= smooth
    live[:, -1] = False


def _fisher(g: RadialGrid, u: np.ndarray, u_max: np.ndarray, live: np.ndarray,
            params: ModelParams, scratch: Sequence[np.ndarray],
            masks: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple[str, ...]]]:
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
    k, n = u.shape
    drc, weights, _ = g.padded_faces
    dead = np.logical_not(live, out=_rows(masks[0], k, n))
    slope = _rows(scratch[0], k, n)
    if unmet(params, "gn_conversion") is None:
        wt = pow_fn(p - 0.5)(u, out=_rows(scratch[1], k, n),
                             roots=[_rows(a, k, n) for a in scratch[2:4]])
        _across_faces(np.subtract, wt, slope)
        slope /= drc
        np.copyto(slope, 0.0, where=dead)
        np.square(slope, out=slope)
        coef = (2.0 * p / (2.0 * p - 1.0)) ** 2
        return coef * np.vecdot(slope[:, :-1], g.gap_weights), [()] * k
    floor = 1e-10 * u_max
    # in place, the operations of the face density uf = 0.5 (u_- + u_+) and
    # of p**2 max(uf, floor)**(2p-3) slope**2 times the gap weights, in order
    contrib = _across_faces(np.add, u, _rows(scratch[1], k, n))
    contrib *= 0.5
    floored = np.less(contrib, floor, out=_rows(masks[1], k, n))
    floored &= live
    np.maximum(contrib, floor, out=contrib)
    _across_faces(np.subtract, u, slope)
    slope /= drc
    np.copyto(slope, 0.0, where=dead)
    contrib **= 2.0 * p - 3.0
    contrib *= p * p
    contrib *= slope
    contrib *= slope
    contrib *= weights
    total = contrib[:, :-1].sum(axis=1)
    # the floored share sums the selected faces alone, row by row: a masked
    # row sum would group the pairwise summation differently
    flags = [("fisher_floor",) if t > 0.0 and float(c[f].sum()) > FISHER_FLOOR_SHARE * t
             else () for c, f, t in zip(contrib, floored, total.tolist())]
    return total, flags


def _q_ratio(g: RadialGrid, u: np.ndarray, w: np.ndarray, dv: np.ndarray,
             v_slope: np.ndarray, live: np.ndarray, scratch: Sequence[np.ndarray],
             masks: Sequence[np.ndarray]) -> tuple[list[float], list[tuple[str, ...]]]:
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
    k, n = dv.shape
    _, weights, mids = g.padded_faces
    dw, uf, wu = (_rows(a, k, n) for a in scratch[:3])
    _across_faces(np.subtract, w, dw)
    # no face in the last column: dv is 0 there and live False
    sloped = np.isfinite(dv, out=_rows(masks[0], k, n))
    sloped &= np.not_equal(dv, 0.0, out=_rows(masks[1], k, n))
    sloped &= live
    flat = np.logical_not(sloped, out=_rows(masks[1], k, n))
    flat &= live
    uf.fill(0.0)
    np.divide(dw, dv, out=uf, where=sloped)
    np.copyto(uf, u, where=flat)  # u[:, j] is the inner cell of face j
    gf = dw  # dw is spent
    gf.fill(0.0)
    np.copyto(gf, v_slope, where=sloped)
    peak = np.abs(gf, out=wu).max(axis=1).tolist()
    gf *= np.array([[2.0 ** -(math.frexp(x)[1] // 2)] for x in peak])

    np.multiply(weights, uf, out=wu)
    wu, product = wu[:, :-1], uf  # uf is spent
    a = np.vecdot(wu, g.gap_mids_sq).tolist()
    b = np.vecdot(wu, np.multiply(gf, gf, out=product)[:, :-1]).tolist()
    s = np.vecdot(wu, np.multiply(mids, gf, out=product)[:, :-1]).tolist()
    q = [ai * bi / (si * si) if si != 0.0 else math.inf for ai, bi, si in zip(a, b, s)]
    return q, [() if si != 0.0 else ("q_degenerate",) for si in s]


def _remainder(g: RadialGrid, u: np.ndarray, u_max: np.ndarray, w: np.ndarray,
               slope_m: np.ndarray, slope_p: np.ndarray, entropy: np.ndarray,
               reference: BarenblattReference, scratch: Sequence[np.ndarray],
               masks: Sequence[np.ndarray]) -> tuple[np.ndarray, list[tuple[str, ...]]]:
    """R = E [(sigma-1) int u^p (lap v - m)^2 + 2/(1-p) int u^p |D^2v - (lap v/d) Id|^2].

    v = p/(p-1) u**(p-1), with slope_m and slope_p its slopes on the inner
    and outer side of each cell (_potential); m is the u^p-weighted mean of
    lap v over the stencil mask, which makes the first term a true variance
    (it vanishes identically on the self-similar profile, whose v is
    quadratic in r). Radial form of the traceless Hessian norm:
    (1 - 1/d)(v'' - v'/r)^2; the anisotropy term is identically zero for
    d = 1.

    Nonnegative in the fast-diffusion range (sigma >= 1), nonpositive for
    p > 1. Cells below REMAINDER_MASK_REL * max(u) are excluded; for p > 1
    the result is flagged when stencils within three cells of the support
    edge carry more than REMAINDER_BOUNDARY_SHARE of the quadrature.
    """
    p, d = reference.params.p, reference.params.d
    sigma = reference.exponents.sigma
    k, n = u.shape

    mask = np.greater_equal(u, REMAINDER_MASK_REL * u_max, out=_rows(masks[0], k, n))
    c = g.centers
    h_m, h_p, h_sum = g.stencil_gaps

    # cells whose stencil (the cell and its neighbors) is unmasked: the
    # faces between two unmasked cells, then the cells between two such
    # faces (cell 0 has its mirror image inside; the last cell of a row
    # meets the no-face column, so none is valid)
    pairs = _across_faces(np.logical_and, mask, _rows(masks[1], k, n), False)
    valid = _rows(masks[2], k, n)
    np.logical_and(pairs.reshape(-1)[:-1], pairs.reshape(-1)[1:], out=valid.reshape(-1)[1:])
    valid[:, 0] = pairs[:, 0]
    invalid = np.logical_not(valid, out=_rows(masks[1], k, n))

    # masked-out cells may overflow; they are zeroed below. The in-place
    # steps are the operations of v1 = (h_m s_p + h_p s_m) / h_sum,
    # v2 = 2 (s_p - s_m) / h_sum and lap = v2 + (d - 1) v1 / r, in order.
    v1, v2, lap, spread = (_rows(a, k, n) for a in scratch[:4])
    with np.errstate(over="ignore"):
        np.multiply(h_m, slope_p, out=v1)
        v1 += np.multiply(h_p, slope_m, out=v2)
        v1 /= h_sum
        np.subtract(slope_p, slope_m, out=v2)
        v2 *= 2.0
        v2 /= h_sum
        np.multiply(v1, d - 1, out=lap)
        lap /= c
        lap += v2
        aniso_sq = None
        if d > 1:
            aniso_sq = np.divide(v1, c, out=v1)
            np.subtract(v2, aniso_sq, out=aniso_sq)
            np.square(aniso_sq, out=aniso_sq)
            np.copyto(aniso_sq, 0.0, where=invalid)

    wgt = np.multiply(w, g.volumes, out=v2)
    np.copyto(wgt, 0.0, where=invalid)
    lap_v = lap
    np.copyto(lap_v, 0.0, where=invalid)
    e_masked = wgt.sum(axis=1)
    # rows with e_masked <= 0 divide by zero here; they read 0 below
    m_hat = np.vecdot(wgt, lap_v) / e_masked
    np.subtract(lap_v, m_hat[:, None], out=spread)
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
        # in place, the operations of wgt |sigma-1| spread
        # + wgt |2/(1-p)| (1-1/d) aniso_sq, in order
        contrib = np.multiply(wgt, abs(sigma - 1.0), out=lap)
        contrib *= spread
        if aniso_sq is not None:
            extra = np.multiply(wgt, abs(2.0 / (1.0 - p)), out=spread)
            extra *= 1.0 - 1.0 / d
            extra *= aniso_sq
            contrib += extra
        total = contrib.sum(axis=1).tolist()
        # cells whose 3-wide neighborhood touches a masked-out cell
        near = _rows(masks[3], k, n)
        near.fill(False)
        bad = np.logical_not(mask, out=mask)
        for off in range(-3, 4):
            lo = max(0, -off)
            hi = n - max(0, off)
            near[:, lo:hi] |= bad[:, lo + off:hi + off]
        edge = np.logical_and(valid, near, out=near)
        for i in np.flatnonzero(~empty).tolist():
            # the edge share sums the selected cells alone, row by row (see
            # _fisher)
            if total[i] > 0.0 and (float(contrib[i][edge[i]].sum()) / total[i]
                                   > REMAINDER_BOUNDARY_SHARE):
                flags[i] = ("remainder_boundary",)
    return value, flags


def _relative_entropy(g: RadialGrid, u: np.ndarray, up: np.ndarray, s: list[float],
                      p: float, reference: BarenblattReference,
                      scratch: Sequence[np.ndarray]) -> np.ndarray:
    """Per row of u (up = u**p), the Bregman divergence of the entropy
    between u and the self-similar solution at that row's time s:
    1/(p-1) int [u^p - U^p - p U^(p-1) (u - U)], computed in five flat
    scratch arrays.

    The integrand is pointwise nonnegative for every p in the admissible
    range, so the value is a genuine divergence (zero iff u = U a.e.).
    """
    k, n = u.shape
    cap_u, cap_up, slope, *roots = (_rows(a, k, n) for a in scratch[:5])
    self_similar_density(g.centers, s, reference.params, out=cap_u)
    cap_up = pow_fn(p)(cap_u, out=cap_up, roots=roots)
    # in place, the operations of
    # (u**p - U**p - p U**(p-1) (u - U)) / (p - 1) in order
    if p > 1.0:
        np.multiply(pow_fn(p - 1.0)(cap_u, out=slope, roots=roots), p, out=slope)
    else:
        # U > 0 everywhere in the fast-diffusion range, so U**(p-1) is finite
        np.multiply(cap_up, p, out=slope)
        slope /= cap_u
    diff = roots[0]  # the roots are spent
    slope *= np.subtract(u, cap_u, out=diff)
    integrand = np.subtract(up, cap_up, out=diff)
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


def _whole_space_entropy(g: RadialGrid, u: np.ndarray, w: np.ndarray, p: float,
                         scratch: np.ndarray) -> np.ndarray:
    """E over the whole space for d/(d+2) < p < 1, p >= 1 - 1/d, with the
    fit window's logarithms in the flat scratch.

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
    # -inf on empty cells, which sort first
    log_a = np.log(window, out=_rows(scratch, len(box), c - lo))
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
    if g.n < 3:
        raise ValueError(f"diagnostics needs at least 3 cells, got {g.n}")
    ex = reference.exponents
    p, n, k = params.p, g.n, len(states)
    floats, masks = _workspace(k * (n + 1))
    # u, w, the one-sided slopes of v and the live faces outlive a kernel;
    # the other arrays are the kernels' scratch. v's face differences dv
    # sit in the last, which _potential, _live_faces and _q_ratio leave
    # alone (they take three)
    u, w = _rows(floats[0], k, n), _rows(floats[1], k, n)
    slopes = floats[2][:k * n + 1]
    slope_m, slope_p = slopes[:-1].reshape(k, n), slopes[1:].reshape(k, n)
    scratch, live = floats[3:], _rows(masks[0], k, n)
    dv = _rows(scratch[3], k, n)
    for row, state in zip(u, states):
        np.copyto(row, state.u)

    u_max = u.max(axis=1, keepdims=True)
    w = pow_fn(p)(u, out=w, roots=[_rows(a, k, n) for a in scratch[:2]])
    moment = np.multiply(u, g.moment_weights, out=_rows(scratch[0], k, n))
    moment_total = moment.sum(axis=1).tolist()
    moment_tail = moment[:, g.moment_tail_start:].sum(axis=1).tolist()
    moment_edge = moment[:, g.moment_edge_start:].sum(axis=1).tolist()

    mass = np.vecdot(u, g.volumes).tolist()
    theta = _second_moment(g, u).tolist()
    with _quiet():
        if whole_space:
            entropy = _whole_space_entropy(g, u, w, p, scratch[0])
        else:
            entropy = np.vecdot(w, g.volumes)
        _potential(g, u, p, dv, slopes, scratch)
        _live_faces(u, u_max, g.padded_faces[0], live, scratch, masks[1:])
        q_ratio, flags_q = _q_ratio(g, u, w, dv, slope_p, live, scratch, masks[1:])
        fisher, flags_f = _fisher(g, u, u_max, live, params, scratch, masks[1:])
        remainder, flags_r = _remainder(g, u, u_max, w, slope_m, slope_p, entropy,
                                        reference, scratch, masks[1:])

    nan = float("nan")
    matched = unmet(params, "finite_moments") is None and math.isfinite(reference.theta_star)
    if matched:
        s_match = [reference.match_time(x) for x in theta]
        # the slopes are free once the remainder is taken
        rel_ent = _relative_entropy(g, u, w, s_match, p, reference, floats[2:]).tolist()
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
