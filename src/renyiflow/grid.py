"""Radial finite-volume grids and density snapshots.

Cells are shells [r_{i-1/2}, r_{i+1/2}] with volumes V_i = omega_d
(r_{i+1/2}^d - r_{i-1/2}^d)/d, omega_d the unit-sphere area, so that
sum(f_i V_i) is the d-dimensional integral of a radial function. The d = 1
convention counts both half-lines (omega_1 = 2): densities are even
extensions and all integrals run over the full line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable

import numpy as np


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y over points x, starting at 0;
    the operations of scipy.integrate.cumulative_trapezoid(y, x, initial=0),
    so its bits too."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def uniform_interior(t: np.ndarray) -> np.ndarray:
    """Indices whose two surrounding record intervals match, so the plain
    centered difference is second order there. The initial record falls at
    whatever offset the schedule starts from, so the first window is the
    only one this usually drops."""
    h = np.diff(t)
    return np.where(np.abs(h[:-1] - h[1:]) <= 1e-9 * np.maximum(h[:-1], h[1:]))[0] + 1


# Radius, as a share of r_max, beyond which a fast-diffusion density is read
# as its far field (functionals.diagnostics fits E's tail there).
FAR_FIELD_RADIUS_REL = 0.1
# Radii, as shares of r_max, beyond which functionals.diagnostics counts the
# second moment's tail (tail_frac) and its share near the wall (the
# low_confidence_moments flag).
MOMENT_TAIL_RADIUS_REL = 0.5
MOMENT_EDGE_RADIUS_REL = 0.9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Cell geometry of one radial grid.

    The cached properties are derived arrays that every diagnostic record
    reads; each is computed once per grid, on first use, and is read-only
    because every caller shares it. They assume the grid's own arrays are
    never modified after construction.
    """

    d: int
    edges: np.ndarray     # (n+1,) increasing, edges[0] = 0
    centers: np.ndarray   # (n,) cell midpoints
    widths: np.ndarray    # (n,) edge differences
    volumes: np.ndarray   # (n,) shell volumes
    areas: np.ndarray     # (n+1,) face areas, areas[0] = 0

    @property
    def n(self) -> int:
        return self.centers.size

    @property
    def r_max(self) -> float:
        return float(self.edges[-1])

    @cached_property
    def moment_weights(self) -> np.ndarray:
        """(n,) weights W_i with sum(u_i W_i) the integral of |x|**2 u when
        the u_i are cell averages, to O(h**4) for smooth u.

        With f = u r**(d-1), a cell of width h and center c holds
        int f r**2 dr = c**2 int f dr + (h**3/12)(f + 2 r f')(c) + O(h**5).
        Summed over cells, the second term is the integral of
        (h**2/12)(f + 2 r f'), which by parts is minus that of
        f (h**2 + 4 r h h')/12, h(r) the local width. So
        W_i = V_i (c_i**2 - (h_i**2 + 4 c_i h_i h_i')/12), h' the width's
        derivative across centers. The bare c_i**2 V_i reads the moment of
        a cell-average state high by about h**2/12 of the mass (times
        1 + 4 r h'/h on a stretched grid).
        """
        c, h = self.centers, self.widths
        dh = np.gradient(h, c)
        return _read_only(self.volumes * (c * c - (h * h + 4.0 * c * h * dh) / 12.0))

    @cached_property
    def center_gaps(self) -> np.ndarray:
        """(n-1,) distances between neighboring cell centers: the face
        spacing of every gradient stencil."""
        return _read_only(np.diff(self.centers))

    @cached_property
    def gap_mids(self) -> np.ndarray:
        """(n-1,) midpoints between neighboring cell centers."""
        return _read_only(0.5 * (self.centers[:-1] + self.centers[1:]))

    @cached_property
    def gap_mids_sq(self) -> np.ndarray:
        return _read_only(self.gap_mids * self.gap_mids)

    @cached_property
    def gap_weights(self) -> np.ndarray:
        """(n-1,) quadrature weights of gradient integrals: the surface area
        at the gap midpoint times the gap width."""
        return _read_only(
            sphere_area(self.d) * self.gap_mids ** (self.d - 1) * self.center_gaps)

    @cached_property
    def padded_faces(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """center_gaps, gap_weights and gap_mids, each padded to (n,) with
        1, 0 and 0: the grid side of functionals.diagnostics' (k, n) face
        arrays, whose last column is no face."""
        return (_read_only(np.append(self.center_gaps, 1.0)),
                _read_only(np.append(self.gap_weights, 0.0)),
                _read_only(np.append(self.gap_mids, 0.0)))

    @cached_property
    def stencil_gaps(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(h_minus, h_plus, h_minus + h_plus), each (n,): the center
        spacings on either side of every cell for three-point stencils. The
        first cell's inner neighbor is its reflection across r = 0, at
        distance 2 r_0; the last cell has no outer neighbor (nan)."""
        n = self.n
        h_m = np.empty(n)
        h_m[1:] = self.center_gaps
        h_m[0] = 2.0 * self.centers[0]
        h_p = np.empty(n)
        h_p[:-1] = self.center_gaps
        h_p[-1] = np.nan
        return _read_only(h_m), _read_only(h_p), _read_only(h_m + h_p)

    @cached_property
    def far_field_window(self) -> tuple[int, int, np.ndarray]:
        """(c, lo, log_r): edges[c] = r_c is the edge nearest
        FAR_FIELD_RADIUS_REL * r_max, cells lo..c-1 are those with centers
        in [r_c/10, r_c), and log_r their log center radii. The window is
        never empty: with n >= 16 the first cell is narrower than r_max/16,
        so c >= 1, and cell c-1 has its center above r_c/2."""
        c = int(np.abs(self.edges - FAR_FIELD_RADIUS_REL * self.r_max).argmin())
        lo = int(np.searchsorted(self.centers, 0.1 * self.edges[c]))
        return c, lo, _read_only(np.log(self.centers[lo:c]))

    @cached_property
    def moment_tail_start(self) -> int:
        """Index of the first cell centered beyond MOMENT_TAIL_RADIUS_REL *
        r_max; the centers increase, so the cells from it on are exactly
        those beyond."""
        return int(np.searchsorted(self.centers, MOMENT_TAIL_RADIUS_REL * self.r_max,
                                   side="right"))

    @cached_property
    def moment_edge_start(self) -> int:
        """Index of the first cell centered beyond MOMENT_EDGE_RADIUS_REL * r_max."""
        return int(np.searchsorted(self.centers, MOMENT_EDGE_RADIUS_REL * self.r_max,
                                   side="right"))

    def integrate(self, f: np.ndarray) -> float:
        f = np.asarray(f, dtype=float)
        if f.shape != self.volumes.shape:
            raise ValueError(f"expected {self.volumes.shape} cell values, got {f.shape}")
        return float(np.dot(f, self.volumes))


def build_grid(d: int, r_max: float, n: int, stretch: float = 1.0) -> RadialGrid:
    """Geometrically stretched radial grid on [0, r_max].

    stretch is the ratio of consecutive cell widths; 1 gives a uniform grid.
    """
    if not r_max > 0.0:  # a NaN fails it too
        raise ValueError(f"r_max must be positive, got {r_max}")
    if n < 16:
        raise ValueError(f"need at least 16 cells, got {n}")
    if stretch < 1.0:
        raise ValueError(f"stretch must be >= 1, got {stretch}")
    # stretch**n and r_max**d may overflow, and the inner edges' powers
    # underflow; the check below rejects the cells that leaves
    with np.errstate(over="ignore", invalid="ignore"):
        if stretch == 1.0:
            edges = np.linspace(0.0, r_max, n + 1)
        else:
            ratios = np.concatenate([[0.0], np.cumprod(np.full(n, stretch)) - 1.0])
            edges = r_max * ratios / ratios[-1]
            # cumprod drift can leave the last edge off by an ulp; pin it
            edges[-1] = r_max
        omega = sphere_area(d)
        volumes = omega * np.diff(edges**d) / d
    if not np.all((volumes > 0.0) & (volumes < math.inf)):  # a NaN fails it too
        raise ValueError(f"stretch {stretch:g} over {n} cells to r_max {r_max:g} "
                         "leaves an empty or non-finite cell")
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    areas = omega * edges ** (d - 1)
    areas[0] = 0.0  # symmetry face carries no flux, also pins the d=1 case
    return RadialGrid(d=d, edges=edges, centers=centers, widths=widths,
                      volumes=volumes, areas=areas)


@dataclass(frozen=True, eq=False)
class DensityState:
    grid: RadialGrid
    u: np.ndarray
    t: float


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1."""
    p_prev, p = np.ones_like(x), x
    for j in range(2, n + 1):
        p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
    return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point rule on [0, 1], built on first use.

    Newton's method on P_n from Tricomi's estimates cos(pi (k - 1/4) /
    (n + 1/2)) of the nonnegative roots, with weights
    2 / ((1 - x^2) P_n'(x)^2). No eigen-solver, so no LAPACK: the nodes
    match leggauss(n) to 1.1e-16 and the weights are closer to 40-digit
    values than leggauss's own (2.6e-13 against 2.2e-11 at the end nodes).
    """
    x = np.cos(math.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = _legendre(n, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    _, dp = _legendre(n, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # ascending on [-1, 1]; an odd n keeps its root at 0 once
    x = np.concatenate((-x, x[::-1][n % 2:]))
    w = np.concatenate((w, w[::-1][n % 2:]))
    return 0.5 * (x + 1.0), 0.5 * w


# Gauss-Legendre nodes per cell of project_initial: each cell average is
# the shell integral of f r**(d-1), which the rule integrates exactly for
# polynomials of degree 15.
PROJECTION_NODES = 8


def project_initial(
    f: Callable[[np.ndarray], np.ndarray],
    grid: RadialGrid,
    t: float = 0.0,
) -> DensityState:
    """Project a radial profile onto the grid as cell averages, renormalized
    to a unit-mass DensityState at time t.

    The scheme evolves cell averages m_i / V_i, so the datum is one too:
    u_i = (omega_d / V_i) int over the shell of f(r) r**(d-1) dr, by
    PROJECTION_NODES-point Gauss-Legendre per shell. f is called once, on
    the (n * PROJECTION_NODES,) array of nodes. A profile whose values or
    mass are not finite, or whose mass is not positive, raises ValueError.
    """
    s, wts = _gauss_legendre(PROJECTION_NODES)
    lo = grid.edges[:-1, None]
    width = grid.widths[:, None]
    r = (lo + width * s).ravel()
    # an overflow either rounds a value to zero (exp(-inf)) or leaves a
    # non-finite value or mass, which the checks below reject
    with np.errstate(over="ignore"):
        values = np.asarray(f(r), dtype=float)
        if values.shape != r.shape:
            raise ValueError("initial profile must return one value per radius")
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("initial profile must be finite and nonnegative")
        shell = (values * r ** (grid.d - 1)).reshape(grid.n, -1) @ wts
        u = sphere_area(grid.d) * grid.widths * shell / grid.volumes
        mass = grid.integrate(u)
    if not (math.isfinite(mass) and mass > 0.0):
        raise ValueError(f"initial profile has mass {mass}, not finite and positive; "
                         "cannot renormalize")
    return DensityState(grid=grid, u=u / mass, t=t)
