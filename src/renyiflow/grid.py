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
from functools import cached_property
from typing import Callable

import numpy as np


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of samples y over points x, starting at 0;
    the operations of scipy.integrate.cumulative_trapezoid(y, x, initial=0),
    so its bits too."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


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
    def centers_sq(self) -> np.ndarray:
        """(n,) squared cell-center radii."""
        return _read_only(self.centers * self.centers)

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
    if stretch == 1.0:
        edges = np.linspace(0.0, r_max, n + 1)
    else:
        ratios = np.concatenate([[0.0], np.cumprod(np.full(n, stretch)) - 1.0])
        edges = r_max * ratios / ratios[-1]
        # cumprod drift can leave the last edge off by an ulp; pin it
        edges[-1] = r_max
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    omega = sphere_area(d)
    volumes = omega * np.diff(edges**d) / d
    areas = omega * edges ** (d - 1)
    areas[0] = 0.0  # symmetry face carries no flux, also pins the d=1 case
    return RadialGrid(d=d, edges=edges, centers=centers, widths=widths,
                      volumes=volumes, areas=areas)


@dataclass(frozen=True, eq=False)
class DensityState:
    grid: RadialGrid
    u: np.ndarray
    t: float

    def mass(self) -> float:
        return self.grid.integrate(self.u)


def project_initial(
    f: Callable[[np.ndarray], np.ndarray],
    grid: RadialGrid,
    t: float = 0.0,
) -> DensityState:
    """Midpoint-sample a radial profile onto the grid as a unit-mass
    DensityState at time t."""
    u = np.asarray(f(grid.centers), dtype=float)
    if u.shape != grid.centers.shape:
        raise ValueError("initial profile must return one value per cell center")
    if np.any(u < 0.0) or not np.all(np.isfinite(u)):
        raise ValueError("initial profile must be finite and nonnegative")
    mass = grid.integrate(u)
    if mass <= 0.0:
        raise ValueError("initial profile has zero mass, cannot renormalize")
    return DensityState(grid=grid, u=u / mass, t=t)
