import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import cumulative_trapezoid as scipy_cumulative_trapezoid

import renyiflow as rf
from renyiflow import barenblatt
from renyiflow.grid import _gauss_legendre, cumulative_trapezoid, sphere_area


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-15)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_integrate_constant_is_ball_volume(d):
    grid = rf.build_grid(d, 2.0, 64)
    vol = grid.integrate(np.ones(grid.n))
    assert vol == pytest.approx(sphere_area(d) / d * 2.0**d, rel=1e-12)


def test_uniform_grid_geometry():
    grid = rf.build_grid(2, 3.0, 30)
    assert grid.edges[0] == 0.0
    assert grid.edges[-1] == 3.0
    assert np.allclose(grid.widths, 0.1)
    assert np.allclose(grid.centers, grid.edges[:-1] + 0.05)
    assert grid.r_max == 3.0 and grid.n == 30
    assert grid.areas[0] == 0.0


def test_stretched_grid_geometry():
    grid = rf.build_grid(3, 10.0, 100, stretch=1.05)
    ratios = grid.widths[1:] / grid.widths[:-1]
    assert np.allclose(ratios, 1.05, rtol=1e-9)
    assert grid.edges[-1] == 10.0  # pinned exactly despite cumprod drift
    assert np.all(np.diff(grid.edges) > 0.0)


@pytest.mark.parametrize("kwargs", [
    dict(d=1, r_max=0.0, n=64),
    dict(d=1, r_max=-1.0, n=64),
    dict(d=1, r_max=1.0, n=8),
    dict(d=1, r_max=1.0, n=64, stretch=0.9),
    dict(d=1, r_max=math.nan, n=64),
])
def test_build_grid_rejections(kwargs):
    with pytest.raises(ValueError):
        rf.build_grid(**kwargs)


def test_integrate_shape_check():
    grid = rf.build_grid(1, 1.0, 32)
    with pytest.raises(ValueError):
        grid.integrate(np.ones(grid.n + 1))


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=16, max_value=400),
    stretch=st.floats(min_value=1.0, max_value=1.1),
    width=st.floats(min_value=0.3, max_value=3.0),
)
def test_project_initial_normalizes(d, n, stretch, width):
    grid = rf.build_grid(d, 12.0, n, stretch=stretch)
    state = rf.project_initial(lambda r: np.exp(-((r / width) ** 2)), grid)
    assert state.mass() == pytest.approx(1.0, abs=1e-13)
    assert np.all(state.u >= 0.0)
    assert state.t == 0.0


def test_project_initial_raw_and_time():
    # raw samples of mass 0.25 * 2 * 4 = 2 are divided by that mass
    grid = rf.build_grid(1, 4.0, 64)
    state = rf.project_initial(lambda r: np.full_like(r, 0.25), grid, t=2.5)
    assert state.u == pytest.approx(np.full(grid.n, 0.125), rel=1e-12)
    assert state.t == 2.5


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n,stretch", [(40, 1.0), (40, 1.05), (80, 1.02)])
def test_moment_weights_read_cell_averages(d, n, stretch):
    # the cell averages of exp(-r**2) at unit mass have second moment
    # (1/d) int |x|**2 u = 1/2 in every d; the weights read it within 1e-5
    # on 40 cells, where centers**2 V reads it 4e-4 or more high
    grid = rf.build_grid(d, 6.0, n, stretch=stretch)
    u = rf.project_initial(lambda r: np.exp(-r * r), grid).u
    assert np.dot(u, grid.moment_weights) / d == pytest.approx(0.5, rel=1e-5)
    assert np.dot(u, grid.centers**2 * grid.volumes) / d > 0.5 * (1.0 + 4e-4)


def test_project_initial_rejections():
    grid = rf.build_grid(1, 4.0, 64)
    with pytest.raises(ValueError):
        rf.project_initial(lambda r: r - 2.0, grid)          # negative values
    with pytest.raises(ValueError):
        rf.project_initial(lambda r: np.zeros_like(r), grid)  # zero mass
    with pytest.raises(ValueError):
        rf.project_initial(lambda r: np.ones(3), grid)        # wrong shape
    with pytest.raises(ValueError):
        rf.project_initial(lambda r: np.full_like(r, np.nan), grid)


@settings(max_examples=200)
@given(y=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
       steps=st.lists(st.floats(1e-6, 10.0), min_size=59, max_size=59),
       t0=st.floats(-10.0, 10.0))
def test_cumulative_trapezoid_is_scipys_bit_for_bit(y, steps, t0):
    y = np.array(y)
    t = t0 + np.cumsum([0.0] + steps[: y.size - 1])
    got = cumulative_trapezoid(y, t)
    assert got.tobytes() == scipy_cumulative_trapezoid(y, t, initial=0.0).tobytes()


def _weights_40_digits(nodes: np.ndarray, n: int) -> np.ndarray:
    """Gauss-Legendre weights on [-1, 1] at the roots of P_n next to the
    given nodes: Newton's method and 2 / ((1 - x^2) P_n'(x)^2) in 40 digits."""
    weights = []
    with localcontext() as ctx:
        ctx.prec = 40
        for x0 in nodes:
            x = Decimal(float(x0))
            for _ in range(3):
                p_prev, p = Decimal(1), x
                for j in range(2, n + 1):
                    p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
                dp = n * (p_prev - x * p) / (1 - x * x)
                x -= p / dp
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(weights)


def test_gauss_legendre_rule():
    n = barenblatt._NODES
    s, w = _gauss_legendre(n)
    x, w_ref = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(s - 0.5 * (x + 1.0))) <= 2e-16
    # leggauss's own weights are up to 2.2e-11 off the 40-digit values (at
    # the end nodes), so it bounds the new rule only that loosely
    np.testing.assert_allclose(w, 0.5 * w_ref, rtol=1e-10, atol=0.0)
    half = n // 2
    np.testing.assert_allclose(w[:half], 0.5 * _weights_40_digits(x[:half], n),
                               rtol=1e-12, atol=0.0)
    assert np.array_equal(w, w[::-1]) and np.all(np.diff(s) > 0.0)
    assert abs(w.sum() - 1.0) <= 4.5e-16
