import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renyiflow as rf
from renyiflow.grid import sphere_area


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
