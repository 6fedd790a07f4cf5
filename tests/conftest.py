"""Shared fixtures: the corpus of recorded runs every suite layer reuses.

The five corpus runs cover both regimes and all datum shapes at desk scale;
they are session-scoped because the two d=3 runs cost ~8 s each. Tests must
treat the returned trajectories as read-only.
"""

from __future__ import annotations

import numpy as np
import pytest

import renyiflow as rf


FD3_GRID = dict(d=3, r_max=896000.0, n=1050, stretch=1.012)
FD3_RECORD_TIMES = tuple(0.05 + 0.0125 * k for k in range(397))


def mixture_profile(reference):
    """Two same-center self-similar profiles at different scales: fat tails
    from t = 0 (so gradient integrals are grid-resolved immediately) but far
    from any single profile, leaving a usable relaxation budget."""
    c_star = reference.c_star

    def f(r):
        a = (c_star + (r / 0.7) ** 2) ** (-3.0) / 0.7**3
        b = (c_star + (r / 2.2) ** 2) ** (-3.0) / 2.2**3
        return 0.5 * a + 0.5 * b

    return f


@pytest.fixture(scope="session")
def params_fd3():
    return rf.ModelParams(3, 2 / 3)


@pytest.fixture(scope="session")
def params_pm1():
    return rf.ModelParams(1, 2)


@pytest.fixture(scope="session")
def ref_fd3(params_fd3):
    return rf.build_reference(params_fd3)


@pytest.fixture(scope="session")
def ref_pm1(params_pm1):
    return rf.build_reference(params_pm1)


@pytest.fixture(scope="session")
def grid_fd3(params_fd3):
    return rf.build_grid(FD3_GRID["d"], FD3_GRID["r_max"], FD3_GRID["n"],
                         stretch=FD3_GRID["stretch"])


@pytest.fixture(scope="session")
def run_fd3_gaussian(params_fd3, grid_fd3):
    state = rf.project_initial(lambda r: np.exp(-r * r), grid_fd3)
    config = rf.SolverConfig(record_times=FD3_RECORD_TIMES)
    return rf.evolve(state, 5.0, params_fd3, config)


@pytest.fixture(scope="session")
def run_fd3_mixture(params_fd3, ref_fd3, grid_fd3):
    state = rf.project_initial(mixture_profile(ref_fd3), grid_fd3)
    config = rf.SolverConfig(record_every=0.0125)
    return rf.evolve(state, 5.0, params_fd3, config)


@pytest.fixture(scope="session")
def run_pm1_barenblatt(params_pm1):
    # Trajectory time is elapsed time: the state released at t = 0 is the
    # self-similar solution already aged to t0 = 1, so tau should stay at 1.
    grid = rf.build_grid(1, 5.0, 800)
    state = rf.project_initial(
        lambda r: rf.self_similar_density(r, 1.0, params_pm1), grid)
    config = rf.SolverConfig(record_every=0.05)
    return rf.evolve(state, 1.0, params_pm1, config)


@pytest.fixture(scope="session")
def run_pm1_gaussian(params_pm1):
    grid = rf.build_grid(1, 6.0, 800)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    config = rf.SolverConfig(record_every=0.0125)
    return rf.evolve(state, 5.0, params_pm1, config)


@pytest.fixture(scope="session")
def run_pm1_indicator(params_pm1):
    from scipy.special import erfc

    grid = rf.build_grid(1, 6.0, 800)
    state = rf.project_initial(lambda r: 0.5 * erfc((r - 1.0) / 0.25), grid)
    config = rf.SolverConfig(record_every=0.0125)
    return rf.evolve(state, 1.0, params_pm1, config)


@pytest.fixture(scope="session")
def corpus(run_fd3_gaussian, run_fd3_mixture, run_pm1_barenblatt,
           run_pm1_gaussian, run_pm1_indicator):
    """name -> (trajectory, expected_tau or None); each trajectory carries
    its reference (and through it its params)."""
    return {
        "fd3_gaussian": (run_fd3_gaussian, None),
        "fd3_mixture": (run_fd3_mixture, None),
        "pm1_barenblatt": (run_pm1_barenblatt, 1.0),
        "pm1_gaussian": (run_pm1_gaussian, None),
        "pm1_indicator": (run_pm1_indicator, None),
    }
