"""Shared fixtures: the corpus of recorded runs every suite layer reuses.

The five corpus runs are the five shipped configs of configs/, evolved as
`renyiflow run` evolves them, so the tests read the very runs the sweep
checks. They cover both regimes and all datum shapes at desk scale and are
session-scoped, so each runs once. Tests must treat the returned
trajectories as read-only.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import renyiflow as rf
from renyiflow.cli import build_initial_state, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def shipped_run(name: str) -> rf.Trajectory:
    """The trajectory of configs/<name>.json, without its checks."""
    cfg = load_config(CONFIGS / f"{name}.json")
    return rf.evolve(build_initial_state(cfg), cfg.t_end, cfg.params, cfg.solver)


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
def run_fd3_gaussian():
    return shipped_run("fd3_gaussian")


@pytest.fixture(scope="session")
def run_fd3_mixture():
    return shipped_run("fd3_mixture")


@pytest.fixture(scope="session")
def run_pm1_barenblatt():
    # Trajectory time is elapsed time: the state released at t = 0 is the
    # self-similar solution already aged to t0 = 1, so tau should stay at 1.
    return shipped_run("pm1_barenblatt")


@pytest.fixture(scope="session")
def run_pm1_gaussian():
    return shipped_run("pm1_gaussian")


@pytest.fixture(scope="session")
def run_pm1_indicator():
    return shipped_run("pm1_indicator")


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
