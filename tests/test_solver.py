import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import renyiflow as rf
from renyiflow.solver import InstabilityError, StiffnessError


@pytest.fixture(scope="module")
def pm_setup():
    params = rf.ModelParams(1, 2.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(1, 6.0, 200)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    return params, ref, grid, state


@pytest.mark.parametrize("kwargs", [
    dict(cfl=0.0),
    dict(cfl=1.5),
    dict(dt_min=2.0, dt_max=1.0),
    dict(u_floor=-1e-3),
    dict(record_every=0.0),
    dict(record_times=()),
    dict(record_times=(0.2, 0.1)),
    dict(record_times=(-0.1, 0.2)),
    dict(record_times=(0.1, math.nan)),
])
def test_solver_config_rejections(kwargs):
    with pytest.raises(ValueError):
        rf.SolverConfig(**kwargs)


def test_stable_dt_constant_state():
    # D = p u^(p-1) is uniform, so dt = cfl dr^2 / (2 d D) exactly; the
    # initial record carries the first step bound
    grid = rf.build_grid(2, 1.0, 50)
    state = rf.DensityState(grid=grid, u=np.ones(grid.n), t=0.0)
    params = rf.ModelParams(2, 2.0)
    dt = rf.evolve(state, 1e-6, params, rf.SolverConfig(cfl=0.5)).records[0].dt
    dr = grid.widths[0]
    assert dt == pytest.approx(0.5 * dr * dr / (2.0 * 2 * 2.0), rel=1e-12)


def test_stable_dt_honors_dt_max():
    grid = rf.build_grid(1, 1.0, 50)
    state = rf.DensityState(grid=grid, u=np.ones(grid.n), t=0.0)
    params = rf.ModelParams(1, 2.0)
    traj = rf.evolve(state, 1e-9, params, rf.SolverConfig(dt_max=1e-9))
    assert traj.records[0].dt == 1e-9


def test_stiffness_error_below_dt_min(pm_setup):
    params, ref, _, state = pm_setup
    with pytest.raises(StiffnessError):
        rf.evolve(state, 0.1, params, rf.SolverConfig(dt_min=1e3), reference=ref)


def test_mass_conservation_and_positivity(pm_setup):
    params, ref, _, state = pm_setup
    traj = rf.evolve(state, 0.5, params, rf.SolverConfig(record_every=0.1),
                     reference=ref)
    for rec in traj.records:
        assert rec.mass == pytest.approx(1.0, abs=1e-13)
    assert np.all(traj.final_state.u >= 0.0)
    assert traj.clipped_mass == 0.0
    assert traj.n_steps > 0


def test_record_schedule_uniform(pm_setup):
    params, ref, _, state = pm_setup
    traj = rf.evolve(state, 1.0, params, rf.SolverConfig(record_every=0.25),
                     reference=ref)
    assert np.allclose(traj.times(), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    assert traj.final_state.t == 1.0


def test_record_schedule_explicit(pm_setup):
    params, ref, _, state = pm_setup
    cfg = rf.SolverConfig(record_times=(0.1, 0.3))
    traj = rf.evolve(state, 0.5, params, cfg, reference=ref)
    # initial record and a final one at t_end are always present
    assert np.allclose(traj.times(), [0.0, 0.1, 0.3, 0.5], atol=1e-12)


def test_evolve_rejects_backward_time(pm_setup):
    params, ref, grid, _ = pm_setup
    state = rf.project_initial(lambda r: np.exp(-r * r), grid, t=1.0)
    with pytest.raises(ValueError):
        rf.evolve(state, 0.5, params, rf.SolverConfig(), reference=ref)


def test_evolution_is_deterministic(pm_setup):
    params, ref, _, state = pm_setup
    cfg = rf.SolverConfig(record_every=0.1)
    a = rf.evolve(state, 0.3, params, cfg, reference=ref)
    b = rf.evolve(state, 0.3, params, cfg, reference=ref)
    assert a.n_steps == b.n_steps
    assert np.array_equal(a.final_state.u, b.final_state.u)
    for fa, fb in zip(a.records, b.records):
        assert fa == fb


def test_self_similar_moment_growth(run_pm1_barenblatt, params_pm1, ref_pm1):
    # released at age t0 = 1, Theta(t) = theta_star (1 + t)^(2/mu)
    traj = run_pm1_barenblatt
    t = traj.times()
    theta = traj.series("theta")
    expected = ref_pm1.theta_star * (1.0 + t) ** (2.0 / ref_pm1.exponents.mu)
    assert np.max(np.abs(theta / expected - 1.0)) < 1e-4


def test_fast_diffusion_smoke():
    params = rf.ModelParams(3, 2.0 / 3.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    traj = rf.evolve(state, 0.01, params, rf.SolverConfig(record_every=0.005),
                     reference=ref)
    for rec in traj.records:
        assert rec.mass == pytest.approx(1.0, abs=1e-12)
        assert rec.q_ratio >= 1.0 - 1e-12
        assert math.isfinite(rec.entropy) and math.isfinite(rec.fisher)
    assert np.all(traj.final_state.u > 0.0)  # fast diffusion keeps positivity


@pytest.mark.parametrize("d,p", [(1, 2.0), (3, 2.0 / 3.0)])
def test_nan_state_fails_loudly(d, p):
    # project_initial rejects NaN, so the state is built directly; the
    # guards must not let a NaN through as a truncated trajectory
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, 6.0, 64)
    u = np.exp(-grid.centers**2)
    u[10] = math.nan
    state = rf.DensityState(grid=grid, u=u, t=0.0)
    with pytest.raises((InstabilityError, StiffnessError)):
        rf.evolve(state, 0.1, params, rf.SolverConfig(record_every=0.05))


def test_donor_cell_limiter_fires_and_conserves():
    # the diffusivity floor relaxes the step bound in the fast-diffusion
    # tail, so plain updates would overdraw cells there
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    traj = rf.evolve(state, 0.01, params, rf.SolverConfig(record_every=0.005))
    assert traj.limited_steps > 0
    assert np.all(traj.final_state.u >= 0.0)
    assert traj.final_state.mass() == pytest.approx(state.mass(), abs=1e-13)


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    p_frac=st.floats(min_value=0.0, max_value=1.0),
    bumps=st.lists(st.tuples(st.floats(min_value=0.1, max_value=2.0),
                             st.floats(min_value=0.0, max_value=3.0),
                             st.floats(min_value=0.3, max_value=1.5)),
                   min_size=1, max_size=3),
)
def test_evolution_properties_on_random_mixtures(d, p_frac, bumps):
    # any admissible (d, p) and positive Gaussian mixture: mass conserved,
    # u >= 0 and q finite and >= 1 at every record, reruns identical
    lo = max(0.05, 1.0 - 2.0 / d + 0.05)
    p = lo + p_frac * (2.5 - lo)
    assume(abs(p - 1.0) > 0.05)
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, 6.0, 64)

    def mixture(r):
        return sum(a * np.exp(-(((r - c) / w) ** 2)) for a, c, w in bumps)

    state = rf.project_initial(mixture, grid)
    config = rf.SolverConfig(record_every=0.005)
    snapshots = []
    runs = [rf.evolve(state, 0.02, params, config,
                      observer=lambda rec, snap: snapshots.append(snap.u))
            for _ in range(2)]
    for rec in runs[0].records:
        assert rec.mass == pytest.approx(1.0, abs=1e-13)
        assert math.isfinite(rec.q_ratio) and rec.q_ratio >= 1.0 - 1e-12
    assert all(np.all(u >= 0.0) for u in snapshots)
    a, b = runs
    assert [repr(r) for r in a.records] == [repr(r) for r in b.records]
    assert np.array_equal(a.final_state.u, b.final_state.u)
