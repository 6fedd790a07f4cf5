import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import renyiflow as rf
from renyiflow import solver
from renyiflow.solver import InstabilityError, StiffnessError


@pytest.fixture(scope="module")
def pm_setup():
    params = rf.ModelParams(1, 2.0)
    grid = rf.build_grid(1, 6.0, 200)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    return params, grid, state


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
    # D = p u^(p-1) is uniform, so dt = cfl min_i V_i / (D reach_i), reach_i
    # the sum of cell i's face coefficients A_j / gap_j. On a uniform d = 2
    # grid with edges k dr, cell i has V_i = pi ((i+1)^2 - i^2) dr^2 =
    # pi (2i+1) dr^2 and faces 2 pi i dr and 2 pi (i+1) dr at gap dr, so
    # reach_i = 2 pi (2i+1) and V_i / reach_i = dr^2 / 2 (cell 0 too, whose
    # inner face is the zero-flux one at r = 0); the last cell has no outer
    # face and a larger ratio. The initial record carries the first bound.
    grid = rf.build_grid(2, 1.0, 50)
    state = rf.DensityState(grid=grid, u=np.ones(grid.n), t=0.0)
    params = rf.ModelParams(2, 2.0)
    dt = rf.evolve(state, 1e-6, params, rf.SolverConfig(cfl=0.5)).records[0].dt
    dr = grid.widths[0]
    assert dt == pytest.approx(0.5 * (dr * dr / 2.0) / 2.0, rel=1e-12)


@pytest.mark.parametrize("stretch", [1.0, 1.05])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0 / 3.0, 2.0])
def test_step_bound_is_monotone(d, p, stretch):
    # at cfl = 1 the Euler update m_i' = m_i + dt sum_j c_j (w_nb - w_i),
    # linearised, puts 1 - dt p u_i^(p-1) reach_i / V_i on m_i: nonnegative
    # in every cell, and zero (to round-off) in the cell that sets dt
    grid = rf.build_grid(d, 8.0, 64, stretch=stretch)
    u = 0.5 + np.exp(-grid.centers**2)  # far above the p < 1 floor
    state = rf.DensityState(grid=grid, u=u, t=0.0)
    params = rf.ModelParams(d, p)
    dt = rf.evolve(state, 1e-12, params, rf.SolverConfig(cfl=1.0)).records[0].dt
    reach = np.zeros(grid.n)
    for j in range(grid.n - 1):  # interior face between cells j and j + 1
        c = grid.areas[j + 1] / (grid.centers[j + 1] - grid.centers[j])
        reach[j] += c
        reach[j + 1] += c
    coeff = 1.0 - dt * p * u ** (p - 1.0) * reach / grid.volumes
    assert abs(coeff.min()) <= 4.0 * np.finfo(float).eps


def test_stable_dt_honors_dt_max():
    grid = rf.build_grid(1, 1.0, 50)
    state = rf.DensityState(grid=grid, u=np.ones(grid.n), t=0.0)
    params = rf.ModelParams(1, 2.0)
    traj = rf.evolve(state, 1e-9, params, rf.SolverConfig(dt_max=1e-9))
    assert traj.records[0].dt == 1e-9


def test_stiffness_error_below_dt_min(pm_setup):
    params, _, state = pm_setup
    with pytest.raises(StiffnessError):
        rf.evolve(state, 0.1, params, rf.SolverConfig(dt_min=1e3))


def test_mass_conservation_and_positivity(pm_setup):
    params, _, state = pm_setup
    traj = rf.evolve(state, 0.5, params, rf.SolverConfig(record_every=0.1))
    for rec in traj.records:
        assert rec.mass == pytest.approx(1.0, abs=1e-13)
    assert np.all(traj.final_state.u >= 0.0)
    assert traj.clipped_mass == 0.0
    assert traj.n_steps > 0


def test_record_schedule_uniform(pm_setup):
    params, _, state = pm_setup
    traj = rf.evolve(state, 1.0, params, rf.SolverConfig(record_every=0.25))
    assert np.allclose(traj.times(), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)
    assert traj.final_state.t == 1.0


def test_record_schedule_explicit(pm_setup):
    params, _, state = pm_setup
    cfg = rf.SolverConfig(record_times=(0.1, 0.3))
    traj = rf.evolve(state, 0.5, params, cfg)
    # initial record and a final one at t_end are always present
    assert np.allclose(traj.times(), [0.0, 0.1, 0.3, 0.5], atol=1e-12)


def test_evolve_rejects_backward_time(pm_setup):
    params, grid, _ = pm_setup
    state = rf.project_initial(lambda r: np.exp(-r * r), grid, t=1.0)
    with pytest.raises(ValueError):
        rf.evolve(state, 0.5, params, rf.SolverConfig())


def test_evolve_rejects_a_grid_of_another_dimension(pm_setup):
    # the d = 3 model's fluxes on a d = 1 grid would record a flow of neither
    _, _, state = pm_setup
    with pytest.raises(ValueError, match="model's d = 3 differs from the grid's d = 1"):
        rf.evolve(state, 0.5, rf.ModelParams(3, 2.0 / 3.0), rf.SolverConfig())


def test_evolution_is_deterministic(pm_setup):
    params, _, state = pm_setup
    cfg = rf.SolverConfig(record_every=0.1)
    a = rf.evolve(state, 0.3, params, cfg)
    b = rf.evolve(state, 0.3, params, cfg)
    assert a.n_steps == b.n_steps
    assert np.array_equal(a.final_state.u, b.final_state.u)
    for fa, fb in zip(a.records, b.records):
        assert fa == fb


def test_self_similar_moment_growth(run_pm1_barenblatt, ref_pm1):
    # released at age t0 = 1, Theta(t) = theta_star (1 + t)^(2/mu)
    traj = run_pm1_barenblatt
    t = traj.times()
    theta = traj.series("theta")
    expected = ref_pm1.theta_star * (1.0 + t) ** (2.0 / ref_pm1.exponents.mu)
    assert np.max(np.abs(theta / expected - 1.0)) < 1e-4


def test_fast_diffusion_smoke():
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    traj = rf.evolve(state, 0.01, params, rf.SolverConfig(record_every=0.005))
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


def _profile_kernel():
    """The d = 3, p = 2/3 source-type state at t0 = 1 on a coarse stretched
    grid, its flux kernel and its explicit step at cfl 0.85."""
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(
        lambda r: rf.self_similar_density(r, 1.0, params), grid, t=1.0)
    kernel = solver._Kernel(grid, params, 0.0)  # no floor: dt_expl itself
    kernel.pair(state.u, kernel.w, kernel.factor)
    dt_expl = solver._bound_dt(kernel.factor, kernel.geometry, True,
                               rf.SolverConfig(cfl=0.85), kernel.scratch)
    return kernel, state.u * grid.volumes, dt_expl


def _super_steps(kernel, m, t, n, dt_expl):
    out = np.empty_like(m)
    tau = t / n
    s = solver._stages(tau / dt_expl)
    for _ in range(n):
        solver._face_rates(kernel.power(m * kernel.inv_vol), kernel.coef,
                           kernel.flux[1:-1])
        m = kernel.super_step(m, tau, s, out.copy())
    return m, s


def test_super_step_is_second_order_in_time():
    # over t in [1, 1.2], N = 2, 4, ..., 32 equal super-steps (s from 49
    # down to 13 stages): each halving of tau cuts the L1 distance between
    # successive results by about 4, the mark of a second-order integrator
    kernel, m0, dt_expl = _profile_kernel()
    finals = [_super_steps(kernel, m0, 0.2, n, dt_expl)[0] for n in (2, 4, 8, 16, 32)]
    diffs = [float(np.abs(a - b).sum()) for a, b in zip(finals, finals[1:])]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    assert min(ratios) >= 3.5, ratios


def test_super_step_conserves_mass_at_most_stages():
    kernel, m0, dt_expl = _profile_kernel()
    smax = solver.SUPER_STEP_STAGES
    tau = 0.25 * (smax * smax + smax - 2) * dt_expl
    m, s = _super_steps(kernel, m0, tau, 1, dt_expl)
    assert s == smax
    assert abs(m.sum() - m0.sum()) <= 1e-13 * m0.sum()
    assert np.all(np.isfinite(m))


def test_compact_support_runs_all_euler(run_pm1_barenblatt):
    # p > 1: an empty cell next to a filled one is a front, so every step
    # is a limited Euler step
    traj = run_pm1_barenblatt
    assert traj.super_steps == traj.rejected_super_steps == 0
    assert traj.euler_steps == traj.n_steps > 0


def test_positive_runs_take_super_steps(run_pm1_gaussian, run_fd3_gaussian):
    for traj in (run_pm1_gaussian, run_fd3_gaussian):
        assert traj.super_steps > 0
        assert traj.rejected_super_steps == 0
        # a super-step wins only with s >= 4 stages
        assert traj.n_steps >= traj.euler_steps + 4 * traj.super_steps


def test_negative_super_step_is_redone_by_euler(monkeypatch, pm_setup):
    # a super-step that leaves a negative mass is discarded, never clipped:
    # the same step is taken again by limited Euler, and counted
    params, _, state = pm_setup
    real = solver._Kernel.super_step
    stages = []

    def spoiled(self, m, tau, s, out):
        real(self, m, tau, s, out)
        if not stages:
            out[0] = -1e-300
        stages.append(s)
        return out

    monkeypatch.setattr(solver._Kernel, "super_step", spoiled)
    traj = rf.evolve(state, 0.5, params, rf.SolverConfig(record_every=0.1))
    assert traj.rejected_super_steps == 1
    assert traj.super_steps == len(stages) - 1 > 0
    assert traj.n_steps == traj.euler_steps + sum(stages)
    assert traj.clipped_mass == 0.0
    assert np.all(traj.final_state.u >= 0.0)
    assert traj.final_state.mass() == pytest.approx(state.mass(), abs=1e-13)


def _indicator(r):
    from scipy.special import erfc

    return 0.5 * erfc((r - 1.0) / 0.25)


# (d, p, grid, datum, t_end, record_every, u_floor relative to max u0): runs
# whose record counts are not multiples of their block size, so the last
# block is partial
BLOCK_RUNS = {
    # the fd3 grid, the exact datum and the whole-space E
    "fd3_exact": (3, 2.0 / 3.0, (896000.0, 1050, 1.012), "barenblatt", 0.01, 0.0005, None),
    # pm1_indicator's datum: p > 1 with remainder_boundary raised
    "pm1_indicator": (1, 2.0, (6.0, 100, 1.0), _indicator, 0.8, 0.01, None),
    # p <= 1/2: the floored Fisher sum
    "fisher_floored": (1, 0.4, (40.0, 160, 1.0), lambda r: np.exp(-r * r), 1e-3, 2.5e-5,
                       1e-10),
}


@pytest.mark.parametrize("name", BLOCK_RUNS)
def test_records_do_not_depend_on_their_block(name):
    # evolve evaluates its records a block at a time; each must have the
    # bits of the lone evaluation of its snapshot
    d, p, (r_max, n, stretch), datum, t_end, every, floor = BLOCK_RUNS[name]
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, r_max, n, stretch=stretch)
    if datum == "barenblatt":
        state = rf.project_initial(lambda r: rf.self_similar_density(r, 1.0, params), grid)
    else:
        state = rf.project_initial(datum, grid)
    u_floor = None if floor is None else floor * state.u.max()
    observed = []
    traj = rf.evolve(state, t_end, params,
                     rf.SolverConfig(record_every=every, u_floor=u_floor),
                     observer=lambda rec, snap: observed.append((rec, snap)))
    block = solver.record_block(n)
    assert len(traj.records) > block and len(traj.records) % block != 0
    assert [rec for rec, _ in observed] == traj.records
    flags = set()
    for rec, snap in observed:
        alone = rf.diagnostics([snap], traj.reference, dts=[rec.dt],
                               whole_space=traj.whole_space_entropy)[0]
        for field in rf.FunctionalRecord.__dataclass_fields__:
            assert getattr(rec, field) == getattr(alone, field), (field, rec.t)
        flags.update(rec.flags)
    if name == "fd3_exact":
        assert traj.whole_space_entropy
    elif name == "pm1_indicator":
        assert "remainder_boundary" in flags
    else:
        assert rf.params.unmet(params, "gn_conversion") is not None
