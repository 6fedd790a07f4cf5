import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import renyiflow as rf
from renyiflow import solver
from renyiflow.cli import load_config
from renyiflow.solver import InstabilityError, StiffnessError

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def pm_setup():
    params = rf.ModelParams(1, 2.0)
    grid = rf.build_grid(1, 6.0, 200)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    return params, grid, state


@pytest.mark.parametrize("kwargs", [
    dict(record_every=math.nan),
    dict(record_from=-0.1),
    dict(record_from=-math.inf),
    dict(record_every=0.0),
    dict(record_from=math.inf),
    dict(record_from=math.nan),
    dict(record_from="0.05"),
    dict(record_from=None),
    dict(dt_min=math.nan),
    dict(dt_min=math.inf),
    dict(dt_min=-1e-9),
    dict(dt_min="0.1"),
    dict(record_every="0.1"),
    dict(record_every=None),
    dict(record_every=math.inf),
])
def test_solver_config_rejections(kwargs):
    (key,) = kwargs
    with pytest.raises(ValueError, match=key):
        rf.SolverConfig(**kwargs)


def test_stable_dt_constant_state():
    # D = p u^(p-1) is uniform, so dt = CFL min_i V_i / (D reach_i), reach_i
    # the sum of cell i's face coefficients A_j / gap_j. On a uniform d = 2
    # grid with edges k dr, cell i has V_i = pi ((i+1)^2 - i^2) dr^2 =
    # pi (2i+1) dr^2 and faces 2 pi i dr and 2 pi (i+1) dr at gap dr, so
    # reach_i = 2 pi (2i+1) and V_i / reach_i = dr^2 / 2 (cell 0 too, whose
    # inner face is the zero-flux one at r = 0); the last cell has no outer
    # face and a larger ratio. The initial record carries the first bound.
    grid = rf.build_grid(2, 1.0, 50)
    state = rf.DensityState(grid=grid, u=np.ones(grid.n), t=0.0)
    params = rf.ModelParams(2, 2.0)
    dt = rf.evolve(state, 1e-6, params, rf.SolverConfig()).records[0].dt
    dr = grid.widths[0]
    assert dt / solver.CFL == pytest.approx((dr * dr / 2.0) / 2.0, rel=1e-12)


@pytest.mark.parametrize("stretch", [1.0, 1.05])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [2.0 / 3.0, 2.0])
def test_step_bound_is_monotone(d, p, stretch):
    # at dt = bound / CFL the Euler update m_i' = m_i + dt sum_j c_j (w_nb -
    # w_i), linearised, puts 1 - dt p u_i^(p-1) reach_i / V_i on m_i:
    # nonnegative in every cell, and zero (to round-off) in the cell that
    # sets dt
    grid = rf.build_grid(d, 8.0, 64, stretch=stretch)
    u = 0.5 + np.exp(-grid.centers**2)  # far above the p < 1 floor
    state = rf.DensityState(grid=grid, u=u, t=0.0)
    params = rf.ModelParams(d, p)
    dt = rf.evolve(state, 1e-12, params, rf.SolverConfig()).records[0].dt / solver.CFL
    reach = np.zeros(grid.n)
    for j in range(grid.n - 1):  # interior face between cells j and j + 1
        c = grid.areas[j + 1] / (grid.centers[j + 1] - grid.centers[j])
        reach[j] += c
        reach[j + 1] += c
    coeff = 1.0 - dt * p * u ** (p - 1.0) * reach / grid.volumes
    assert abs(coeff.min()) <= 4.0 * np.finfo(float).eps


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


def test_record_schedule_from(pm_setup):
    params, _, state = pm_setup
    cfg = rf.SolverConfig(record_every=0.1, record_from=0.3)
    traj = rf.evolve(state, 0.5, params, cfg)
    # initial record and a final one at t_end are always present
    assert np.allclose(traj.times(), [0.0, 0.3, 0.4, 0.5], atol=1e-12)
    for record_from in (0.5, 0.7):
        cfg = rf.SolverConfig(record_every=0.1, record_from=record_from)
        assert rf.evolve(state, 0.5, params, cfg).times().tolist() == [0.0, 0.5]


@pytest.mark.parametrize("t0,record_every,t_end", [
    (0.0, 0.0125, 5.0), (0.0, 0.1, 1.0), (1.0, 0.0005, 2.0), (0.3, 0.07, 2.9)])
def test_record_schedule_without_record_from_is_the_cadence(t0, record_every, t_end):
    cadence = [t0 + k * record_every for k in range(1, 10000)]
    expected = [s for s in cadence if s < t_end] + [t_end]
    for cfg in (rf.SolverConfig(record_every=record_every),
                rf.SolverConfig(record_every=record_every, record_from=0.0)):
        assert list(solver._record_schedule(t0, t_end, cfg)) == expected


def test_record_schedule_of_fd3_gaussian():
    # the 0.0125 cadence from t = 0.05 on: each k*0.0125 lies within one
    # ulp of 0.05 + j*0.0125
    cfg = load_config(CONFIGS / "fd3_gaussian.json")
    times = np.array([0.0] + list(solver._record_schedule(0.0, cfg.t_end, cfg.solver)))
    offsets = 0.05 + np.arange(396) * 0.0125
    expected = np.concatenate(([0.0], offsets, [cfg.t_end]))
    assert times.size == expected.size == 398
    assert np.all(np.abs(times - expected) <= np.spacing(expected))


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


def _path_system(k, volumes):
    """The dense V + A of _implicit_solve: A the path Laplacian of the face
    weights k (face j joins cells j and j+1)."""
    faces = np.arange(k.size)
    system = np.diag(volumes)
    system[faces, faces] += k
    system[faces + 1, faces + 1] += k
    system[faces, faces + 1] = system[faces + 1, faces] = -k
    return system


_SUBNORMAL = st.floats(min_value=5e-324, max_value=2.2e-308)
# a cell is empty 3 times in 10, else a subnormal or a normal mass
_MASS = st.tuples(st.integers(0, 9), st.one_of(
    _SUBNORMAL, st.floats(min_value=1e-300, max_value=1e3))).map(
        lambda kv: 0.0 if kv[0] < 3 else kv[1])
# a face weight is zero, subnormal or ordinary, and in half the systems
# also huge (K u stays finite)
_WEIGHT = st.one_of(st.just(0.0), _SUBNORMAL, st.floats(min_value=1e-300, max_value=1e3))
_HUGE = st.floats(min_value=1e3, max_value=1e299)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=40))
def test_implicit_solve_matches_dense_oracle(data, n):
    # about 30% empty cells, zero, subnormal and huge weights: u' >= 0
    # exactly, a componentwise small residual, the mass kept, no warning,
    # and the dense LAPACK solution wherever that one is accurate
    m = np.array(data.draw(st.lists(_MASS, min_size=n, max_size=n)))
    volumes = np.array(data.draw(st.lists(st.floats(min_value=1e-3, max_value=1e3),
                                          min_size=n, max_size=n)))
    weight = st.one_of(_WEIGHT, _HUGE) if data.draw(st.booleans()) else _WEIGHT
    k = np.array(data.draw(st.lists(weight, min_size=n - 1, max_size=n - 1)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        u = solver._implicit_solve(k, volumes, m)
    assert u.shape == (n,) and np.all(u >= 0.0)
    eps = np.finfo(float).eps
    system = _path_system(k, volumes)
    scale = np.abs(system) @ u + m
    assert np.all(np.abs(system @ u - m) <= 16 * n * eps * scale + 1e-300)
    assert abs(volumes @ u - m.sum()) <= 16 * n * eps * m.sum() + 1e-300
    # V + A is strictly diagonally dominant by V, so ||(V + A)^-1||_inf <=
    # 1/min V (Varah) bounds its condition number
    kappa = np.abs(system).sum(axis=1).max() / volumes.min()
    if n * eps * kappa < 1e-6:
        expected = np.linalg.solve(system, m)
        assert np.all(np.abs(u - expected) <= 16 * n * eps * kappa * np.abs(expected).max()
                      + 1e-300)


def test_overdrawing_steps_are_taken_implicitly():
    # the diffusivity floor relaxes the step bound in the fast-diffusion
    # tail, so plain updates would overdraw cells there; those steps are
    # taken implicitly, which keeps every snapshot nonnegative and the mass
    # to round-off, and clips nothing
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    snapshots = []
    traj = rf.evolve(state, 0.01, params, rf.SolverConfig(record_every=0.005),
                     observer=lambda rec, snap: snapshots.append(snap.u))
    assert traj.limited_steps > 0 and traj.clipped_mass == 0.0
    assert all(np.all(u >= 0.0) for u in snapshots + [traj.final_state.u])
    for rec in traj.records:
        assert abs(rec.mass - state.mass()) <= 1e-13
    # every record after the first was reached by a step of the run
    assert 0.0 < traj.dt_min <= min(r.dt for r in traj.records[1:])
    assert max(r.dt for r in traj.records[1:]) <= traj.dt_max <= 0.005


def _kernel_at(grid, params, u, u_floor, dt):
    """A kernel holding the state u and its rates scaled by dt, as evolve
    leaves it before an implicit step."""
    kernel = solver._Kernel(grid, params, u_floor)
    np.copyto(kernel.u, u)
    kernel.load()
    kernel.flux *= dt
    return kernel


def _weights(d, p, u, u_floor, dt, step):
    """implicit_weights of the state u, padded with empty cells to 16, on a
    uniform grid of r_max 4, and the grid's face coefficients c_j."""
    u = np.concatenate((u, np.zeros(16 - u.size)))
    kernel = _kernel_at(rf.build_grid(d, 4.0, u.size), rf.ModelParams(d, p), u, u_floor, dt)
    return kernel.implicit_weights(dt, step).copy(), kernel.coef


@pytest.mark.parametrize("d,p", [(3, 2.0 / 3.0), (1, 0.2), (1, 2.0), (2, 3.0)])
def test_implicit_weights_fall_back_to_the_tangent_diffusivity(d, p):
    # filled cells, two equal ones (0/0 too) and an empty tail: the secant
    # step c (w_r - w_l)/(u_r - u_l) where it is finite, else the tangent
    # step c p max(u_l, u_r, floor)**(p-1), at evolve's floor (positive for
    # p < 1, 0 for p > 1); so for p > 1 a face between two empty cells
    # keeps K = 0
    u = np.concatenate(([1.0, 0.7, 0.7, 0.3, 1e-9], np.zeros(11)))
    floor, dt, step = (1e-12 if p < 1.0 else 0.0), 1e-4, 0.05
    k, coef = _weights(d, p, u, floor, dt, step)
    left, right = u[:-1], u[1:]
    w = u**p
    unequal = left != right
    np.testing.assert_allclose(
        k[unequal], step * coef[unequal] * (w[1:] - w[:-1])[unequal]
        / (right - left)[unequal], rtol=1e-12)
    tangent = step * coef * p * np.maximum(np.maximum(left, right), floor) ** (p - 1.0)
    np.testing.assert_allclose(k[~unequal], tangent[~unequal], rtol=1e-12)
    assert k[1] > 0.0  # the equal pair couples
    empty = (left == 0.0) & (right == 0.0)
    if p < 1.0:
        assert np.all(k > 0.0)
    else:
        assert np.all(k[empty] == 0.0) and np.all(k[~empty] > 0.0)


def test_implicit_weights_overflow_to_zero():
    # a tangent that overflows (here, an empty face with no floor at
    # p < 1) is 0, as an overflowing secant is
    k, _ = _weights(3, 2.0 / 3.0, np.array([1.0, 0.5]), 0.0, 1e-4, 0.05)
    assert np.all(k[2:] == 0.0) and np.all(k[:2] > 0.0)


def test_empty_cells_fill_in_one_implicit_step(monkeypatch):
    # fast diffusion propagates at infinite speed: the first implicit step
    # of the coarse Gaussian run above leaves no cell empty, so the front
    # does not take one Euler step per empty cell of the datum
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    empty = int(np.count_nonzero(state.u == 0.0))
    assert empty > 50
    real = solver._Kernel.implicit_step
    results = []

    def spy(self, m, *lengths_out):
        real(self, m, *lengths_out)
        results.append(lengths_out[-1].copy())

    monkeypatch.setattr(solver._Kernel, "implicit_step", spy)
    traj = rf.evolve(state, 0.01, params, rf.SolverConfig(record_every=0.005))
    assert results and np.all(results[0] > 0.0)
    assert traj.euler_steps < empty // 4
    assert np.all(traj.final_state.u > 0.0)


def test_compact_support_grows_one_cell_per_step(monkeypatch):
    # p > 1: D(0) = 0, so the support grows by at most one cell per step;
    # in an implicit step of any length too
    params = rf.ModelParams(1, 2.0)
    grid = rf.build_grid(1, 40.0, 160)
    state = rf.project_initial(lambda r: np.maximum(1.0 - r * r, 0.0), grid)
    front = int(np.flatnonzero(state.u)[-1])
    assert front < grid.n - 20
    kernel = _kernel_at(grid, params, state.u, 0.0, 1e-4)
    out = np.empty(grid.n)
    kernel.implicit_step(state.u * grid.volumes, 1e-4, 100.0, out)
    assert out[front + 1] > 0.0 and np.all(out[front + 2:] == 0.0)
    # every step of a run: the support after the datum and after each Euler
    # step
    supports = [front]
    real = solver._Kernel.euler_step

    def spy(self, m, *args):
        taken = real(self, m, *args)
        supports.append(int(np.flatnonzero(args[-1])[-1]))
        return taken

    monkeypatch.setattr(solver._Kernel, "euler_step", spy)
    traj = rf.evolve(state, 0.2, params, rf.SolverConfig(record_every=0.05))
    assert len(supports) == traj.euler_steps + 1 and traj.super_steps == 0
    assert supports[0] == front and supports[-1] > front
    assert max(np.diff(supports)) == 1 and min(np.diff(supports)) >= 0


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


def _profile_kernel(t0=1.0):
    """The d = 3, p = 2/3 source-type state at t0 on a coarse stretched
    grid, its flux kernel and its explicit step."""
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 200.0, 160, stretch=1.03)
    state = rf.project_initial(
        lambda r: rf.self_similar_density(r, t0, params), grid, t=t0)
    kernel = solver._Kernel(grid, params, 0.0)  # no floor: dt_expl itself
    np.copyto(kernel.u, state.u)
    dt_expl = kernel.load()
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
    # the longest super-step at plan's reach (the Collatz-Wielandt dt_expl),
    # from t0 = 3, where 200 stages span tau = 0.29 t0: mass telescopes, and
    # no mass goes negative. From t0 = 1 they would span 2.6 t0 (1.7 t0 at
    # Gershgorin's dt_expl), far beyond a linearised step, and overdraw
    # cell 0, in the 13-call recursion too; plan caps such a step first
    # (test_planned_super_step_is_nonnegative)
    kernel, m0, _ = _profile_kernel(3.0)
    dt_expl = kernel.explicit_bound()
    smax = solver.SUPER_STEP_STAGES
    tau = 0.25 * (smax * smax + smax - 2) * dt_expl
    m, s = _super_steps(kernel, m0, tau, 1, dt_expl)
    assert s == smax
    assert abs(m.sum() - m0.sum()) <= 1e-13 * m0.sum()
    assert np.all(np.isfinite(m)) and m.min() >= 0.0


def test_planned_super_step_is_nonnegative():
    # from t0 = 1, with the next record 10 time units away, the mass share
    # caps the super-step plan gives: it keeps every mass and the total
    kernel, m0, dt = _profile_kernel()
    tau, s, landed = kernel.plan(1.0, dt, 11.0, True, float(m0.sum()))
    assert 4 <= s < solver.SUPER_STEP_STAGES and not landed
    m = kernel.super_step(m0, tau, s, np.empty_like(m0))
    assert m.min() >= 0.0
    assert abs(m.sum() - m0.sum()) <= 1e-13 * m0.sum()


def _super_step_oracle(kernel, m, tau, s):
    """The stage recursion as it was before it became one product per
    stage: P_j = mu_j (P_(j-1) + rate - a_(j-1) first) + nu_j P_(j-2) in
    13 numpy calls per stage."""
    mu, nu, a_prev = solver._RKL2
    k = tau * 4.0 / (s * s + s - 2)
    coef_k = kernel.coef * k
    first = kernel.flux * k
    p_new = first / 3.0
    p_old, stage, tmp = (np.zeros_like(first) for _ in range(3))
    u, w, rate = np.empty_like(m), np.empty_like(m), stage[1:-1]
    for j in range(2, s + 1):
        np.subtract(p_new[1:], p_new[:-1], out=u)
        u += m
        u *= kernel.inv_vol
        solver._face_rates(kernel.power(u, w), coef_k, rate)
        stage += p_new
        np.multiply(first, a_prev[j], out=tmp)
        stage -= tmp
        stage *= mu[j]
        p_old *= nu[j]
        p_old += stage
        p_old, p_new = p_new, p_old
    return m + np.diff(p_new)


@settings(max_examples=25, deadline=None)
@given(s=st.integers(2, solver.SUPER_STEP_STAGES))
def test_fused_stages_match_the_stage_recursion(s):
    # one product c_j . stack per stage gives the recursion's masses to a
    # few ulps of the largest mass per stage (about 2 at s = 200), at the
    # longest tau that s stages reach
    kernel, m0, _ = _profile_kernel(3.0)
    tau = 0.25 * (s * s + s - 2) * kernel.explicit_bound()
    expected = _super_step_oracle(kernel, m0, tau, s)
    got = kernel.super_step(m0, tau, s, np.empty_like(m0))
    scale = np.finfo(float).eps * np.abs(expected).max()
    assert np.abs(got - expected).max() <= 4.0 * s * scale


def _spectral_radius(kernel, u):
    """The spectral radius of V^-1 L diag(p u**(p-1)), L the path Laplacian
    of the face coefficients, from eigvalsh of its symmetrisation
    (D/V)**(1/2) L (D/V)**(1/2): the oracle of the bound, which a run
    never computes."""
    root = np.sqrt(kernel.p * u ** (kernel.p - 1.0) * kernel.inv_vol)
    off = kernel.coef * root[:-1] * root[1:]
    matrix = np.diag(-kernel.reach * root * root) + np.diag(off, 1) + np.diag(off, -1)
    return -np.linalg.eigvalsh(matrix)[0]


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 3), stretch=st.sampled_from([1.0, 1.02, 1.05]),
       p=st.sampled_from([0.4, 0.5, 2.0 / 3.0, 0.9, 1.5, 2.0, 3.0]),
       logs=st.lists(st.floats(-30.0, 0.0), min_size=40, max_size=40))
def test_super_step_bound_covers_the_spectral_radius(d, stretch, p, logs):
    # plan's dt_expl is 2 CFL over a bound on the spectral radius of the
    # linearised operator; with unit weights the Collatz-Wielandt bound is
    # Gershgorin's, the Euler bound's form
    grid = rf.build_grid(d, 8.0, 40, stretch=stretch)
    u = 10.0 ** np.array(logs)
    kernel = solver._Kernel(grid, rf.ModelParams(d, p), 0.0)
    np.copyto(kernel.u, u)
    euler = kernel.load()  # no floor: for p > 1, the Gershgorin dt_expl
    dt_expl = kernel.explicit_bound()
    assert 2.0 * solver.CFL / dt_expl >= _spectral_radius(kernel, u) * (1.0 - 1e-12)
    gershgorin = solver.CFL * np.min(kernel.geometry * u / kernel.w) if p < 1.0 else euler
    unit = kernel.collatz_geometry(np.ones(grid.n))
    np.testing.assert_allclose(unit, kernel.geometry, rtol=4.0 * np.finfo(float).eps)
    kernel.spectral_geometry = unit
    assert kernel.explicit_bound() == pytest.approx(gershgorin, rel=1e-14)


def test_super_step_bound_is_tight_on_the_fd3_grid(run_fd3_gaussian, params_fd3):
    # on the stretched fd3 grid Gershgorin's row bound is about 1.49 times
    # the spectral radius (the d = 3 origin cell's row); the Collatz-Wielandt
    # bound is within 1% of it
    state = run_fd3_gaussian.final_state
    kernel = solver._Kernel(state.grid, params_fd3, 0.0)
    np.copyto(kernel.u, state.u)
    euler = kernel.load()
    rho = _spectral_radius(kernel, state.u)
    assert 2.0 * solver.CFL / euler > 1.4 * rho
    assert rho <= 2.0 * solver.CFL / kernel.explicit_bound() <= 1.01 * rho


def test_compact_support_runs_all_euler(run_pm1_barenblatt):
    # p > 1: an empty cell next to a filled one is a front, so every step
    # is an Euler step
    traj = run_pm1_barenblatt
    assert traj.super_steps == traj.rejected_super_steps == 0
    assert traj.euler_steps == traj.n_steps > 0


def test_porous_medium_runs_take_no_implicit_step(corpus):
    # at CFL < 1 < p a forward step keeps m' >= (1 - CFL/p) m, so it never
    # overdraws a cell: the implicit step serves p < 1 only
    runs = {name: traj for name, (traj, _) in corpus.items()
            if traj.reference.params.p > 1.0}
    assert sorted(runs) == ["pm1_barenblatt", "pm1_gaussian", "pm1_indicator"]
    assert {name: traj.limited_steps for name, traj in runs.items()} == dict.fromkeys(runs, 0)


def test_positive_runs_take_super_steps(run_pm1_gaussian, run_fd3_gaussian):
    for traj in (run_pm1_gaussian, run_fd3_gaussian):
        assert traj.super_steps > 0
        # a super-step wins only with s >= 4 stages
        assert traj.n_steps >= traj.euler_steps + 4 * traj.super_steps
        assert 4 <= traj.max_stages <= solver.SUPER_STEP_STAGES
        assert traj.n_steps <= traj.euler_steps + traj.max_stages * traj.super_steps
    # 15,384 flux evaluations with the Collatz-Wielandt spectral bound and
    # 18,098 with Gershgorin's
    assert run_fd3_gaussian.n_steps <= 16_000


def test_no_corpus_run_discards_a_super_step(corpus):
    # a discarded super-step means the spectral bound under-read the
    # spectral radius and let one overdraw a cell
    rejected = {name: traj.rejected_super_steps for name, (traj, _) in corpus.items()}
    assert rejected == dict.fromkeys(corpus, 0)


def test_front_phase_step_count(run_fd3_gaussian):
    # fd3_gaussian's datum leaves 862 cells empty; the implicit step fills
    # them in 48 Euler steps, and 862 would mean one step per empty cell
    # again
    assert run_fd3_gaussian.euler_steps <= 100


def test_negative_super_step_is_redone_by_euler(monkeypatch, pm_setup):
    # a super-step that leaves a negative mass is discarded, never clipped:
    # the same step is taken again by an Euler step, and counted
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


# (d, p, grid, datum, t_end, record_every): runs
# whose record counts are not multiples of their block size, so the last
# block is partial
BLOCK_RUNS = {
    # the fd3 grid, the exact datum and the whole-space E
    "fd3_exact": (3, 2.0 / 3.0, (896000.0, 1050, 1.012), "barenblatt", 0.01, 0.0005),
    # pm1_indicator's datum: p > 1 with remainder_boundary raised
    "pm1_indicator": (1, 2.0, (6.0, 100, 1.0), _indicator, 0.8, 0.002),
    # p <= 1/2: the floored Fisher sum
    "fisher_floored": (1, 0.4, (40.0, 160, 1.0), lambda r: np.exp(-r * r), 1e-3, 4e-6),
}


@pytest.mark.parametrize("name", BLOCK_RUNS)
def test_records_do_not_depend_on_their_block(name):
    # evolve evaluates its records a block at a time; each must have the
    # bits of the lone evaluation of its snapshot
    d, p, (r_max, n, stretch), datum, t_end, every = BLOCK_RUNS[name]
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, r_max, n, stretch=stretch)
    if datum == "barenblatt":
        state = rf.project_initial(lambda r: rf.self_similar_density(r, 1.0, params), grid)
    else:
        state = rf.project_initial(datum, grid)
    observed = []
    traj = rf.evolve(state, t_end, params, rf.SolverConfig(record_every=every),
                     observer=lambda rec, snap: observed.append((rec, snap)))
    block = solver.record_block(n)
    assert len(traj.records) > block and len(traj.records) % block != 0
    assert [rec for rec, _ in observed] == list(traj.records)
    flags = set()
    for rec, snap in observed:
        alone = rf.diagnostics([snap], traj.reference, dts=[rec.dt],
                               whole_space=traj.whole_space_entropy)[0]
        for field in rf.FunctionalRecord._fields:
            assert getattr(rec, field) == getattr(alone, field), (field, rec.t)
        flags.update(rec.flags)
    if name == "fd3_exact":
        assert traj.whole_space_entropy
    elif name == "pm1_indicator":
        assert "remainder_boundary" in flags
    else:
        assert rf.params.unmet(params, "gn_conversion") is not None


def test_record_table_contract():
    # Trajectory.records is one float table plus flags, read as a sequence
    # of FunctionalRecords built on demand, on a run whose last block is
    # partial and some of whose records carry flags
    d, p, (r_max, n, stretch), datum, t_end, every = BLOCK_RUNS["pm1_indicator"]
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, r_max, n, stretch=stretch)
    snaps = []
    traj = rf.evolve(rf.project_initial(datum, grid), t_end, params,
                     rf.SolverConfig(record_every=every),
                     observer=lambda rec, snap: snaps.append(snap))
    records = traj.records
    assert len(records) == len(snaps) == round(t_end / every) + 1
    assert len(records) % solver.record_block(n) != 0
    assert records[0].t == 0.0 and records[-1].t == t_end
    assert records[-1] == records[len(records) - 1]
    assert records[-len(records)] == records[0]
    with pytest.raises(IndexError):
        records[len(records)]
    every_fifth = records[3::5]
    assert len(every_fifth) == len(range(3, len(records), 5))
    assert list(every_fifth) == [records[i] for i in range(3, len(records), 5)]
    listed = list(records)
    assert listed == [records[i] for i in range(len(records))]
    assert any(rec.flags for rec in listed)
    # each record has the bits of a lone evaluation of its snapshot, as
    # Python floats
    for rec, snap in zip(listed, snaps):
        assert all(type(x) is float for x in rec[:-1])
        assert rec == rf.diagnostics([snap], traj.reference, dts=[rec.dt],
                                     whole_space=traj.whole_space_entropy)[0]
    for name in rf.FunctionalRecord._fields[:-1]:
        column = traj.series(name)
        assert column.tobytes() == np.array([getattr(r, name) for r in listed]).tobytes()
    # read-only: no item assignment, no write to the table
    with pytest.raises(TypeError):
        records[0] = listed[0]
    with pytest.raises(ValueError):
        records.values[0, 0] = 1.0
    # a trajectory built from a list of records packs it into the same table
    packed = dataclasses.replace(traj, records=listed)
    assert packed.records.values.tobytes() == records.values.tobytes()
    assert packed.records.flags == records.flags


def test_records_take_one_float_row_each():
    # a record is a row of 16 doubles in the trajectory's table, not an
    # object of boxed floats (about 550 bytes a record); the allowance
    # holds the flags (8 bytes a record here), the final state and the
    # reference
    grid = rf.build_grid(1, 6.0, 50)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    params = rf.ModelParams(1, 2.0)
    config = rf.SolverConfig(record_every=1e-4)
    # a first run of at least one full block sizes the diagnostics workspace
    assert len(rf.evolve(state, 0.03, params, config).records) > solver.record_block(grid.n)
    tracemalloc.start()
    try:
        traj = rf.evolve(state, 0.1, params, config)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(traj.records) >= 1000
    assert held <= 16 * 8 * len(traj.records) + 64 * 1024
