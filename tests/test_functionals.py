import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renyiflow as rf
from renyiflow import solver
from renyiflow._pow import pow_fn
from renyiflow.functionals import (
    DUST_REL,
    REMAINDER_MASK_REL,
    FunctionalRecord,
    _live_faces,
    _potential,
    _relative_entropy,
    _workspace,
    diagnostics,
    whole_space_entropy,
)
from renyiflow.params import unmet


def sampled_state(f, grid):
    """f sampled at the cell midpoints, renormalized to unit mass: point
    values, on which the diagnostics' quadratures are exact to their order
    (project_initial stores cell averages instead)."""
    u = f(grid.centers)
    return rf.DensityState(grid=grid, u=u / grid.integrate(u), t=0.0)


def sampled_profile(d, p, r_max, n, stretch=1.0):
    params = rf.ModelParams(d, p)
    ref = rf.build_reference(params)
    grid = rf.build_grid(d, r_max, n, stretch=stretch)
    state = sampled_state(lambda r: rf.self_similar_density(r, 1.0, params), grid)
    return ref, state


@pytest.mark.parametrize("d,p,r_max,n,stretch", [
    (1, 2.0, 5.0, 800, 1.0),
    (3, 2.0 / 3.0, 896000.0, 1050, 1.012),
])
def test_profile_state_diagnostics(d, p, r_max, n, stretch):
    """The projected source-type state at unit age reproduces the closed-form
    scale-invariant levels; tolerances are ~10x the measured discretization
    error at these resolutions."""
    ref, state = sampled_profile(d, p, r_max, n, stretch)
    rec = diagnostics([state], ref)[0]
    assert rec.mass == pytest.approx(1.0, abs=1e-13)
    assert rec.theta == pytest.approx(ref.theta_star, rel=1e-3)
    assert rec.h_renyi == pytest.approx(ref.h_star, rel=1e-4)
    assert rec.j_scale == pytest.approx(ref.j_star, rel=2e-4)
    # equality case of the moment/entropy/information inequality
    assert abs(rec.q_ratio - 1.0) <= 1e-12
    # the remainder vanishes on the profile (v quadratic in r)
    assert abs(rec.remainder) <= 1e-12 * rec.entropy * rec.fisher
    assert rec.tau == pytest.approx(1.0, abs=1e-4)
    assert rec.rel_entropy <= 1e-6 * rec.entropy


def test_recomposition_identities():
    ref, state = sampled_profile(1, 2.0, 5.0, 800)
    rec = diagnostics([state], ref)[0]
    ex = ref.exponents
    assert rec.f_power == pytest.approx(rec.entropy**ex.sigma, rel=1e-12)
    assert rec.g_power == pytest.approx(rec.theta ** (0.5 * ex.mu), rel=1e-12)
    assert rec.h_renyi == pytest.approx(
        rec.theta ** (-0.5 * ex.eta) * rec.entropy, rel=1e-12)
    assert rec.j_scale == pytest.approx(
        rec.entropy ** (ex.sigma - 1.0) * rec.fisher, rel=1e-12)


def test_gaussian_closed_forms():
    params = rf.ModelParams(1, 2.0)
    grid = rf.build_grid(1, 6.0, 800)
    state = sampled_state(lambda r: np.exp(-r * r), grid)
    rec = diagnostics([state], rf.build_reference(params))[0]
    assert rec.theta == pytest.approx(0.5, rel=1e-3)
    # u = exp(-r^2)/sqrt(pi): int u^2 = 1/sqrt(2 pi)
    assert rec.entropy == pytest.approx(1.0 / math.sqrt(2.0 * math.pi), rel=1e-6)

    params3 = rf.ModelParams(3, 2.0)
    grid3 = rf.build_grid(3, 40.0, 800)
    state3 = sampled_state(lambda r: np.exp(-r * r), grid3)
    rec3 = diagnostics([state3], rf.build_reference(params3))[0]
    assert rec3.theta == pytest.approx(0.5, rel=1e-3)


def relative_entropy(state, s, reference):
    # the divergence of one state at an arbitrary match time s
    u, p = state.u[None], reference.params.p
    scratch = np.empty((4, 1, state.grid.n))
    return _relative_entropy(state.grid, u, pow_fn(p)(u), [s], reference, scratch)[0]


def test_relative_entropy_is_a_divergence():
    ref, state = sampled_profile(1, 2.0, 5.0, 800)
    s = diagnostics([state], ref)[0].s_match
    assert relative_entropy(state, s, ref) <= 1e-6 * ref.entropy
    assert relative_entropy(state, 2.0 * s, ref) > 1e-3
    with pytest.raises(ValueError):
        relative_entropy(state, 0.0, ref)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    amps=st.lists(st.floats(min_value=0.1, max_value=2.0), min_size=1, max_size=3),
    centers=st.lists(st.floats(min_value=0.0, max_value=3.0), min_size=1, max_size=3),
    p_off=st.floats(min_value=-0.25, max_value=1.5),
)
def test_ratio_lower_bound_by_construction(d, amps, centers, p_off):
    # q >= 1 must hold for arbitrary positive states, not just near the
    # profile: the discretization mirrors the Cauchy-Schwarz argument exactly
    p = 1.0 + p_off if abs(p_off) > 0.05 else 1.5  # p in [0.75, 2.5] minus p = 1
    params = rf.ModelParams(d, p)
    grid = rf.build_grid(d, 8.0, 200)
    k = min(len(amps), len(centers))

    def profile(r):
        out = np.zeros_like(r)
        for a, c in zip(amps[:k], centers[:k]):
            out += a * np.exp(-((r - c) ** 2))
        return out

    state = rf.project_initial(profile, grid)
    q = diagnostics([state], rf.build_reference(params))[0].q_ratio
    assert q >= 1.0 - 1e-12


def test_remainder_sign_on_generic_data():
    # R >= 0 in the fast-diffusion window, R <= 0 in the degenerate regime
    params = rf.ModelParams(3, 2.0 / 3.0)
    grid = rf.build_grid(3, 60.0, 400, stretch=1.01)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    assert diagnostics([state], rf.build_reference(params))[0].remainder > 0.0

    params_pm = rf.ModelParams(1, 2.0)
    grid1 = rf.build_grid(1, 6.0, 400)
    state1 = rf.project_initial(lambda r: np.exp(-r * r), grid1)
    assert diagnostics([state1], rf.build_reference(params_pm))[0].remainder < 0.0


def test_gradient_quadratures_ignore_front_dust():
    # per-step transport noise decades below the profile must not leak
    # O(1) slopes of u**(p-1/2) into the Fisher integral
    params = rf.ModelParams(1, 2.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(1, 6.0, 400)
    base = np.maximum(0.8 - grid.centers**2, 0.0)
    clean = rf.DensityState(grid=grid, u=base, t=0.0)
    noisy_u = base.copy()
    vacuum = np.where(base == 0.0)[0]
    noisy_u[vacuum[::2]] = 1e-22 * base.max()
    noisy = rf.DensityState(grid=grid, u=noisy_u, t=0.0)
    assert (diagnostics([noisy], ref)[0].fisher
            == diagnostics([clean], ref)[0].fisher)


def test_smooth_tail_stays_live():
    # the fast-diffusion power-law tail spans ~35 decades on the wide grid;
    # dropping faces by level alone would lose ~0.5% of the Fisher integral
    params = rf.ModelParams(3, 2.0 / 3.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(3, 896000.0, 1050, stretch=1.012)
    u = rf.profile_density(grid.centers, ref.params)
    live = rf.DensityState(grid=grid, u=u / grid.integrate(u), t=0.0)
    err_live = abs(diagnostics([live], ref)[0].fisher - ref.fisher) / ref.fisher
    chopped_u = np.where(u >= 1e-15 * u.max(), u, 0.0)
    chopped = rf.DensityState(grid=grid, u=chopped_u / grid.integrate(chopped_u), t=0.0)
    err_chop = abs(diagnostics([chopped], ref)[0].fisher - ref.fisher) / ref.fisher
    assert err_live < 1e-4
    assert err_chop > 10.0 * err_live


def test_fisher_low_exponent_branch():
    # p <= 1/2 loses the u**(p-1/2) substitution and needs the floored form
    params = rf.ModelParams(3, 0.45)
    grid = rf.build_grid(3, 60.0, 900, stretch=1.01)
    state = rf.project_initial(lambda r: np.exp(-r * r), grid)
    rec = diagnostics([state], rf.build_reference(params))[0]
    assert math.isfinite(rec.fisher) and rec.fisher > 0.0
    # p = 0.45 < d/(d+2) also leaves the moments infinite
    assert set(rec.flags) <= {"fisher_floor", "moments_infinite"}


def test_tail_fraction_and_confidence_flag():
    ref = rf.build_reference(rf.ModelParams(1, 2.0))
    grid = rf.build_grid(1, 6.0, 128)
    shell, core = diagnostics([
        rf.project_initial(lambda r: np.exp(-(((r - 5.7) / 0.1) ** 2)), grid),
        rf.project_initial(lambda r: np.exp(-((r / 0.3) ** 2)), grid)], ref)
    assert shell.tail_frac > 0.99
    assert "low_confidence_moments" in shell.flags
    assert core.tail_frac < 1e-6
    assert "low_confidence_moments" not in core.flags


def _gaussian(r):
    return np.exp(-r * r)


def _indicator(r):
    from scipy.special import erfc

    return 0.5 * erfc((r - 1.0) / 0.25)


# Flags the private kernels raise; diagnostics adds moments_infinite and
# low_confidence_moments itself.
KERNEL_FLAGS = {"fisher_floor", "q_degenerate", "remainder_empty", "remainder_boundary"}


def _q_exact(state, p):
    """q = A B / S^2 with the face sums taken in exact rational arithmetic
    over the face densities and slopes the q kernel sums in floating point."""
    g, u, n = state.grid, state.u, state.grid.n
    scratch, masks = np.empty((3, 1, n)), np.empty((2, 1, n), dtype=bool)
    dv, slopes, live = np.empty((1, n)), np.empty(n + 1), np.empty((1, n), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        _potential(g, u[None], p, dv, slopes, scratch)
        _live_faces(u[None], u.max(keepdims=True)[None], g.padded_faces[0], live, scratch,
                    masks)
        # the kernels' face arrays hold no face in their last column
        dv, v_slope, live = dv[0, :-1], slopes[1:n], live[0, :-1]
        w = pow_fn(p)(u)
        sloped = live & np.isfinite(dv) & (dv != 0.0)
        uf = np.where(sloped, (w[1:] - w[:-1]) / dv, np.where(live, u[:-1], 0.0))
    gf = np.where(sloped, v_slope, 0.0)
    a = b = s = Fraction(0)
    for wu, r, r2, slope in zip(g.gap_weights * uf, g.gap_mids, g.gap_mids_sq, gf):
        wu, slope = Fraction(float(wu)), Fraction(float(slope))
        a += wu * Fraction(float(r2))
        b += wu * slope * slope
        s += wu * Fraction(float(r)) * slope
    return float(a * b / (s * s))


def _bregman(state, s, reference):
    """The relative entropy of state to the self-similar solution U at time
    s, as the Bregman form 1/(p-1) int [u^p - U^p - p U^(p-1) (u - U)] with
    U built cell by cell: the kernel's oracle, which writes U through its
    pressure."""
    p, u = reference.params.p, state.u
    cap_u = rf.self_similar_density(state.grid.centers, s, reference.params)
    # U = 0 beyond the support of a p > 1 profile, where U^(p-1) is 0 too
    integrand = (u**p - cap_u**p - p * cap_u ** (p - 1.0) * (u - cap_u)) / (p - 1.0)
    return float(integrand @ state.grid.volumes)


def _remainder_straight(state, reference, entropy):
    """R of one state by the straight three-point formulas
    v1 = (h_m s_p + h_p s_m) / h_sum, v2 = 2 (s_p - s_m) / h_sum and
    lap = v2 + (d - 1) v1 / r on the slopes s_m, s_p of v on either side of
    each cell, over the cells whose stencil is above the mask level: the
    oracle of the kernel, which takes them from the grid's cached factors."""
    g, u = state.grid, state.u
    d, p = reference.params.d, reference.params.p
    sigma = reference.exponents.sigma
    r = g.centers
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = p / (p - 1.0) * pow_fn(p - 1.0)(u)
        face = np.diff(v) / np.diff(r)
        # the inner slope of cell 0 from the mirror image v(-r) = v(r)
        s_m = np.concatenate(([(v[0] - v[0]) / (2.0 * r[0])], face))
        s_p = np.concatenate((face, [math.nan]))
        h_m = np.concatenate(([2.0 * r[0]], np.diff(r)))
        h_p = np.concatenate((np.diff(r), [math.nan]))
        v1 = (h_m * s_p + h_p * s_m) / (h_m + h_p)
        v2 = 2.0 * (s_p - s_m) / (h_m + h_p)
        lap = v2 + (d - 1) * v1 / r
        aniso = (v2 - v1 / r) ** 2
    keep = u >= REMAINDER_MASK_REL * u.max()
    # the cell and both neighbors kept (cell 0 is its own mirror image;
    # the last cell has no outer neighbor)
    valid = keep & np.concatenate(([True], keep[:-1])) & np.concatenate((keep[1:], [False]))
    wgt = np.where(valid, pow_fn(p)(u) * g.volumes, 0.0)
    lap, aniso = np.where(valid, lap, 0.0), np.where(valid, aniso, 0.0)
    mean = (wgt @ lap) / wgt.sum()
    var = wgt @ (lap - mean) ** 2
    return entropy * ((sigma - 1.0) * var + 2.0 / (1.0 - p) * (1.0 - 1.0 / d) * (wgt @ aniso))


# (d, p, grid, datum, t_end): short runs whose final state still carries
# front dust (cells between 0 and DUST_REL * max(u)), but for the regimes in
# DATUM_DUST
ONE_PASS_REGIMES = [
    (3, 2.0 / 3.0, (1000.0, 120, 1.06), _gaussian, 0.05),
    # p <= 1/2: the floored Fisher branch; at t = 0 one live face has
    # u ~ 1e-314 and |g_f| ~ 2e192, so g_f**2 alone would overflow B
    (1, 0.4, (40.0, 160, 1.0), _gaussian, 1e-5),
    # p > 1 with the remainder_boundary flag raised at t = 0.8
    (1, 2.0, (6.0, 100, 1.0), _indicator, 0.8),
    # p <= d/(d+2): moments_infinite, no match time
    (3, 0.55, (1000.0, 120, 1.06), _gaussian, 5e-4),
]
# The first step of the p = 0.4 run would overdraw the dust and is taken
# implicitly, which lifts the whole tail, the datum's empty cells too, to a
# plateau at 2.5e-9 max(u). Its evolved state is built with the datum's dust
# put back in the cells where the datum has dust.
DATUM_DUST = {(1, 0.4)}


@pytest.mark.parametrize("d,p,grid_args,datum,t_end", ONE_PASS_REGIMES)
def test_diagnostics_equal_standalone_functionals(d, p, grid_args, datum, t_end):
    # diagnostics shares its per-record arrays between the functionals; its
    # combinations must recompose bit for bit, q must match its exact face
    # sums, the match time must equal the standalone closed-form match, and
    # the relative entropy and R their straight formulas
    params = rf.ModelParams(d, p)
    ref = rf.build_reference(params)
    r_max, n, stretch = grid_args
    grid = rf.build_grid(d, r_max, n, stretch=stretch)
    profile = rf.project_initial(lambda r: rf.self_similar_density(r, 1.0, params), grid, t=1.0)
    initial = rf.project_initial(datum, grid)
    traj = rf.evolve(initial, t_end, params, rf.SolverConfig(record_every=t_end))
    evolved = traj.final_state
    if (d, p) in DATUM_DUST:
        u0 = initial.u
        dust = (u0 > 0.0) & (u0 < DUST_REL * u0.max())
        evolved = rf.DensityState(grid=grid, u=np.where(dust, u0, evolved.u), t=evolved.t)
    u = evolved.u
    assert np.any((u > 0.0) & (u < DUST_REL * u.max()))
    if p == 2.0:
        assert "remainder_boundary" in traj.records[-1].flags

    ex = ref.exponents
    for state in (profile, initial, evolved):
        rec = diagnostics([state], ref, dts=[0.5])[0]
        assert rec.t == state.t and rec.dt == 0.5
        assert rec.mass == state.grid.integrate(state.u)
        assert math.isfinite(rec.q_ratio)
        assert rec.q_ratio == pytest.approx(_q_exact(state, p), rel=1e-12)
        assert rec.f_power == rec.entropy**ex.sigma
        assert rec.g_power == rec.theta ** (0.5 * ex.mu)
        assert rec.h_renyi == rec.theta ** (-0.5 * ex.eta) * rec.entropy
        assert rec.j_scale == rec.entropy ** (ex.sigma - 1.0) * rec.fisher
        flags = set()
        if unmet(params, "finite_moments") is None:
            assert rec.s_match == ref.match_time(rec.theta)
            assert rec.tau == rec.s_match - state.t
            assert abs(rec.rel_entropy - _bregman(state, rec.s_match, ref)) <= 1e-13 * rec.entropy
        else:
            assert math.isnan(rec.s_match) and math.isnan(rec.tau)
            assert math.isnan(rec.rel_entropy)
            flags.add("moments_infinite")
        if "remainder_empty" in rec.flags:
            assert rec.remainder == 0.0
        else:
            assert rec.remainder == pytest.approx(
                _remainder_straight(state, ref, rec.entropy), rel=1e-12)
        moment = state.u * grid.moment_weights
        if moment[grid.centers > 0.9 * grid.r_max].sum() > 0.10 * moment.sum():
            flags.add("low_confidence_moments")
        assert rec.flags == tuple(sorted(set(rec.flags)))
        assert set(rec.flags) - KERNEL_FLAGS == flags


def test_cached_grid_arrays_are_read_only():
    grid = rf.build_grid(3, 60.0, 64, stretch=1.01)
    arrays = [grid.moment_weights, grid.center_gaps, grid.gap_mids,
              grid.gap_mids_sq, grid.gap_weights, *grid.stencil_gaps, *grid.stencil_factors,
              *grid.padded_faces]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    # computed once: a second access returns the same object
    assert grid.gap_weights is grid.gap_weights
    np.testing.assert_array_equal(grid.center_gaps, np.diff(grid.centers))
    for padded, face, pad in zip(grid.padded_faces,
                                 (grid.center_gaps, grid.gap_weights, grid.gap_mids),
                                 (1.0, 0.0, 0.0)):
        np.testing.assert_array_equal(padded, np.append(face, pad))


# Contents the workspace is filled with between blocks: a kernel that read
# an entry an earlier block left would turn a record to nan, or overflow
# (an error under the test suite's warning filter)
POISONS = [(math.nan, True), (-1e300, False)]


@pytest.mark.parametrize("d,p,grid_args,datum,t_end", ONE_PASS_REGIMES)
def test_workspace_reuse_leaves_no_trace(d, p, grid_args, datum, t_end):
    # every block reuses the workspace as the last one left it. Each state
    # alone, then a block of five rows and a smaller one after it, with the
    # workspace poisoned before each, must give the records of the run
    params = rf.ModelParams(d, p)
    ref = rf.build_reference(params)
    r_max, n, stretch = grid_args
    grid = rf.build_grid(d, r_max, n, stretch=stretch)
    snaps = []
    traj = rf.evolve(rf.project_initial(datum, grid), t_end, params,
                     rf.SolverConfig(record_every=t_end / 6),
                     observer=lambda rec, snap: snaps.append(snap))
    assert len(snaps) == 7
    dts = [rec.dt for rec in traj.records]

    def evaluate(lo, hi, poison):
        floats, masks = _workspace(0)
        floats.fill(poison[0])
        masks.fill(poison[1])
        return diagnostics(snaps[lo:hi], ref, dts=dts[lo:hi],
                           whole_space=traj.whole_space_entropy)

    for poison in POISONS:
        lone = [rec for i in range(len(snaps)) for rec in evaluate(i, i + 1, poison)]
        blocks = [*evaluate(0, 5, poison), *evaluate(5, len(snaps), poison)]
        # repr keeps every bit of a float and reads nan as nan
        assert repr(lone) == repr(blocks) == repr(list(traj.records)), poison


def test_warm_block_allocates_less_than_one_array():
    # a block works in the workspace it finds: at n = 1050 the traced peak
    # of a warm block of record_block(n) states stays below one (k, n)
    # float64 array. What is left is mostly numpy's buffer (at most 8192
    # doubles) of a call that broadcasts a grid array or a (k, 1) column.
    params = rf.ModelParams(3, 2.0 / 3.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(3, 896000.0, 1050, stretch=1.012)
    k = solver.record_block(grid.n)
    states = [rf.project_initial(lambda r: rf.self_similar_density(r, s, params), grid, t=s)
              for s in 1.0 + 0.01 * np.arange(k)]
    diagnostics(states, ref, whole_space=True)
    tracemalloc.start()
    try:
        diagnostics(states, ref, whole_space=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * grid.n * np.dtype(float).itemsize, peak


def test_whole_space_entropy_of_the_profile_is_linear_in_time():
    # at d = 3, p = 2/3 the source-type solution has E(t) = kappa t E_B, so
    # E'' = 0; the box alone misses the tail beyond r_max, whose second
    # derivative is 8 pi kappa**2 / r_max ~ 4.5e-4 on the fd3 grid, 5% of
    # the smallest -F'' (8.5e-3) the deficit check admits there. With the
    # fitted far-field tail, |E_h''| stays 100x below that target.
    params = rf.ModelParams(3, 2.0 / 3.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(3, 896000.0, 1050, stretch=1.012)
    h = 0.0125
    for t in (1.5, 4.0):
        states = [rf.project_initial(lambda r: rf.self_similar_density(r, s, params), grid, t=s)
                  for s in (t - h, t, t + h)]
        e = [rec.entropy for rec in diagnostics(states, ref, whole_space=True)]
        box = [grid.integrate(pow_fn(params.p)(st.u)) for st in states]
        assert abs(e[2] - 2.0 * e[1] + e[0]) / h**2 <= 8.5e-3 / 100.0, t
        assert abs(box[2] - 2.0 * box[1] + box[0]) / h**2 > 8.5e-3 / 100.0, t


def test_entropy_tail_fit_skips_empty_cells():
    # a state may hold isolated cells of exactly zero mass in the fit
    # window; they leave the median, so the tail keeps its value instead of
    # dropping to zero once they are half the window
    params = rf.ModelParams(3, 2.0 / 3.0)
    ref = rf.build_reference(params)
    grid = rf.build_grid(3, 896000.0, 1050, stretch=1.012)
    state = rf.project_initial(lambda r: rf.self_similar_density(r, 2.0, params), grid, t=2.0)
    c, lo, _ = grid.far_field_window
    below_rc = np.arange(grid.n) < c

    def tail(holes):
        u = state.u.copy()
        u[holes] = 0.0
        holed = rf.DensityState(grid=grid, u=u, t=state.t)
        box = grid.integrate(np.where(below_rc, pow_fn(params.p)(u), 0.0))
        return diagnostics([holed], ref, whole_space=True)[0].entropy - box

    full = tail(slice(0, 0))
    assert full > 0.0
    assert tail(slice(lo, c, 2)) == pytest.approx(full, rel=1e-2)
    assert tail(slice(lo, lo + 2 * (c - lo) // 3)) == pytest.approx(full, rel=1e-2)
    assert tail(slice(lo, c)) == pytest.approx(0.0, abs=1e-12)


def test_entropy_tail_is_decided_once_per_run_from_the_box():
    # on a small box the fit window [r_c/10, r_c) holds the bulk of the
    # density, so every record keeps the box E; on the fd3 grid the window
    # lies far beyond it and every record carries the tail
    params = rf.ModelParams(1, 0.4)
    ref = rf.build_reference(params)
    small = rf.project_initial(_gaussian, rf.build_grid(1, 40.0, 160))
    assert not whole_space_entropy(small, ref, 0.01)
    traj = rf.evolve(small, 0.01, params, rf.SolverConfig(record_every=0.005))
    assert not traj.whole_space_entropy
    assert traj.records[0].entropy == small.grid.integrate(pow_fn(params.p)(small.u))
    assert traj.records[-1].entropy == diagnostics([traj.final_state], ref)[0].entropy

    params3 = rf.ModelParams(3, 2.0 / 3.0)
    ref3 = rf.build_reference(params3)
    wide = rf.project_initial(_gaussian, rf.build_grid(3, 896000.0, 1050, stretch=1.012))
    assert whole_space_entropy(wide, ref3, 5.0)
    # at r_max = 2000 the window [20, 200) lies inside the run's reach
    narrow = rf.project_initial(_gaussian, rf.build_grid(3, 2000.0, 400, stretch=1.012))
    assert not whole_space_entropy(narrow, ref3, 5.0)
    # outside the scope of the tail a run never asks for it, and a caller
    # that does is refused
    params_pm = rf.ModelParams(1, 2.0)
    ref_pm = rf.build_reference(params_pm)
    assert not whole_space_entropy(small, ref_pm, 1.0)
    with pytest.raises(rf.RegimeError):
        diagnostics([small], ref_pm, whole_space=True)


def test_records_are_immutable():
    rec = FunctionalRecord(*(0.0,) * 16)
    with pytest.raises(AttributeError):
        rec.entropy = 1.0
    assert rec.entropy == 0.0
