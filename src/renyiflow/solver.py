"""Explicit conservative finite-volume evolution of du/dt = Laplacian(u**p).

The update works on cell masses m_i = u_i V_i with face rates
Phi_j = A_j (w_j - w_{j-1})/(r_j - r_{j-1}), w = u**p, and zero flux at both
boundaries, so total mass telescopes exactly (conservation to summation
round-off, independent of step count).

evolve() has three parts: the rate kernel (_face_rates, the face rates of a
state from its w = u**p), two integrators (the limited Euler step, inline in
the loop, and _Kernel.super_step), and the record schedule
(_record_schedule). At every step it takes whichever integrator advances
further per flux evaluation (_plan):

- Limited Euler. A donor-cell limiter scales outgoing face rates so no cell
  can overdraw its mass within one step; this keeps the state nonnegative
  without clipping even in fast-diffusion tails where the local stability
  bound is intentionally relaxed by the diffusivity floor (u_floor).
- Second-order Runge-Kutta-Legendre (RKL2) super-steps (Meyer, Balsara &
  Aslam, J. Comput. Phys. 257, 2014): s flux evaluations advance
  tau <= dt_expl (s**2 + s - 2)/4, with dt_expl the unfloored monotone bound
  below. Each stage is written as Y_j = m + diff(P_j), the recursion run on
  the face sums P_j, so mass telescopes exactly as in the Euler step. A
  super-step is taken only on a state with no empty cell (for p > 1 an empty
  cell next to a filled one is a front, which needs the limiter; for p < 1
  an empty cell makes dt_expl zero), and one that leaves any negative mass
  is discarded and redone with limited Euler; it never clips. Its length is
  capped by the rest of the record gap, by dt_max, by SUPER_STEP_STAGES
  stages and by tau ||dm/dt||_1 <= SUPER_STEP_MASS_SHARE * mass; a binding
  cap cuts the rest of the gap into equal pieces.

The step bound is the scheme's own monotone bound. Linearised, the update is
m_i' = m_i + dt sum_j c_j (w_nb - w_i) over the faces j of cell i, with
c_j = A_j/(r_j - r_{j-1}), so the coefficient on m_i is
1 - dt D_i reach_i / V_i, where D_i = p u_i**(p-1) and reach_i is the sum of
cell i's face coefficients (the zero-flux faces at r = 0 and r_max add
nothing). It stays nonnegative while dt <= V_i / (D_i reach_i). On uniform
grids that is dr**2/(2 D_i) in the interior for every d (exactly so in
d = 1 and 2), where the textbook bound dr**2/(2 d D_i) is d times smaller;
at cell 0 of a d = 3 grid it is dr**2/(3 D_i). The Euler step evaluates
D_i at max(u_i, u_floor); the super-step's dt_expl evaluates it at u_i.

At these grid sizes (about 1000 cells) a flux evaluation costs numpy call
overhead rather than arithmetic, so both integrators make as few calls as
they can:
- the face coefficients c_j and the stability geometry V_i/(p reach_i)
  are computed once per run;
- every temporary is preallocated and written with out=;
- one chain of fractional roots of u per Euler step gives both w = u**p,
  with the diagnostics' operations, and the stability factor
  max(u, floor)**|p-1| (see _pow.pow_pair; for p = 2/3, c = cbrt(u),
  w = c*c and the factor is max(c, cbrt(floor)));
- the step bound cfl min_i V_i/(D_i reach_i), D_i = p max(u_i, floor)^(p-1),
  is read as cfl min(geometry * factor) for p < 1 and as
  cfl / max(factor / geometry) for p > 1, so neither regime divides by zero;
- the limiter and clipping live in a cold helper, entered only when
  min(m + gain) < 0;
- a super-step is planned only when the record gap left exceeds 4 Euler
  steps, the least that s >= 4 stages need to win.
The guards are written so that a NaN fails them: a non-finite state raises
StiffnessError or InstabilityError instead of ending the run early.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import count, takewhile
from typing import Callable

import numpy as np

from ._pow import pow_fn, pow_pair
from .params import ModelParams
from .barenblatt import BarenblattReference, build_reference
from .grid import DensityState, RadialGrid
from .functionals import FunctionalRecord, diagnostics, whole_space_entropy

# Most stages of one super-step, and the share of the mass one super-step
# may move: tau * ||dm/dt||_1 <= SUPER_STEP_MASS_SHARE * mass. The mass cap
# keeps super-steps from jumping a fast transient: on pm1_indicator's datum
# and grid over t in [0, 0.8], a run recorded every 0.8 (every 0.1) ended
# 1.4e-2 (1.7e-3) off in L1 from one recorded every 0.0125 without the cap,
# and 2.6e-5 (3.3e-5) with it.
SUPER_STEP_STAGES = 200
SUPER_STEP_MASS_SHARE = 0.01
# Doubles (40 KiB) per (k, n) array of a diagnostics block: evolve evaluates
# its records k = max(1, RECORD_BLOCK_DOUBLES // n) at a time, one numpy call
# per kernel serving k records (k = 4 at n = 1050). Larger blocks cost more
# per record on the fd3 grid: at k = 7 and 8 the temporaries outgrow L1 and
# fault their pages back in on every block (malloc returns the freed heap
# top once it passes its 128 KiB trim threshold).
RECORD_BLOCK_DOUBLES = 5120


class StiffnessError(RuntimeError):
    """Stable step fell below dt_min (or to zero): the state is too stiff."""


class InstabilityError(RuntimeError):
    """The state blew past 10x its initial maximum: the step size is unsafe."""


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.9
    dt_max: float = math.inf
    dt_min: float = 0.0
    # None resolves to 0 for p > 1 and eps * max(u0) for p < 1 (eps the
    # double epsilon); the floor enters only the diffusivity of the limited
    # Euler step's bound, never the state or the super-step's bound. A
    # higher floor lets front dust (cells far below max u) take Euler steps
    # its own bound would refuse.
    u_floor: float | None = None
    record_every: float = 0.05
    # Explicit record offsets from the initial time (strictly increasing,
    # positive). When set they replace the uniform record_every schedule;
    # a final record at t_end is emitted either way. Useful to resolve fast
    # initial transients without paying for a uniformly fine cadence.
    record_times: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.cfl <= 1.0:
            raise ValueError(f"cfl must be in (0, 1], got {self.cfl}")
        if self.dt_min > self.dt_max:
            raise ValueError("dt_min exceeds dt_max")
        if self.u_floor is not None and self.u_floor < 0.0:
            raise ValueError("u_floor must be nonnegative")
        if self.record_every <= 0.0:
            raise ValueError("record_every must be positive")
        if self.record_times is not None:
            rt = np.asarray(self.record_times, dtype=float)
            if rt.size == 0:
                raise ValueError("record_times must be nonempty when given")
            if not np.all(np.isfinite(rt)) or rt[0] <= 0.0 or np.any(np.diff(rt) <= 0.0):
                raise ValueError("record_times must be finite, positive, strictly increasing")


def resolve_u_floor(config: SolverConfig, params: ModelParams, u_max: float) -> float:
    if config.u_floor is not None:
        return config.u_floor
    return 0.0 if params.p > 1.0 else float(np.finfo(float).eps) * u_max


def _stability_geometry(grid: RadialGrid, coef: np.ndarray, p: float) -> np.ndarray:
    """V_i / (p reach_i), reach_i the sum of cell i's face coefficients coef
    (the (n-1,) interior faces; the boundary faces carry no flux)."""
    reach = np.zeros(grid.n)
    reach[:-1] += coef
    reach[1:] += coef
    return grid.volumes / (p * reach)


def _bound_dt(factor, geometry, fast: bool, config: SolverConfig, out) -> float:
    """cfl * min_i V_i / (D_i reach_i), capped at dt_max, from the stability
    factor max(u, floor)**|p-1| and geometry V/(p reach); fast means p < 1.
    out is scratch. A NaN in factor gives a NaN bound.

    Here and in evolve, a[a.argmin()] stands for a.min(): it is the same
    value, NaN included, at about a third of the call cost for n ~ 1000.
    """
    if fast:
        np.multiply(geometry, factor, out=out)
        dt = config.cfl * float(out[out.argmin()])
    else:
        np.divide(factor, geometry, out=out)
        worst = float(out[out.argmax()])
        dt = config.cfl / worst if worst != 0.0 else math.inf
    return min(dt, config.dt_max)


def _stiffness(dt: float, dt_min: float, t: float) -> StiffnessError:
    return StiffnessError(
        f"stable dt {dt} below dt_min {dt_min} at t={t}; the state may be "
        "non-finite, or for p < 1 a positive u_floor is required"
    )


def _limit(m, flux, gain, m_new) -> float:
    """Redo a step whose plain update m + gain would overdraw a cell.

    Donor-cell limiter: each face rate in flux[1:-1] is scaled by its
    donor's budget so no cell loses more mass than it holds; gain and
    m_new = m + gain are then rewritten. Round-off can still leave tiny
    negative masses: they are clipped to zero and their total returned.
    """
    rate = flux[1:-1]
    outflow = np.zeros_like(m)
    outflow[1:] += np.maximum(rate, 0.0)
    outflow[:-1] += np.maximum(-rate, 0.0)
    scale = np.ones_like(m)
    mask = outflow > m
    scale[mask] = m[mask] / outflow[mask]
    rate *= np.where(rate > 0.0, scale[1:], scale[:-1])
    np.subtract(flux[1:], flux[:-1], out=gain)
    np.add(m, gain, out=m_new)
    negative = m_new < 0.0
    if not negative.any():
        return 0.0
    clipped = -float(m_new[negative].sum())
    np.maximum(m_new, 0.0, out=m_new)
    return clipped


def _rkl2_table(s_max: int) -> tuple[list[float], list[float], list[float]]:
    """mu_j, nu_j and a_(j-1) of the RKL2 recursion for 2 <= j <= s_max
    (entries 0 and 1 unused), with b_j = (j**2 + j - 2)/(2 j (j + 1)),
    b_0 = b_1 = 1/3 and a_j = 1 - b_j. They depend on j alone: the stage
    count s enters a super-step only through w1 = 4/(s**2 + s - 2)."""
    b = [1.0 / 3.0] * 2 + [(j * j + j - 2.0) / (2.0 * j * (j + 1.0))
                           for j in range(2, s_max + 1)]
    js = range(2, s_max + 1)
    mu = [0.0] * 2 + [(2.0 * j - 1.0) / j * b[j] / b[j - 1] for j in js]
    nu = [0.0] * 2 + [-(j - 1.0) / j * b[j] / b[j - 2] for j in js]
    a_prev = [0.0] * 2 + [1.0 - b[j - 1] for j in js]
    return mu, nu, a_prev


_RKL2 = _rkl2_table(SUPER_STEP_STAGES)


def _stages(x: float) -> int:
    """The fewest RKL2 stages s >= 2 with (s**2 + s - 2)/4 >= x, at most
    SUPER_STEP_STAGES (x may exceed that count's reach by round-off)."""
    s = max(2, math.ceil(0.5 * (math.sqrt(9.0 + 16.0 * x) - 1.0)))
    return min(s + (s * s + s - 2 < 4.0 * x), SUPER_STEP_STAGES)


def _face_rates(w: np.ndarray, coef: np.ndarray, out: np.ndarray) -> None:
    """The rate kernel: out = coef (w[1:] - w[:-1]), the (n-1,) interior face
    rates of the density whose u**p is w (times a scalar folded into coef)."""
    np.subtract(w[1:], w[:-1], out=out)
    out *= coef


class _Kernel:
    """Per-run constants and scratch arrays of one grid and exponent, and
    the RKL2 integrator over them (super_step)."""

    def __init__(self, grid: RadialGrid, params: ModelParams, u_floor: float) -> None:
        n = grid.n
        self.coef = grid.areas[1:-1] / grid.center_gaps
        self.inv_vol = 1.0 / grid.volumes
        self.geometry = _stability_geometry(grid, self.coef, params.p)
        self.pair = pow_pair(params.p, u_floor)
        self.power = pow_fn(params.p)
        self.u, self.w, self.factor, self.scratch, self.gain = (np.empty(n) for _ in range(5))
        self.coef_k = np.empty(n - 1)
        # face arrays, entries 0 and n zero: the rates of the state, and the
        # super-step's two face sums, scaled first rates, stage rates, scratch
        self.flux, self.p_old, self.p_new, self.first, self.stage, self.tmp = (
            np.zeros(n + 1) for _ in range(6))

    def super_step(self, m: np.ndarray, tau: float, s: int, out: np.ndarray) -> np.ndarray:
        """One s-stage RKL2 step of length tau from m into out, reading the
        rates of m from flux; u and w are left as the last stage's.

        Y_0 = m and Y_j = m + diff(P_j), with P_0 = 0, P_1 = w1 tau Phi(m)/3
        and P_j = mu_j (P_(j-1) + w1 tau Phi(Y_(j-1)) - a_(j-1) w1 tau Phi(m))
        + nu_j P_(j-2): the stage recursion of Meyer, Balsara & Aslam with
        the m terms of each stage, whose weights add to one, summed to m.
        """
        mu, nu, a_prev = _RKL2
        k = tau * 4.0 / (s * s + s - 2)  # w1 tau
        u, inv_vol, power, coef_k = self.u, self.inv_vol, self.power, self.coef_k
        p_old, p_new, first, stage, tmp = (
            self.p_old, self.p_new, self.first, self.stage, self.tmp)
        rate = stage[1:-1]
        np.multiply(self.coef, k, out=coef_k)
        np.multiply(self.flux, k, out=first)
        np.multiply(first, 1.0 / 3.0, out=p_new)
        p_old.fill(0.0)
        with np.errstate(invalid="ignore"):  # a stage may dip below zero
            for j in range(2, s + 1):
                np.subtract(p_new[1:], p_new[:-1], out=u)
                u += m
                u *= inv_vol
                _face_rates(power(u, self.w), coef_k, rate)
                stage += p_new
                np.multiply(first, a_prev[j], out=tmp)
                stage -= tmp
                stage *= mu[j]
                p_old *= nu[j]
                p_old += stage
                p_old, p_new = p_new, p_old
        np.subtract(p_new[1:], p_new[:-1], out=out)
        out += m
        return out


@dataclass
class Trajectory:
    reference: BarenblattReference  # the profile of the run's (d, p)
    records: list[FunctionalRecord] = field(default_factory=list)
    final_state: DensityState | None = None
    # flux evaluations: one per Euler step, s per super-step (a discarded
    # one included), so the loop's time per evaluation compares with an
    # Euler step's
    n_steps: int = 0
    euler_steps: int = 0
    super_steps: int = 0  # accepted
    rejected_super_steps: int = 0  # left a negative mass, redone by Euler
    clipped_mass: float = 0.0
    limited_steps: int = 0
    u_floor: float = 0.0  # the resolved SolverConfig.u_floor
    # the records' E carries the far-field tail (whole_space_entropy)
    whole_space_entropy: bool = False
    wall_time: float = 0.0
    diagnostics_time: float = 0.0  # of wall_time, in the diagnostics blocks

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def record_block(n: int) -> int:
    """Records per diagnostics block on a grid of n cells."""
    return max(1, RECORD_BLOCK_DOUBLES // n)


def _record_schedule(t0: float, t_end: float, config: SolverConfig) -> list[float]:
    """Record times after t0, ending with t_end."""
    if config.record_times is not None:
        pending = [t0 + off for off in config.record_times if t0 + off < t_end]
    else:
        pending = list(takewhile(lambda s: s < t_end, (
            t0 + k * config.record_every for k in count(1))))
    pending.append(t_end)
    return pending


def _plan(kernel: _Kernel, dt: float, rest: float, fast: bool, mass: float,
          config: SolverConfig) -> tuple[float, int, bool]:
    """(tau, s, landed) of a super-step that advances further per flux
    evaluation than the Euler step dt, with s = 0 when there is none.
    kernel holds u, w = u**p > 0 and the rates of the state."""
    if fast:
        u, geometry = kernel.u, kernel.scratch
        if not u[u.argmin()] > 0.0:  # an underflowed density: dt_expl = 0
            return 0.0, 0, False
        np.divide(u, kernel.w, out=geometry)  # u**(1-p), unfloored
        geometry *= kernel.geometry
        dt_expl = config.cfl * float(geometry[geometry.argmin()])
    else:
        dt_expl = dt
    smax = SUPER_STEP_STAGES
    tau = min(rest, config.dt_max, 0.25 * (smax * smax + smax - 2) * dt_expl)
    if tau / _stages(tau / dt_expl) <= dt:
        return 0.0, 0, False
    flux, gain = kernel.flux, kernel.gain
    np.subtract(flux[1:], flux[:-1], out=gain)
    np.abs(gain, out=gain)
    l1 = float(gain.sum())
    if l1 > 0.0:
        tau = min(tau, SUPER_STEP_MASS_SHARE * mass / l1)
    pieces = math.ceil(rest / tau)
    if pieces > 1:
        tau = rest / pieces
    s = _stages(tau / dt_expl)
    if tau / s <= dt:
        return 0.0, 0, False
    return tau, s, pieces == 1


def evolve(
    state: DensityState,
    t_end: float,
    params: ModelParams,
    config: SolverConfig,
    observer: Callable[[FunctionalRecord, DensityState], None] | None = None,
) -> Trajectory:
    """Run to t_end, recording diagnostics at t0, at every record_times
    offset (else every record_every) before t_end, and at t_end. A record's
    dt is the length of the step or super-step that reached it (the first
    record's, the first Euler bound). Whether the records' E carries the
    far-field tail is decided here, once (whole_space_entropy), and the
    run's reference profile built once (Trajectory.reference).

    The snapshots wait in a block of record_block(n) and go through
    diagnostics together whenever the block is full, and once more at
    t_end. The observer is called once per record, in time order, with the
    record and its snapshot, when the record's block is evaluated rather
    than when the step lands; a run that raises has its pending records
    neither evaluated nor observed."""
    if t_end < state.t:
        raise ValueError(f"t_end {t_end} precedes state time {state.t}")
    grid = state.grid
    if grid.d != params.d:
        raise ValueError(f"the model's d = {params.d} differs from the grid's d = {grid.d}")
    reference = build_reference(params)
    traj = Trajectory(reference)
    start_wall = time.perf_counter()

    u0_max = float(state.u.max())
    u_cap = 10.0 * u0_max
    traj.u_floor = resolve_u_floor(config, params, u0_max)
    whole_space = traj.whole_space_entropy = whole_space_entropy(
        state, reference, t_end)
    kernel = _Kernel(grid, params, traj.u_floor)
    u, w, factor, scratch, gain = kernel.u, kernel.w, kernel.factor, kernel.scratch, kernel.gain
    pair, coef, geometry, inv_vol = kernel.pair, kernel.coef, kernel.geometry, kernel.inv_vol
    flux = kernel.flux
    rate = flux[1:-1]  # the face rates of the state
    np.copyto(u, state.u)
    m = u * grid.volumes
    m_new = np.empty_like(m)
    mass = float(m.sum())
    filled = m[m.argmin()] > 0.0  # no empty cell: a super-step may be planned
    fast = params.p < 1.0
    dt_min = config.dt_min
    t0 = state.t
    t = t0

    block = record_block(grid.n)
    pending: list[DensityState] = []
    pending_dts: list[float] = []

    def flush() -> None:
        nonlocal pending, pending_dts
        start = time.perf_counter()
        records = diagnostics(pending, reference, dts=pending_dts, whole_space=whole_space)
        traj.diagnostics_time += time.perf_counter() - start
        traj.records += records
        if observer is not None:
            for rec, snap in zip(records, pending):
                observer(rec, snap)
        pending, pending_dts = [], []

    def emit(tag_t: float, dt: float) -> None:
        pending.append(DensityState(grid=grid, u=u.copy(), t=tag_t))
        pending_dts.append(dt)
        if len(pending) == block:
            flush()

    schedule = iter(_record_schedule(t0, t_end, config))
    pair(u, w, factor)
    dt = _bound_dt(factor, geometry, fast, config, scratch)
    if not (dt > 0.0 and dt >= dt_min):
        raise _stiffness(dt, dt_min, t)
    emit(t0, dt)
    next_rec = next(schedule)
    n_steps = euler_steps = super_steps = rejected = limited_steps = 0
    clipped_mass = 0.0
    while t < t_end:
        pair(u, w, factor)
        dt = _bound_dt(factor, geometry, fast, config, scratch)
        if not (dt > 0.0 and dt >= dt_min):
            raise _stiffness(dt, dt_min, t)
        _face_rates(w, coef, rate)
        s = 0
        if filled and t + 4.0 * dt < next_rec:
            tau, s, landed = _plan(kernel, dt, next_rec - t, fast, mass, config)
            if s:
                n_steps += s
                low = kernel.super_step(m, tau, s, m_new).min()
                if low >= 0.0:
                    super_steps += 1
                    dt = tau
                else:  # NaN included
                    rejected += 1
                    s = 0
        if not s:
            # the limited Euler step, inline: a call and its returned
            # tuple would add about 0.3 us to a step of 15-20 us
            landed = t + dt >= next_rec
            if landed:
                dt = next_rec - t
            rate *= dt
            np.subtract(flux[1:], flux[:-1], out=gain)
            np.add(m, gain, out=m_new)
            low = m_new[m_new.argmin()]
            if low < 0.0:  # a NaN never enters: the density guard raises on it
                limited_steps += 1
                clipped_mass += _limit(m, flux, gain, m_new)
                low = m_new[m_new.argmin()]
            n_steps += 1
            euler_steps += 1
        filled = low > 0.0
        m, m_new = m_new, m
        np.multiply(m, inv_vol, out=u)
        u_max = u[u.argmax()]
        if not (u_max <= u_cap):
            raise InstabilityError(
                f"density maximum {u_max} exceeds 10x the initial maximum at "
                f"t={t + dt} (step {n_steps}); reduce cfl"
            )
        if landed:
            t = next_rec
            emit(t, dt)
            next_rec = next(schedule, t_end)
        else:
            t += dt

    if pending:
        flush()
    traj.n_steps = n_steps
    traj.euler_steps = euler_steps
    traj.super_steps = super_steps
    traj.rejected_super_steps = rejected
    traj.limited_steps = limited_steps
    traj.clipped_mass = clipped_mass
    traj.final_state = DensityState(grid=grid, u=u.copy(), t=t)
    traj.wall_time = time.perf_counter() - start_wall
    return traj
