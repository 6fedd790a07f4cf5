"""Explicit conservative finite-volume evolution of du/dt = Laplacian(u**p).

The update works on cell masses m_i = u_i V_i with face rates
Phi_j = A_j (w_j - w_{j-1})/(r_j - r_{j-1}), w = u**p, and zero flux at both
boundaries, so total mass telescopes exactly (conservation to summation
round-off, independent of step count). A donor-cell limiter scales outgoing
face rates so no cell can overdraw its mass within one step; this keeps the
state nonnegative without clipping even in fast-diffusion tails where the
local stability bound is intentionally relaxed by the diffusivity floor.

evolve() holds the only stepping code, one fused kernel. At these grid sizes
(about 1000 cells) a step costs numpy call overhead rather than arithmetic,
so the kernel makes as few calls as it can:
- the stability geometry dr_i^2/(2 d p) and the face coefficients
  A_j/(r_j - r_{j-1}) are computed once per run;
- every temporary is preallocated and written with out=;
- one fractional root of u per step gives both w = u**p and the stability
  factor max(u, floor)**|p-1| (see _pow.pow_pair; for p = 2/3, c = cbrt(u),
  w = c*c and the factor is max(c, cbrt(floor)));
- the step bound cfl min_i dr_i^2/(2 d D_i), D_i = p max(u_i, floor)^(p-1),
  is read as cfl min(geometry * factor) for p < 1 and as
  cfl / max(factor / geometry) for p > 1, so neither regime divides by zero;
- the limiter and clipping live in a cold helper, entered only when
  min(m + gain) < 0.
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

from ._pow import pow_pair
from .params import ModelParams, ExponentSet
from .barenblatt import BarenblattReference, build_reference
from .grid import DensityState, RadialGrid
from .functionals import FunctionalRecord, diagnostics


class StiffnessError(RuntimeError):
    """Stable step fell below dt_min (or to zero): the state is too stiff."""


class InstabilityError(RuntimeError):
    """The state blew past 10x its initial maximum: the step size is unsafe."""


@dataclass(frozen=True)
class SolverConfig:
    cfl: float = 0.9
    dt_max: float = math.inf
    dt_min: float = 0.0
    # None resolves to 0 for p > 1 and 1e-10 * max(u0) for p < 1; the floor
    # enters only the diffusivity used in the step-size bound, never the state.
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
    return 0.0 if params.p > 1.0 else 1e-10 * u_max


def _stability_geometry(grid: RadialGrid, p: float) -> np.ndarray:
    return grid.widths * grid.widths / (2.0 * grid.d * p)


def _bound_dt(factor, geometry, fast: bool, config: SolverConfig, out) -> float:
    """cfl * min_i dr_i^2 / (2 d D_i), capped at dt_max, from the stability
    factor max(u, floor)**|p-1| and geometry dr^2/(2 d p); fast means p < 1.
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


@dataclass
class Trajectory:
    params: ModelParams
    exponents: ExponentSet
    reference: BarenblattReference
    config: SolverConfig
    records: list[FunctionalRecord] = field(default_factory=list)
    final_state: DensityState | None = None
    n_steps: int = 0
    clipped_mass: float = 0.0
    limited_steps: int = 0
    wall_time: float = 0.0

    def times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])


def evolve(
    state: DensityState,
    t_end: float,
    params: ModelParams,
    config: SolverConfig,
    reference: BarenblattReference | None = None,
    observer: Callable[[FunctionalRecord, DensityState], None] | None = None,
) -> Trajectory:
    """Run to t_end, recording diagnostics at t0, at every record_times
    offset (else every record_every) before t_end, and at t_end."""
    if t_end < state.t:
        raise ValueError(f"t_end {t_end} precedes state time {state.t}")
    if reference is None:
        reference = build_reference(params)
    grid = state.grid
    traj = Trajectory(params=params, exponents=reference.exponents,
                      reference=reference, config=config)
    start_wall = time.perf_counter()

    u = state.u.copy()
    m = u * grid.volumes
    inv_vol = 1.0 / grid.volumes
    u0_max = float(u.max())
    u_cap = 10.0 * u0_max
    pair = pow_pair(params.p, resolve_u_floor(config, params, u0_max))
    geometry = _stability_geometry(grid, params.p)
    coef = grid.areas[1:-1] / grid.center_gaps
    fast = params.p < 1.0
    dt_min = config.dt_min
    # step temporaries; flux[0] and flux[-1] are the zero boundary faces
    w = np.empty_like(u)
    factor = np.empty_like(u)
    scratch = np.empty_like(u)
    gain = np.empty_like(u)
    m_new = np.empty_like(u)
    flux = np.zeros(u.size + 1)
    rate = flux[1:-1]
    t0 = state.t
    t = t0

    def emit(tag_t: float, dt: float) -> None:
        snap = DensityState(grid=grid, u=u.copy(), t=tag_t)
        rec = diagnostics(snap, params, reference, dt=dt)
        traj.records.append(rec)
        if observer is not None:
            observer(rec, snap)

    # record schedule after t0, ending with t_end
    if config.record_times is not None:
        pending = [t0 + off for off in config.record_times if t0 + off < t_end]
    else:
        pending = list(takewhile(lambda s: s < t_end, (
            t0 + k * config.record_every for k in count(1))))
    pending.append(t_end)
    schedule = iter(pending)
    pair(u, w, factor)
    dt = _bound_dt(factor, geometry, fast, config, scratch)
    if not (dt > 0.0 and dt >= dt_min):
        raise _stiffness(dt, dt_min, t)
    emit(t0, dt)
    next_rec = next(schedule)
    n_steps = limited_steps = 0
    clipped_mass = 0.0
    while t < t_end:
        pair(u, w, factor)
        dt = _bound_dt(factor, geometry, fast, config, scratch)
        if not (dt > 0.0 and dt >= dt_min):
            raise _stiffness(dt, dt_min, t)
        landed = t + dt >= next_rec
        if landed:
            dt = next_rec - t
        np.subtract(w[1:], w[:-1], out=rate)
        rate *= coef
        rate *= dt
        np.subtract(flux[1:], flux[:-1], out=gain)
        np.add(m, gain, out=m_new)
        if m_new[m_new.argmin()] < 0.0:
            limited_steps += 1
            clipped_mass += _limit(m, flux, gain, m_new)
        m, m_new = m_new, m
        np.multiply(m, inv_vol, out=u)
        n_steps += 1
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

    traj.n_steps = n_steps
    traj.limited_steps = limited_steps
    traj.clipped_mass = clipped_mass
    traj.final_state = DensityState(grid=grid, u=u.copy(), t=t)
    traj.wall_time = time.perf_counter() - start_wall
    return traj
