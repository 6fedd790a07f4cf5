"""Conservative finite-volume evolution of du/dt = Laplacian(u**p).

The update works on cell masses m_i = u_i V_i with face rates
Phi_j = A_j (w_j - w_{j-1})/(r_j - r_{j-1}), w = u**p, and zero flux at both
boundaries, so total mass telescopes exactly (conservation to summation
round-off, independent of step count).

evolve() walks the record schedule (_record_schedule, a generator) and keeps
the guards, the counts and the records; _Kernel holds the rate kernel
(_face_rates, the face rates of a state from its w = u**p), both integrators
and the rule that picks between them. At every step it takes whichever
integrator advances further per flux evaluation (_Kernel.plan):

- Euler (_Kernel.euler_step). The forward step m + dt diff(Phi), unless
  that would overdraw a cell, which happens in fast-diffusion tails, where
  the step bound is relaxed by the diffusivity floor (below). Then the
  step is taken backward instead (_Kernel.implicit_step): linearly
  implicit, with the secant diffusivity
  K_j = dt c_j (w_j - w_(j-1))/(u_j - u_(j-1)) >= 0 on each face (the
  tangent one at max(u_(j-1), u_j, floor) where the secant is 0/0; for
  p < 1 it couples the empty cells too, which fill as far as the step
  reaches), it solves (V + A) u' = V u, A the path Laplacian of the K_j.
  V + A is an M-matrix, so u' >= 0 for any dt, with no limiter and no
  clip, and m' = V u' keeps the mass to the solve's round-off. So its
  length is not bounded by stability but by accuracy (the step is first
  order): the larger of the Euler bound and
  IMPLICIT_STEP_MASS_SHARE * mass / ||dm/dt||_1, cut at the record.
- Second-order Runge-Kutta-Legendre (RKL2) super-steps (Meyer, Balsara &
  Aslam, J. Comput. Phys. 257, 2014): s flux evaluations advance
  tau <= dt_expl (s**2 + s - 2)/4, with dt_expl = 2 CFL / rho and rho the
  spectral-radius bound below. Each stage is written as Y_j = m + diff(P_j),
  the recursion run on the face sums P_j, so mass telescopes exactly as in
  the Euler step. A super-step is taken only on a state with no empty cell
  and one that leaves any negative mass is discarded and redone by an Euler
  step; it never clips. For p < 1 an empty cell makes dt_expl zero. For
  p > 1 an empty cell next to a filled one is a front, and the rule keeps
  super-steps off it for accuracy, not positivity: lifted on pm1_barenblatt
  it rejected no super-step, but at the full SUPER_STEP_MASS_SHARE across
  the front the L1 error stalled near 3e-5 and criterion 02's convergence
  ratio read 0.85 (ROADMAP item 1).
  Its length is capped by the rest of the record gap, by SUPER_STEP_STAGES
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
D_i at max(u_i, floor), the floor eps max(u0) for p < 1 (eps the double
epsilon) and 0 for p > 1; the super-step's dt_expl evaluates it at u_i.
For p > 1 the floor would only shorten steps: at the unfloored bound a
forward step keeps m_i' >= (1 - CFL/p) m_i, so it never overdraws, and the
implicit step serves p < 1 only.

The super-step's rho bounds the spectral radius of the linearised update
dm/dt = L diag(D) V^-1 m, L the path Laplacian of the c_j, or of its
similar D V^-1 L. For any positive weights x, Collatz-Wielandt's
max_i D_i g_i, g_i = (|V^-1 L| x)_i / x_i, bounds it; x comes from the grid
alone, once per run (_perron_weights). x = 1 gives Gershgorin's row bound
max_i 2 D_i reach_i / V_i, whose 2 / rho is the Euler bound over CFL; on
the stretched fd3 grid that is 1.49 times the spectral radius, set by the
row of the d = 3 origin cell, and Collatz-Wielandt's is within 0.05% of it.

At these grid sizes (about 1000 cells) a flux evaluation costs numpy call
overhead rather than arithmetic, so both integrators make as few calls as
they can:
- the face coefficients c_j, the stability geometry V_i/(p reach_i) and
  its Collatz-Wielandt counterpart 2/(p g_i) are computed once per run;
- every temporary of a flux evaluation is preallocated and written with
  out=, the intermediate roots of u**p and u**|p-1| included (roots);
- the step bound CFL min_i V_i/(D_i reach_i), D_i = p max(u_i, floor)^(p-1),
  is read as CFL min(geometry * factor) for p < 1 and as
  CFL / max(factor / geometry) for p > 1, so neither regime divides by zero;
- the implicit step is one tridiagonal solve (_implicit_solve) in Python
  floats, about 0.3-0.5 ms at n = 1050 (2-core host, Python 3.11); on
  fd3_gaussian the first eight fill the 862 cells the datum leaves empty
  (419 of them in the first);
- a super-step stage is 9 numpy calls at p = 2/3: three for the stage
  density, two for w = u**p, two for its rates, and P_j as one product
  c_j . stack (np.dot, a BLAS gemv) of the RKL2 weights with the rows
  (rates, P_(j-1), P_(j-2), first rates), written into the other stack
  beside one row copy;
- a super-step is planned only when the record gap left exceeds 4 Euler
  steps, the least that s >= 4 stages need to win.
The guards are written so that a NaN fails them: a non-finite state raises
StiffnessError or InstabilityError instead of ending the run early.
"""
from __future__ import annotations

import math
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field, fields
from itertools import count, takewhile
from numbers import Real
from typing import Callable

import numpy as np

from ._pow import pow_fn
from .params import ModelParams
from .barenblatt import BarenblattReference, build_reference
from .grid import DensityState, RadialGrid
from .functionals import (RECORD_NUMBERS, FunctionalRecord, RecordTable, diagnostics,
                          whole_space_entropy)

# The safety factor of both step bounds: the Euler bound CFL min_i V_i /
# (D_i reach_i) and the super-step's dt_expl = 2 CFL / rho. 0.85 is the value
# every shipped config, demo and benchmark run used when it was a setting,
# and at CFL < 1 < p a forward step keeps m' >= (1 - CFL/p) m.
CFL = 0.85
# Most stages of one super-step, and the share of the mass one super-step
# may move: tau * ||dm/dt||_1 <= SUPER_STEP_MASS_SHARE * mass. The mass cap
# keeps super-steps from jumping a fast transient: on pm1_indicator's datum
# and grid over t in [0, 0.8], a run recorded every 0.8 (every 0.1) ended
# 1.4e-2 (1.7e-3) off in L1 from one recorded every 0.0125 without the cap,
# and 2.6e-5 (3.3e-5) with it. A share of 0.02 takes fd3_gaussian from
# 15,384 to 13,952 flux evaluations (IMPLICIT_STEP_MASS_SHARE held at
# 0.000625), but moves that probe to 1.2e-4 (9.4e-5), so the share stays 0.01.
SUPER_STEP_STAGES = 200
SUPER_STEP_MASS_SHARE = 0.01
# The share of the mass one backward-Euler step may move, read from the
# rates of the state it starts from: its length is the larger of the Euler
# bound and IMPLICIT_STEP_MASS_SHARE * mass / ||dm/dt||_1. The step is first
# order, so this cap sets how well the front phase keeps the checks: on
# fd3_gaussian, shares of 0.01, 0.0025, 0.000625 and 0.000156 took 6, 7, 9
# and 10 implicit steps (17,498 to 18,328 flux evaluations in all), with
# theorem3bis slacks -31.2 (theorem3 and prop_t4 failed too), 34.8, 38.7 and
# 38.9.
IMPLICIT_STEP_MASS_SHARE = SUPER_STEP_MASS_SHARE / 16
# Doubles per (k, n) array of a diagnostics block: evolve evaluates its
# records k = max(1, RECORD_BLOCK_DOUBLES // n) at a time, one numpy call per
# kernel serving k records (k = 12 at n = 1050). A block works in the
# workspace diagnostics reuses (functionals._workspace: 769,332 bytes at
# k = 12, n = 1050), cut into its arrays once per block shape. Blocks larger
# than 4 used to cost more per record through page faults, not L1 misses:
# they allocated their temporaries, and glibc returned the freed heap top
# after each block. Warm fd3_exact_dense blocks of 1, 12 and 48 records
# cost 220, 64 and 60 us a record (medians of 30 interleaved rounds in one
# process, 2-core host), so 12 is within 7% of 48; 16 records raised an
# fd3_exact_dense run's peak RSS about 0.2 MiB above 12 (3 runs each).
RECORD_BLOCK_DOUBLES = 12600


class StiffnessError(RuntimeError):
    """Stable step fell below dt_min (or to zero): the state is too stiff."""


class InstabilityError(RuntimeError):
    """The state blew past 10x its initial maximum: the step size is unsafe."""


@dataclass(frozen=True)
class SolverConfig:
    dt_min: float = 0.0
    # A run records at t0, at every t0 + k*record_every (k >= 1) that is at
    # or after t0 + record_from and before t_end, and at t_end. A record_from
    # above zero steps round an initial transient without a finer cadence.
    record_every: float = 0.05
    record_from: float = 0.0

    def __post_init__(self) -> None:
        # every field a finite real number, record_every above 0 and the
        # others at or above it (a NaN fails too)
        for f in fields(self):
            x, positive = getattr(self, f.name), f.name == "record_every"
            if not (isinstance(x, Real) and (x > 0.0 if positive else x >= 0.0) and x < math.inf):
                rule = "positive and finite" if positive else "finite and >= 0"
                raise ValueError(f"{f.name} must be {rule}, got {x!r}")


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
# c_j = (mu_j, mu_j, nu_j, -mu_j a_(j-1)): P_j is c_j dotted with the rows
# (w1 tau Phi(Y_(j-1)), P_(j-1), P_(j-2), w1 tau Phi(m)) of a stage stack
_STAGE_WEIGHTS = list(np.array([(mu, mu, nu, -mu * a) for mu, nu, a in zip(*_RKL2)]))


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


def _abs_operator(x: np.ndarray, coef: np.ndarray, reach: np.ndarray,
                  inv_vol: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = |V^-1 L| x, L the path Laplacian of the face coefficients coef
    (reach its diagonal's magnitude): (reach_i x_i + c_(i-1) x_(i-1) +
    c_i x_(i+1)) / V_i. tmp is (n-1,) scratch."""
    np.multiply(reach, x, out=out)
    out[:-1] += np.multiply(coef, x[1:], out=tmp)
    out[1:] += np.multiply(coef, x[:-1], out=tmp)
    out *= inv_vol
    return out


def _perron_weights(coef: np.ndarray, reach: np.ndarray, inv_vol: np.ndarray) -> np.ndarray:
    """Positive cell weights close to the Perron vector of |V^-1 L|: 64
    power iterations from ones, each scaled to max 1, plus 1e-3 (which keeps
    the ratios of _Kernel.spectral_geometry bounded where the vector
    decays)."""
    x, y, tmp = np.ones(len(reach)), np.empty(len(reach)), np.empty(len(coef))
    for _ in range(64):
        _abs_operator(x, coef, reach, inv_vol, y, tmp)
        np.divide(y, y[y.argmax()], out=x)
    x += 1e-3
    return x


def _implicit_solve(k: np.ndarray, volumes: np.ndarray, m: np.ndarray) -> np.ndarray:
    """u', the solution of (V + A) u' = m: V = diag(volumes) > 0, A the
    path Laplacian of the (n-1,) face weights k >= 0 (face j joins cells j
    and j+1), m >= 0.

    One Thomas sweep each way over Python floats, with the pivots in
    row-sum form: e_0 = V_0, e_i = V_i + e_(i-1) r_i, r_i = K_i/(e_(i-1) +
    K_i), pivot_i = e_i + K_(i+1). Every term is a sum, product or quotient
    of nonnegative numbers, so nothing cancels: u' >= 0 exactly, each entry
    to a relative error of O(n eps) whatever the spread of k, and V u' keeps
    the mass of m to round-off. (The textbook pivot b - K**2/pivot cancels
    to zero or below when K dwarfs V.)

    The inputs are read through memoryviews, which make their floats one
    at a time instead of holding three lists of them (about 100 KB at
    n = 1050).
    """
    e, g = float(volumes[0]), float(m[0])
    sweep = []  # (r_i, g_(i-1)/pivot_(i-1)) for i = 1 .. n-1, g the eliminated m
    for kj, vj, mj in zip(memoryview(k), memoryview(volumes[1:]), memoryview(m[1:])):
        pivot = e + kj
        r = kj / pivot
        sweep.append((r, g / pivot))
        e, g = vj + e * r, mj + g * r
    us = [g / e]  # u' from the last cell back
    for r, q in reversed(sweep):
        us.append(q + r * us[-1])
    return np.fromiter(reversed(us), float, len(us))


class _Kernel:
    """Per-run constants and scratch arrays of one grid and exponent, and
    every integrator over them: the Euler step (euler_step, backward by
    implicit_step where the forward update would overdraw), the RKL2
    super-step (super_step), the rule that picks between them (plan) and
    the Euler bound (load)."""

    def __init__(self, grid: RadialGrid, params: ModelParams, u_floor: float) -> None:
        n = grid.n
        self.coef = grid.areas[1:-1] / grid.center_gaps
        self.volumes = grid.volumes
        self.inv_vol = 1.0 / grid.volumes
        # V_i / (p reach_i), reach_i the sum of cell i's interior face
        # coefficients (the boundary faces carry no flux)
        self.reach = reach = np.zeros(n)
        reach[:-1] += self.coef
        reach[1:] += self.coef
        self.geometry = grid.volumes / (params.p * reach)
        self.p, self.fast, self.u_floor = params.p, params.p < 1.0, u_floor
        self.spectral_geometry = self.collatz_geometry(
            _perron_weights(self.coef, reach, self.inv_vol))
        self.power = pow_fn(params.p)
        self.factor_power = pow_fn(abs(params.p - 1.0))
        self.u, self.w, self.factor, self.scratch, self.gain = (np.empty(n) for _ in range(5))
        self.roots = (np.empty(n), np.empty(n))  # the powers' intermediate roots
        self.root = self.factor  # u**|p-1| of the density load read
        # u_floor**|p-1| by the rule that takes the roots of the cells
        self.floor_root = float(self.factor_power(np.full(1, u_floor))[0])
        self.coef_k = np.empty(n - 1)
        self.flux = np.zeros(n + 1)  # the rates of the state, entries 0 and n zero
        # the super-step's two stage stacks, rows (stage rates, P_(j-1),
        # P_(j-2), scaled first rates), face arrays with entries 0 and n
        # zero. The stages of even j read stacks[0] and write the next P into
        # stacks[1], those of odd j the other way round; stage_views holds
        # (P_(j-1)[1:], P_(j-1)[:-1], the rates' interior, the stack read,
        # the row P_j goes to, the row P_(j-1) goes to, P_(j-1)) for each
        self.stacks = np.zeros((2, 4, n + 1))
        a, b = self.stacks
        self.stage_views = [(x[1, 1:], x[1, :-1], x[0, 1:-1], x, y[1], y[2], x[1])
                            for x, y in ((a, b), (b, a))]

    def collatz_geometry(self, x: np.ndarray) -> np.ndarray:
        """2 / (p g), g_i = (|V^-1 L| x)_i / x_i the Collatz-Wielandt row
        ratios of the positive weights x: where x = 1 it is geometry."""
        g = _abs_operator(x, self.coef, self.reach, self.inv_vol, np.empty(len(x)),
                          np.empty(len(self.coef)))
        g /= x
        return 2.0 / (self.p * g)

    def stability_factor(self) -> np.ndarray:
        """max(u, u_floor)**|p-1| of the density load read, in scratch, as
        max(root, u_floor**|p-1|) from load's unfloored root u**|p-1|: the
        same bits, as the maximum, the roots and rounded products are
        monotone."""
        return np.maximum(self.root, self.floor_root, out=self.scratch)

    def bound(self, factor: np.ndarray, geometry: np.ndarray) -> float:
        """CFL min_i geometry_i u_i**(1-p), from factor = u**|p-1|: read as
        CFL min(geometry * factor) for p < 1 and as CFL / max(factor /
        geometry) for p > 1, so neither regime divides by zero (inf when
        every factor is 0). A NaN in factor gives a NaN bound.

        Here and below, a[a.argmin()] stands for a.min(): it is the same
        value, NaN included, at about a third of the call cost for n ~ 1000.
        """
        out = self.scratch
        if self.fast:
            np.multiply(geometry, factor, out=out)
            return CFL * float(out[out.argmin()])
        np.divide(factor, geometry, out=out)
        worst = float(out[out.argmax()])
        return CFL / worst if worst != 0.0 else math.inf

    def load(self) -> float:
        """w = u**p, the face rates (into flux) and the unfloored root
        u**|p-1| (root: factor, or u itself when |p-1| = 1) of the density in
        u, and its Euler bound CFL min_i V_i / (D_i reach_i) from the
        stability factor and geometry V/(p reach)."""
        _face_rates(self.power(self.u, self.w, self.roots), self.coef, self.flux[1:-1])
        self.root = self.factor_power(self.u, self.factor, self.roots)
        return self.bound(self.stability_factor(), self.geometry)

    def explicit_bound(self) -> float:
        """dt_expl, the super-step's bound for the density load read: 2 CFL
        over the Collatz-Wielandt bound (spectral_geometry) on the spectral
        radius of the linearised operator, from the unfloored root."""
        return self.bound(self.root, self.spectral_geometry)

    def plan(self, t: float, dt: float, next_rec: float, filled: bool,
             mass: float) -> tuple[float, int, bool]:
        """(tau, s, landed) of a super-step from t that advances further per
        flux evaluation than the Euler step dt, with s = 0 when there is
        none: the state must have no empty cell (filled), and the record gap
        left must exceed 4 Euler steps. load holds u, w = u**p and the rates
        of the state."""
        if not (filled and t + 4.0 * dt < next_rec):
            return 0.0, 0, False
        rest = next_rec - t
        dt_expl = self.explicit_bound()
        if not dt_expl > 0.0:  # p < 1 and an underflowed density
            return 0.0, 0, False
        smax = SUPER_STEP_STAGES
        tau = min(rest, 0.25 * (smax * smax + smax - 2) * dt_expl)
        if tau / _stages(tau / dt_expl) <= dt:
            return 0.0, 0, False
        flux, gain = self.flux, self.gain
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

    def euler_step(self, m: np.ndarray, t: float, dt: float, next_rec: float,
                   mass: float, out: np.ndarray) -> tuple[float, bool, float, bool]:
        """One Euler step of length dt from m at t into out, cut at next_rec:
        the forward update m + dt diff(Phi), or, where that would overdraw a
        cell, one backward-Euler step (implicit_step) of at least dt. Returns
        the step taken, whether it landed on next_rec, the least new mass
        and whether the step was implicit; flux is left scaled by dt."""
        flux, gain = self.flux, self.gain
        landed = t + dt >= next_rec
        if landed:
            dt = next_rec - t
        flux *= dt
        np.subtract(flux[1:], flux[:-1], out=gain)
        np.add(m, gain, out=out)
        low = out[out.argmin()]
        if not low < 0.0:  # a NaN passes: the density guard raises on it
            return dt, landed, low, False
        l1 = float(np.abs(gain, out=self.scratch).sum())
        step = max(dt, IMPLICIT_STEP_MASS_SHARE * mass * dt / l1)
        landed = t + step >= next_rec
        step = next_rec - t if landed else step
        self.implicit_step(m, dt, step, out)
        return step, landed, out[out.argmin()], True

    def implicit_weights(self, dt: float, step: float) -> np.ndarray:
        """The face couplings K_j of a backward-Euler step of length step
        from the state u, whose rates scaled by dt flux holds, in coef_k.

        K_j is the secant diffusivity step c_j (w_j - w_(j-1))/(u_j -
        u_(j-1)), >= 0 as w = u**p is nondecreasing in u. Where that quotient
        is not finite (two empty or two equal cells) it is the tangent
        diffusivity step c_j p ubar**(p-1), ubar = max(u_(j-1), u_j, u_floor)
        (u_floor is 0 for p > 1). For p < 1 that bounds the diffusivity
        of every density up to ubar from below, so every face couples and
        empty cells fill as far as the step reaches, as the infinite speed
        of propagation says; for p > 1, D(0) = 0 keeps K = 0 between two
        empty cells, so a front moves at most one cell per step. A K that
        still is not finite (overflow) is 0.
        """
        k, u, p = self.coef_k, self.u, self.p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.subtract(u[1:], u[:-1], out=k)
            np.divide(self.flux[1:-1], k, out=k)
            k *= step / dt
            ubar = np.maximum(np.maximum(u[1:], u[:-1]), self.u_floor)
            np.copyto(k, step * p * self.coef * ubar ** (p - 1.0), where=~np.isfinite(k))
        k[~np.isfinite(k)] = 0.0
        return k

    def implicit_step(self, m: np.ndarray, dt: float, step: float, out: np.ndarray) -> None:
        """One backward-Euler step of length step from m, whose density u
        holds, into out; flux holds the rates of m scaled by dt.

        (V + A) u' = m, A the weighted path Laplacian of the K_j of
        implicit_weights, is an M-matrix system, so u' >= 0 for any step and
        m' = V u'.
        """
        k = self.implicit_weights(dt, step)
        np.multiply(_implicit_solve(k, self.volumes, m), self.volumes, out=out)

    def super_step(self, m: np.ndarray, tau: float, s: int, out: np.ndarray) -> np.ndarray:
        """One s-stage RKL2 step of length tau from m into out, reading the
        rates of m from flux; scratch and w are left as the last stage's.

        Y_0 = m and Y_j = m + diff(P_j), with P_0 = 0, P_1 = w1 tau Phi(m)/3
        and P_j = mu_j (P_(j-1) + w1 tau Phi(Y_(j-1)) - a_(j-1) w1 tau Phi(m))
        + nu_j P_(j-2): the stage recursion of Meyer, Balsara & Aslam with
        the m terms of each stage, whose weights add to one, summed to m.
        Each P_j is one product c_j . stack (_STAGE_WEIGHTS) over a stage
        stack, written into the other stack, which the stages alternate.
        """
        k = tau * 4.0 / (s * s + s - 2)  # w1 tau
        u, inv_vol, power, w, coef_k = self.scratch, self.inv_vol, self.power, self.w, self.coef_k
        np.multiply(self.coef, k, out=coef_k)
        first = self.stacks[0, 3]
        np.multiply(self.flux, k, out=first)
        np.copyto(self.stacks[1, 3], first)
        np.multiply(first, 1.0 / 3.0, out=self.stacks[0, 1])
        self.stacks[0, 2].fill(0.0)
        views = self.stage_views
        with np.errstate(invalid="ignore"):  # a stage may dip below zero
            for j in range(2, s + 1):
                hi, lo, rate, stack, p_out, p_out_old, p_in = views[j & 1]
                np.subtract(hi, lo, out=u)
                u += m
                u *= inv_vol
                _face_rates(power(u, w, self.roots), coef_k, rate)
                np.dot(_STAGE_WEIGHTS[j], stack, out=p_out)
                np.copyto(p_out_old, p_in)
        p_s = self.stacks[(s - 1) & 1, 1]
        np.subtract(p_s[1:], p_s[:-1], out=out)
        out += m
        return out


@dataclass
class Trajectory:
    reference: BarenblattReference  # the profile of the run's (d, p)
    # read-only, a RecordTable: a sequence of records given here is packed
    # into one
    records: Sequence[FunctionalRecord] = field(default_factory=list)
    final_state: DensityState | None = None
    # evolve fills the fields below, counting into them as it steps, and
    # report.json's "run" object carries each of them. n_steps counts flux
    # evaluations: one per Euler step, s per super-step (a discarded one
    # included), so the loop's time per evaluation compares with an Euler
    # step's
    n_steps: int = 0
    euler_steps: int = 0
    super_steps: int = 0  # accepted
    max_stages: int = 0  # the most stages of one accepted super-step
    rejected_super_steps: int = 0  # left a negative mass, redone by Euler
    clipped_mass: float = 0.0  # always 0: no integrator clips
    limited_steps: int = 0  # Euler steps taken implicitly (backward Euler)
    # the shortest and longest step or super-step taken (0 when none was)
    dt_min: float = 0.0
    dt_max: float = 0.0
    u_floor: float = 0.0  # the Euler step's diffusivity floor: eps max(u0) for p < 1, else 0
    # the records' E carries the far-field tail (whole_space_entropy)
    whole_space_entropy: bool = False
    wall_time: float = 0.0
    diagnostics_time: float = 0.0  # of wall_time, in the diagnostics blocks

    def __post_init__(self) -> None:
        if not isinstance(self.records, RecordTable):
            self.records = RecordTable.pack(self.records)

    def series(self, name: str) -> np.ndarray:
        return self.records.column(name)


def record_block(n: int) -> int:
    """Records per diagnostics block on a grid of n cells."""
    return max(1, RECORD_BLOCK_DOUBLES // n)


def _record_schedule(t0: float, t_end: float, config: SolverConfig) -> Iterator[float]:
    """Record times after t0, generated in order: every t0 + k*record_every
    (k >= 1) at or after t0 + record_from and before t_end, then t_end."""
    start = t0 + config.record_from
    cadence = takewhile(lambda s: s < t_end, (t0 + k * config.record_every for k in count(1)))
    yield from (s for s in cadence if s >= start)
    yield t_end


def evolve(
    state: DensityState,
    t_end: float,
    params: ModelParams,
    config: SolverConfig,
    observer: Callable[[FunctionalRecord, DensityState], None] | None = None,
) -> Trajectory:
    """Run to t_end, recording diagnostics at t0, at every t0 + k*record_every
    (k >= 1) at or after t0 + record_from and before t_end, and at t_end
    (_record_schedule). A record's dt is the length of the step or
    super-step that reached it (the first record's, the first Euler bound).
    Whether the records' E carries the far-field tail is decided here, once
    (whole_space_entropy), and the run's reference profile built once
    (Trajectory.reference).

    The snapshots wait in a block of record_block(n) and go through
    diagnostics together whenever the block is full, and once more at
    t_end, each block's table copied into one table allocated at the
    schedule's length (Trajectory.records, a RecordTable). The observer is
    called once per record, in time order, with the record and its
    snapshot, when the record's block is evaluated rather than when the
    step lands; a run that raises has its pending records neither
    evaluated nor observed."""
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
    traj.u_floor = 0.0 if params.p > 1.0 else float(np.finfo(float).eps) * u0_max
    whole_space = traj.whole_space_entropy = whole_space_entropy(
        state, reference, t_end)
    kernel = _Kernel(grid, params, traj.u_floor)
    u = kernel.u
    np.copyto(u, state.u)
    m = u * grid.volumes
    m_new = np.empty_like(m)
    mass = float(m.sum())
    filled = m[m.argmin()] > 0.0  # no empty cell: a super-step may be planned
    t0 = state.t
    t = t0
    dt_lo, dt_hi = math.inf, 0.0  # of the steps taken

    block = record_block(grid.n)
    pending: list[DensityState] = []
    pending_dts: list[float] = []
    # the rows of the run's RecordTable, one per record at most, and flags
    n_records = 1 + sum(1 for _ in _record_schedule(t0, t_end, config))
    table = np.empty((n_records, len(RECORD_NUMBERS)))
    flags: list[tuple[str, ...]] = []

    def flush() -> None:
        nonlocal pending, pending_dts
        start = time.perf_counter()
        records = diagnostics(pending, reference, dts=pending_dts, whole_space=whole_space)
        traj.diagnostics_time += time.perf_counter() - start
        table[len(flags):len(flags) + len(records)] = records.values
        flags.extend(records.flags)
        if observer is not None:
            for rec, snap in zip(records, pending):
                observer(rec, snap)
        pending, pending_dts = [], []

    def emit(tag_t: float, dt: float) -> None:
        pending.append(DensityState(grid=grid, u=u.copy(), t=tag_t))
        pending_dts.append(dt)
        if len(pending) == block:
            flush()

    schedule = _record_schedule(t0, t_end, config)
    dt = kernel.load()  # the Euler bound of the state at t
    emit(t0, dt)
    next_rec = next(schedule)
    while t < t_end:
        if not (dt > 0.0 and dt >= config.dt_min):
            raise StiffnessError(
                f"stable dt {dt} below dt_min {config.dt_min} at t={t}; "
                "the state may be non-finite")
        tau, s, landed = kernel.plan(t, dt, next_rec, filled, mass)
        if s:
            traj.n_steps += s
            kernel.super_step(m, tau, s, m_new)
            low = m_new[m_new.argmin()]
            if low >= 0.0:
                traj.super_steps += 1
                traj.max_stages = max(traj.max_stages, s)
                dt = tau
            else:  # NaN included
                traj.rejected_super_steps += 1
                s = 0
        if not s:
            dt, landed, low, implicit = kernel.euler_step(m, t, dt, next_rec, mass, m_new)
            traj.n_steps += 1
            traj.euler_steps += 1
            traj.limited_steps += implicit
        filled = low > 0.0
        dt_lo, dt_hi = min(dt_lo, dt), max(dt_hi, dt)
        m, m_new = m_new, m
        np.multiply(m, kernel.inv_vol, out=u)
        u_max = u[u.argmax()]
        if not (u_max <= u_cap):
            raise InstabilityError(
                f"density maximum {u_max} exceeds 10x the initial maximum at "
                f"t={t + dt} (step {traj.n_steps}): the step was unstable"
            )
        if landed:
            t = next_rec
            emit(t, dt)
            next_rec = next(schedule, t_end)
        else:
            t += dt
        dt = kernel.load()

    if pending:
        flush()
    traj.records = RecordTable(table[:len(flags)], flags)
    traj.dt_min, traj.dt_max = min(dt_lo, dt_hi), dt_hi  # 0, 0 when no step was taken
    traj.final_state = DensityState(grid=grid, u=u.copy(), t=t)
    traj.wall_time = time.perf_counter() - start_wall
    return traj
