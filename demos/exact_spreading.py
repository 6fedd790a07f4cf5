"""The solver reproduces the exact spreading solution.

The stationary profile scaled by the similarity law is an exact solution of
du/dt = Laplacian(u**p). Releasing it aged to t0 = 1 and evolving for one more
unit of time must land on the same solution aged to t0 = 2: the second moment
tracks Theta* t**(2/mu), the scale-invariant entropy power stays pinned at its
extremal value, and the best-match delay sits flat at t0. This is the
end-to-end exactness test of the whole stack (solver, functionals, matching).

Run: python3 demos/exact_spreading.py
"""
import numpy as np

import renyiflow as rf

params = rf.ModelParams(d=1, p=2.0)
grid = rf.build_grid(1, 5.0, 800)

t0 = 1.0
state = rf.project_initial(lambda r: rf.self_similar_density(r, t0, params), grid)
traj = rf.evolve(state, 1.0, params, rf.SolverConfig(record_every=0.25))
ref = traj.reference

mu = ref.exponents.mu
print(f"porous medium d={params.d} p={params.p}: release the self-similar "
      f"solution aged to t0 = {t0}, evolve one more time unit\n")
print(f"{'elapsed':>8} {'age':>6} {'theta':>12} {'exact law':>12} "
      f"{'tau':>10} {'|H/H*-1|':>10} {'q-1':>10}")
for rec in traj.records:
    age = t0 + rec.t
    law = ref.theta_star * age ** (2.0 / mu)
    print(f"{rec.t:8.2f} {age:6.2f} {rec.theta:12.8f} {law:12.8f} "
          f"{rec.tau:10.6f} {abs(rec.h_renyi / ref.h_star - 1.0):10.2e} "
          f"{rec.q_ratio - 1.0:10.2e}")

exact = rf.self_similar_density(grid.centers, t0 + 1.0, params)
l1 = grid.integrate(np.abs(traj.final_state.u - exact))
tau = traj.series("tau")
print(f"\nL1 distance to the exact aged solution : {l1:.3e}")
print(f"delay excursion max|tau - t0|          : {np.max(np.abs(tau - t0)):.3e}")
print(f"steps taken                            : {traj.n_steps}")
