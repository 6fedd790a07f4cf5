"""The entropy-production deficit is an exact budget.

Along the fast-diffusion flow, J = E**(sigma-1) I can only go down, and what
it loses is accounted for, instant by instant, by the nonnegative remainder R:

    J(0) - J(T) = (1 - p) int_0^T E**(sigma-2) R dt  =: P(T).

So P grows monotonically and can never exceed the total budget J(0) - J*.
The same remainder fixes the concavity rate of the entropy power,
-F'' = sigma (1-p)**2 E**(sigma-2) R, which a centered second difference of
the recorded F series verifies window by window. Initial data mixing two
profile scales starts far from every single profile, leaving a budget worth
draining while keeping fat tails the quadratures can resolve from t = 0.

Run: python3 demos/deficit_budget.py   (the 3-d run takes a few seconds)
"""
import numpy as np

import renyiflow as rf
from renyiflow.gn import deficit_identity_check

params = rf.ModelParams(d=3, p=2.0 / 3.0)
ref = rf.build_reference(params)
grid = rf.build_grid(3, 896000.0, 1050, stretch=1.012)

scales = (0.7, 2.2)
state = rf.project_initial(
    lambda r: sum(0.5 * rf.profile_density(r / s, params) / s**3
                  for s in scales),
    grid)
traj = rf.evolve(state, 1.5, params, rf.SolverConfig(record_every=0.0125))

rep = deficit_identity_check(traj)
(deficit,) = rf.run_checks(("deficit",), traj)
budget_bound = deficit.details["clauses"]["budget_bound"]
t = traj.times()
j = traj.series("j_scale")
p_series = rep["p_series"]
budget = rep["budget"]

print(f"fast diffusion d={params.d} p={params.p:.4g}, two-scale profile "
      f"mixture (scales {scales})\n")
print(f"total budget J(0) - J* = {budget:.6f}\n")
print(f"{'t':>6} {'J(t) - J*':>12} {'P(t)':>12} {'spent':>8}")
for k in range(0, len(t), len(t) // 12):
    print(f"{t[k]:6.2f} {j[k] - ref.j_star:12.6f} {p_series[k]:12.6f} "
          f"{p_series[k] / budget:8.2%}")

drained = j[0] - j[-1]
print(f"\nP nondecreasing            : min step {np.min(np.diff(p_series)):+.3e}")
print(f"P(T) vs measured J drop    : {p_series[-1]:.6f} vs {drained:.6f} "
      f"(rel diff {abs(p_series[-1] / drained - 1):.2e})")
print(f"P(T) within budget         : {budget_bound['measured']:+.3e} <= "
      f"{budget_bound['tolerance']:.3e}")
print(f"-F'' identity, resolved    : worst rel dev {rep['fpp_worst']:.2e} "
      f"over {rep['fpp_count']} windows")
