"""Generic data relaxes to the self-similar profile, monotonically.

Started from a Gaussian, the porous-medium flow pushes every scale-invariant
functional toward its extremal value, each one monotonically:

  - the entropy power F = E**sigma increases and is concave in time,
  - H = Theta**(-eta/2) E decreases to H* (it sits above H* when p > 1),
  - J = E**(sigma-1) I decreases to its minimum J*,
  - the Cauchy-Schwarz ratio q = Theta I / (d E**2) decays toward 1,
  - the best-match delay tau moves one way only (up, in this regime),
  - the relative entropy against the best-matching profile drains to zero.

Run: python3 demos/relaxation_to_profile.py
"""
import numpy as np

import renyiflow as rf

params = rf.ModelParams(d=1, p=2.0)
grid = rf.build_grid(1, 6.0, 800)

state = rf.project_initial(lambda r: np.exp(-(r * r)), grid)
traj = rf.evolve(state, 5.0, params, rf.SolverConfig(record_every=0.25))
ref = traj.reference

print(f"porous medium d={params.d} p={params.p}, Gaussian data, horizon t = 5\n")
print(f"{'t':>6} {'F':>10} {'H/H*':>10} {'J/J*':>10} {'q':>12} "
      f"{'tau':>8} {'rel.ent':>10}")
for rec in traj.records[::4]:
    print(f"{rec.t:6.2f} {rec.f_power:10.6f} {rec.h_renyi / ref.h_star:10.6f} "
          f"{rec.j_scale / ref.j_star:10.6f} {rec.q_ratio:12.9f} "
          f"{rec.tau:8.4f} {rec.rel_entropy:10.3e}")

f = traj.series("f_power")
h = traj.series("h_renyi")
j = traj.series("j_scale")
tau = traj.series("tau")
print(f"\nF strictly increasing      : min step {np.min(np.diff(f)):+.3e}")
print(f"F concave (2nd diff <= 0)  : max {np.max(f[2:] - 2 * f[1:-1] + f[:-2]):+.3e}")
print(f"H >= H*, decreasing        : min H - H* {np.min(h) - ref.h_star:+.3e}, "
      f"max step {np.max(np.diff(h)):+.3e}")
print(f"J decreasing toward J*     : max step {np.max(np.diff(j)):+.3e}, "
      f"final |J/J* - 1| {abs(j[-1] / ref.j_star - 1.0):.1e}")
print(f"tau nondecreasing          : min step {np.min(np.diff(tau)):+.3e}")
print(f"final distance from family : q - 1 = {traj.records[-1].q_ratio - 1:.3e}, "
      f"rel.ent = {traj.records[-1].rel_entropy:.3e}")
