"""The flow's extremal profile carries a sharp interpolation constant.

The scale-invariant entropy production J = E**(sigma-1) I attains its minimum
J* on the stationary profile, and J* converts into the optimal constant of
the Sobolev-type interpolation inequality

    ||w||_{2q} <= C ||grad w||_2**theta ||w||_{q+1}**(1-theta)

via w = u**(p - 1/2). Two independent evaluations must agree: the closed-form
constant from J*, and the quotient Q[w] evaluated on the sampled extremal
w = B*^(p-1/2). Random smooth perturbations of the extremal can only raise
the quotient, and the gap grows quadratically in the perturbation amplitude.

Run: python3 demos/sharp_constant.py
"""
import numpy as np

import renyiflow as rf
from renyiflow.gn import TestFunction, extremality_test, gn_constant_report, gn_quotient

print("interpolation exponent theta(d, q), both branches:")
for d, q in [(1, 2.0), (3, 2.0), (3, 3.0), (1, 1.0 / 3.0)]:
    print(f"  d={d} q={q:<8.4g} theta = {rf.gn_exponent(d, q):.6f}")

for d, p in [(1, 2.0), (3, 2.0 / 3.0)]:
    params = rf.ModelParams(d, p)
    ref = rf.build_reference(params)
    rep = gn_constant_report(ref)
    ext = extremality_test(ref, seed=20260814)
    print(f"\nd={d} p={p:.4g}  (exponent pair q={rep['q']:.4g}, "
          f"theta={rep['theta']:.6f}, branch {rep['branch']})")
    print(f"  constant from J*            : {rep['c_gn']:.12f}")
    print(f"  quotient of sampled extremal: {rep['quotient']:.12f}")
    print(f"  relative discrepancy        : {rep['rel_discrepancy']:.2e}")
    print(f"  20 perturbation gaps        : min {ext['min_gap']:+.3e} "
          f"(all nonnegative: {ext['min_gap'] >= 0.0})")
    print(f"  gap growth vs amplitude     : log-log slope {ext['slope']:.3f} "
          f"(quadratic = 2)")

# the quotient is dilation invariant: same Gaussian at two widths
q = rf.build_reference(rf.ModelParams(1, 2.0)).exponents.gn_q
theta = rf.gn_exponent(1, q)
vals = []
for lam in (1.0, 3.0):
    grid = rf.build_grid(1, 30.0 * lam, 2000)
    w = np.exp(-((grid.centers / lam) ** 2) / 2.0)
    vals.append(gn_quotient(TestFunction(grid, w), q, theta))
print(f"\ndilation invariance of the quotient: Q(lam=1) = {vals[0]:.12f}, "
      f"Q(lam=3) = {vals[1]:.12f}, rel diff {abs(vals[0] / vals[1] - 1):.2e}")
