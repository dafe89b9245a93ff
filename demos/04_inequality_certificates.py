"""
Certifying the scalar expansion inequalities
============================================

The energy expansion of u0 + t U_n rests on three pointwise bounds for
the functions g, f, f1 of (t, y).  The finders scan a box, return the
smallest certifying constants with headroom, and the bounds are then
re-checked on the solution-plus-bubble data produced by the solver.
"""

import numpy as np

from logcrit import (
    BoxSpec,
    BubbleSpec,
    ProblemParams,
    check_corollary,
    find_A1,
    find_A3,
    find_f_constants,
    solve_problem,
    truncated_bubble,
)

# scalar certificates on a reference box
box = BoxSpec(C1=0.5, C2=2.0)
A1 = find_A1(box, eps=0.5)
A2, A2_hat = find_f_constants(6.0, box)
A3 = find_A3(2.5, box)
print(f"box [0.5, 2] x (0, 1e3], 2 x {box.y_samples} points (t = {box.C1:g} and t = {box.C2:g})")
print(f"  g  bound:   g <= y^2.5 + A1 y^2          with A1     = {A1:.5f}")
print(f"  f  bounds:  lower constant A2            = {A2:.5f}")
print(f"              |f| constant  A2_hat         = {A2_hat:.5f}")
print(f"  f1 sandwich constant A3                  = {A3:.5f}")
print()

# transfer to computed data: minimizer of a negative-nu instance plus
# three concentration scales
p = ProblemParams(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0)
report, _, g = solve_problem(p, M=1024, n=64)
u0 = np.maximum(report.u0, 1e-3)  # the bounds need strictly positive t
bubbles = [
    truncated_bubble(BubbleSpec(N=3, n=n, r0=0.25), g) for n in (16, 32, 64)
]

verdict = check_corollary(p, u0, bubbles, t_n=[0.8, 0.4, 0.2])
print(f"corollary on the computed minimizer: ok = {verdict.ok}")
print(f"  u0 range on bubble support: [{verdict.L1:.6f}, {verdict.L2:.6f}]")
print(f"  constants B1 = {verdict.B1:.3f}, B2 = {verdict.B2:.3f}, B3 = {verdict.B3:.3f}")
for name, margin in sorted(verdict.margins.items()):
    print(f"  margin {name:<9} = {margin:.6f}")
print(f"  worst: {verdict.worst_bound} at {verdict.worst_margin:.6f}")
print()

# the margins stay positive as the bubble amplitudes shrink
for fac in (0.1, 0.01):
    v = check_corollary(p, u0, bubbles, t_n=[0.8 * fac, 0.4 * fac, 0.2 * fac])
    print(f"amplitudes x{fac}: ok = {v.ok}, worst margin = {v.worst_margin:.2e}")
