"""
Two positive solutions from one parameter set
=============================================

Runs the full pipeline on a negative-nu instance: minimize inside the
geometric ball by descent that hands its first iterate of Morse index 0 to
Newton, select an endpoint past the crest, deform the connecting path, and
hand its crest node to Newton at sweeps 0, 1, 2, 4, ... until a Newton
limit has Morse index 1.  The result is one solution at negative energy
(a local minimizer, Morse index 0) and a second one, a mountain-pass
point, at positive energy.
"""

import mpmath
import numpy as np

from logcrit import ProblemParams, solve_problem, verify_two_level_structure

p = ProblemParams(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0)
print("parameters:", p)
print()

report, path, g = solve_problem(p, M=1024, n=64)

print(f"ball radius rho        = {report.rho:.6f}")
print(f"level floor alpha      = {report.alpha:.6f}")
print(f"minimizer level c_rho  = {mpmath.nstr(report.c_rho, 9)}   (residual {report.residual0:.1e})")
print(f"saddle level c_M       = {report.c_M:.9f}   (residual {report.residual_mp:.1e})")
print(f"upper bound            = c_rho + S^{{N/2}}/(N mu^{{(N-2)/2}}) = {report.gap_bound:.6f}")
print(f"gap_ok                 = {report.gap_ok}")
print()

# the two solutions are ordered and positive
print(f"max u0   = {np.max(report.u0):.6f},  ||u0||_grad = {np.sqrt(g.h1_seminorm_sq(report.u0)):.6f}")
print(f"max u_mp = {np.max(report.u_mp):.6f}")
print()

# deformation history: exit 'newton' means the crest of the last sweep
# went to Newton, whose limit has exactly one negative Hessian direction
print(f"path: {path.iterations} sweeps, exit '{path.exit_reason}', "
      f"{path.newton_iterations} Newton iterations over all hand-offs,")
print(f"      crest node {path.max_index} of {len(path.energies) - 1}")
print()

verdict = verify_two_level_structure(p, g, report.u0, report.u_mp, report)
print("structure verified:", verdict.ok)
for f in verdict.failures:
    print("  failure:", f)
