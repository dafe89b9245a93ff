"""
Two positive solutions from one parameter set
=============================================

Runs the full pipeline on a negative-nu instance.  Stage one minimizes
inside the geometric ball, starting at the minimum of the principal
mode's fiber t -> I(t phi1), which has a closed form in t: it descends to
the first iterate of Morse index 0 (here the start itself), runs Newton
once from it and checks the limit once.  Stage two selects an endpoint
past the crest, shoots radially over a window of amplitudes set by that
endpoint, and refines each sign change of the shooting map with Newton
until a limit is positive with Morse index 1.  A
ridge check on the ray from the minimizer through that limit shows it
crowns an admissible straight path.  The result is one solution at
negative energy (a local minimizer, Morse index 0) and a second one, a
critical point of Morse index 1 at positive energy whose level bounds the
mountain-pass level from above.
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

# shooting: each bracket of the shooting map went to Newton until a limit
# had exactly one negative Hessian direction
print(f"shooting: {report.iters_path} brackets to Newton, "
      f"{report.iters_newton_path} Newton iterations over all of them")
# ridge check: the ray u0 + t (u_mp - u0), t in [0, 2], crests at t = 1
k = int(np.argmax(path.energies))
print(f"ridge: crest at t = {path.t[k]:.4f} of {len(path.t)} samples, "
      f"level at t = 2: {path.energies[-1]:.6f}")
print()

verdict = verify_two_level_structure(p, g, report.u0, report.u_mp, report)
print("structure verified:", verdict.ok)
for f in verdict.failures:
    print("  failure:", f)
