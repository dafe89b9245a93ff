"""
Concentration rates of cut-off extremal profiles
================================================

The cut-off Sobolev extremals U_n concentrate at the origin as n grows.
Their gradient and critical norms approach the optimal constant at
explicit polynomial rates, and the subcritical norms decay with
exponents that depend on the dimension, including a ln n correction
exactly at p = N/(N-2).  All rates are recovered here by log-log fits.
"""

from logcrit import (
    best_sobolev_constant,
    expected_lp_exponent,
    fit_gap_exponent,
    fit_norm_exponent,
    log_corrected,
)
from logcrit.bubbles import DEFAULT_N_LIST

# gap decay toward the optimal constant, from the closed-form gaps
print("decay of | |grad U_n|^2 - S^{N/2} |  and  | |U_n|_{2*}^{2*} - S^{N/2} |")
print(f"{'N':>3} {'S':>10} {'grad slope':>11} {'crit slope':>11}")
for N in (3, 4, 5):
    s_grad, _, _ = fit_gap_exponent(N, (16, 32, 64, 128, 256), 0.25, "grad")
    s_crit, _, _ = fit_gap_exponent(N, (16, 32, 64, 128, 256), 0.25, "crit")
    print(
        f"{N:>3} {best_sobolev_constant(N):>10.5f} "
        f"{s_grad:>11.4f} {s_crit:>11.4f}"
    )
print("expected: grad ~ -(N-2), crit ~ -N")
print()

# subcritical L2 decay, from the closed-form norms
print("decay of |U_n|_2^2 (closed form)")
print(f"{'N':>3} {'fitted':>9} {'expected':>9} {'ln-corrected':>13}")
for N in (3, 4, 5):
    slope, _, _ = fit_norm_exponent(N, DEFAULT_N_LIST, 2.0, 0.25)
    print(
        f"{N:>3} {slope:>9.4f} {expected_lp_exponent(N, 2.0):>9.1f} "
        f"{str(log_corrected(N, 2.0)):>13}"
    )
print()
print("N = 4 carries the ln n factor: the fit divides it out first")
