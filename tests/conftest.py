import mpmath
import numpy as np
import pytest

import logcrit as lc

# the two reference instances used across solver, inequality and CLI tests:
# one with nu < 0 (interval-geometry branch) and one with nu > 0
INSTANCE_A = dict(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0, R=1.0)
INSTANCE_B = dict(N=4, q=3.0, mu=1.0, nu=8.0, lam=-20.0, theta=-1.0, R=1.0)
# the weak-log showcase (the CLI default): its minimizer lies below double
# range and is solved in scaled form
SHOWCASE = dict(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-0.01, R=1.0)
# the showcase with lambda = 3: a weak-log instance whose grid saddle is a
# mesh-converged continuum solution (peak 19.21)
INSTANCE_C = dict(N=4, q=3.0, mu=1.0, nu=0.0, lam=3.0, theta=-0.01, R=1.0)


@pytest.fixture(scope="session")
def params_a():
    return lc.ProblemParams(**INSTANCE_A)


@pytest.fixture(scope="session")
def params_b():
    return lc.ProblemParams(**INSTANCE_B)


@pytest.fixture(scope="session")
def solved_a(params_a):
    report, path, grid = lc.solve_problem(params_a, M=1024, n=64, P=33)
    return report, path, grid


@pytest.fixture(scope="session")
def solved_b(params_b):
    report, path, grid = lc.solve_problem(params_b, M=1024, n=64, P=33)
    return report, path, grid


@pytest.fixture(scope="session")
def params_showcase():
    return lc.ProblemParams(**SHOWCASE)


@pytest.fixture(scope="session")
def solved_showcase(params_showcase):
    report, path, grid = lc.solve_problem(params_showcase, M=400)
    return report, path, grid


def random_dirichlet_profile(g, rng, floor=0.0):
    """Random positive profile vanishing at the boundary like 1 - (r/R)^2."""
    bump = 1.0 - (g.r / g.R) ** 2
    return floor + np.abs(rng.standard_normal(g.M)) * bump


def sobolev_rayleigh_quotient(N):
    """S(N) as the Rayleigh quotient of (1 + r^2)^{-(N-2)/2}, by mpmath.quad at 30 digits.

    An independent reference for best_sobolev_constant: no Gamma-function
    closed form, only the two integrals of the quotient.
    """
    with mpmath.workdps(30):
        mpf, inf = mpmath.mpf, mpmath.inf
        # r = e^s turns r^{N-1} (1 + r^2)^{-N} dr into (2 cosh s)^{-N} ds;
        # the 2^{-N} stays out of the integrands, whose peaks are then O(1),
        # because quad's tolerance is absolute
        i2 = mpmath.quad(lambda s: mpmath.exp(2 * s) * mpmath.cosh(s) ** -N, [-inf, 0, inf])
        i0 = mpmath.quad(lambda s: mpmath.cosh(s) ** -N, [-inf, 0, inf])
        sig = 2 * mpmath.pi ** (mpf(N) / 2) / mpmath.gamma(mpf(N) / 2)
        grad = sig * (N - 2) ** 2 * i2 / mpf(2) ** N  # |u'|^2 = (N-2)^2 r^2 (1+r^2)^{-N}
        crit = sig * i0 / mpf(2) ** N  # u^{2*} = (1+r^2)^{-N}
        return float(grad / crit ** (mpf(N - 2) / N))
