"""A grid-free oracle for positive solutions: shooting the continuum radial equation.

Positive solutions of -Delta u = f(u) on a ball with zero boundary data
are radial and decreasing (Gidas, Ni and Nirenberg, 1979).  So they are
exactly the amplitudes a > 0 at which the solution of

    u'' + (N-1)/r u' + f(u) = 0,    u(0) = a,  u'(0) = 0

first vanishes at r = R, and each solution's peak is its amplitude.  Past
its first zero u is harmonic with u' < 0 (f(u+) = 0 for u <= 0), so
u(R; a) = 0 holds exactly at those amplitudes, and each sign change of
a -> u(R; a) brackets one solution.  The march also carries
K = int u'^2 r^{N-1} dr and int F(u+) r^{N-1} dr, so a root's level
I(u) = |S^{N-1}| (K/2 - int F) comes out of the same march.

The tests hold the grid pipeline's saddles against the oracle: on
instances A and B the grid level converges to the continuum level, and on
the weak-log showcase the continuum problem has no positive solution with
amplitude in [0.5, 3e4], where the grid saddle sits.
"""

import functools
import math

import numpy as np
import pytest

import logcrit as lc
from conftest import INSTANCE_A, INSTANCE_B, SHOWCASE

R0 = 1e-6  # the march starts here, from the series u = a - f(a) r^2/(2N)
# the largest f(a) R0^2 / (2N a) the start accepts: past it the bubble of
# amplitude a is narrower than R0 and the series no longer describes it
SERIES_TOL = 1e-3

# (root a*, continuum level) of the one root in [1, 100], from this oracle
CONTINUUM_ROOTS = {
    "A": (13.083254966, 4.110906248),
    "B": (36.443549175, 20.503888353),
}
INSTANCES = {"A": INSTANCE_A, "B": INSTANCE_B}


def _nonlinearity(p):
    """f(u) and its primitive F(u), scalar, both 0 for u <= 0."""

    def f(u):
        if u <= 0.0:
            return 0.0
        return (
            p.mu * u ** (p.two_star - 1.0)
            + p.nu * u ** (p.q - 1.0)
            + p.lam * u
            + p.theta * u * math.log(u * u)
        )

    def F(u):
        if u <= 0.0:
            return 0.0
        u2 = u * u
        return (
            p.mu / p.two_star * u**p.two_star
            + p.nu / p.q * u**p.q
            + p.lam / 2.0 * u2
            + p.theta / 2.0 * u2 * (math.log(u2) - 1.0)
        )

    return f, F


def shoot(p, a):
    """(u(R; a), level) of the march from amplitude a > 0.

    The level is that of u on the ball, and it is the level of a solution
    only when u(R; a) = 0.  Raises ValueError when the start's series
    term exceeds SERIES_TOL of a.
    """
    from scipy.integrate import solve_ivp

    f, F = _nonlinearity(p)
    N = p.N
    fa = f(a)
    if abs(fa) * R0 * R0 / (2.0 * N) > SERIES_TOL * a:
        raise ValueError(f"amplitude {a:g}: the start at r = {R0:g} is past the series range")

    def rhs(r, y):
        u, du = y[0], y[1]
        w = r ** (N - 1)
        return [du, -(N - 1.0) / r * du - f(u), w * du * du, w * F(u)]

    start = [a - fa * R0 * R0 / (2.0 * N), -fa * R0 / N, 0.0, 0.0]
    sol = solve_ivp(rhs, (R0, p.R), start, method="DOP853", rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(f"amplitude {a:g}: {sol.message}")
    u, _, kinetic, potential = sol.y[:, -1]
    return float(u), lc.grid.sphere_area(N) * (0.5 * kinetic - potential)


def continuum_roots(p, a_lo, a_hi, samples):
    """Every positive solution found over samples geometric amplitudes in [a_lo, a_hi].

    Returns (amplitude, level) pairs in ascending amplitude, one per sign
    change of u(R; a) between neighbouring samples; a solution's peak is
    its amplitude.
    """
    from scipy.optimize import brentq

    amps = np.geomspace(a_lo, a_hi, samples)
    ends = [shoot(p, a)[0] for a in amps]
    roots = []
    for k in range(samples - 1):
        if (ends[k] > 0.0) != (ends[k + 1] > 0.0):
            a = brentq(lambda x: shoot(p, x)[0], amps[k], amps[k + 1], xtol=1e-12)
            roots.append((a, shoot(p, a)[1]))
    return roots


@functools.cache
def the_root(name):
    """The one continuum root of instance name with amplitude in [1, 100]."""
    (root,) = continuum_roots(lc.ProblemParams(**INSTANCES[name]), 1.0, 100.0, 16)
    return root


@pytest.mark.parametrize("name", ["A", "B"])
def test_oracle_finds_the_reference_root(name):
    a, level = the_root(name)
    want_a, want_level = CONTINUUM_ROOTS[name]
    assert a == pytest.approx(want_a, rel=1e-9)
    assert level == pytest.approx(want_level, rel=1e-9)


@pytest.mark.parametrize("name", ["A", "B"])
def test_grid_level_converges_to_the_continuum_level(name, request):
    # the M=1024 saddles are the session fixtures; M=2048 halves the cell
    a, level = the_root(name)
    coarse, _, _ = request.getfixturevalue(f"solved_{name.lower()}")
    fine, _, _ = lc.solve_problem(lc.ProblemParams(**INSTANCES[name]), M=2048, n=64, P=33)
    err_coarse = abs(coarse.c_M - level)
    err_fine = abs(fine.c_M - level)
    assert err_fine < err_coarse < 1e-3 * level
    # the same solution: the grid saddle's peak is the root's amplitude
    assert float(np.max(fine.u_mp)) == pytest.approx(a, rel=1e-2)


def test_showcase_has_no_positive_solution_in_range():
    # u(R; a) stays positive over [0.5, 3e4]; above a = 20 it tracks the
    # Aubin-Talenti bubble's tail 8/a
    p = lc.ProblemParams(**SHOWCASE)
    assert continuum_roots(p, 0.5, 3e4, 60) == []


def test_showcase_grid_saddle_has_no_continuum_counterpart(solved_showcase, params_showcase):
    # at the pipeline saddle's amplitude the continuum boundary value is
    # far from 0, so the grid saddle solves no continuum problem
    report, _, _ = solved_showcase
    peak = float(np.max(report.u_mp))
    assert 150.0 < peak < 170.0
    assert shoot(params_showcase, peak)[0] > 0.04
    assert shoot(params_showcase, 160.0)[0] == pytest.approx(0.0507, abs=5e-4)


def test_start_outside_the_series_range_is_refused():
    # on A (N = 3) the bubble of amplitude 1e4 is about 1e-8 wide, below R0
    with pytest.raises(ValueError, match="series range"):
        shoot(lc.ProblemParams(**INSTANCE_A), 1e4)
