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
instances A, B and the weak-log instance C the grid level converges to
the continuum level, and on the weak-log showcase the continuum problem
has no positive solution other than the ball minimizer with amplitude
up to 3e4, where the grid saddle sits: a uniqueness theorem covers
amplitudes below u* = 0.1, and the oracle [u*, 3e4].
"""

import functools
import math
import time

import numpy as np
import pytest

import logcrit as lc
from conftest import INSTANCE_A, INSTANCE_B, INSTANCE_C, SHOWCASE

R0 = 1e-6  # the march starts here, from the series u = a - f(a) r^2/(2N)
# the largest f(a) R0^2 / (2N a) the start accepts: past it the bubble of
# amplitude a is narrower than R0 and the series no longer describes it
SERIES_TOL = 1e-3

# (root a*, continuum level) of the one root in [1, 100], from this oracle
CONTINUUM_ROOTS = {
    "A": (13.083254966, 4.110906248),
    "B": (36.443549175, 20.503888353),
    "C": (19.213795326, 24.591745010),
}
INSTANCES = {"A": INSTANCE_A, "B": INSTANCE_B, "C": INSTANCE_C}


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


@pytest.mark.parametrize("name", ["A", "B", "C"])
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


def test_instance_c_grid_level_converges_to_the_continuum_level():
    # the weak-log instance C: its grid saddles at M = 400, 800, 1600
    # approach the continuum level, the error falling about 4x per
    # doubling (7.9e-4, 2.0e-4, 4.9e-5), and each is the continuum root
    p = lc.ProblemParams(**INSTANCE_C)
    a, level = the_root("C")
    errors = []
    for M in (400, 800, 1600):
        report, _, g = lc.solve_problem(p, M=M)
        errors.append(abs(report.c_M - level))
        assert float(np.max(report.u_mp)) == pytest.approx(a, rel=1e-2)
        verdict = lc.verify_two_level_structure(
            p, g, report.v0, report.u_mp, report, s0=report.s0
        )
        assert verdict.ok, verdict.failures
    assert errors[0] < 1e-3 * level
    assert errors[0] > 3.0 * errors[1] and errors[1] > 3.0 * errors[2]


def test_instance_c_passes_the_criterion_4_checks():
    # criterion 4's five checks, applied to C at M = 400: unlike the
    # showcase (lambda = 0), C has a continuum saddle below c_rho + S^2/4
    p = lc.ProblemParams(**INSTANCE_C)
    t0 = time.perf_counter()
    report, _, g = lc.solve_problem(p, M=400)
    dt = time.perf_counter() - t0
    S = lc.best_sobolev_constant(4)
    log_norm_u0 = math.log(math.sqrt(g.h1_seminorm_sq(report.v0))) + report.s0
    checks = {
        "ordering": report.c_rho < 0.0 < report.c_M,
        "residuals": report.residual0 < 1e-8 and report.residual_mp < 1e-8,
        "ball": log_norm_u0 < math.log(report.rho),
        "gap": report.c_M < report.c_rho + 0.25 * S**2,
        "time": dt < 300.0,
    }
    assert all(checks.values()), checks


def uniqueness_floor(p):
    """The root u* of h(u) = (2*-2) mu u^{2*-2} + (q-2) nu u^{q-2} + 2 theta.

    h(u) is u times the derivative of f(u)/u.  For nu >= 0 and theta < 0,
    h increases from 2 theta < 0 at u = 0 to infinity, so it has one root.
    """
    from scipy.optimize import brentq

    if not (p.nu >= 0.0 and p.theta < 0.0):
        raise ValueError("u* needs nu >= 0 and theta < 0")

    def h(u):
        return (p.two_star - 2.0) * p.mu * u ** (p.two_star - 2.0) + (
            p.q - 2.0
        ) * p.nu * u ** (p.q - 2.0) + 2.0 * p.theta

    hi = 1.0
    while h(hi) <= 0.0:
        hi *= 2.0
    return brentq(h, 0.0, hi, xtol=1e-15)


def test_showcase_has_no_positive_solution_in_range():
    """No positive solution other than the ball minimizer peaks in (0, 3e4].

    Below u*: f(u)/u = mu u^{2*-2} + nu u^{q-2} + lambda + theta ln u^2
    strictly decreases on (0, u*], since h < 0 there.  By the uniqueness
    theorem of Brezis and Oswald (Nonlinear Anal. 1986), through the
    inequality of Diaz and Saa (C. R. Acad. Sci. Paris 1987), two positive
    solutions whose peaks are both at most u* coincide.  The ball minimizer
    is one (its amplitude lies below double range), so every other
    positive solution peaks above u*.  From u* to 3e4 the oracle finds no
    sign change of u(R; a); above a = 20 it tracks the Aubin-Talenti
    bubble's tail 8/a.
    """
    p = lc.ProblemParams(**SHOWCASE)
    u_star = uniqueness_floor(p)
    assert u_star == pytest.approx(math.sqrt(-p.theta / p.mu), rel=1e-12)  # 0.1
    assert continuum_roots(p, u_star, 3e4, 60) == []


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
