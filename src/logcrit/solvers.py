"""Two-solution pipeline: ball-constrained minimization and radial shooting.

The search runs in the gradient norm ||u||^2 = int |grad u|^2.  Stage one
minimizes the energy over the ball {||u|| <= rho(1 - 1e-3)}.  It first
computes the dilation exponent s = (lam - lambda1)/(2|theta|) - 1/2, the
log-amplitude of the minimizer.  When e^{2s} is not a normal double (a
weak log term puts the minimizer near e^{-lambda1/(2|theta|)}), stage one
solves for an O(1) profile v of the amplitude-dilated problem instead and
reports u0 = e^s v in scaled form, with its level as an mpmath.mpf.  It
starts at t* phi1, the first minimum of the fiber t -> I(t phi1), which
the closed form of fiber_map gives without a grid pass per t.  Projected,
preconditioned descent runs to its first iterate whose Hessian A - f'(u)
has Morse index 0 (on every instance measured that is the start itself),
and damped Newton runs once from there.  One check accepts the limit: a
residual below 1e-8, Morse index 0, negative energy and a norm strictly
inside the ball.  A failed check raises UsableRegionError.

Stage two finds the mountain-pass point by discrete radial shooting.
Positive solutions on a ball are radial, so each is a root of the map
that marches the three-term recurrence A u = f(u) out from u_0 = a and
reads the boundary residual.  One vectorized march scans a window of
amplitudes set by the endpoint of select_endpoint; Newton refines each
sign change in ascending amplitude, and the first limit that is positive
with exactly one negative Hessian eigenvalue (Morse index 1, the index
of a nondegenerate mountain-pass point) is the saddle.  A minimizer is
the index-0 case of the same rule.  A ridge check on the straight ray
from u0 through the saddle then shows that it crowns an admissible
path, so its level c_M bounds the minimax level from above.

Gradient and residual sizes are measured in the dual norm
sqrt(<v, A^{-1} v>_w) of the discrete operator A = -Laplacian: it is the
norm in which a first-order step predicts its own energy decrease, and it
is mesh-robust (a plain weighted L^2 residual has an M^2 eps floor).
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .bubbles import truncated_bubble
from .energy import (
    dilated_params,
    energy_value,
    fiber_map,
    g_profile,
    gradient_field,
    source_derivative,
    source_term,
)
from .grid import ball_volume, solve_tridiagonal
from .regions import region_membership

BALL_MARGIN = 1e-3  # constraint radius rho*(1 - BALL_MARGIN)
ARMIJO = 1e-4
LOG_TINY = math.log(np.finfo(float).tiny)  # log of the smallest normal double

# stage one starts at the fiber minimum of phi1, searched over FIBER_SAMPLES
# values of log t in a window of half-width FIBER_WINDOW
FIBER_SAMPLES = 257
FIBER_WINDOW = 64.0

# stage two shoots from SHOOT_AMPS log-spaced amplitudes spanning a factor
# SHOOT_SPAN either side of the endpoint's peak
SHOOT_AMPS = 128
SHOOT_SPAN = 64.0


class UsableRegionError(RuntimeError):
    """Raised by stage one when the dilation exponent is not a finite
    double, when the fiber of the principal mode has no negative minimum
    on the searched range of scales (the message names the range and s0),
    or when Newton's limit fails a check of _minimize_with_stats (the
    message names the check)."""


class PathCollapseError(RuntimeError):
    """Raised when the ridge check fails: a sample of the ray from u0
    through the saddle rises above c_M, or its far end (t = 2) does not
    fall below I(u0), so the straight path is no admissible minimax path
    crowned by the saddle."""


class ConcentrationStallError(RuntimeError):
    """Raised when no sign change of the shooting map in the scanned
    amplitude range leads Newton to a positive critical point of Morse
    index 1; the message names the range."""


# -- norms and linear algebra -------------------------------------------


def _h1_norm(g, u):
    return np.sqrt(g.h1_seminorm_sq(u))


def _dual_norm_sq(g, field):
    """<field, A^{-1} field>_w, the squared dual norm of a gradient field."""
    pre = solve_tridiagonal(g.band, field)
    return max(float(np.dot(g.w, field * pre)), 0.0), pre


def _project_ball(g, u, radius):
    nrm = _h1_norm(g, u)
    if nrm > radius:
        return u * (radius / nrm)
    return u


# -- stage one: minimizer in the ball ------------------------------------


def _dilation_exponent(p, lam1):
    """Exponent s of the dilation u = e^s v that brings the minimizer to O(1).

    s = (lam - lambda1)/(2|theta|) - 1/2 makes the dilated linear
    coefficient lam + 2 theta s equal lambda1 + |theta|, so the fiber of
    the principal mode in the dilated problem is negative at t of order 1.
    Raises UsableRegionError when s is not a finite double.
    """
    s = (p.lam - lam1) / (2.0 * abs(p.theta)) - 0.5
    if not math.isfinite(s):
        raise UsableRegionError(
            f"stage one: the amplitude-dilation exponent s = {s} is not a finite "
            "double, so no scale of the principal mode reaches negative energy "
            "in double range; parameters lie outside the usable region of this "
            "arithmetic"
        )
    return s


def _fiber_start(p, g, radius):
    """Stage one's start: (s0, p_s0, ball radius for v, start t* phi1).

    s is the dilation exponent.  s0 = 0 when e^{2s}, the scale of u^2 at
    a minimizer of amplitude e^s, is a normal double; otherwise s0 = s and
    stage one solves the dilated problem p_s0 for v = e^{-s0} u.  t* is
    the first local minimum of the fiber t -> I(t phi1; p_s0), which
    fiber_map gives in closed form.  The search samples log t on
    [hi - 2 FIBER_WINDOW, hi], with hi = s - s0 + FIBER_WINDOW unless the
    ball (t ||phi1|| <= radius for v) caps it lower, floored where
    (t max phi1)^2 leaves the normal range.  The first sampled minimum is
    refined by bisection on the slope.  Raises UsableRegionError, naming
    the t-range and s0, when the range is empty or the fiber's first
    minimum on it is not negative.
    """
    lam1, phi1 = g.eigenpair
    s = _dilation_exponent(p, lam1)
    if 2.0 * s >= LOG_TINY:
        s0, ps, radius_v = 0.0, p, radius
    else:
        s0, ps = s, dilated_params(p, s)
        # the ball for v has radius e^{-s} radius; past double range it
        # cannot bind an O(1) profile
        radius_v = radius * math.exp(-s) if -s < 700.0 else math.inf
    hi = min(s - s0 + FIBER_WINDOW, math.log(radius_v / _h1_norm(g, phi1)))
    lo = max(hi - 2.0 * FIBER_WINDOW, 0.5 * LOG_TINY - math.log(float(np.max(phi1))))
    fib = fiber_map(ps, g, phi1)
    t0 = None
    if lo < hi:
        tau = np.linspace(lo, hi, FIBER_SAMPLES)
        vals = fib(np.exp(tau))
        rises = np.flatnonzero(vals[1:] >= vals[:-1])
        i = int(rises[0]) if rises.size else FIBER_SAMPLES - 1
        if 0 < i < FIBER_SAMPLES - 1:
            # the fiber falls at tau[i - 1] and rises at tau[i + 1]
            a, b = float(tau[i - 1]), float(tau[i + 1])
            m = 0.5 * (a + b)
            while a < m < b:
                if fib.log_slope(math.exp(m)) < 0.0:
                    a = m
                else:
                    b = m
                m = 0.5 * (a + b)
            t0 = math.exp(m)
        else:
            t0 = math.exp(tau[i])
    if t0 is None or not (fib(t0) < 0.0):
        why = (
            "the ball caps t below the scale where u^2 underflows"
            if t0 is None else "its first minimum there is not negative"
        )
        raise UsableRegionError(
            "stage one: the fiber t -> I(t phi1) of the principal mode was "
            f"searched for t in [{math.exp(lo):.6e}, {math.exp(hi):.6e}] "
            f"(s0 = {s0:.6g}), and {why}; parameters lie outside the usable "
            "region of this grid"
        )
    return s0, ps, radius_v, t0 * phi1


def _scaled_level(c, s):
    """The level e^{2s} c of u = e^s v, as an mpmath.mpf (unbounded exponent)."""
    return mpmath.mpf(c) * mpmath.exp(2 * s)


def _descend_in_ball(p, g, u, radius, itmax=5000):
    """Projected preconditioned descent to its first iterate of Morse index 0.

    Returns (iterate, descent steps).  Newton runs from that iterate:
    from an iterate of index 1, such as a small negative-energy multiple
    of phi1 on the weak-log showcase, it converges to a saddle.  When no
    Armijo step is left, or after itmax steps, the last iterate is
    returned, and the index check on Newton's limit decides.
    """
    e = energy_value(p, g, u)
    for it in range(itmax):
        if _morse_index(p, g, u) == 0:
            return u, it
        gn2, pre = _dual_norm_sq(g, gradient_field(p, g, u))
        s = 1.0
        while s >= 1e-14:
            cand = _project_ball(g, u - s * pre, radius)
            ec = energy_value(p, g, cand)
            if ec <= e - ARMIJO * s * gn2:
                break
            s *= 0.5
        else:
            return u, it  # no descent step left at this resolution
        u, e = cand, ec
        if _h1_norm(g, u) > 2.0 * radius / (1.0 - BALL_MARGIN):
            raise RuntimeError("descent iterate left the expected bounded set")
    return u, itmax


@dataclass(frozen=True)
class NewtonResult:
    u: np.ndarray
    converged: bool
    residual: float
    iterations: int


def _jacobian(p, g, u):
    """Band of the Hessian A - f'(u), in solve_banded((1, 1), ...) layout."""
    J = g.band.copy()
    J[1] -= source_derivative(p, u)
    if not np.all(np.isfinite(J[1])):
        raise ValueError("array must not contain infs or NaNs")
    return J


def _newton(p, g, u, tol=1e-10, itmax=50):
    """Damped Newton on A u = f(u); residual measured in the dual norm."""

    def res_norm(v):
        r = gradient_field(p, g, v)
        rn2, _ = _dual_norm_sq(g, r)
        return np.sqrt(rn2), r

    rn, res = res_norm(u)
    best, best_rn, its = u, rn, 0
    for it in range(itmax):
        if rn < tol:
            return NewtonResult(u=u, converged=True, residual=rn, iterations=it)
        J = _jacobian(p, g, u)
        try:
            step = solve_tridiagonal(J, res)
        except np.linalg.LinAlgError:
            break
        s = 1.0
        while s >= 1e-12:
            cand = u - s * step
            rt, res_t = res_norm(cand)
            if rt < rn * (1.0 - 0.25 * s):
                u, rn, res = cand, rt, res_t
                break
            s *= 0.5
        else:
            break
        its = it + 1
        if rn < best_rn:
            best, best_rn = u, rn
    if rn < tol:
        return NewtonResult(u=u, converged=True, residual=rn, iterations=its)
    return NewtonResult(u=best, converged=False, residual=best_rn, iterations=its)


def newton_refine(p, g, u, tol=1e-10, itmax=50):
    """Quadratic polish of a near-critical point.

    Requires a nontrivial nonnegative-part iterate whose gradient dual
    norm is already below 1e-3.  Non-convergence returns the best iterate
    with converged=False rather than raising.
    """
    u = np.asarray(u, dtype=float)
    if not np.any(u > 0):
        raise ValueError("not near-critical in the positive cone")
    gn2, _ = _dual_norm_sq(g, gradient_field(p, g, u))
    if np.sqrt(gn2) >= 1e-3:
        raise ValueError("input is not near-critical (gradient norm >= 1e-3)")
    return _newton(p, g, u, tol=tol, itmax=itmax)


def _morse_index(p, g, u):
    """Number of negative eigenvalues of the Hessian A - f'(u) at u.

    The Jacobian that _newton factors is self-adjoint in the w inner
    product; the similar symmetric tridiagonal matrix keeps its diagonal
    and has off-diagonal -sqrt(upper * lower).  Its eigenvalues in
    (-inf, 0] are counted by bisection, in O(M).
    """
    J = _jacobian(p, g, u)
    off = -np.sqrt(J[0, 1:] * J[2, :-1])
    neg = eigvalsh_tridiagonal(
        J[1], off, select="v", select_range=(-np.inf, 0.0)
    )
    return len(neg)


def find_ball_minimizer(p, g, rho):
    """Local minimizer of the energy inside {||u|| < rho}.

    Returns (u0, c_rho) with c_rho an mpmath.mpf; _minimize_with_stats
    checks the limit.  When the minimizer lies below double range, u0 is
    the underflowed array e^s v; _minimize_with_stats keeps the scaled
    form.
    """
    v, s, c_rho, _ = _minimize_with_stats(p, g, rho)
    return np.exp(s) * v, c_rho


def _minimize_with_stats(p, g, rho):
    """Stage one in scaled form.  Returns (v, s, c_rho, stats), u0 = e^s v.

    Descent runs from the fiber minimum t* phi1 of _fiber_start to its
    first iterate of Morse index 0, and Newton runs once from there.  Its
    limit v is accepted when its residual is below 1e-8, its Morse index
    is 0, its energy is negative and ln||v|| + s < ln(radius); a failed
    check raises UsableRegionError naming stage one and the check.  stats
    counts the descent steps and the Newton iterations.  On instances A
    and B, the weak-log showcase and the N=5 test sets the start already
    has index 0, so descent takes no step and Newton 0-3 iterations.

    s = 0 whenever e^{2s}, for the dilation exponent s, is a normal
    double, and the minimizer is computed directly.  Otherwise v
    minimizes the dilated problem dilated_params(p, s), which has the same
    critical points up to the factor e^s and levels up to e^{2s}.  Checks
    and the reported residual refer to v.  _fiber_start raises
    UsableRegionError, naming stage one, when it finds no start.
    """
    radius = rho * (1.0 - BALL_MARGIN)
    s, ps, radius_v, start = _fiber_start(p, g, radius)
    u, iters = _descend_in_ball(ps, g, start, radius_v)
    nres = _newton(ps, g, u)
    v = nres.u
    c = energy_value(ps, g, v)
    check = None
    if not (nres.residual < 1e-8):
        check, why = "residual", f"{nres.residual:.3e} is not below 1e-8"
    elif _morse_index(ps, g, v) != 0:
        check, why = "Morse index", "the Hessian A - f'(v) has a negative eigenvalue"
    elif not (c < 0.0):
        check, why = "energy", f"{c:.6e} is not negative"
    elif not (math.log(_h1_norm(g, v)) + s < math.log(radius)):
        check, why = "ball", "ln||v|| + s is not below ln(radius)"
    if check is not None:
        raise UsableRegionError(
            f"stage one: the Newton limit after {iters} descent steps fails "
            f"the {check} check: {why}"
        )
    stats = {"iters_minimize": iters, "iters_newton0": nres.iterations,
             "residual0": nres.residual}
    return v, s, _scaled_level(c, s), stats


# -- stage two: endpoint, discrete shooting, ridge check --------------------


def select_endpoint(p, g, u0, spec, rho):
    """Smallest doubling T past 4 rho / S^{N/4} with I(u0 + T U_n) < I(u0).

    rho is the ball radius of the region membership that solve_problem
    found.  Returns (T, endpoint).  The critical term dominates at large
    scale, so the doubling always terminates for mu > 0.
    """
    Un = truncated_bubble(spec, g)
    e0 = energy_value(p, g, u0)
    T = 4.0 * rho / g.sobolev ** (p.N / 4.0) * (1.0 + 1e-6)
    for _ in range(60):
        if energy_value(p, g, u0 + T * Un) < e0:
            return T, u0 + T * Un
        T *= 2.0
    raise RuntimeError("endpoint search failed to pass below the base energy")


@dataclass(frozen=True)
class PathState:
    """The straight path u0 + t (u_mp - u0) sampled at P nodes for t in [0, 2]."""

    t: np.ndarray  # (P,)
    nodes: np.ndarray  # (P, M)
    energies: np.ndarray  # (P,)


def _shoot(p, g, amps):
    """March A u = f(u) out from u_0 = a for each amplitude a in amps.

    Row i of the tridiagonal system fixes u_{i+1} from u_i and u_{i-1},
    so one pass over the nodes, vectorized over the amplitudes, gives the
    (M, K) profiles U.  F(a) is the residual of the last row with u_M = 0,
    a positive multiple of the boundary value the march would give u_M,
    so a root of F is a radial critical point.  Large amplitudes overflow
    on purpose; their F is inf or nan.
    """
    upper, diag, lower = g.band
    M = g.M
    U = np.empty((M, len(amps)))
    U[0] = amps
    with np.errstate(over="ignore", invalid="ignore"):
        U[1] = (source_term(p, U[0]) - diag[0] * U[0]) / upper[1]
        for i in range(1, M - 1):
            U[i + 1] = (
                source_term(p, U[i]) - diag[i] * U[i] - lower[i - 1] * U[i - 1]
            ) / upper[i + 1]
        F = diag[-1] * U[-1] + lower[-2] * U[-2] - source_term(p, U[-1])
    return U, F


def mountain_pass(p, g, u0, endpoint, rep, P=33):
    """Mountain-pass point by discrete radial shooting, with a ridge check.

    Positive solutions on a ball are radial, so on the grid each one is a
    root of the shooting map F of _shoot.  One march covers SHOOT_AMPS
    log-spaced amplitudes in [m / SHOOT_SPAN, m SHOOT_SPAN], m = max(endpoint).
    At each sign change of F between finite values, in ascending
    amplitude, Newton starts from the regula-falsi blend of the two
    bracketing profiles, clipped at 0.  The first limit that converges,
    is positive at every node and whose Hessian has exactly one negative
    eigenvalue (Morse index 1) is the saddle u_mp; a minimizer (index 0)
    or a higher critical point is passed over.  ConcentrationStallError
    names the amplitude range when no bracket qualifies.

    rep is the RegionReport of the parameters: its alpha, when a
    membership holds, floors the saddle level.  The ridge check then
    samples the ray u0 + t (u_mp - u0) at P nodes for t in [0, 2].  Every
    sample must lie at or below c_M (to roundoff) and the last below
    I(u0), so the straight path from u0 through u_mp to the last sample
    is admissible for the minimax and crests at c_M: c_M bounds the
    mountain-pass level from above.  PathCollapseError is raised when
    the check fails.

    Returns (u_mp, c_M, PathState of the ray samples, stats); stats
    counts the brackets handed to Newton ("iters_path") and the
    iterations of every Newton call, rejected ones included
    ("iters_newton_path").
    """
    if P < 32:
        raise ValueError("need at least 32 path nodes")
    u0 = np.asarray(u0, dtype=float)
    endpoint = np.asarray(endpoint, dtype=float)
    if not (energy_value(p, g, endpoint) < energy_value(p, g, u0)):
        raise ValueError("endpoint energy must fall below the base energy")

    top = float(np.max(endpoint))
    amps = np.geomspace(top / SHOOT_SPAN, top * SHOOT_SPAN, SHOOT_AMPS)
    U, F = _shoot(p, g, amps)
    finite = np.isfinite(F)
    positive = F > 0.0
    brackets = np.flatnonzero(
        finite[:-1] & finite[1:] & (positive[:-1] != positive[1:])
    )
    newton_iterations = 0
    for count, j in enumerate(brackets, start=1):
        w = F[j + 1] / (F[j + 1] - F[j])
        start = np.maximum(w * U[:, j] + (1.0 - w) * U[:, j + 1], 0.0)
        nres = _newton(p, g, start)
        newton_iterations += nres.iterations
        if (
            nres.converged
            and np.all(nres.u > 0.0)
            and _morse_index(p, g, nres.u) == 1
        ):
            break
    else:
        raise ConcentrationStallError(
            "no sign change of the shooting map over amplitudes "
            f"[{amps[0]:.6e}, {amps[-1]:.6e}] led Newton to a positive critical "
            f"point of Morse index 1 ({len(brackets)} brackets tried); the "
            "window may miss the saddle's amplitude, or its energy may "
            "concentrate below the grid scale"
        )
    u_mp = nres.u
    c_M = energy_value(p, g, u_mp)
    if not (c_M > 0.0):
        raise RuntimeError(f"saddle level is not positive: {c_M:.6e}")
    if rep.alpha is not None and c_M < rep.alpha * (1.0 - 1e-9):
        raise RuntimeError(
            f"saddle level {c_M:.6e} fell below the geometry floor {rep.alpha:.6e}"
        )
    if _h1_norm(g, u_mp - u0) < 1e-6 * max(1.0, _h1_norm(g, u0)):
        raise RuntimeError("saddle coincides with the base minimizer")

    t = np.linspace(0.0, 2.0, P)
    Z = u0 + t[:, None] * (u_mp - u0)
    E = energy_value(p, g, Z)
    # the sample at t = 1 is u_mp, whose stacked energy may round above c_M
    if np.any(E > c_M * (1.0 + 1e-12)):
        raise PathCollapseError(
            f"the ray from u0 through the saddle rises to {np.max(E):.6e} at "
            f"t = {t[np.argmax(E)]:.4f}, above c_M = {c_M:.6e}"
        )
    if not (E[-1] < E[0]):
        raise PathCollapseError(
            f"the ray from u0 through the saddle ends at level {E[-1]:.6e}, "
            f"not below I(u0) = {E[0]:.6e}"
        )
    stats = {"iters_path": count, "iters_newton_path": newton_iterations}
    return u_mp, c_M, PathState(t=t, nodes=Z, energies=E), stats


# -- report and verification ----------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """Pipeline result.  The minimizer is u0 = e^{s0} v0 (s0 = 0 unless it
    lies below double range, where u0 underflows); c_rho = e^{2 s0} I(v0; p_s0)
    is an mpmath.mpf and residual0 is the dual-norm residual of v0 in the
    dilated problem.  iters_path counts the shooting brackets handed to
    Newton and iters_newton_path the Newton iterations over all of them."""

    u0: np.ndarray
    v0: np.ndarray
    s0: float
    c_rho: mpmath.mpf
    residual0: float
    u_mp: np.ndarray
    c_M: float
    residual_mp: float
    gap_bound: float
    gap_ok: bool
    sign_changes: int
    t_local_min: float
    rho: float
    alpha: float
    iters_minimize: int
    iters_newton0: int
    iters_path: int
    iters_newton_path: int


@dataclass(frozen=True)
class VerifyVerdict:
    ok: bool
    failures: tuple


def _profile_local_min_near_one(prof):
    """Location of the sampled local minimum of the fiber profile nearest t=1."""
    v = prof.values
    idx = [
        i
        for i in range(1, len(v) - 1)
        if v[i] <= v[i - 1] and v[i] <= v[i + 1]
    ]
    if not idx:
        return np.inf
    ts = prof.t[idx]
    return float(ts[np.argmin(np.abs(ts - 1.0))])


def verify_two_level_structure(p, g, u0, u_mp, report, s0=0.0):
    """Check the ordering, least-energy, fiber, and interior-ball assertions.

    (i)   I(u0) < 0 < I(u_mp);
    (ii)  I(u0) is the least energy among the pipeline's critical points
          (within 1e-6) -- the computable shadow of least-energy equality;
    (iii) the fiber profile of u0 has at most two extreme points and its
          sampled local minimum sits at t = 1 within 0.05;
    (iv)  ||u0|| < rho and I(t u0) < 0 for all sampled t in (0, 1].
    Each failed assertion is named in the verdict.

    A minimizer below double range is passed in scaled form: the array
    u0 stands for e^{s0} u0 (report.v0 with s0 = report.s0).  The fiber
    and ray checks then sample I(t u0; p_s0) = e^{-2 s0} I(t e^{s0} u0; p),
    which has the same signs and extreme points, and the ball check reads
    ln||u0|| + s0 < ln rho.
    """
    failures = []
    ps = dilated_params(p, s0)
    if report is not None:
        c0 = report.c_rho
    else:
        c0 = _scaled_level(energy_value(ps, g, u0), s0)
    cm = report.c_M if report is not None else energy_value(p, g, u_mp)
    if not (c0 < 0.0 < cm):
        failures.append("ordering: need I(u0) < 0 < I(u_mp)")
    crit_levels = [c0, cm]
    if min(crit_levels) < c0 - 1e-6:
        failures.append("least-energy: a pipeline critical point sits below u0")
    prof = g_profile(ps, g, u0, t_max=2.0, samples=256)
    if prof.sign_changes > 2:
        failures.append(
            f"fiber: {prof.sign_changes} derivative sign changes (max 2)"
        )
    t_min = _profile_local_min_near_one(prof)
    if not (abs(t_min - 1.0) <= 0.05):
        failures.append(f"fiber: local minimum at t={t_min:.4f}, not near 1")
    # evaluated here, not taken from the report, so the check can fail alone
    rep = region_membership(p, g.sobolev, g.eigenpair[0], ball_volume(p.N, p.R))
    if rep.rho is not None and not (
        math.log(_h1_norm(g, u0)) + s0 < math.log(rep.rho)
    ):
        failures.append("ball: ||u0|| is not inside rho")
    sub = prof.values[prof.t <= 1.0]
    if not np.all(sub < 0.0):
        failures.append("ray: I(t u0) >= 0 for some t in (0, 1]")
    return VerifyVerdict(ok=not failures, failures=tuple(failures))


def solve_problem(p, M, n=16, P=33, r0=None):
    """Run the full two-solution pipeline on a fresh grid.

    Returns (report, path_state, grid).  Stage one runs in scaled form
    (see _minimize_with_stats): when the minimizer's amplitude lies below
    double range, as in the weak-log regime, it is solved as an O(1)
    profile v0 of the amplitude-dilated problem, and stage two starts from
    the underflowed u0 = e^{s0} v0.  Raises UsableRegionError when stage
    one finds no negative-energy start (the dilation exponent is not a
    finite double, or the fiber of phi1 has no negative minimum on the
    searched range) or its Newton limit fails a check, ValueError when
    no region membership holds.  The membership is evaluated once, here:
    stage one and select_endpoint get its rho, mountain_pass the whole
    RegionReport.
    """
    from .bubbles import BubbleSpec
    from .grid import build_grid

    g = build_grid(p.N, p.R, M)
    rep = region_membership(p, g.sobolev, g.eigenpair[0], ball_volume(p.N, p.R))
    if not rep.any_membership():
        raise ValueError("no region membership holds for these parameters")
    if r0 is None:
        r0 = p.R / 4.0
    v0, s0, c_rho, stats = _minimize_with_stats(p, g, rep.rho)
    u0 = np.exp(s0) * v0
    spec = BubbleSpec(N=p.N, n=n, r0=r0)
    _, endpoint = select_endpoint(p, g, u0, spec, rep.rho)
    u_mp, c_M, path, path_stats = mountain_pass(p, g, u0, endpoint, rep, P=P)
    rn2, _ = _dual_norm_sq(g, gradient_field(p, g, u_mp))
    prof = g_profile(dilated_params(p, s0), g, v0, t_max=2.0, samples=256)
    gap_bound = float(
        c_rho + (1.0 / p.N) * p.mu ** (-(p.N - 2.0) / 2.0) * rep.S ** (p.N / 2.0)
    )
    report = SolveReport(
        u0=u0,
        v0=v0,
        s0=s0,
        c_rho=c_rho,
        residual0=stats["residual0"],
        u_mp=u_mp,
        c_M=c_M,
        residual_mp=float(np.sqrt(rn2)),
        gap_bound=gap_bound,
        gap_ok=bool(c_M < gap_bound),
        sign_changes=prof.sign_changes,
        t_local_min=_profile_local_min_near_one(prof),
        rho=rep.rho,
        alpha=rep.alpha,
        iters_minimize=stats["iters_minimize"],
        iters_newton0=stats["iters_newton0"],
        iters_path=path_stats["iters_path"],
        iters_newton_path=path_stats["iters_newton_path"],
    )
    return report, path, g
