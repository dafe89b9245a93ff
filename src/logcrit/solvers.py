"""Two-solution pipeline: ball-constrained minimization and path deformation.

The search runs in the gradient norm ||u||^2 = int |grad u|^2.  Stage one
minimizes the energy over the ball {||u|| <= rho(1 - 1e-3)} by projected,
preconditioned descent started at t0*phi1 with I(t0 phi1) < 0.  When that
start lies below double range (a weak log term puts the minimizer near
e^{-lambda1/(2|theta|)}), stage one solves for an O(1) profile v of the
amplitude-dilated problem instead and reports u0 = e^s v in scaled form,
with its level as an mpmath.mpf.  Descent hands its first iterate whose
Hessian A - f'(u) has Morse index 0 to damped Newton, once, and stage one
ends there when Newton converges to a limit of Morse index 0 at negative
energy strictly inside the ball.  Otherwise descent runs on to its
gradient tolerance and Newton polishes the last iterate.

Stage two deforms the segment from u0 to a far endpoint u0 + T U_n
downhill at its crest.  Its path energies come from energy_value, batched
over the (P, M) array of path nodes, so every level of the pipeline has
one kernel.  It hands the crest node to Newton at sweeps 0, 1, 2, 4,
8, ...  It stops at the first Newton limit whose Hessian has exactly one
negative eigenvalue (Morse index 1, the index of a nondegenerate
mountain-pass point), so the deformation runs only as long as Newton needs
a warm start.  If the crest stalls first, its last node gets one more
Newton call, whose limit must pass the same index check.  A minimizer is
the index-0 case of the same rule.

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
    XLOG_CLAMP,
    dilated_params,
    energy_value,
    g_profile,
    gradient_field,
    source_derivative,
)
from .grid import ball_volume, solve_tridiagonal
from .regions import region_membership

BALL_MARGIN = 1e-3  # constraint radius rho*(1 - BALL_MARGIN)
ARMIJO = 1e-4

# path deformation: crest gradient exit, sweep cap, and the stall test
# (crest level moved by less than STALL_EPS relative over STALL_WINDOW sweeps)
PATH_GTOL = 1e-6
PATH_ITMAX = 20000
STALL_WINDOW = 100
STALL_EPS = 1e-6


class UsableRegionError(RuntimeError):
    """Raised when no negative-energy starting scale exists on this grid,
    even for the amplitude-dilated problem."""


class PathCollapseError(RuntimeError):
    """Raised when the path crest falls to the endpoint levels."""


class ConcentrationStallError(RuntimeError):
    """Raised when deformation stalls and Newton finds no nearby saddle of
    Morse index 1."""


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


def _negative_start(p, g, phi1, lam1, radius):
    """Scale t0 with I(t0 phi1) < 0 and t0 ||phi1|| inside the ball.

    Halving scan.  When theta is small the required t0 is about
    e^{(lam - lambda1)/(2|theta|)}; once t phi1 leaves the normal double
    range the energy signs are roundoff noise, and the scan raises
    UsableRegionError.  Stage one then retries on the amplitude-dilated
    problem (see _dilation_exponent), where the same scan starts at O(1).
    """
    t = min(0.5, 0.5 * radius / np.sqrt(lam1))
    # below this scale u^2 leaves the normal range and energy signs are
    # roundoff noise, so a negative value there proves nothing
    t_floor = np.sqrt(np.finfo(float).tiny) / float(np.max(phi1))
    for _ in range(1200):
        if t == 0.0 or t < max(t_floor, XLOG_CLAMP):
            break
        if energy_value(p, g, t * phi1) < 0.0:
            return t
        t *= 0.5
    raise UsableRegionError(
        "no scale of the principal mode reaches negative energy before "
        "underflow; parameters lie outside the usable region of this grid"
    )


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
            "no scale of the principal mode reaches negative energy in double "
            f"range, and the amplitude-dilation exponent s = {s} is not a finite "
            "double; parameters lie outside the usable region of this arithmetic"
        )
    return s


def _scaled_level(c, s):
    """The level e^{2s} c of u = e^s v, as an mpmath.mpf (unbounded exponent)."""
    return mpmath.mpf(c) * mpmath.exp(2 * s)


def _descend_in_ball(p, g, u, radius, gtol=1e-3, itmax=5000):
    """Projected preconditioned descent, finished by Newton.

    Returns (NewtonResult, descent iterations, Newton iterations).  The
    first iterate whose Hessian A - f'(u) has Morse index 0 is handed to
    Newton, once.  Its limit is accepted when Newton converged and the
    limit has Morse index 0, negative energy and a norm strictly inside
    radius.  Earlier iterates are not tried: on the weak-log showcase they
    have index 1, and so do their Newton limits.  After a rejected limit
    descent goes on to gtol, and Newton polishes the last iterate.  The
    Newton iterations count both calls.
    """
    handoff = True
    newton_its = 0
    e = energy_value(p, g, u)
    for it in range(itmax):
        grad = gradient_field(p, g, u)
        gn2, pre = _dual_norm_sq(g, grad)
        if np.sqrt(gn2) < gtol:
            break
        if handoff and _morse_index(p, g, u) == 0:
            handoff = False
            nres = _newton(p, g, u)
            newton_its = nres.iterations
            if (
                nres.converged
                and _morse_index(p, g, nres.u) == 0
                and energy_value(p, g, nres.u) < 0.0
                and _h1_norm(g, nres.u) < radius
            ):
                return nres, it, newton_its
        s = 1.0
        while s >= 1e-14:
            cand = _project_ball(g, u - s * pre, radius)
            ec = energy_value(p, g, cand)
            if ec <= e - ARMIJO * s * gn2:
                break
            s *= 0.5
        else:
            break  # no descent step left at this resolution
        u, e = cand, ec
        if _h1_norm(g, u) > 2.0 * radius / (1.0 - BALL_MARGIN):
            raise RuntimeError("descent iterate left the expected bounded set")
    else:
        it = itmax
    nres = _newton(p, g, u)
    return nres, it, newton_its + nres.iterations


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


def find_ball_minimizer(p, g, rho, gtol=1e-8):
    """Local minimizer of the energy inside {||u|| < rho}.

    Returns (u0, c_rho) with c_rho an mpmath.mpf.  Postconditions checked
    here: negative energy, strictly interior norm, gradient dual norm below
    gtol.  When the minimizer lies below double range, u0 is the
    underflowed array e^s v; _minimize_with_stats keeps the scaled form.
    """
    v, s, c_rho, _ = _minimize_with_stats(p, g, rho, gtol=gtol)
    return np.exp(s) * v, c_rho


def _minimize_with_stats(p, g, rho, gtol=1e-8):
    """Stage one in scaled form.  Returns (v, s, c_rho, stats), u0 = e^s v.

    v is the Newton limit that _descend_in_ball returns: the hand-off from
    the first descent iterate of Morse index 0 when its limit is accepted,
    else the polish of the last descent iterate.  stats counts the descent
    iterations up to that point and the Newton iterations of both calls.

    s = 0 whenever the principal-mode start is in double range, and the
    minimizer is computed directly.  Otherwise v minimizes the dilated
    problem dilated_params(p, s), which has the same critical points up to
    the factor e^s and levels up to e^{2s}.  Checks and the reported
    residual refer to v; the norm check reads ln||v|| + s < ln(radius).
    """
    radius = rho * (1.0 - BALL_MARGIN)
    lam1, phi1 = g.eigenpair
    s, ps, radius_v = 0.0, p, radius
    try:
        t0 = _negative_start(p, g, phi1, lam1, radius)
    except UsableRegionError:
        s = _dilation_exponent(p, lam1)
        ps = dilated_params(p, s)
        # the ball for v has radius e^{-s} radius; past double range it
        # cannot bind an O(1) profile
        radius_v = radius * math.exp(-s) if -s < 700.0 else math.inf
        t0 = _negative_start(ps, g, phi1, lam1, radius_v)
    nres, iters, newton_iters = _descend_in_ball(ps, g, t0 * phi1, radius_v)
    v = nres.u
    c = energy_value(ps, g, v)
    if not (c < 0.0):
        raise RuntimeError("ball minimizer ended at nonnegative energy")
    if not (math.log(_h1_norm(g, v)) + s < math.log(radius)):
        raise RuntimeError("ball constraint active at the minimizer")
    if not (nres.residual < gtol):
        raise RuntimeError(
            f"minimizer residual {nres.residual:.3e} above tolerance {gtol:.1e}"
        )
    stats = {"iters_minimize": iters, "iters_newton0": newton_iters,
             "residual0": nres.residual}
    return v, s, _scaled_level(c, s), stats


# -- stage two: endpoint, path deformation, saddle ------------------------


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
    """Snapshot of the deformed path: node functions and their energies."""

    nodes: np.ndarray  # (P, M)
    energies: np.ndarray  # (P,)
    max_index: int
    iterations: int
    newton_iterations: int
    exit_reason: str


def _seg_lengths(g, Z):
    return np.sqrt(g.h1_seminorm_sq(Z[1:] - Z[:-1]))


def _resample_polyline(Z, lens, out):
    """Fill out with len(out) nodes equidistributed by arc length along Z."""
    cum = np.concatenate([[0.0], np.cumsum(lens)])
    total = cum[-1]
    if total == 0.0:
        out[:] = Z[0]
        return out
    targets = np.linspace(0.0, total, out.shape[0])[1:-1]
    k = np.searchsorted(cum, targets, side="right") - 1
    np.minimum(k, len(lens) - 1, out=k)
    seg = lens[k]
    frac = np.zeros_like(targets)
    np.divide(targets - cum[k], seg, out=frac, where=seg != 0.0)
    lo = Z[k]
    step = Z[k + 1] - lo
    step *= frac[:, None]
    out[0] = Z[0]
    out[-1] = Z[-1]
    np.add(lo, step, out=out[1:-1])
    return out


def _resample_anchored(g, Z, anchor):
    """Equidistribute nodes by arc length separately on each side of anchor.

    The anchored split keeps the freshly moved crest node exactly where
    the descent step put it; a global resample would cut the corner it
    just created and undo the progress.
    """
    lens = _seg_lengths(g, Z)
    out = np.empty_like(Z)
    _resample_polyline(Z[: anchor + 1], lens[:anchor], out[: anchor + 1])
    _resample_polyline(Z[anchor:], lens[anchor:], out[anchor:])
    out[0] = Z[0]
    out[-1] = Z[-1]
    out[anchor] = Z[anchor]
    return out


def mountain_pass(p, g, u0, endpoint, rep, P=33):
    """Deform the segment from u0 to endpoint downhill at its crest.

    rep is the RegionReport of the parameters: its rho bounds the path
    iterates and its alpha, when a membership holds, floors the saddle
    level.  Path energies come from energy_value, batched over the nodes.

    Each sweep moves the maximal-energy interior node one backtracking
    preconditioned step (start step capped at half the mean segment
    length so the node cannot tunnel across the ridge), then re-spaces
    the nodes by arc length on both sides of the moved node.  Newton is
    the convergence arbiter: at sweep 0 and at every power of two the
    crest node is handed to it, and the loop returns (exit "newton") at
    the first Newton limit of Morse index 1.  A limit of another index is
    a critical point off the mountain pass (on instance B the first crest
    falls to one of index 2) and is passed over.  The doubling makes at
    most log2(sweeps) Newton calls and runs fewer than twice the sweeps
    that Newton first needs.  The loop also exits when the crest gradient
    passes PATH_GTOL ("gradient"), when the crest level stalls ("stalled"),
    when the crest node finds no descent step ("no-step") or after
    PATH_ITMAX sweeps ("itmax"); the crest node then gets a last Newton
    call, and ConcentrationStallError is raised unless that limit converges
    with Morse index 1.  Returns (u_mp, c_M, PathState); newton_iterations
    counts the iterations of every Newton call, failed ones included.
    """
    if P < 32:
        raise ValueError("need at least 32 path nodes")
    u0 = np.asarray(u0, dtype=float)
    endpoint = np.asarray(endpoint, dtype=float)
    e0 = energy_value(p, g, u0)
    e_end = energy_value(p, g, endpoint)
    if not (e_end < e0):
        raise ValueError("endpoint energy must fall below the base energy")

    bound = 2.0 * max(rep.rho or 0.0, _h1_norm(g, endpoint))

    ts_path = np.linspace(0.0, 1.0, P)
    Z = u0[None, :] + ts_path[:, None] * (endpoint - u0)[None, :]
    crest_hist = []
    exit_reason = "itmax"
    newton_iterations = 0
    it = 0
    for it in range(PATH_ITMAX):
        E = energy_value(p, g, Z)
        k = 1 + int(np.argmax(E[1:-1]))  # ties: lowest index
        if E[k] <= max(E[0], E[-1]):
            raise PathCollapseError(
                "interior crest fell below the endpoint levels; "
                "no minimax geometry along this path"
            )
        crest_hist.append(E[k])
        nres = None  # the Newton limit of this sweep's crest, if tried
        if it & (it - 1) == 0:  # sweep 0 and each power of two
            nres = _newton(p, g, Z[k])
            newton_iterations += nres.iterations
            if nres.converged and _morse_index(p, g, nres.u) == 1:
                exit_reason = "newton"
                break
        grad = gradient_field(p, g, Z[k])
        gn2, pre = _dual_norm_sq(g, grad)
        gn = np.sqrt(gn2)
        if gn < PATH_GTOL:
            exit_reason = "gradient"
            break
        if len(crest_hist) > STALL_WINDOW and abs(
            crest_hist[-STALL_WINDOW - 1] - crest_hist[-1]
        ) < STALL_EPS * max(1.0, abs(crest_hist[-1])):
            exit_reason = "stalled"
            break
        seg_mean = float(np.mean(_seg_lengths(g, Z)))
        pre_n = _h1_norm(g, pre)
        s = min(1.0, 0.5 * seg_mean / pre_n) if pre_n > 0 else 1.0
        moved = False
        while s >= 1e-14:
            cand = Z[k] - s * pre
            if energy_value(p, g, cand) <= E[k] - ARMIJO * s * gn2:
                Z[k] = cand
                moved = True
                break
            s *= 0.5
        if not moved:
            exit_reason = "no-step"
            break
        if _h1_norm(g, Z[k]) > bound:
            raise RuntimeError(
                f"path iterate norm exceeded the bounded-set limit {bound:.3e}"
            )
        Z = _resample_anchored(g, Z, k)
    else:
        # the last sweep moved the path; a break leaves Z as E measured it
        E = energy_value(p, g, Z)
        k = 1 + int(np.argmax(E[1:-1]))
        nres = None
    if exit_reason != "newton":
        if nres is None:  # a break at a power of two reuses that sweep's call
            nres = _newton(p, g, Z[k])
            newton_iterations += nres.iterations
        if not nres.converged:
            raise ConcentrationStallError(
                "deformation stalled (reason: %s, crest gradient not resolved) "
                "and Newton found no saddle near the crest; energy may be "
                "concentrating at scales below this grid. crest level %.6e, "
                "residual %.3e" % (exit_reason, E[k], nres.residual)
            )
        index = _morse_index(p, g, nres.u)
        if index != 1:
            raise ConcentrationStallError(
                "deformation stalled (reason: %s) and Newton converged near "
                "the crest to a critical point of Morse index %d, not a "
                "mountain-pass point of index 1. crest level %.6e, level %.6e"
                % (exit_reason, index, E[k], energy_value(p, g, nres.u))
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
    state = PathState(
        nodes=Z,
        energies=E,
        max_index=k,
        iterations=it + 1,
        newton_iterations=newton_iterations,
        exit_reason=exit_reason,
    )
    assert np.array_equal(Z[0], u0), "base node must never move"
    return u_mp, c_M, state


# -- report and verification ----------------------------------------------


@dataclass(frozen=True)
class SolveReport:
    """Pipeline result.  The minimizer is u0 = e^{s0} v0 (s0 = 0 unless it
    lies below double range, where u0 underflows); c_rho = e^{2 s0} I(v0; p_s0)
    is an mpmath.mpf and residual0 is the dual-norm residual of v0 in the
    dilated problem."""

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
    path_exit: str


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
    the underflowed u0 = e^{s0} v0.  Raises UsableRegionError when no
    negative-energy start exists even after dilation (the dilation
    exponent is not a finite double), ValueError when no region membership
    holds.  The membership is evaluated once, here: stage one and
    select_endpoint get its rho, mountain_pass the whole RegionReport.
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
    u_mp, c_M, path = mountain_pass(p, g, u0, endpoint, rep, P=P)
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
        iters_path=path.iterations,
        iters_newton_path=path.newton_iterations,
        path_exit=path.exit_reason,
    )
    return report, path, g
