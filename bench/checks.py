"""Output checks that recompute what logcrit reports from its raw outputs.

Each check works from the raw outputs (CSV node values, JSON levels,
the solve report's arrays) with code of its own:

- the finite-volume weights stated in the logcrit.grid docstrings (origin
  cell the exact ball of radius h/2, boundary half-cell folded into the
  last node, face weights sigma r_{i+1/2}^{N-1} h);
- the closed-form Sobolev constant pi N (N-2) (Gamma(N/2)/Gamma(N))^{2/N};
- the continuum principal eigenvalue (j_{N/2-1,1}/R)^2 from mpmath;
- the paper's displayed region tests;
- the certificate inequalities evaluated directly in mpmath.

None of them calls logcrit's energy, gradient, region, bubble or
certificate code, and none compares against a stored copy of earlier
output.  A failed check raises CheckFailed, whose message starts with the
check's name.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import solveh_banded

# a region test value within this share of its two terms' magnitudes is
# too close to 0 to decide with the continuum lambda1 instead of the grid's
REGION_MARGIN = 1e-4
# relative agreement of rho and alpha between the grid and the continuum
GEOMETRY_RTOL = 1e-4
# Newton stops at a dual-norm residual of 1e-10 and the minimizer
# postcondition is 1e-8; both are absolute
RESIDUAL_TOL = 1e-8
# levels are sums of ~M terms; rounding stays far below this share of them
LEVEL_RTOL = 1e-10
SLOPE_RTOL = 0.05
MP_DPS = 50


class CheckFailed(Exception):
    """An output failed a check; the message names the check."""


def require(ok, name, detail):
    if not ok:
        raise CheckFailed(f"{name}: {detail}")


# -- constants of the continuum problem ----------------------------------


def sobolev_S(N):
    return math.pi * N * (N - 2) * (math.gamma(N / 2) / math.gamma(N)) ** (2 / N)


def lambda1_continuum(N, R):
    return float(mpmath.besseljzero(mpmath.mpf(N) / 2 - 1, 1)) ** 2 / R**2


def ball_volume(N, R):
    return math.pi ** (N / 2) * R**N / math.gamma(N / 2 + 1)


# -- the radial finite-volume grid ----------------------------------------


@dataclass(frozen=True)
class Coeffs:
    N: int
    q: float
    mu: float
    nu: float
    lam: float
    theta: float

    @property
    def two_star(self):
        return 2 * self.N / (self.N - 2)

    def dilated(self, s):
        """Coefficients of v in u = e^s v: the paper's scaling of each term."""
        return Coeffs(
            self.N,
            self.q,
            self.mu * math.exp((self.two_star - 2) * s),
            self.nu * math.exp((self.q - 2) * s),
            self.lam + 2 * self.theta * s,
            self.theta,
        )


@dataclass(frozen=True)
class FVGrid:
    N: int
    R: float
    M: int
    h: float
    w: np.ndarray
    fw: np.ndarray


def fv_grid(N, R, M):
    h = R / M
    sig = 2 * math.pi ** (N / 2) / math.gamma(N / 2)
    i = np.arange(M)
    w = sig * (i * h) ** (N - 1) * h
    w[0] = sig * (h / 2) ** N / N
    w[-1] += sig * R ** (N - 1) * h / 2
    fw = sig * ((i + 0.5) * h) ** (N - 1) * h
    return FVGrid(N, R, M, h, w, fw)


def _differences(u):
    """u_{i+1} - u_i with the boundary value u_M = 0."""
    return np.append(u[1:], 0.0) - u


def neg_laplacian(g, u):
    flux = g.fw * _differences(u) / g.h**2
    out = -flux
    out[1:] += flux[:-1]
    return out / g.w


def dual_norm(g, r):
    """sqrt(<r, A^{-1} r>_w) through the symmetric stiffness matrix W A."""
    k = g.fw / g.h**2
    ab = np.zeros((2, g.M))
    ab[1] = k
    ab[1, 1:] += k[:-1]
    ab[0, 1:] = -k[:-1]
    wr = g.w * r
    return math.sqrt(max(float(wr @ solveh_banded(ab, wr)), 0.0))


def h1_norm(g, u):
    return math.sqrt(float(g.fw @ (_differences(u) / g.h) ** 2))


def source(c, u):
    up = np.maximum(u, 0.0)
    out = c.mu * up ** (c.two_star - 1) + c.nu * up ** (c.q - 1) + c.lam * up
    pos = up > 0
    out[pos] += c.theta * up[pos] * 2 * np.log(up[pos])
    return out


def _positive_part_and_xlog(u):
    """u+ and u+^2 log u+^2, the latter 0 where u <= 0."""
    up = np.maximum(u, 0.0)
    xlog = np.zeros_like(up)
    pos = up > 0
    xlog[pos] = up[pos] ** 2 * 2 * np.log(up[pos])
    return up, xlog


def energy_terms(g, c, u):
    """Kinetic, critical, subcritical, linear and log parts of I(u)."""
    up, xlog = _positive_part_and_xlog(u)
    kin = 0.5 * h1_norm(g, u) ** 2
    crit = c.mu / c.two_star * float(g.w @ up**c.two_star)
    sub = c.nu / c.q * float(g.w @ up**c.q)
    lin = c.lam / 2 * float(g.w @ up**2)
    logt = c.theta / 2 * float(g.w @ (xlog - up**2))
    return kin, crit, sub, lin, logt


def nehari_integrals(g, c, u):
    """The three integrals of the Nehari form of the level."""
    up = np.maximum(u, 0.0)
    return float(g.w @ up**c.two_star), float(g.w @ up**c.q), float(g.w @ up**2)


def nehari_level(c, ints):
    """(mu/N) int u^{2*} + nu (q-2)/(2q) int u^q + (theta/2) int u^2.

    At a critical point <I'(u), u> = 0 turns I(u) into this form; in
    general I(u) minus it is half of <A u - f(u), u>_w, which is at most
    half the residual's dual norm times ||u||.
    """
    i_crit, i_sub, i_2 = ints
    return (
        c.mu / c.N * i_crit
        + c.nu * (c.q - 2) / (2 * c.q) * i_sub
        + c.theta / 2 * i_2
    )


# -- one critical point ---------------------------------------------------


def check_positive(u, label):
    require(bool(np.all(u > 0)), f"{label}.positive", f"min node value {u.min():.3e}")


def check_residual(g, c, u, label):
    """Dual-norm residual of A u = f(u); returns it."""
    r = dual_norm(g, neg_laplacian(g, u) - source(c, u))
    require(r <= RESIDUAL_TOL, f"{label}.residual", f"dual-norm residual {r:.3e}")
    return r


def _scale(terms):
    return sum(abs(t) for t in terms)


def check_energy(g, c, u, level, label):
    """The reported level equals I(u) recomputed here."""
    terms = energy_terms(g, c, u)
    energy = terms[0] - sum(terms[1:])
    require(abs(energy - level) <= LEVEL_RTOL * _scale(terms), f"{label}.energy",
            f"recomputed {energy!r} against reported {level!r}")


def check_nehari(g, c, u, level, r, label):
    """The reported level equals the Nehari form of u within 0.5 r ||u||.

    The bound is absolute: Newton's tolerance is, and a level like
    -8.6e-16 satisfies the identity only to a few 1e-5 of itself.
    Returns the gap.
    """
    gap = abs(level - nehari_level(c, nehari_integrals(g, c, u)))
    bound = 0.5 * r * h1_norm(g, u) + LEVEL_RTOL * _scale(energy_terms(g, c, u))
    require(gap <= bound, f"{label}.nehari",
            f"level minus Nehari form {gap:.3e} above the residual bound {bound:.3e}")
    return gap


def check_critical_point(g, c, u, level, label):
    """Positivity, residual, energy and Nehari checks of a reported solution
    u with reported level; returns the measured residual and Nehari gap."""
    check_positive(u, label)
    r = check_residual(g, c, u, label)
    check_energy(g, c, u, level, label)
    gap = check_nehari(g, c, u, level, r, label)
    return {"residual": r, "rel_residual": r / h1_norm(g, u), "nehari_gap": gap}


def check_ball(g, v, s, rho, label):
    """ln||v|| + s < ln rho: u = e^s v lies inside the ball of radius rho."""
    log_norm = math.log(h1_norm(g, v)) + s
    require(log_norm < math.log(rho), f"{label}.ball",
            f"ln||{label}|| = {log_norm:.6f} is not below ln rho = {math.log(rho):.6f}")


# -- region tests ------------------------------------------------------------


def _kappa(c, nu):
    return c.q / (c.q * c.mu + c.two_star * nu)


def _exp(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def region_reference(c, S, lam1, vol):
    """The paper's four displayed tests and the geometry of the member regions.

    Returns {"tests": {name: (term1, term2)}, "in": {name: bool},
    "alpha": float | None, "rho": float | None}.  M1/M2 apply for nu <= 0,
    M3/M4 for nu > 0, and M1/M3 need 0 <= lambda < lambda1.  A member region
    proposes rho and the level floor alpha; the largest rho wins, the
    interval case first on a tie.
    """
    N, th = c.N, c.theta
    ell = (lam1 - c.lam) / lam1
    in_interval = 0 <= c.lam < lam1
    SN2 = S ** (N / 2)

    def interval(nu):
        k = _kappa(c, nu)
        return (ell**(N / 2) * k ** ((N - 2) / 2) * SN2 / N,
                th / 2 * _exp(-2 * nu / (c.q * th)) * vol)

    def exponential(nu):
        k = _kappa(c, nu)
        return (k ** ((N - 2) / 2) * SN2 / N,
                th / 2 * _exp(-2 * nu / (c.q * th) - c.lam / th) * vol)

    def rho(nu, with_ell):
        return ((ell if with_ell else 1.0) * _kappa(c, nu)) ** ((N - 2) / 4) * S ** (N / 4)

    tests = {}
    candidates = []  # (rho, alpha, region)
    if c.nu > 0:
        if in_interval:
            tests["M3"] = interval(c.nu)
            candidates.append((rho(c.nu, True), sum(tests["M3"]), "M3"))
        tests["M4"] = exponential(c.nu)
        candidates.append((rho(c.nu, False), sum(tests["M4"]), "M4"))
    else:
        if in_interval:
            tests["M1"] = (c.mu / N * ((lam1 - c.lam) / (c.mu * lam1)) ** (N / 2) * SN2,
                           th / 2 * vol)
            candidates.append((rho(0.0, True), sum(interval(0.0)), "M1"))
        tests["M2"] = (c.mu ** (-(N - 2) / 2) * SN2 / N, th / 2 * _exp(-c.lam / th) * vol)
        candidates.append((rho(0.0, False), sum(exponential(0.0)), "M2"))
    member = {name: sum(t) > 0 for name, t in tests.items()}
    winners = [cand for cand in candidates if member[cand[2]]]
    best = max(winners, key=lambda cand: cand[0]) if winners else (None, None, None)
    return {"tests": tests, "in": member, "rho": best[0], "alpha": best[1]}


def region_row_undecidable(ref, c, lam1):
    """True when a test value or the interval edge lies within the margin."""
    if abs(c.lam - lam1) <= REGION_MARGIN * lam1:
        return True
    return any(
        abs(t1 + t2) <= REGION_MARGIN * (abs(t1) + abs(t2)) for t1, t2 in ref["tests"].values()
    )


def check_region_row(row, c, S, lam1, vol):
    """Compare one reported row ({in_M1..in_M4: bool, alpha, rho}) with the
    displayed tests.  Returns False when the row is exempt, True when checked."""
    ref = region_reference(c, S, lam1, vol)
    if region_row_undecidable(ref, c, lam1):
        return False
    where = f"(lambda={c.lam!r}, mu={c.mu!r}, nu={c.nu!r}, theta={c.theta!r})"
    for name in ("M1", "M2", "M3", "M4"):
        want = ref["in"].get(name, False)
        require(
            row[f"in_{name}"] == want,
            "regions.membership",
            f"in_{name} reads {row[f'in_{name}']} but the displayed test gives {want} {where}",
        )
    if ref["rho"] is None:
        require(row["rho"] is None and row["alpha"] is None, "regions.geometry",
                f"alpha/rho reported without membership {where}")
        return True
    require(row["rho"] is not None and abs(row["rho"] - ref["rho"]) <= GEOMETRY_RTOL * ref["rho"],
            "regions.geometry", f"rho {row['rho']!r} against {ref['rho']!r} {where}")
    scale = max(abs(t1) + abs(t2) for t1, t2 in ref["tests"].values())
    require(row["alpha"] is not None and abs(row["alpha"] - ref["alpha"]) <= GEOMETRY_RTOL * scale,
            "regions.geometry", f"alpha {row['alpha']!r} against {ref['alpha']!r} {where}")
    return True


def gap_bound(c, c_rho, S):
    """c_rho + S^{N/2} / (N mu^{(N-2)/2}), the paper's upper bound on c_M."""
    return c_rho + S ** (c.N / 2) / (c.N * c.mu ** ((c.N - 2) / 2))


def reference_rho(c, R):
    """rho of the instance from the displayed tests; fails without membership."""
    ref = region_reference(c, sobolev_S(c.N), lambda1_continuum(c.N, R), ball_volume(c.N, R))
    require(ref["rho"] is not None, "regions.membership", "no region holds for the instance")
    return ref["rho"]


def check_order(c_rho, c_M):
    require(c_rho < 0 < c_M, "levels.order", f"need c_rho < 0 < c_M, got {c_rho}, {c_M!r}")


def check_gap(c, c_rho, c_M, gap_ok):
    """gap_ok is true exactly when c_M lies below the gap bound, with S in
    closed form; returns whether it does."""
    below = bool(c_M < gap_bound(c, c_rho, sobolev_S(c.N)))
    require(gap_ok == below, "levels.gap", f"gap_ok={gap_ok} but c_M < bound is {below}")
    return below


# -- the solve-ref outputs ---------------------------------------------------


def check_two_solutions(c, R, M, u0, ump, out):
    """Checks on one `logcrit solve` result.

    u0, ump: node values read from u0.csv and ump.csv; out: solve.json.
    """
    g = fv_grid(c.N, R, M)
    m0 = check_critical_point(g, c, u0, out["c_rho"], "u0")
    mmp = check_critical_point(g, c, ump, out["c_M"], "ump")
    check_order(out["c_rho"], out["c_M"])
    rho = reference_rho(c, R)
    require(abs(out["rho"] - rho) <= GEOMETRY_RTOL * rho, "regions.geometry",
            f"rho {out['rho']!r} against {rho!r}")
    check_ball(g, u0, 0.0, rho, "u0")
    require(check_gap(c, out["c_rho"], out["c_M"], out["gap_ok"]), "levels.gap",
            f"c_M={out['c_M']!r} is not below the gap bound")
    bound = gap_bound(c, out["c_rho"], sobolev_S(c.N))
    require(abs(out["gap_bound"] - bound) <= 1e-9 * (abs(bound) + abs(out["c_rho"])),
            "levels.gap", f"reported gap bound {out['gap_bound']!r} against {bound!r}")
    require(out["verified"] is True, "report.verdict", f"failures {out['failures']}")
    return {"u0": m0, "ump": mmp}


# -- the weak-log outputs (scaled form) --------------------------------------


def check_scaled_nehari(g, c, v0, s0, c_rho, r):
    """c_rho = e^{2 s0} (Nehari form of v0 in the dilated problem), in mpmath.

    The dilated critical coefficient mu e^{(2*-2) s0} leaves double range,
    so the coefficients and the level are mpmath numbers; the bound is
    e^{2 s0} 0.5 r ||v0|| with r the residual of v0.  Returns the relative
    difference |c_rho - e^{2 s0} Nehari| / |c_rho|.
    """
    with mpmath.workdps(MP_DPS):
        s = mpmath.mpf(s0)
        c_rho = mpmath.mpf(c_rho)
        i_crit, i_sub, i_2 = nehari_integrals(g, c.dilated(s0), v0)
        mu_s = c.mu * mpmath.exp((mpmath.mpf(c.two_star) - 2) * s)
        nu_s = c.nu * mpmath.exp((mpmath.mpf(c.q) - 2) * s)
        nehari = (mu_s / c.N * i_crit + nu_s * (c.q - 2) / (2 * c.q) * i_sub
                  + mpmath.mpf(c.theta) / 2 * i_2)
        scale = float(abs(mu_s) / c.N * i_crit + abs(nu_s) / c.q * i_sub) + abs(c.theta) / 2 * i_2
        gap = abs(c_rho * mpmath.exp(-2 * s) - nehari)
        bound = 0.5 * r * h1_norm(g, v0) + LEVEL_RTOL * scale
        require(gap <= bound, "v0.nehari",
                f"e^(-2 s0) c_rho minus the Nehari form {float(gap):.3e} above {bound:.3e}")
        return float(abs(c_rho - mpmath.exp(2 * s) * nehari) / abs(c_rho))


def check_scaled_minimizer(c, R, M, v0, s0, c_rho, ump, c_M, gap_ok, verified):
    """Checks on a weak-log solve: the minimizer u0 = e^{s0} v0 with level
    c_rho (an mpmath.mpf), and the saddle u_mp.

    gap_ok = false is a correct answer here: on these grids the saddle is
    a grid-scale bubble above the gap bound.  The check is that the flag
    agrees with the levels.
    """
    g = fv_grid(c.N, R, M)
    check_positive(v0, "v0")
    r = check_residual(g, c.dilated(s0), v0, "v0")
    identity = check_scaled_nehari(g, c, v0, s0, c_rho, r)
    mmp = check_critical_point(g, c, ump, c_M, "ump")
    check_order(c_rho, c_M)
    check_ball(g, v0, s0, reference_rho(c, R), "v0")
    check_gap(c, c_rho, c_M, gap_ok)
    require(verified, "report.verdict", "verify_two_level_structure rejected the result")
    return {"v0": {"residual": r, "rel_residual": r / h1_norm(g, v0), "identity_rel": identity},
            "ump": mmp}


# -- the certify outputs -------------------------------------------------------


def expected_slope(N, p):
    return -min((N - 2) * p / 2, N - (N - 2) * p / 2)


def check_slopes(N, rows):
    """rows: (p, slope) pairs read from slopes.csv."""
    require(len(rows) > 0, "slopes.rows", "slopes.csv holds no fit")
    for p, slope in rows:
        want = expected_slope(N, p)
        require(abs(slope - want) <= SLOPE_RTOL * abs(want), "slopes.rate",
                f"N={N}, p={p:g}: slope {slope:.5f} against {want:g}")


def _g(t, y):
    return (t + y) ** 2 * mpmath.log((t + y) ** 2) - t**2 * mpmath.log(t**2) \
        - 2 * t * y * (mpmath.log(t**2) + 1)


def _f(p, t, y):
    return (t + y) ** p - t**p - y**p - p * t ** (p - 1) * y


def _f1(m, t, y):
    return (t + y) ** m - t**m - m * t ** (m - 1) * y


def certificate_slack(N, q, lemma, A, C1, C2):
    """The inequality a certificate constant A claims, as its slack at (t, y).

    Returns a function of mpmath (t, y) that is >= 0 where the bound holds.
    """
    p = mpmath.mpf(2 * N) / (N - 2)
    q = mpmath.mpf(q)
    A = mpmath.mpf(A)
    if lemma == "g_upper":  # g <= y^{2+eps} + A y^2, eps = q - 2
        return lambda t, y: y**q + A * y**2 - _g(t, y)
    if lemma == "f_lower":  # f(2*) >= (2*/2) C1 y^{2*-1} - A y^2
        return lambda t, y: _f(p, t, y) - (p / 2 * C1 * y ** (p - 1) - A * y**2)
    if lemma == "f_abs":  # |f(2*)| <= (2*^2/2) C2^{2*-2} y^2 + A C2 y^{2*-1}
        return lambda t, y: (p**2 / 2 * C2 ** (p - 2) * y**2 + A * C2 * y ** (p - 1)
                             - abs(_f(p, t, y)))
    if lemma == "f1_sandwich":  # 2 y^q + A y^2 >= f1(q) >= y^q/2 - A y^2
        return lambda t, y: min(2 * y**q + A * y**2 - _f1(q, t, y),
                                _f1(q, t, y) - (y**q / 2 - A * y**2))
    raise CheckFailed(f"certificates.lemmas: unknown lemma {lemma!r}")


DECAY_THRESHOLDS = {  # the slope each gap-decay certificate must stay below
    "grad_norm_gap_decay": lambda N: -0.9 * (N - 2),
    "critical_norm_gap_decay": lambda N: -(N - 1),
}


def check_decay_certificate(N, cert):
    thr = DECAY_THRESHOLDS[cert["lemma"]](N)
    slope = cert["constant"]
    require(slope < thr, "certificates.decay",
            f"N={N}, {cert['lemma']}: slope {slope:.4f} is not below {thr:g}")
    require(abs(cert["margin"] - (thr - slope)) <= 1e-12 * abs(thr), "certificates.decay",
            f"N={N}, {cert['lemma']}: margin {cert['margin']!r} is not threshold - slope")


def check_inequality_certificate(N, q, cert, rng, points):
    """The bound with the certified constant holds in mpmath at `points`
    (t, y) drawn from the box: t uniform in [C1, C2], y log-uniform in
    [min(1e-6, y_max/10), y_max].  Returns the smallest slack / y^2."""
    box = cert["box"]
    C1, C2, y_max = box["C1"], box["C2"], box["y_max"]
    ts = rng.uniform(C1, C2, points)
    ys = np.exp(rng.uniform(math.log(min(1e-6, y_max / 10)), math.log(y_max), points))
    worst = math.inf
    with mpmath.workdps(MP_DPS):
        slack = certificate_slack(N, q, cert["lemma"], cert["constant"],
                                  mpmath.mpf(C1), mpmath.mpf(C2))
        for t, y in zip(ts, ys):
            t, y = mpmath.mpf(t), mpmath.mpf(y)
            s = slack(t, y)
            require(s >= 0, "certificates.bound",
                    f"N={N}, {cert['lemma']} with constant {cert['constant']!r} "
                    f"fails at t={float(t)!r}, y={float(y)!r}")
            worst = min(worst, float(s / y**2))
    return worst


def check_certificates(N, q, certs, rng, points):
    """Re-check every certificate of one `logcrit verify` run; returns the
    smallest relative slack of the inequality certificates."""
    want = {"g_upper", "f_abs", "f1_sandwich", *DECAY_THRESHOLDS}
    if 2 * N / (N - 2) > 3:
        want.add("f_lower")
    got = [cert["lemma"] for cert in certs]
    require(sorted(got) == sorted(want), "certificates.lemmas", f"N={N}: lemmas {got}")
    worst = math.inf
    for cert in certs:
        if cert["lemma"] in DECAY_THRESHOLDS:
            check_decay_certificate(N, cert)
        else:
            worst = min(worst, check_inequality_certificate(N, q, cert, rng, points))
    return worst
