"""Extremal Sobolev profiles, their cut-offs, and norm-decay fits.

The scaled profile u_{1/n}(r) = [N(N-2)]^{(N-2)/4} (n/(1+n^2 r^2))^{(N-2)/2}
is the radial minimizer of the Sobolev quotient on R^N.  The cut-off
version U_n keeps u_{1/n} on [0, r0], tapers it linearly to 0 on
[r0, 2r0], and vanishes beyond.  As n grows U_n concentrates at the
origin with

    |grad U_n|_2^2   = S^{N/2} + O(n^{-(N-2)})
    |U_n|_{2s}^{2s}  = S^{N/2} + O(n^{-N})
    |U_n|_p^p        = O(n^{-min{(N-2)p/2, N-(N-2)p/2}})

up to a ln n factor at p = N/(N-2), which is p = 2 at N = 4.  The decay
fits below verify these rates empirically.

The norms and the two critical-norm gaps have closed forms (lp_norms,
norm_gaps), so no fit samples a grid.  They import scipy.special at their
first call: sampling U_n on a grid, as a solve does, never loads it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .grid import sphere_area

# the scales of the L^p decay fits: a geometric ladder far enough into the
# concentration regime that every fitted slope sits within its 5% band
DEFAULT_N_LIST = (128, 256, 512, 1024, 2048)


@dataclass(frozen=True)
class BubbleSpec:
    N: int
    n: int
    r0: float

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("dimension N must be >= 3")
        if self.n < 1:
            raise ValueError("scale n must be a positive integer")
        if not (self.r0 > 0):
            raise ValueError("truncation radius r0 must be positive")


def bubble_value(spec, r):
    """The untruncated profile u_{1/n} at radius r (scalar or array)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    N, n = spec.N, spec.n
    amp = (N * (N - 2.0)) ** ((N - 2.0) / 4.0)
    val = amp * (n / (1.0 + (n * r) ** 2)) ** ((N - 2.0) / 2.0)
    if val.ndim == 0:
        return float(val)
    return val


def truncated_bubble(spec, g):
    """Sample the cut-off bubble U_n at the grid nodes.

    Requires 4 r0 <= R so the support sits well inside the domain.
    """
    if 4.0 * spec.r0 > g.R:
        raise ValueError("need 4*r0 <= R for the cut-off bubble")
    if spec.N != g.N:
        raise ValueError("bubble and grid dimensions differ")
    # the cut-off factor: 1 on [0, r0], (2 r0 - r) / r0 on [r0, 2 r0], 0 beyond
    return bubble_value(spec, g.r) * np.clip((2.0 * spec.r0 - g.r) / spec.r0, 0.0, 1.0)


# -- norms in closed form ------------------------------------------------
# In x = n r each norm of U_n is a power of n times a core over [0, X] (or
# its tail over [X, inf)) and a taper piece over [X, 2X], X = n r0.  Both
# critical norms of the untruncated profile are S^{N/2} exactly, so each
# gap is sigma_{N-1} times (taper piece - core tail): no S^{N/2} is
# subtracted, and the gap keeps its relative precision at every n.


@functools.cache
def _taper_rule():
    """48 Gauss-Legendre nodes and weights on [1, 2], built at the first call; read-only."""
    from numpy.polynomial.legendre import leggauss

    xi, w = leggauss(48)
    rule = (1.5 + 0.5 * xi, 0.5 * w)
    for a in rule:
        a.setflags(write=False)
    return rule


def _core(k, a, X, tail=False, scale=1.0):
    """scale int_0^X x^{k-1} (1 + x^2)^{-a} dx per X, or with tail=True its
    tail int_X^inf.  For b = a - k/2 > 0 both are incomplete beta functions
    of t0 = 1/(1 + X^2); for b <= 0 the core is (X^k/k) (1 + X^2)^{-a}
    2F1(a, 1; k/2 + 1; X^2/(1 + X^2)), whose 2F1 carries the ln X of b = 0.
    That 2F1 loses digits as b -> 0- (1.7e-8 relative at b = -1e-9 and
    X = 64, 7e-4 at b = -1e-12), so for -1e-6 < b < 0 the core is
    2 core(b = 0) - core(-b), off by O(b^2 ln^2 X) relative (4e-11 at
    b = -1e-6, X = 64, N = 40, where the 2F1 is off by 5e-10).
    """
    from scipy.special import beta, betainc, betaincc, hyp2f1

    c, b = k / 2.0, a - k / 2.0
    t0 = 1.0 / (1.0 + X * X)
    if tail:
        return scale * 0.5 * betainc(b, c, t0) * beta(b, c)
    if -1e-6 < b < 0:
        return 2.0 * _core(k, c, X, scale=scale) - _core(k, c - b, X, scale=scale)
    if b > 0:
        return scale * 0.5 * betaincc(b, c, t0) * beta(c, b)
    T = X * X * t0
    return scale * T**c * (1.0 + X * X) ** -b * hyp2f1(a, 1.0, c + 1.0, T) / k


def _taper_piece(N, X, p, a):
    """int_X^{2X} (2 - x/X)^p x^{N-1} (1 + x^2)^{-a} dx per X, with the
    integrand written so that no factor overflows for a >= (N-2)/2."""
    y, w = _taper_rule()
    xx = (X[:, None] * y) ** 2
    f = (2.0 - y) ** p * (xx / (1.0 + xx)) ** ((N - 1.0) / 2.0) * (1.0 + xx) ** ((N - 1.0) / 2.0 - a)
    return X * (f @ w)


def lp_norms(N, n_list, p, r0):
    """|U_n|_p^p = sigma_{N-1} amp^p n^{a-N} (core + taper piece), a = (N-2)p/2,
    for p in [1, 2*), one per n in n_list; a is N/2 exactly at the
    ln-corrected p.  Raises OverflowError on a norm that is not a positive
    normal double.
    """
    n = np.array([BubbleSpec(N=N, n=int(n), r0=r0).n for n in n_list], dtype=float)
    ts = 2.0 * N / (N - 2.0)
    if not (1.0 <= p < ts):
        raise ValueError(f"exponent p must lie in [1, {ts:g})")
    m = (N - 2.0) / 2.0
    a = N / 2.0 if log_corrected(N, p) else m * p
    X = n * r0
    with np.errstate(all="ignore"):
        amp = np.float64(N * (N - 2.0)) ** (m / 2.0)
        norms = sphere_area(N) * amp**p * n ** (a - N) * (_core(N, a, X) + _taper_piece(N, X, p, a))
    if not np.all((norms >= np.finfo(float).tiny) & (norms < np.inf)):
        raise OverflowError("an L^p norm of the cut-off bubble leaves double range")
    return norms


def norm_gaps(N, n_list, r0, which):
    """The gaps |grad U_n|_2^2 - S^{N/2} (which = "grad") or
    |U_n|_{2s}^{2s} - S^{N/2} (which = "crit"), one per n in n_list.
    Raises OverflowError when a gap leaves double range.
    """
    if which not in ("grad", "crit"):
        raise ValueError("which must be 'grad' or 'crit'")
    X = np.array([BubbleSpec(N=N, n=int(n), r0=r0).n for n in n_list], dtype=float) * r0
    m = (N - 2.0) / 2.0
    with np.errstate(all="ignore"):
        amp = np.float64(N * (N - 2.0)) ** (m / 2.0)
        if which == "grad":
            # [d/dx tau (1 + x^2)^{-m}]^2 x^{N-1}, tau = 2 - x/X, and the
            # tail of |u'|^2 r^{N-1}
            y, w = _taper_rule()
            x = X[:, None] * y
            s = x / (1.0 + x * x)  # at most 1/2: its powers cannot overflow
            f = s ** (N - 2.0) * x * (1.0 / X[:, None] + 2.0 * m * (2.0 - y) * s) ** 2
            diff = X * (f @ w) - _core(N + 2, N, X, tail=True, scale=4.0 * m * m)
            scale = amp**2
        else:  # the p = 2* case of lp_norms' pieces
            ts = 2.0 * N / (N - 2.0)
            diff = _taper_piece(N, X, ts, N) - _core(N, N, X, tail=True)
            scale = amp**ts
        gaps = sphere_area(N) * scale * diff
    if not np.isfinite(gaps).all():
        raise OverflowError("a bubble norm gap leaves double range")
    return gaps


# -- decay-rate fits ----------------------------------------------------


def fit_loglog(ns, vals):
    """Least-squares line of log(vals) against log(ns).

    Returns (slope, intercept, residual).  Rejects degenerate inputs.
    """
    ns = np.asarray(ns, dtype=float)
    vals = np.asarray(vals, dtype=float)
    if len(ns) < 2 or np.ptp(np.log(ns)) == 0:
        raise ValueError("degenerate fit abscissa")
    if np.any(vals <= 0):
        raise ValueError("fit needs positive values")
    x = np.log(ns)
    y = np.log(vals)
    A = np.vstack([x, np.ones_like(x)]).T
    coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(res[0])) if res.size else 0.0
    return float(coef[0]), float(coef[1]), resid


def log_corrected(N, p):
    """Whether |U_n|_p^p carries the ln n factor: p = N/(N-2)."""
    return abs(p - N / (N - 2.0)) < 1e-12


def expected_lp_exponent(N, p):
    """-min{(N-2)p/2, N - (N-2)p/2}, the displayed decay rate of |U_n|_p^p."""
    return -min((N - 2.0) * p / 2.0, N - (N - 2.0) * p / 2.0)


def scale_ladder(n_list):
    """n_list as ints: at least 5 distinct positive scales whose step ratios
    agree within 1%, for a stable decay fit; raises ValueError otherwise."""
    n_list = [int(n) for n in n_list]
    if len(n_list) < 5:
        raise ValueError("need at least 5 scales for a stable fit")
    if min(n_list) < 1:
        raise ValueError("scales must be positive integers")
    if len(set(n_list)) < len(n_list):
        raise ValueError("scales must be distinct")
    ratios = [n_list[i + 1] / n_list[i] for i in range(len(n_list) - 1)]
    if max(ratios) / min(ratios) > 1.01:
        raise ValueError("scales must form a geometric progression")
    return n_list


def fit_norm_exponent(N, n_list, p, r0):
    """Fit the decay exponent of |U_n|_p^p, the closed form of lp_norms.

    n_list must pass scale_ladder; p in [1, 2*).  For the ln-corrected
    cases the values are divided by ln n, so every scale must exceed 1.
    Returns (slope, intercept, residual).
    """
    n_list = scale_ladder(n_list)
    vals = lp_norms(N, n_list, p, r0)
    if log_corrected(N, p):
        if min(n_list) < 2:
            raise ValueError("scales must exceed 1 for the ln-corrected exponent")
        vals = vals / np.log(n_list)
    return fit_loglog(n_list, vals)


def fit_gap_exponent(N, n_list, r0, which):
    """Fit the decay exponent of the norm_gaps of |grad U_n|_2^2 (which =
    "grad") or |U_n|_{2s}^{2s} (which = "crit").  Returns (slope, intercept,
    residual).
    """
    return fit_loglog(n_list, np.abs(norm_gaps(N, n_list, r0, which)))

