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

The two critical-norm gaps have a closed form (norm_gaps), which imports
scipy.special at its first call: sampling U_n on a grid, as a solve does,
never loads it.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .grid import sphere_area

# Large n needs both fine grids (core width 1/n) and a wide window;
# this geometric ladder keeps every fitted slope within the 5% band
# when the sampling grid has M = CORE_NODES * max(n_list) cells.
DEFAULT_N_LIST = (128, 256, 512, 1024, 2048)
CORE_NODES = 16


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


def _taper(spec, r):
    """Cut-off factor: 1 on [0,r0], (2r0-r)/r0 on [r0,2r0], 0 beyond."""
    r = np.asarray(r, dtype=float)
    fac = np.clip((2.0 * spec.r0 - r) / spec.r0, 0.0, 1.0)
    return fac


def truncated_bubble(spec, g):
    """Sample the cut-off bubble U_n at the grid nodes.

    Requires 4 r0 <= R so the support sits well inside the domain.
    """
    if 4.0 * spec.r0 > g.R:
        raise ValueError("need 4*r0 <= R for the cut-off bubble")
    if spec.N != g.N:
        raise ValueError("bubble and grid dimensions differ")
    return bubble_value(spec, g.r) * _taper(spec, g.r)


# -- critical-norm gaps in closed form -----------------------------------
# The untruncated profile has sigma int_0^inf |u'|^2 r^{N-1} dr =
# sigma int_0^inf u^{2s} r^{N-1} dr = S^{N/2} exactly, so each critical
# norm of U_n differs from S^{N/2} by sigma_{N-1} times (its taper piece on
# [r0, 2 r0] minus the core tail on [r0, inf)).  In x = n r both pieces
# depend on X = n r0 alone: the tail is an incomplete beta function of
# t0 = 1/(1 + X^2) and the taper an integral over [X, 2X].  No S^{N/2} is
# subtracted, so the gap keeps its relative precision at every n.

TAPER_NODES = 48  # Gauss-Legendre nodes of the taper piece


@functools.cache
def _taper_rule():
    """Gauss-Legendre nodes and weights on [1, 2], built at the first call; read-only."""
    from numpy.polynomial.legendre import leggauss

    xi, w = leggauss(TAPER_NODES)
    rule = (1.5 + 0.5 * xi, 0.5 * w)
    for a in rule:
        a.setflags(write=False)
    return rule


def norm_gaps(N, n_list, r0, which):
    """The gaps |grad U_n|_2^2 - S^{N/2} (which = "grad") or
    |U_n|_{2s}^{2s} - S^{N/2} (which = "crit"), one per n in n_list.

    scipy.special is imported here, at the first call.  Raises
    OverflowError when a gap leaves double range.
    """
    from scipy.special import beta, betainc

    if which not in ("grad", "crit"):
        raise ValueError("which must be 'grad' or 'crit'")
    for n in n_list:
        BubbleSpec(N=N, n=int(n), r0=r0)  # rejects a bad N, n or r0
    m = (N - 2.0) / 2.0
    X = np.array([int(n) for n in n_list], dtype=float) * r0
    y, w = _taper_rule()
    x = X[:, None] * y  # the taper nodes on [X, 2X]
    tau = 2.0 - y  # the cut-off factor (2 r0 - r) / r0
    t0 = 1.0 / (1.0 + X * X)
    with np.errstate(all="ignore"):
        amp = np.float64(N * (N - 2.0)) ** (m / 2.0)
        s = x / (1.0 + x * x)  # at most 1/2: its powers cannot overflow
        if which == "grad":
            # [d/dx tau (1 + x^2)^{-m}]^2 x^{N-1}, and the tail of |u'|^2 r^{N-1}
            taper = s ** (N - 2.0) * x * (1.0 / X[:, None] + 2.0 * m * tau * s) ** 2
            a, b = N / 2.0 - 1.0, N / 2.0 + 1.0
            scale, tail_scale = amp**2, 4.0 * m * m
        else:
            # tau^{2s} (1 + x^2)^{-N} x^{N-1}, and the tail of u^{2s} r^{N-1}
            taper = tau ** (2.0 * N / (N - 2.0)) * s ** (N - 1.0) / (1.0 + x * x)
            a = b = N / 2.0
            scale, tail_scale = amp ** (2.0 * N / (N - 2.0)), 1.0
        tail = tail_scale * 0.5 * betainc(a, b, t0) * beta(a, b)
        gaps = sphere_area(N) * scale * (X * (taper @ w) - tail)
    if not np.all(np.isfinite(gaps)):
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


def fit_norm_exponent(g, n_list, p, r0=None):
    """Fit the decay exponent of |U_n|_p^p sampled on the grid.

    n_list must pass scale_ladder; p in [1, 2*).  For the ln-corrected
    cases the values are divided by ln n.  Returns (slope, intercept, residual).
    """
    n_list = scale_ladder(n_list)
    ts = 2.0 * g.N / (g.N - 2.0)
    if not (1.0 <= p < ts):
        raise ValueError(f"exponent p must lie in [1, {ts:g})")
    if r0 is None:
        r0 = g.R / 4.0
    vals = []
    for n in n_list:
        u = truncated_bubble(BubbleSpec(N=g.N, n=n, r0=r0), g)
        v = g.lp_norm_p(u, p)
        if log_corrected(g.N, p):
            v /= np.log(n)
        vals.append(v)
    return fit_loglog(n_list, vals)


def fit_gap_exponent(N, n_list, r0, which):
    """Fit the decay exponent of |value - S^{N/2}| for the two critical norms.

    which = "grad" uses |grad U_n|_2^2, which = "crit" uses |U_n|_{2s}^{2s};
    the gaps sit far below grid resolution at large n, so norm_gaps gives
    them in closed form.  Returns (slope, intercept, residual).
    """
    return fit_loglog(n_list, np.abs(norm_gaps(N, n_list, r0, which)))


def fit_grid_for(R, n_list):
    """Mesh size that puts CORE_NODES cells across the smallest core width 1/n."""
    return int(np.ceil(CORE_NODES * R * max(int(n) for n in n_list)))
