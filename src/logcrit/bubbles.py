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

Only the reference quadratures (bubble_h1_quadrature, bubble_lp_quadrature)
use scipy.integrate, and they import it at their first call: sampling U_n
on a grid, as a solve does, never loads it.
"""

from dataclasses import dataclass

import numpy as np

from .grid import best_sobolev_constant, sphere_area

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


def _profile(spec):
    """The closed forms r -> u_{1/n}(r) and r -> u_{1/n}'(r) of spec's profile.

    Each takes a scalar or an array r >= 0.
    """
    N, n = spec.N, spec.n
    m = (N - 2.0) / 2.0
    amp = (N * (N - 2.0)) ** ((N - 2.0) / 4.0)
    coef = amp * n**m * (-m)

    def u(r):
        return amp * (n / (1.0 + (n * r) ** 2)) ** m

    def du(r):
        # amp n^m * d/dr (1 + n^2 r^2)^{-m}
        return coef * (1.0 + (n * r) ** 2) ** (-m - 1.0) * 2.0 * n * n * r

    return u, du


def bubble_value(spec, r):
    """The untruncated profile u_{1/n} at radius r (scalar or array)."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("radius must be nonnegative")
    u, _ = _profile(spec)
    val = u(r)
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


# -- reference norms by adaptive quadrature ----------------------------
# Grid quadrature cannot resolve the O(n^{-N}) gap at large n (the core
# spans ~1/n), so the decay-rate checks integrate the closed form.


def _support_quadrature(spec, core, taper):
    """sigma_{N-1} (int_0^{r0} core + int_{r0}^{2 r0} taper) by adaptive quadrature.

    [0, r0] is split at the core width, min(1/n, r0).
    """
    from scipy.integrate import quad

    r0 = spec.r0
    tol = dict(epsabs=1e-15, epsrel=1e-13, limit=300)
    cut = min(1.0 / spec.n, r0)
    a, _ = quad(core, 0.0, cut, **tol)
    b = quad(core, cut, r0, **tol)[0] if cut < r0 else 0.0
    c, _ = quad(taper, r0, 2.0 * r0, **tol)
    return sphere_area(spec.N) * (a + b + c)


def bubble_h1_quadrature(spec):
    """|grad U_n|_2^2 by adaptive quadrature of the closed form."""
    u, du = _profile(spec)
    k, r0 = spec.N - 1.0, spec.r0

    def taper(r):
        # d/dr of ((2 r0 - r) / r0) u(r)
        d = (-1.0 / r0) * u(r) + ((2.0 * r0 - r) / r0) * du(r)
        return d**2 * r**k

    return _support_quadrature(spec, lambda r: du(r) ** 2 * r**k, taper)


def bubble_lp_quadrature(spec, p):
    """int U_n^p over R^N by adaptive quadrature of the closed form."""
    if not (p > 0):
        raise ValueError("exponent p must be positive")
    u, _ = _profile(spec)
    k, r0 = spec.N - 1.0, spec.r0
    return _support_quadrature(
        spec,
        lambda r: u(r) ** p * r**k,
        lambda r: (((2.0 * r0 - r) / r0) * u(r)) ** p * r**k,
    )


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
    both are evaluated by adaptive quadrature since the gaps sit far below
    grid resolution at large n.  Returns (slope, intercept, residual).
    """
    target = best_sobolev_constant(N) ** (N / 2.0)
    gaps = []
    for n in n_list:
        spec = BubbleSpec(N=N, n=int(n), r0=r0)
        if which == "grad":
            v = bubble_h1_quadrature(spec)
        elif which == "crit":
            v = bubble_lp_quadrature(spec, 2.0 * N / (N - 2.0))
        else:
            raise ValueError("which must be 'grad' or 'crit'")
        gaps.append(abs(v - target))
    return fit_loglog(n_list, gaps)


def fit_grid_for(R, n_list):
    """Mesh size that puts CORE_NODES cells across the smallest core width 1/n."""
    return int(np.ceil(CORE_NODES * R * max(int(n) for n in n_list)))
