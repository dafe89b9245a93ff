"""The energy functional, its weighted L^2 gradient, and the fiber map.

For parameters (mu, nu, lambda, theta, q) the functional on H^1_0 of the
ball is

    I(u) = 1/2 |grad u|_2^2 - mu/2s int u+^{2s} - nu/q int u+^q
           - lam/2 int u+^2 - theta/2 int u+^2 (log u+^2 - 1)

with 2s = 2N/(N-2) the critical exponent.  Only the positive part u+
enters the potential terms.  The log integrand is extended by 0 at u = 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

XLOG_CLAMP = 1e-300  # below this amplitude the log term is exactly 0
_XLOG_CURVATURE_FLOOR = -1e6  # floor of (s^2 log s^2)'' = 2 log s^2 + 6 in f'


@dataclass(frozen=True)
class ProblemParams:
    """Equation parameters.  lam is the linear coefficient (JSON key "lambda").

    q, mu, nu, lam, theta and R must be finite; the error names lam "lambda".
    """

    N: int
    q: float
    mu: float
    nu: float
    lam: float
    theta: float
    R: float = 1.0
    two_star: float = field(init=False)

    def __post_init__(self):
        if self.N < 3:
            raise ValueError("dimension N must be >= 3")
        for name, value in (("q", self.q), ("mu", self.mu), ("nu", self.nu),
                            ("lambda", self.lam), ("theta", self.theta), ("R", self.R)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        ts = 2.0 * self.N / (self.N - 2.0)
        if not (self.mu > 0):
            raise ValueError("mu must be positive")
        if not (self.theta < 0):
            raise ValueError("theta must be negative")
        if not (2.0 < self.q < ts):
            raise ValueError(f"q must lie in (2, {ts:g}), got {self.q}")
        if not (self.R > 0):
            raise ValueError("R must be positive")
        object.__setattr__(self, "two_star", ts)


@dataclass(frozen=True)
class DilatedParams:
    """Coefficients of the amplitude-dilated problem; see dilated_params.

    Carries the same fields the energy kernels read from ProblemParams but
    skips its validation: the dilated critical coefficient underflows to 0
    when the dilation exponent is large and negative.
    """

    N: int
    q: float
    mu: float
    nu: float
    lam: float
    theta: float
    R: float
    two_star: float


def dilated_params(p, s):
    """Coefficients p_s of the amplitude-dilation identity u = e^s v.

    With 2* the critical exponent,

        I(e^s v; mu, nu, lam, theta)
            = e^{2s} I(v; mu e^{(2*-2)s}, nu e^{(q-2)s}, lam + 2 theta s, theta)

    and grad I(e^s v; p) = e^s grad I(v; p_s), so u is critical for p
    exactly when v is critical for p_s.  Returns p itself when s == 0.
    """
    if s == 0.0:
        return p
    return DilatedParams(
        N=p.N,
        q=p.q,
        mu=p.mu * math.exp((p.two_star - 2.0) * s),
        nu=p.nu * math.exp((p.q - 2.0) * s),
        lam=p.lam + 2.0 * p.theta * s,
        theta=p.theta,
        R=p.R,
        two_star=p.two_star,
    )


def safe_xlog(s):
    """s^2 log s^2 for amplitudes s >= 0, with the continuous extension 0 at 0.

    Scalar or array.  Amplitudes below 1e-300 are treated as 0 so squaring
    cannot produce underflow noise.  Minimum value -1/e at s = e^{-1/2}.
    """
    s = np.asarray(s, dtype=float)
    if np.any(s < 0):
        raise ValueError("safe_xlog takes nonnegative amplitudes")
    out = np.zeros_like(s)
    mask = s > XLOG_CLAMP
    sm = s[mask]
    out[mask] = sm * sm * 2.0 * np.log(sm)
    if out.ndim == 0:
        return float(out)
    return out


def _pos(u):
    return np.maximum(u, 0.0)


def energy_terms(p, g, u):
    """The five integral pieces of the functional, separately.

    Returns (kinetic, critical, subcritical, linear, logarithmic) such
    that the energy is kinetic - critical - subcritical - linear - log.
    u is one grid function of shape (M,), which gives five floats, or a
    (P, M) stack of them, such as the nodes of a path, which gives five
    arrays with one value per row.  u is validated once, by
    h1_seminorm_sq; the four potential integrands are not scanned, and a
    non-finite term (an integrand that overflowed, e.g. u^{2*} of a huge
    u) raises the same ValueError instead.
    """
    u = np.asarray(u, dtype=float)
    up = _pos(u)
    up2 = up * up
    w = g.w
    ts = p.two_star
    terms = (
        0.5 * g.h1_seminorm_sq(u),
        (p.mu / ts) * (up**ts @ w),
        (p.nu / p.q) * (up**p.q @ w),
        (p.lam / 2.0) * (up2 @ w),
        (p.theta / 2.0) * ((safe_xlog(up) - up2) @ w),
    )
    if u.ndim == 1:
        # math.isfinite on floats: np.isfinite costs ~10x more per scalar
        terms = tuple(map(float, terms))
        finite = all(map(math.isfinite, terms))
    else:
        finite = all(np.isfinite(t).all() for t in terms)
    if not finite:
        raise ValueError("non-finite values in grid function")
    return terms


def energy_value(p, g, u):
    """I(u) by the grid quadrature; one value per row for a (P, M) stack."""
    kin, crit, sub, lin, logt = energy_terms(p, g, u)
    return kin - crit - sub - lin - logt


def source_term(p, u):
    """f(u) = mu u+^{2s-1} + nu u+^{q-1} + lam u+ + theta u+ log u+^2, nodewise.

    This is the nonlinearity whose zero-level set with -Delta u gives the
    Euler-Lagrange equation.  The log factor uses the same continuous
    extension as safe_xlog (u log u^2 -> 0 as u -> 0+).
    """
    up = _pos(np.asarray(u, dtype=float))
    out = p.mu * up ** (p.two_star - 1.0) + p.nu * up ** (p.q - 1.0) + p.lam * up
    mask = up > XLOG_CLAMP
    um = up[mask]
    out[mask] += p.theta * um * 2.0 * np.log(um)
    return out


def source_derivative(p, u):
    """f'(u) nodewise, for the Newton linearization.

    f'(u) = mu(2s-1)u^{2s-2} + nu(q-1)u^{q-2} + lam + theta(log u^2 + 2)
    on {u > 0} and 0 on {u <= 0}.  The second derivative of s^2 log s^2
    is 2 log s^2 + 6, divergent at 0; that factor is clamped below at
    -1e6 so the Jacobian diagonal stays bounded.
    """
    up = _pos(np.asarray(u, dtype=float))
    out = np.zeros_like(up)
    mask = up > XLOG_CLAMP
    um = up[mask]
    L = np.maximum(4.0 * np.log(um) + 6.0, _XLOG_CURVATURE_FLOOR)  # 2 log u^2 + 6
    out[mask] = (
        p.mu * (p.two_star - 1.0) * um ** (p.two_star - 2.0)
        + p.nu * (p.q - 1.0) * um ** (p.q - 2.0)
        + p.lam
        + p.theta * (0.5 * L - 1.0)
    )
    return out


def gradient_field(p, g, u):
    """Weighted-L^2 gradient of the energy: A u - f(u) at the nodes.

    <gradient_field(u), v>_w is the directional derivative of energy_value
    at u in direction v.
    """
    u = np.asarray(u, dtype=float)
    return g.apply_neg_laplacian(u) - source_term(p, u)


@dataclass(frozen=True)
class FiberMap:
    """The fiber map t -> I(t u) in closed form.

    With K, C, Q, L, Lam the five energy_terms of u, and since
    (t u+)^2 log (t u+)^2 = t^2 u+^2 log u+^2 + t^2 u+^2 log t^2,

        I(t u) = t^2 (K - L - Lam) - t^{2*} C - t^q Q
                 - (theta/2) ||u+||_2^2 t^2 log t^2

    so one pass over u gives the fiber for every t.
    """

    quad: float  # K - L - Lam
    crit: float  # C
    sub: float  # Q
    xlog: float  # (theta/2) ||u+||_2^2
    two_star: float
    q: float

    def __call__(self, t):
        """I(t u) for t >= 0, scalar or array."""
        t = np.asarray(t, dtype=float)
        return (
            t * t * self.quad
            - t**self.two_star * self.crit
            - t**self.q * self.sub
            - self.xlog * safe_xlog(t)
        )

    def log_slope(self, t):
        """t d/dt I(t u), the slope of the fiber in log t, for a float t > 0."""
        t2 = t * t
        return (
            2.0 * t2 * (self.quad - self.xlog)
            - self.two_star * t**self.two_star * self.crit
            - self.q * t**self.q * self.sub
            - 2.0 * self.xlog * t2 * math.log(t2)
        )


def fiber_map(p, g, u):
    """The FiberMap of one grid function u: one energy_terms pass and ||u+||_2^2."""
    kin, crit, sub, lin, logt = energy_terms(p, g, u)
    up = _pos(np.asarray(u, dtype=float))
    xlog = (p.theta / 2.0) * float((up * up) @ g.w)
    return FiberMap(
        quad=kin - lin - logt, crit=crit, sub=sub, xlog=xlog,
        two_star=p.two_star, q=p.q,
    )


@dataclass(frozen=True)
class FiberProfile:
    """Samples of t -> I(t u) and the sign-change count of its derivative."""

    t: np.ndarray
    values: np.ndarray
    sign_changes: int


def g_profile(p, g, u, t_max=2.0, samples=256):
    """Sample the fiber map g(t) = I(t u) on (0, t_max].

    The samples come from the closed form of fiber_map, in one pass over
    u.  Counts sign changes of the centered finite-difference derivative.
    The fiber of a critical point has at most two extreme points, so the
    count is a cheap structural check.
    """
    if not (t_max > 1.0):
        raise ValueError("t_max must exceed 1")
    if samples < 64:
        raise ValueError("need at least 64 samples")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("fiber profile expects a positive function")
    ts = np.linspace(t_max / samples, t_max, samples)
    fib = fiber_map(p, g, u)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = fib(ts)
    if not np.isfinite(vals).all():
        raise ValueError("non-finite values in the fiber profile")
    dv = np.diff(vals)
    signs = np.sign(dv)
    signs = signs[signs != 0]
    changes = int(np.sum(signs[1:] != signs[:-1]))
    return FiberProfile(t=ts, values=vals, sign_changes=changes)
