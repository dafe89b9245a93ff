import math

import numpy as np
import pytest

import logcrit as lc
from conftest import random_dirichlet_profile

# frozen constants for the (N=4, q=3, mu=1, nu=0, lambda=0, theta=-0.01)
# showcase configuration on the unit ball
SHOWCASE_ALPHA = 26.294271058568889
SHOWCASE_RHO = 10.260398641294911


def showcase_params(**over):
    kw = dict(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-0.01, R=1.0)
    kw.update(over)
    return lc.ProblemParams(**kw)


def spectral_data(p):
    S = lc.best_sobolev_constant(p.N)
    lam1 = lc.bessel_lambda1(p.N, p.R)
    vol = lc.ball_volume(p.N, p.R)
    return S, lam1, vol


def test_showcase_membership_and_constants():
    p = showcase_params()
    rep = lc.region_membership(p, *spectral_data(p))
    assert rep.in_M1 and rep.in_M2
    assert not rep.in_M3 and not rep.in_M4
    assert rep.applicable_case == "nu_nonpositive"
    assert rep.alpha == pytest.approx(SHOWCASE_ALPHA, rel=1e-12)
    assert rep.rho == pytest.approx(SHOWCASE_RHO, rel=1e-12)
    # at lam = 0 the interval and exponential radii coincide, and the
    # interval display wins the tie
    assert rep.rho == pytest.approx(rep.S, rel=1e-12)
    assert rep.geometry_case == "M1"


def test_kappa_reduces_to_inverse_mu():
    p = showcase_params(mu=2.5)
    assert lc.kappa(p) == pytest.approx(0.4, rel=1e-15)
    p2 = showcase_params(nu=1.0, q=3.0)
    # q/(q mu + 2* nu) with 2* = 4
    assert lc.kappa(p2) == pytest.approx(3.0 / 7.0, rel=1e-15)
    # a negative nu enters as nu+ = 0
    assert lc.kappa(showcase_params(mu=2.5, nu=-1.0)) == lc.kappa(p)


def test_strong_log_coefficient_excludes_everything():
    p = showcase_params(theta=-1e6)
    rep = lc.region_membership(p, *spectral_data(p))
    assert not rep.any_membership()
    assert rep.alpha is None and rep.rho is None and rep.geometry_case is None
    assert lc.interval_display(p, *spectral_data(p))[0] < 0
    assert lc.exponential_display(p, *spectral_data(p))[0] < 0


def test_near_eigenvalue_boundary_drops_out():
    S, lam1, vol = spectral_data(showcase_params())
    p = showcase_params(lam=lam1 - 1e-6, theta=-2.0)
    rep = lc.region_membership(p, S, lam1, vol)
    # the interval factor collapses and the exponential weight explodes
    assert not rep.in_M1 and not rep.in_M2


def test_interval_condition_gates_m1_and_m3():
    S, lam1, vol = spectral_data(showcase_params())
    rep = lc.region_membership(showcase_params(lam=-1.0), S, lam1, vol)
    assert not rep.in_M1 and rep.in_M2
    repp = lc.region_membership(showcase_params(nu=0.5, lam=-1.0), S, lam1, vol)
    assert not repp.in_M3 and repp.in_M4
    assert repp.applicable_case == "nu_positive"


# -- references: the paper's four displays and the parent formulas ------
# The library states two displays at nu+ = max(nu, 0); these are the four
# displays as the paper writes them, and the level-floor and radius
# formulas as they read before the displays were merged.


def _exp_ref(x):
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def paper_displays(p, S, lam1, vol):
    """{region: (term1, term2)} of the applicable displays; sign > 0 is membership."""
    N, th = p.N, p.theta
    SN2 = S ** (N / 2.0)
    shown = {}
    if p.nu > 0:
        kap = p.q / (p.q * p.mu + p.two_star * p.nu)
        ell = (lam1 - p.lam) / lam1
        if 0.0 <= p.lam < lam1:
            shown["M3"] = (
                ell ** (N / 2.0) * kap ** ((N - 2) / 2.0) * SN2 / N,
                0.5 * th * _exp_ref(-2.0 * p.nu / (p.q * th)) * vol,
            )
        shown["M4"] = (
            kap ** ((N - 2) / 2.0) * SN2 / N,
            0.5 * th * _exp_ref(-2.0 * p.nu / (p.q * th) - p.lam / th) * vol,
        )
    else:
        if 0.0 <= p.lam < lam1:
            shown["M1"] = (
                (p.mu / N) * ((lam1 - p.lam) / (p.mu * lam1)) ** (N / 2.0) * SN2,
                0.5 * th * vol,
            )
        shown["M2"] = (p.mu ** (-(N - 2) / 2.0) * SN2 / N, 0.5 * th * _exp_ref(-p.lam / th) * vol)
    return shown


def _kappa_ref(p, nu):
    return p.q / (p.q * p.mu + p.two_star * nu)


def m3_ref(p, S, lam1, vol, nu):
    N = p.N
    ell = (lam1 - p.lam) / lam1
    kap = _kappa_ref(p, nu)
    return (1.0 / N) * ell ** (N / 2.0) * kap ** ((N - 2) / 2.0) * S ** (
        N / 2.0
    ) + 0.5 * p.theta * _exp_ref(-2.0 * nu / (p.q * p.theta)) * vol


def m4_ref(p, S, lam1, vol, nu):
    N = p.N
    kap = _kappa_ref(p, nu)
    return (1.0 / N) * kap ** ((N - 2) / 2.0) * S ** (N / 2.0) + 0.5 * p.theta * _exp_ref(
        -2.0 * nu / (p.q * p.theta) - p.lam / p.theta
    ) * vol


def rho_interval_ref(p, S, lam1, nu):
    ell = (lam1 - p.lam) / lam1
    return (ell * _kappa_ref(p, nu)) ** ((p.N - 2) / 4.0) * S ** (p.N / 4.0)


def rho_exponential_ref(p, S, nu):
    return _kappa_ref(p, nu) ** ((p.N - 2) / 4.0) * S ** (p.N / 4.0)


def test_membership_matches_the_papers_four_displays():
    # both signs of nu, lambda inside and outside [0, lambda1); the flags
    # follow the paper's displays away from their zero sets, and (alpha,
    # rho) are bit-equal to the level floor and radius of the winner
    rng = np.random.default_rng(21)
    checked = {"M1": 0, "M2": 0, "M3": 0, "M4": 0}
    spectral = {N: spectral_data(showcase_params(N=N, q=2.5)) for N in (3, 4, 5)}
    for _ in range(2000):
        N = int(rng.integers(3, 6))
        p = lc.ProblemParams(
            N=N,
            q=float(rng.uniform(2.05, 2 * N / (N - 2) - 0.05)),
            mu=float(rng.uniform(0.2, 3.0)),
            nu=float(rng.choice([0.0, rng.uniform(-2.0, 2.0)])),
            lam=float(rng.uniform(-3.0, 15.0)),
            theta=float(-(10.0 ** rng.uniform(-2.5, 0.5))),
        )
        S, lam1, vol = spectral[N]
        shown = paper_displays(p, S, lam1, vol)
        if any(abs(t1 + t2) <= 1e-12 * (abs(t1) + abs(t2)) for t1, t2 in shown.values()):
            continue
        rep = lc.region_membership(p, S, lam1, vol)
        for name in ("M1", "M2", "M3", "M4"):
            want = name in shown and sum(shown[name]) > 0
            assert getattr(rep, f"in_{name}") == want, (name, p)
            checked[name] += want
        nu = max(p.nu, 0.0)
        candidates = []  # (rho, alpha, region), interval first
        if rep.in_M1 or rep.in_M3:
            candidates.append((rho_interval_ref(p, S, lam1, nu), m3_ref(p, S, lam1, vol, nu),
                               "M3" if p.nu > 0 else "M1"))
        if rep.in_M2 or rep.in_M4:
            candidates.append((rho_exponential_ref(p, S, nu), m4_ref(p, S, lam1, vol, nu),
                               "M4" if p.nu > 0 else "M2"))
        if not candidates:
            assert rep.alpha is None and rep.rho is None and rep.geometry_case is None
            continue
        rho, alpha, which = max(candidates, key=lambda c: c[0])
        assert (rep.rho, rep.alpha, rep.geometry_case) == (rho, alpha, which)
    assert min(checked.values()) > 0, checked


def test_boundary_point_with_zero_floor_is_no_member():
    # the M1 display is 5.6e-17 here, but the level floor alpha it
    # certifies is 0.0: the region is reported only when alpha > 0
    p = lc.ProblemParams(
        N=4, q=3.1016449689415357, mu=2.9874007936162994, nu=-0.3,
        lam=11.719281111351284, theta=-0.1452370667504563,
    )
    # the point was found with S(4) one ulp below its correctly rounded
    # value, where alpha rounds to exactly 0.0; that S keeps the boundary
    S, vol = 10.26039864129491, lc.ball_volume(4, 1.0)
    assert lc.interval_display(p, S, 14.68, vol)[0] == 0.0
    rep = lc.region_membership(p, S, 14.68, vol)
    assert not rep.any_membership()
    assert rep.alpha is None and rep.rho is None and rep.geometry_case is None


def test_alpha_recomposes_from_radius_and_weight():
    # interval case: alpha = (ell/N) rho^2 + (theta/2) e^{-2nu/(q theta)} |Omega|
    # exponential case: alpha = (1/N) rho^2 + (theta/2) e^{-2nu/(q theta)-lam/theta} |Omega|
    rng = np.random.default_rng(22)
    seen = {"M3": 0, "M4": 0}
    for _ in range(200):
        N = int(rng.integers(3, 6))
        p = lc.ProblemParams(
            N=N,
            q=float(rng.uniform(2.05, 2 * N / (N - 2) - 0.05)),
            mu=float(rng.uniform(0.2, 3.0)),
            nu=float(rng.uniform(0.01, 2.0)),
            lam=float(rng.uniform(-1.0, 5.0)),
            theta=float(-rng.uniform(0.005, 0.2)),
        )
        S, lam1, vol = spectral_data(p)
        rep = lc.region_membership(p, S, lam1, vol)
        if rep.geometry_case is None:
            continue
        seen[rep.geometry_case] += 1
        if rep.geometry_case == "M3":
            ell = (lam1 - p.lam) / lam1
            expected = (ell / N) * rep.rho**2 + 0.5 * p.theta * np.exp(
                -2.0 * p.nu / (p.q * p.theta)
            ) * vol
        else:
            expected = (1.0 / N) * rep.rho**2 + 0.5 * p.theta * np.exp(
                -2.0 * p.nu / (p.q * p.theta) - p.lam / p.theta
            ) * vol
        assert rep.alpha == pytest.approx(expected, rel=1e-12)
    assert seen["M3"] > 0 and seen["M4"] > 0


def test_radius_shrinks_as_subcritical_weight_grows():
    # theta = -0.1 keeps all three points inside M4; the exponential weight
    # e^{-2nu/(q theta)} grows so fast that larger nu leaves the region
    p0 = showcase_params(nu=0.1, theta=-0.1)
    S, lam1, vol = spectral_data(p0)
    radii = []
    for nu in (0.1, 0.3, 0.5):
        rep = lc.region_membership(
            showcase_params(nu=nu, theta=-0.1), S, lam1, vol
        )
        assert rep.in_M4
        radii.append(rep.rho)
    assert all(a > b for a, b in zip(radii, radii[1:]))


def test_level_floor_certifies_the_sphere():
    # 50 random profiles scaled onto the gradient sphere of radius rho must
    # sit at energy >= alpha (up to discretization slack)
    p = showcase_params()
    S, lam1, vol = spectral_data(p)
    rep = lc.region_membership(p, S, lam1, vol)
    alpha, rho = rep.alpha, rep.rho
    g = lc.build_grid(p.N, p.R, 400)
    rng = np.random.default_rng(23)
    for _ in range(50):
        v = random_dirichlet_profile(g, rng)
        v *= rho / np.sqrt(g.h1_seminorm_sq(v))
        assert np.sqrt(g.h1_seminorm_sq(v)) == pytest.approx(rho, rel=1e-12)
        assert lc.energy_value(p, g, v) >= alpha - 1e-6 * abs(alpha)


def test_exponential_weight_overflow_is_membership_false():
    # large lambda with tiny |theta| drives e^{-lam/theta} past the float
    # range; the level floor must saturate to -inf instead of raising
    p = showcase_params(lam=8.0)
    S, lam1, vol = spectral_data(p)
    alpha, _ = lc.exponential_display(p, S, lam1, vol)
    assert alpha == -np.inf
    rep = lc.region_membership(p, S, lam1, vol)
    assert not rep.in_M2


def test_spectral_inputs_must_be_positive():
    p = showcase_params()
    with pytest.raises(ValueError):
        lc.region_membership(p, -1.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        lc.region_membership(p, 10.0, 0.0, 1.0)
