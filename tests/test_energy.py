import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import logcrit as lc
from conftest import INSTANCE_A, INSTANCE_B, random_dirichlet_profile
from logcrit.energy import dilated_params

PARAM_SETS = [
    dict(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0),
    dict(N=3, q=2.2, mu=2.0, nu=1.0, lam=3.0, theta=-0.5),
    dict(N=4, q=3.5, mu=0.5, nu=0.0, lam=-1.0, theta=-1.0),
    dict(N=5, q=3.0, mu=1.5, nu=-2.0, lam=5.0, theta=-0.1),
    dict(N=3, q=4.0, mu=1.0, nu=0.3, lam=0.5, theta=-3.0),
]


def test_problem_params_validation():
    p = lc.ProblemParams(**INSTANCE_A)
    assert p.two_star == pytest.approx(6.0)
    with pytest.raises(ValueError):
        lc.ProblemParams(N=2, q=2.5, mu=1.0, nu=0.0, lam=0.0, theta=-1.0)
    with pytest.raises(ValueError, match="q"):
        lc.ProblemParams(N=4, q=5.0, mu=1.0, nu=0.0, lam=0.0, theta=-1.0)
    with pytest.raises(ValueError, match="q"):
        lc.ProblemParams(N=4, q=2.0, mu=1.0, nu=0.0, lam=0.0, theta=-1.0)
    with pytest.raises(ValueError):
        lc.ProblemParams(N=3, q=2.5, mu=0.0, nu=0.0, lam=0.0, theta=-1.0)
    with pytest.raises(ValueError):
        lc.ProblemParams(N=3, q=2.5, mu=1.0, nu=0.0, lam=0.0, theta=0.0)
    with pytest.raises(ValueError):
        lc.ProblemParams(N=3, q=2.5, mu=1.0, nu=0.0, lam=0.0, theta=-1.0, R=0.0)


@pytest.mark.parametrize(
    "field, name, value",
    [
        ("q", "q", float("nan")),
        ("mu", "mu", float("inf")),
        ("nu", "nu", float("nan")),
        ("lam", "lambda", float("nan")),
        ("theta", "theta", float("-inf")),
        ("R", "R", float("inf")),
    ],
)
def test_problem_params_rejects_non_finite_fields(field, name, value):
    kw = dict(INSTANCE_A, **{field: value})
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        lc.ProblemParams(**kw)


def test_safe_xlog_values():
    assert lc.safe_xlog(0.0) == 0.0
    assert lc.safe_xlog(1.0) == 0.0
    # minimum -1/e at s = e^{-1/2}
    assert lc.safe_xlog(np.exp(-0.5)) == pytest.approx(-np.exp(-1.0), rel=1e-14)
    arr = lc.safe_xlog(np.array([0.0, 1.0, 2.0]))
    assert arr[0] == 0.0 and arr[1] == 0.0
    assert arr[2] == pytest.approx(4.0 * np.log(4.0), rel=1e-14)
    with pytest.raises(ValueError):
        lc.safe_xlog(-1.0)
    # deep underflow region stays finite and tiny
    tiny = lc.safe_xlog(np.array([1e-310, 1e-200]))
    assert np.all(np.isfinite(tiny)) and np.all(tiny <= 0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-12, max_value=1e6))
def test_safe_xlog_matches_direct_formula(s):
    # 2 s^2 log s avoids rounding s^2 before the log near s = 1
    assert lc.safe_xlog(s) == pytest.approx(
        2.0 * s * s * np.log(s), rel=1e-12, abs=1e-300
    )


def test_energy_zero_function_is_zero():
    p = lc.ProblemParams(**INSTANCE_A)
    g = lc.build_grid(p.N, p.R, 128)
    assert lc.energy_value(p, g, np.zeros(128)) == 0.0


def energy_shifted(p, g, u):
    """I(u) with the linear term absorbed into the log term:

    I(u) = 1/2|grad u|^2 - mu/2s int u+^{2s} - nu/q int u+^q
           - theta/2 int u+^2 (log u+^2 + lam/theta - 1).
    """
    up = np.maximum(u, 0.0)
    ts = p.two_star
    val = 0.5 * g.h1_seminorm_sq(u)
    val -= (p.mu / ts) * g.integrate(up**ts)
    val -= (p.nu / p.q) * g.integrate(up**p.q)
    val -= (p.theta / 2.0) * g.integrate(
        lc.safe_xlog(up) + (p.lam / p.theta - 1.0) * up * up
    )
    return val


def test_two_functional_forms_agree():
    rng = np.random.default_rng(7)
    for kw in PARAM_SETS:
        p = lc.ProblemParams(**kw)
        g = lc.build_grid(p.N, 1.0, 128)
        for _ in range(10):
            u = random_dirichlet_profile(g, rng)
            e1 = lc.energy_value(p, g, u)
            e2 = energy_shifted(p, g, u)
            assert e2 == pytest.approx(e1, rel=1e-12, abs=1e-12)


def test_energy_decomposition_sums_to_total():
    rng = np.random.default_rng(8)
    for kw in PARAM_SETS:
        p = lc.ProblemParams(**kw)
        g = lc.build_grid(p.N, 1.0, 128)
        u = random_dirichlet_profile(g, rng)
        kin, crit, sub, lin, logt = lc.energy_terms(p, g, u)
        total = kin - crit - sub - lin - logt
        assert lc.energy_value(p, g, u) == pytest.approx(total, rel=1e-12)
        assert kin >= 0 and crit >= 0


def test_negative_part_only_enters_kinetic_term():
    # all integral terms use the positive part; the kinetic term does not
    p = lc.ProblemParams(**INSTANCE_A)
    g = lc.build_grid(p.N, p.R, 128)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(128)  # sign-changing
    up = np.maximum(u, 0.0)
    t1 = lc.energy_terms(p, g, u)
    t2 = lc.energy_terms(p, g, up)
    for a, b in zip(t1[1:], t2[1:]):
        assert a == pytest.approx(b, rel=1e-14, abs=1e-14)
    assert t1[0] >= t2[0]  # discarding the negative part cannot raise |grad|


def test_energy_against_independent_quadrature():
    # I(1 - r^2) on B(0,1), N = 3, via adaptive quadrature of the radial
    # integrands, compared with the grid evaluation
    p = lc.ProblemParams(**INSTANCE_A)
    M = 2048
    g = lc.build_grid(3, 1.0, M)
    u = 1.0 - g.r**2
    sig = lc.sphere_area(3)

    prof = lambda r: 1.0 - r * r
    kin = 0.5 * sig * quad(lambda r: (2 * r) ** 2 * r**2, 0, 1, epsrel=1e-12)[0]
    crit = (
        p.mu / p.two_star * sig * quad(lambda r: prof(r) ** 6 * r**2, 0, 1, epsrel=1e-12)[0]
    )
    sub = p.nu / p.q * sig * quad(lambda r: prof(r) ** p.q * r**2, 0, 1, epsrel=1e-12)[0]
    lin = 0.5 * p.lam * sig * quad(lambda r: prof(r) ** 2 * r**2, 0, 1, epsrel=1e-12)[0]
    logt = (
        0.5
        * p.theta
        * sig
        * quad(
            lambda r: prof(r) ** 2 * (np.log(prof(r) ** 2) - 1.0) * r**2,
            0,
            1,
            epsrel=1e-12,
        )[0]
    )
    oracle = kin - crit - sub - lin - logt
    assert lc.energy_value(p, g, u) == pytest.approx(oracle, rel=1e-4)


def test_directional_derivative_matches_central_differences():
    rng = np.random.default_rng(42)
    worst = 0.0
    for kw in PARAM_SETS:
        p = lc.ProblemParams(**kw)
        g = lc.build_grid(p.N, 1.0, 256)
        for _ in range(20):
            u = random_dirichlet_profile(g, rng, floor=0.2)
            v = rng.standard_normal(g.M)
            eps = 1e-5
            dnum = (
                lc.energy_value(p, g, u + eps * v) - lc.energy_value(p, g, u - eps * v)
            ) / (2 * eps)
            dana = float(np.dot(g.w, lc.gradient_field(p, g, u) * v))
            worst = max(worst, abs(dana - dnum) / max(1e-14, abs(dnum)))
    assert worst < 1e-6


def test_source_derivative_matches_source_term_differences():
    p = lc.ProblemParams(**INSTANCE_A)
    g = lc.build_grid(p.N, p.R, 128)
    u = np.linspace(0.3, 2.5, 128)
    eps = 1e-7
    fp = lc.source_term(p, u + eps) - lc.source_term(p, u - eps)
    num = fp / (2 * eps)
    ana = lc.source_derivative(p, u)
    assert np.max(np.abs(ana - num) / np.maximum(1.0, np.abs(num))) < 1e-5


def test_source_term_vanishes_on_nonpositive_values():
    p = lc.ProblemParams(**INSTANCE_A)
    u = np.array([-1.0, 0.0, 1.0])
    out = lc.source_term(p, u)
    assert out[0] == 0.0 and out[1] == 0.0 and out[2] != 0.0
    der = lc.source_derivative(p, u)
    assert der[0] == 0.0 and der[1] == 0.0


def test_log_lower_bound_energy_level():
    # C1*int u^2 + int u^2 log u^2 >= -e^{-1-C1} |Omega| for positive u
    g = lc.build_grid(3, 1.0, 256)
    vol = lc.ball_volume(3, 1.0)
    rng = np.random.default_rng(10)
    for _ in range(50):
        u = random_dirichlet_profile(g, rng)
        C1 = float(rng.uniform(-3.0, 5.0))
        lhs = C1 * g.l2_norm_sq(u) + g.integrate(lc.safe_xlog(u))
        assert lhs >= -np.exp(-1.0 - C1) * vol - 1e-10


def test_fiber_profile_shape_and_rejections():
    p = lc.ProblemParams(**INSTANCE_A)
    g = lc.build_grid(p.N, p.R, 128)
    u = 0.5 * (1.0 - g.r**2) + 0.01
    prof = lc.g_profile(p, g, u, t_max=2.0, samples=128)
    assert prof.t.shape == (128,) and prof.values.shape == (128,)
    assert prof.t[0] > 0 and prof.t[-1] == pytest.approx(2.0)
    assert prof.sign_changes >= 0
    with pytest.raises(ValueError):
        lc.g_profile(p, g, u, t_max=0.9)
    with pytest.raises(ValueError):
        lc.g_profile(p, g, u, samples=32)
    with pytest.raises(ValueError):
        lc.g_profile(p, g, np.zeros(128))


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=0.01, max_value=3.0))
def test_energy_scales_to_zero_with_amplitude(t):
    p = lc.ProblemParams(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0)
    g = lc.build_grid(3, 1.0, 64)
    u = 1.0 - g.r**2
    e = lc.energy_value(p, g, t * u)
    assert np.isfinite(e)


@pytest.mark.parametrize("instance", [INSTANCE_A, INSTANCE_B], ids=["A", "B"])
@pytest.mark.parametrize("s", [-1.3, 0.7])
def test_amplitude_dilation_identity(instance, s):
    # I(e^s v; p) = e^{2s} I(v; p_s) and grad I(e^s v; p) = e^s grad I(v; p_s)
    p = lc.ProblemParams(**instance)
    ps = dilated_params(p, s)
    assert ps.lam == p.lam + 2.0 * p.theta * s and ps.theta == p.theta
    g = lc.build_grid(p.N, 1.0, 256)
    rng = np.random.default_rng(7)
    for _ in range(5):
        v = random_dirichlet_profile(g, rng, floor=0.2)
        u = np.exp(s) * v
        assert lc.energy_value(p, g, u) == pytest.approx(
            np.exp(2.0 * s) * lc.energy_value(ps, g, v), rel=1e-12
        )
        grad_u = lc.gradient_field(p, g, u)
        grad_v = np.exp(s) * lc.gradient_field(ps, g, v)
        assert np.max(np.abs(grad_u - grad_v)) <= 1e-12 * np.max(np.abs(grad_v))


def test_dilation_by_zero_is_the_identity():
    p = lc.ProblemParams(**INSTANCE_A)
    assert dilated_params(p, 0.0) is p


def test_energy_terms_match_grid_integrals():
    # the four potential integrals are plain weighted sums, as g.integrate
    # computes them, and keep its bits
    g = lc.build_grid(3, 1.0, 200)
    rng = np.random.default_rng(3)
    for params in PARAM_SETS[:3]:
        p = lc.ProblemParams(**params)
        u = 4.0 * random_dirichlet_profile(g, rng) - 0.5
        up = np.maximum(u, 0.0)
        ts = p.two_star
        want = (
            0.5 * g.h1_seminorm_sq(u),
            (p.mu / ts) * g.integrate(up**ts),
            (p.nu / p.q) * g.integrate(up**p.q),
            (p.lam / 2.0) * g.integrate(up * up),
            (p.theta / 2.0) * g.integrate(lc.safe_xlog(up) - up * up),
        )
        assert lc.energy_terms(p, g, u) == want


def test_energy_rejects_nonfinite_input_and_overflow():
    p = lc.ProblemParams(**INSTANCE_A)
    g = lc.build_grid(3, 1.0, 64)
    u = 1.0 - g.r**2
    for bad in (np.nan, np.inf):
        v = u.copy()
        v[10] = bad
        with pytest.raises(ValueError, match="non-finite"):
            lc.energy_value(p, g, v)
    # u^{2*} = u^6 overflows at u = 1e60 although u itself is finite
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            lc.energy_value(p, g, np.full(g.M, 1e60))
        with pytest.raises(ValueError, match="non-finite"):
            lc.energy_terms(p, g, 1e60 * u)
