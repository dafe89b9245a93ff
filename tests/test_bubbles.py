import functools

import mpmath
import numpy as np
import pytest

import logcrit as lc
from logcrit.bubbles import DEFAULT_N_LIST, lp_norms, norm_gaps, scale_ladder

GAP_N_LIST = (16, 32, 64, 128, 256)

# frozen fit slopes (closed-form gaps, r0 = 0.25, scales 16..256)
FROZEN_GRAD_SLOPE = {3: -0.9804, 4: -1.9550, 5: -2.9228}
FROZEN_CRIT_SLOPE = {3: -2.9708, 4: -3.9582, 5: -4.9441}
# frozen |U_n|_2^2 slopes (scales 128..2048, r0 = 0.25), which a fit of the
# closed form and a fit sampled on an M = 32768 grid both hold
FROZEN_L2_SLOPE = {3: -0.9880, 4: -1.9406, 5: -1.9864}


def test_profile_point_values():
    # closed form: [N(N-2)]^{(N-2)/4} (n/(1+n^2 r^2))^{(N-2)/2}
    s4 = lc.BubbleSpec(N=4, n=1, r0=0.25)
    assert lc.bubble_value(s4, 0.0) == pytest.approx(np.sqrt(8.0), rel=1e-15)
    s3 = lc.BubbleSpec(N=3, n=1, r0=0.25)
    assert lc.bubble_value(s3, 1.0) == pytest.approx(
        3.0**0.25 / np.sqrt(2.0), rel=1e-15
    )
    assert lc.bubble_value(s3, 1.0) == pytest.approx(0.9306048591020996, rel=1e-14)


def test_profile_dilation_identity():
    # u_{1/n}(r) = n^{(N-2)/2} u_1(n r)
    r = np.linspace(0.0, 2.0, 64)
    for N in (3, 4, 5):
        for n in (2, 7, 32):
            a = lc.bubble_value(lc.BubbleSpec(N=N, n=n, r0=1.0), r)
            b = n ** ((N - 2) / 2.0) * lc.bubble_value(
                lc.BubbleSpec(N=N, n=1, r0=1.0), n * r
            )
            assert np.allclose(a, b, rtol=1e-13)


def test_cutoff_taper_geometry():
    g = lc.build_grid(4, 1.0, 4096)
    spec = lc.BubbleSpec(N=4, n=8, r0=0.2)
    u = lc.truncated_bubble(spec, g)
    free = lc.bubble_value(spec, g.r)
    inside = g.r <= 0.2
    outside = g.r >= 0.4
    assert np.array_equal(u[inside], free[inside])
    assert np.all(u[outside] == 0.0)
    # halfway through the taper the factor is 1/2
    k = int(np.argmin(np.abs(g.r - 0.3)))
    assert u[k] == pytest.approx(0.5 * free[k], rel=1e-2)
    # sandwich 0 <= U_n <= u_{1/n}
    assert np.all(u >= 0.0) and np.all(u <= free + 1e-15)


def test_cutoff_requires_margin_and_matching_dimension():
    g = lc.build_grid(4, 1.0, 64)
    with pytest.raises(ValueError, match="4\\*r0"):
        lc.truncated_bubble(lc.BubbleSpec(N=4, n=2, r0=0.3), g)
    with pytest.raises(ValueError, match="dimension"):
        lc.truncated_bubble(lc.BubbleSpec(N=3, n=2, r0=0.1), g)
    with pytest.raises(ValueError):
        lc.BubbleSpec(N=2, n=1, r0=0.1)
    with pytest.raises(ValueError):
        lc.BubbleSpec(N=4, n=0, r0=0.1)
    with pytest.raises(ValueError):
        lc.BubbleSpec(N=4, n=1, r0=0.0)
    with pytest.raises(ValueError):
        lc.bubble_value(lc.BubbleSpec(N=4, n=1, r0=0.1), -0.5)


@functools.cache
def mp_norm(N, n, r0, p=None):
    """|U_n|_p^p, p defaulting to 2s, or |grad U_n|_2^2 for p = "grad", as a
    30-digit mpf by mpmath.quad.

    An independent reference for norm_gaps and lp_norms: the profile or its
    derivative, integrated over the core [0, r0], split at the geometric
    radii 1/n, 4/n, 16/n, ..., and over the taper [r0, 2 r0], with no closed
    form of the core or its tail.
    """
    with mpmath.workdps(30):
        N_, n_, r0 = mpmath.mpf(N), mpmath.mpf(n), mpmath.mpf(r0)
        m = (N_ - 2) / 2
        amp = (N_ * (N_ - 2)) ** (m / 2)
        sig = 2 * mpmath.pi ** (N_ / 2) / mpmath.gamma(N_ / 2)
        core, r = [0], 1 / n_
        while r < r0:
            core.append(r)
            r *= 4
        core.append(r0)

        def u(r):
            return amp * (n_ / (1 + (n_ * r) ** 2)) ** m

        def du(r):
            return -2 * m * amp * n_ ** (m + 2) * r * (1 + (n_ * r) ** 2) ** (-m - 1)

        if p == "grad":
            inner = lambda r: du(r) ** 2
            taper = lambda tau, r: (tau * du(r) - u(r) / r0) ** 2
        else:
            p = 2 * N_ / (N_ - 2) if p is None else mpmath.mpf(p)
            inner = lambda r: u(r) ** p
            taper = lambda tau, r: (tau * u(r)) ** p
        return sig * (
            mpmath.quad(lambda r: inner(r) * r ** (N_ - 1), core)
            + mpmath.quad(lambda r: taper((2 * r0 - r) / r0, r) * r ** (N_ - 1), [r0, 2 * r0])
        )


def mp_norms(N, n, r0):
    """(|grad U_n|_2^2, |U_n|_{2s}^{2s}) by mp_norm."""
    return mp_norm(N, n, r0, "grad"), mp_norm(N, n, r0)


def test_quadrature_matches_grid_integration():
    spec = lc.BubbleSpec(N=4, n=16, r0=0.25)
    g = lc.build_grid(4, 1.0, 16384)
    u = lc.truncated_bubble(spec, g)
    h1, crit = mp_norms(4, 16, 0.25)
    assert g.h1_seminorm_sq(u) == pytest.approx(float(h1), rel=1e-3)
    assert g.integrate(np.abs(u) ** 4.0) == pytest.approx(float(crit), rel=1e-3)


def test_sobolev_quotient_approaches_optimum_from_above():
    for N in (3, 4, 5):
        S = lc.best_sobolev_constant(N)
        prev = None
        for n in (8, 32, 128):
            h1, crit = mp_norms(N, n, 0.25)
            with mpmath.workdps(30):
                q = float(h1 / crit ** (mpmath.mpf(N - 2) / N))
            assert q >= S * (1.0 - 1e-6)
            if prev is not None:
                assert q <= prev * (1.0 + 1e-9)
            prev = q


def test_norm_gaps_match_a_30_digit_quadrature():
    # the reference subtracts S^{N/2} at 30 digits, which leaves 16 or more
    # digits of each gap
    for N in (3, 4, 5):
        with mpmath.workdps(30):
            N_ = mpmath.mpf(N)
            S = mpmath.pi * N_ * (N_ - 2) * (mpmath.gamma(N_ / 2) / mpmath.gamma(N_)) ** (2 / N_)
            target = S ** (N_ / 2)
        for k, which in enumerate(("grad", "crit")):
            gaps = norm_gaps(N, GAP_N_LIST, 0.25, which)
            for n, gap in zip(GAP_N_LIST, gaps):
                with mpmath.workdps(30):
                    ref = float(mp_norms(N, n, 0.25)[k] - target)
                assert gap == pytest.approx(ref, rel=1e-12), (N, which, n)


def test_norm_gaps_past_double_range_raise():
    # amp^{2s} = (N (N - 2))^{N/2} overflows from about N = 145
    assert np.all(np.isfinite(norm_gaps(80, GAP_N_LIST, 0.25, "crit")))
    with pytest.raises(OverflowError, match="double range"):
        norm_gaps(200, GAP_N_LIST, 0.25, "crit")


def test_gradient_gap_decay_rate():
    for N in (3, 4, 5):
        slope, _, _ = lc.fit_gap_exponent(N, GAP_N_LIST, 0.25, "grad")
        assert slope == pytest.approx(FROZEN_GRAD_SLOPE[N], abs=2e-3)
        assert slope <= -0.9 * (N - 2)


def test_critical_norm_gap_decay_rate():
    for N in (3, 4, 5):
        slope, _, _ = lc.fit_gap_exponent(N, GAP_N_LIST, 0.25, "crit")
        assert slope == pytest.approx(FROZEN_CRIT_SLOPE[N], abs=2e-3)
        assert slope <= -(N - 1)


def test_lp_norms_match_a_30_digit_quadrature():
    # a sample of the N that verify accepts, at p = 1, the ln-corrected
    # p = N/(N-2), p = 2 below 2* and p = (1 + 2*)/2
    for N in (3, 4, 5, 6, 10, 13, 20, 40, 62):
        ts = 2.0 * N / (N - 2.0)
        ps = {1.0, N / (N - 2.0), (1.0 + ts) / 2.0} | ({2.0} if 2.0 < ts else set())
        for p in sorted(ps):
            norms = lp_norms(N, (128, 2048), p, 0.25)
            for n, norm in zip((128, 2048), norms):
                ref = float(mp_norm(N, n, 0.25, p))
                assert norm == pytest.approx(ref, rel=1e-6), (N, p, n)


@pytest.mark.parametrize("N", [4, 40])
@pytest.mark.parametrize("b", [1e-9, -1e-9, 1e-12, -1e-12])
def test_core_near_the_ln_corrected_exponent_matches_a_40_digit_quadrature(N, b):
    # just below b = 0 the 2F1 form of the core lost digits: 1.7e-8 (N = 4)
    # and 5.0e-7 (N = 40) relative at b = -1e-9, 7.2e-4 and 1.1e-3 at -1e-12
    X, a = 64.0, N / 2.0 + b
    with mpmath.workdps(40):
        ref = mpmath.quad(lambda x: x ** (N - 1) * (1 + x * x) ** -mpmath.mpf(a), [0, 1, 8, X])
    assert lc.bubbles._core(N, a, np.array([X]))[0] == pytest.approx(float(ref), rel=1e-13)


def test_lp_norms_outside_the_normal_doubles_raise():
    # at p = 1 the norm falls like n^{1 - N/2}: at N = 80 it underflows by
    # n = 2^30; at p = 2, amp^2 = (N (N - 2))^{N/2 - 1} overflows from N = 145
    assert lp_norms(80, (2048,), 1.0, 0.25)[0] > 0
    with pytest.raises(OverflowError, match="double range"):
        lp_norms(80, (2**30,), 1.0, 0.25)
    assert lp_norms(144, (2048,), 2.0, 0.25)[0] < np.inf
    with pytest.raises(OverflowError, match="double range"):
        lp_norms(145, (2048,), 2.0, 0.25)


def test_squared_l2_norm_decay_rates():
    # N = 4 carries the ln n factor, which both fits divide out
    for N in (3, 4, 5):
        slope, _, _ = lc.fit_norm_exponent(N, DEFAULT_N_LIST, 2.0, 0.25)
        assert slope == pytest.approx(FROZEN_L2_SLOPE[N], abs=2e-3)
        # the same norms sampled on a grid with 16 cells across the core 1/n
        g = lc.build_grid(N, 1.0, 16 * max(DEFAULT_N_LIST))
        sampled = [
            g.integrate(lc.truncated_bubble(lc.BubbleSpec(N=N, n=n, r0=0.25), g) ** 2)
            for n in DEFAULT_N_LIST
        ]
        if lc.log_corrected(N, 2.0):
            sampled /= np.log(DEFAULT_N_LIST)
        slope, _, _ = lc.fit_loglog(DEFAULT_N_LIST, sampled)
        assert slope == pytest.approx(FROZEN_L2_SLOPE[N], abs=2e-3)


def test_expected_exponents_and_log_corrections():
    assert lc.expected_lp_exponent(3, 2.0) == -1.0
    assert lc.expected_lp_exponent(4, 2.0) == -2.0
    assert lc.expected_lp_exponent(5, 2.0) == -2.0
    assert lc.expected_lp_exponent(3, 4.0) == -1.0
    assert lc.log_corrected(4, 2.0)
    assert lc.log_corrected(3, 3.0)
    assert lc.log_corrected(5, 5.0 / 3.0)
    assert not lc.log_corrected(3, 2.0)
    assert not lc.log_corrected(5, 2.0)


def test_fit_input_validation():
    with pytest.raises(ValueError, match="5 scales"):
        lc.fit_norm_exponent(3, (4, 8, 16, 32), 2.0, 0.25)
    with pytest.raises(ValueError, match="geometric"):
        lc.fit_norm_exponent(3, (4, 8, 16, 32, 50), 2.0, 0.25)
    with pytest.raises(ValueError, match="distinct"):
        lc.fit_norm_exponent(3, (128, 128, 128, 128, 128), 2.0, 0.25)
    # a descending ladder is still a ladder
    assert scale_ladder((32, 16, 8, 4, 2)) == [32, 16, 8, 4, 2]
    with pytest.raises(ValueError, match="p must lie"):
        lc.fit_norm_exponent(3, (2, 4, 8, 16, 32), 6.0, 0.25)
    with pytest.raises(ValueError, match="p must lie"):
        lc.fit_norm_exponent(3, (2, 4, 8, 16, 32), 0.5, 0.25)
    # the ln-corrected fit divides by ln n, which is 0 at n = 1
    with pytest.raises(ValueError, match="exceed 1"):
        lc.fit_norm_exponent(4, (1, 2, 4, 8, 16), 2.0, 0.25)
    assert np.isfinite(lc.fit_norm_exponent(4, (1, 2, 4, 8, 16), 1.5, 0.25)[0])
    with pytest.raises(ValueError, match="degenerate"):
        lc.fit_loglog([3.0, 3.0, 3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="positive"):
        lc.fit_loglog([1.0, 2.0, 4.0], [1.0, -2.0, 3.0])
    with pytest.raises(ValueError, match="grad"):
        lc.fit_gap_exponent(3, GAP_N_LIST, 0.25, "bogus")
