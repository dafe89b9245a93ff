import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import logcrit as lc
from conftest import INSTANCE_A, random_dirichlet_profile, sobolev_rayleigh_quotient

# first Dirichlet eigenvalues of the unit ball, from Bessel zeros
LAMBDA1_REF = {3: np.pi**2, 4: 14.681970642123893, 5: 20.190728556426629}
# closed-form sharp constants pi N (N-2) (Gamma(N/2)/Gamma(N))^{2/N}
SOBOLEV_REF = {3: 5.47790408953, 4: 10.26039864130, 5: 14.81191172001}


def test_sphere_area_and_volume():
    assert lc.sphere_area(3) == pytest.approx(4 * np.pi, rel=1e-14)
    assert lc.sphere_area(4) == pytest.approx(2 * np.pi**2, rel=1e-14)
    assert lc.ball_volume(3, 1.0) == pytest.approx(4 * np.pi / 3, rel=1e-14)
    assert lc.ball_volume(4, 1.0) == pytest.approx(np.pi**2 / 2, rel=1e-14)
    assert lc.ball_volume(3, 2.0) == pytest.approx(8 * 4 * np.pi / 3, rel=1e-14)


def test_weight_sum_is_ball_volume():
    g = lc.build_grid(3, 1.0, 200)
    vol = lc.ball_volume(3, 1.0)
    assert g.integrate(np.ones(g.M)) == pytest.approx(vol, rel=1e-3)


def test_weight_sum_second_order():
    vol = lc.ball_volume(3, 1.0)
    errs = [
        abs(lc.build_grid(3, 1.0, M).integrate(np.ones(M)) - vol)
        for M in (200, 400, 800)
    ]
    assert 3.5 <= errs[0] / errs[1] <= 4.5
    assert 3.5 <= errs[1] / errs[2] <= 4.5


def test_polynomial_quadrature_oracles():
    g = lc.build_grid(3, 1.0, 512)
    u = 1.0 - g.r**2
    # int |grad(1-r^2)|^2 = 16 pi/5 and int (1-r^2)^2 = 32 pi/105 on B(0,1)
    assert g.h1_seminorm_sq(u) == pytest.approx(16 * np.pi / 5, rel=1e-4)
    assert g.l2_norm_sq(u) == pytest.approx(32 * np.pi / 105, rel=1e-5)
    assert g.integrate(np.abs(u) ** 2.0) == pytest.approx(g.l2_norm_sq(u), rel=1e-13)


def test_operator_symmetry_in_weighted_inner_product():
    g = lc.build_grid(4, 1.0, 256)
    rng = np.random.default_rng(3)
    for _ in range(10):
        u = rng.standard_normal(g.M)
        v = rng.standard_normal(g.M)
        a = g.dot(u, g.apply_neg_laplacian(v))
        b = g.dot(v, g.apply_neg_laplacian(u))
        assert abs(a - b) <= 1e-10 * max(1.0, abs(a))


def test_quadratic_form_matches_seminorm():
    g = lc.build_grid(3, 1.0, 256)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(g.M)
    assert g.dot(u, g.apply_neg_laplacian(u)) == pytest.approx(
        g.h1_seminorm_sq(u), rel=1e-12
    )


def test_stencil_consistency_on_parabola():
    # -Lap(1 - r^2) = 2N; pointwise truncation error decays like 1/i^2,
    # so check away from the origin; the last node carries the folded
    # boundary weight and is excluded (variational, not pointwise, row)
    for N in (3, 4, 5):
        g = lc.build_grid(N, 1.0, 512)
        out = g.apply_neg_laplacian(1.0 - g.r**2)
        inner = out[32:-1]
        assert np.max(np.abs(inner - 2.0 * N)) / (2.0 * N) < 1e-3


def test_solve_inverts_apply():
    g = lc.build_grid(5, 1.0, 128)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(g.M)
    x = lc.grid.solve_tridiagonal(g.band, g.apply_neg_laplacian(u))
    assert np.allclose(x, u, atol=1e-9)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_bessel_oracle(N):
    assert lc.bessel_lambda1(N, 1.0) == pytest.approx(LAMBDA1_REF[N], rel=1e-12)
    assert lc.bessel_lambda1(N, 2.0) == pytest.approx(LAMBDA1_REF[N] / 4.0, rel=1e-12)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_principal_eigenpair_matches_bessel(N):
    g = lc.build_grid(N, 1.0, 800)
    lam, phi = lc.principal_eigenpair(g)
    assert lam == pytest.approx(LAMBDA1_REF[N], rel=1e-3)
    assert np.all(phi > 0)
    assert g.l2_norm_sq(phi) == pytest.approx(1.0, rel=1e-12)
    # eigen-residual in the weighted norm (dominated by O(h^2) truncation)
    res = g.apply_neg_laplacian(phi) - lam * phi
    assert np.sqrt(g.l2_norm_sq(res)) < 1e-5 * lam


def mp_principal_eigenpair(g, iterations=24):
    """(lambda1, phi1) of g.band to 40 digits, as mpf values.

    Inverse iteration on the symmetric tridiagonal W^{1/2} A W^{-1/2},
    formed in 40-digit arithmetic from the band's doubles, so it is exactly
    similar to the double operator.  The shift 0.99 times the continuum
    lambda1 lies below the discrete one and leaves a contraction of about
    4e-3 per step; 24 steps reach 40 digits.
    """
    with mpmath.workdps(40):
        mpf, M = mpmath.mpf, g.M
        upper, diag, lower = ([mpf(x) for x in row] for row in g.band.tolist())
        off = [-mpmath.sqrt(u * l) for u, l in zip(upper[1:], lower[:-1])]
        a = [d - mpf(0.99 * lc.bessel_lambda1(g.N, g.R)) for d in diag]
        y = [mpf(1)] * M
        for _ in range(iterations):
            # Thomas algorithm; the shifted matrix is positive definite
            c, x = [mpf(0)] * M, [mpf(0)] * M
            c[0], x[0] = off[0] / a[0], y[0] / a[0]
            for i in range(1, M):
                m = a[i] - off[i - 1] * c[i - 1]
                if i < M - 1:
                    c[i] = off[i] / m
                x[i] = (y[i] - off[i - 1] * x[i - 1]) / m
            for i in range(M - 2, -1, -1):
                x[i] -= c[i] * x[i + 1]
            nrm = mpmath.sqrt(mpmath.fsum(v * v for v in x))
            y = [v / nrm for v in x]
        Sy = [diag[i] * y[i] for i in range(M)]
        for i in range(M - 1):
            Sy[i] += off[i] * y[i + 1]
            Sy[i + 1] += off[i] * y[i]
        lam = mpmath.fsum(u * v for u, v in zip(y, Sy))
        return lam, [v / mpmath.sqrt(w) for v, w in zip(y, g.w.tolist())]


@pytest.mark.parametrize("N, M", [(4, 200), (3, 1024)])
def test_principal_eigenpair_matches_a_40_digit_reference(N, M):
    # the inverse power iteration this replaced stopped on the eigenvalue
    # increment, so its phi1 was off by 6.7e-7 and 2.4e-7 here
    g = lc.build_grid(N, 1.0, M)
    lam_ref, phi_ref = mp_principal_eigenpair(g)
    lam, phi = lc.principal_eigenpair(g)
    assert abs(lam - lam_ref) < 1e-12 * lam_ref
    phi_ref = np.array([float(v) for v in phi_ref])
    assert np.max(np.abs(phi - phi_ref)) < 1e-10 * np.max(phi_ref)


@pytest.mark.parametrize("N, M", [(3, 400), (4, 1024)])
def test_eigenvalue_times_r_squared_is_the_unit_balls(N, M):
    # lambda1 R^2 does not depend on R; an eigen-iteration with an absolute
    # stop at 1e-10 once stopped early on a large ball, off by 4.5e-8
    # (N = 3, R = 1e3) up to 5.9e-3 (N = 4, R = 1e10)
    lam_unit, _ = lc.principal_eigenpair(lc.build_grid(N, 1.0, M))
    for R in (1e3, 1e5, 1e10):
        lam, phi = lc.principal_eigenpair(lc.build_grid(N, R, M))
        assert lam * R * R == pytest.approx(lam_unit, rel=1e-10), R
        assert np.all(phi > 0)


def test_dot_of_a_function_with_itself_checks_it_once(monkeypatch):
    g = lc.build_grid(3, 1.0, 64)
    checked = []
    check = lc.RadialGrid._check_shape
    monkeypatch.setattr(lc.RadialGrid, "_check_shape", lambda self, u: checked.append(1) or check(self, u))
    u = np.linspace(1.0, 2.0, 64)
    assert g.l2_norm_sq(u) == g.dot(u, u.copy())
    assert len(checked) == 1 + 2
    bad = u.copy()
    bad[3] = np.nan
    for args in ((bad, bad), (u, bad), (bad, u)):
        with pytest.raises(ValueError, match="non-finite"):
            g.dot(*args)


def test_eigenvalue_scales_with_radius():
    lam_1, _ = lc.principal_eigenpair(lc.build_grid(3, 1.0, 400))
    lam_2, _ = lc.principal_eigenpair(lc.build_grid(3, 2.0, 400))
    assert lam_2 == pytest.approx(lam_1 / 4.0, rel=1e-10)


@pytest.mark.parametrize("N", [3, 4, 5, 13, 43, 50, 100, 135, 200])
def test_sobolev_constant_matches_closed_form(N):
    # against the Rayleigh quotient of the extremal, far past N = 43, where
    # a quadrature of it in doubles went wrong
    S = lc.best_sobolev_constant(N)
    assert math.isfinite(S)
    assert S == pytest.approx(sobolev_rayleigh_quotient(N), rel=1e-12)
    if N in SOBOLEV_REF:
        assert S == pytest.approx(SOBOLEV_REF[N], rel=1e-10)


@pytest.mark.parametrize("N", range(3, 13))
def test_sobolev_constant_is_the_closed_form_rounded_once(N):
    with mpmath.workdps(60):
        exact = mpmath.pi * N * (N - 2) * (
            mpmath.gamma(mpmath.mpf(N) / 2) / mpmath.gamma(N)
        ) ** (mpmath.mpf(2) / N)
        assert lc.best_sobolev_constant(N) == float(exact)


def test_sobolev_constant_at_n4_is_exact():
    # S(4)^2 / 4 = 8 pi^2 / 3, the N = 4 level S^{N/2} / N of the gap bound
    assert lc.best_sobolev_constant(4) ** 2 / 4 == float(8 * mpmath.pi**2 / 3)


def test_poincare_and_sobolev_bounds_hold_discretely():
    g = lc.build_grid(3, 1.0, 400)
    lam1, _ = lc.principal_eigenpair(g)
    S = lc.best_sobolev_constant(3)
    ts = 6.0
    rng = np.random.default_rng(11)
    for _ in range(25):
        # smooth random Dirichlet profiles: random combination of parabola bumps
        u = (1.0 - g.r**2) * (0.2 + np.abs(rng.standard_normal()) + g.r * rng.standard_normal())
        h1 = g.h1_seminorm_sq(u)
        assert h1 >= lam1 * g.integrate(np.abs(u) ** 2.0) * (1.0 - 1e-10)
        assert h1 >= 0.95 * S * g.integrate(np.abs(u) ** ts) ** (2.0 / ts)


def test_csv_round_trip_is_bit_exact(tmp_path):
    g = lc.build_grid(3, 1.0, 64)
    rng = np.random.default_rng(6)
    vals = rng.standard_normal(g.M) * np.pi
    path = tmp_path / "profile.csv"
    lc.save_grid_function(path, g, vals)
    back = lc.load_grid_function(path, g)
    assert np.array_equal(back, vals)
    r, v = lc.load_grid_function(path)
    assert np.array_equal(r, g.r) and np.array_equal(v, vals)


def test_csv_bytes_match_the_row_by_row_reference(tmp_path):
    g = lc.build_grid(4, 0.7, 64)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(g.M) * 10.0 ** rng.integers(-320, 300, g.M)
    vals[:4] = (-0.0, 0.0, 5e-324, -1.7976931348623157e308)
    path = tmp_path / "profile.csv"
    lc.save_grid_function(path, g, vals)
    reference = "r,value\n" + "".join("%.17g,%.17g\n" % (ri, vi) for ri, vi in zip(g.r, vals))
    assert path.read_text() == reference
    assert reference.splitlines()[1:3] == ["0,-0", "%.17g,0" % g.h]


def test_csv_rejects_mismatched_grid(tmp_path):
    g = lc.build_grid(3, 1.0, 64)
    path = tmp_path / "profile.csv"
    lc.save_grid_function(path, g, np.zeros(64))
    with pytest.raises(ValueError):
        lc.load_grid_function(path, lc.build_grid(3, 1.0, 128))


def test_constructor_rejections():
    with pytest.raises(ValueError):
        lc.build_grid(2, 1.0, 64)
    with pytest.raises(ValueError):
        lc.build_grid(3, 0.0, 64)
    with pytest.raises(ValueError):
        lc.build_grid(3, 1.0, 7)
    g = lc.build_grid(3, 1.0, 64)
    with pytest.raises(ValueError):
        g.integrate(np.ones(65))
    with pytest.raises(ValueError):
        g.l2_norm_sq(np.full(64, np.nan))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=8, max_value=300), st.integers(min_value=3, max_value=6))
def test_weights_positive_and_faces_monotone(M, N):
    g = lc.build_grid(N, 1.0, M)
    assert np.all(g.w > 0)
    assert np.all(g.fw > 0)
    assert np.all(np.diff(g.fw) > 0)


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.3, max_value=5.0))
def test_integrate_is_linear_in_radius_scaling(R):
    # int_B(0,R) 1 = |B| for every radius
    g = lc.build_grid(3, R, 400)
    assert g.integrate(np.ones(g.M)) == pytest.approx(
        lc.ball_volume(3, R), rel=1e-3
    )


def _loop_reference_band(g):
    # the operator built node by node, as the diagonal loop over M wrote it
    M, fw, w, h = g.M, g.fw, g.w, g.h
    band = np.zeros((3, M))
    band[1, 0] = fw[0] / (w[0] * h * h)
    for i in range(1, M):
        band[0, i] = -fw[i - 1] / (w[i - 1] * h * h)
        band[1, i] = (fw[i - 1] + fw[i]) / (w[i] * h * h)
        band[2, i - 1] = -fw[i - 1] / (w[i] * h * h)
    return band


@pytest.mark.parametrize("N, M", [(3, 64), (4, 257), (5, 1024)])
def test_cached_band_matches_builder_and_loop_reference(N, M):
    g = lc.build_grid(N, 1.0, M)
    fresh = g.neg_laplacian_banded()
    assert fresh.flags.writeable
    assert np.array_equal(g.band, fresh)
    assert np.array_equal(g.band, _loop_reference_band(g))
    assert g.band is g.band


def test_cached_band_and_eigenfunction_are_read_only():
    g = lc.build_grid(3, 1.0, 64)
    with pytest.raises(ValueError):
        g.band[1, 0] = 0.0
    with pytest.raises(ValueError):
        g.band[1] *= 2.0
    _, phi1 = g.eigenpair
    with pytest.raises(ValueError):
        phi1[0] = 0.0
    with pytest.raises(ValueError):
        g.eigenpair[1][:] = 1.0


def test_cached_eigenpair_matches_module_function():
    g = lc.build_grid(4, 1.0, 300)
    lam, phi = lc.principal_eigenpair(g)
    lam_c, phi_c = g.eigenpair
    assert lam_c == lam
    assert np.array_equal(phi_c, phi)
    assert g.eigenpair is g.eigenpair


def test_operator_is_built_once_per_grid(monkeypatch):
    builds = []
    build = lc.RadialGrid.neg_laplacian_banded

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(lc.RadialGrid, "neg_laplacian_banded", counting)
    g = lc.build_grid(3, 1.0, 128)
    rng = np.random.default_rng(7)
    for _ in range(50):
        u = rng.standard_normal(g.M)
        lc.grid.solve_tridiagonal(g.band, g.apply_neg_laplacian(u))
    g.eigenpair
    assert len(builds) == 1
    lc.build_grid(3, 1.0, 128).apply_neg_laplacian(np.ones(128))
    assert len(builds) == 2


def test_grids_compare_by_identity():
    g = lc.build_grid(3, 1.0, 64)
    h = lc.build_grid(3, 1.0, 64)
    assert g == g
    assert g != h
    assert hash(g) == hash(g)
    assert len({g, h}) == 2


def _newton_jacobian(g):
    # the band of A - f'(u) that Newton solves with, at a positive profile
    p = lc.ProblemParams(**INSTANCE_A)
    u = 3.0 * random_dirichlet_profile(g, np.random.default_rng(11), floor=0.1)
    J = g.band.copy()
    J[1] -= lc.energy.source_derivative(p, u)
    return J


@pytest.mark.parametrize("N, M", [(3, 200), (4, 1024)])
def test_solve_tridiagonal_matches_solve_banded(N, M):
    g = lc.build_grid(N, 1.0, M)
    rng = np.random.default_rng(5)
    for band in (g.band, _newton_jacobian(g)):
        for _ in range(5):
            rhs = rng.standard_normal(M)
            kept = rhs.copy()
            x = lc.grid.solve_tridiagonal(band, rhs)
            assert np.array_equal(x, solve_banded((1, 1), band, rhs))
            assert np.array_equal(rhs, kept)
    assert np.array_equal(
        lc.grid.solve_tridiagonal(g.band, kept), solve_banded((1, 1), g.band, kept)
    )


def test_solve_tridiagonal_rejects_nonfinite_and_singular_systems():
    g = lc.build_grid(3, 1.0, 64)
    for bad in (np.nan, np.inf, -np.inf):
        rhs = np.ones(64)
        rhs[17] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            lc.grid.solve_tridiagonal(g.band, rhs)
    singular = g.band.copy()
    singular[1, 0] = 0.0  # first row of the matrix all zero
    singular[0, 1] = 0.0
    rhs = np.ones(64)
    with pytest.raises(np.linalg.LinAlgError):
        lc.grid.solve_tridiagonal(singular, rhs)
    assert np.array_equal(rhs, np.ones(64))


def test_nonfinite_operator_is_rejected_when_cached():
    # the grid refuses a radius whose origin cell underflows to 0, on which
    # the band held inf and NaN; the band's own check stays, for a face
    # weight that is not finite
    with pytest.raises(lc.grid.GridRangeError, match="^N = 3: the origin cell "):
        lc.build_grid(3, 1e-200, 8)
    g = lc.build_grid(3, 1.0, 8)
    g.fw[3] = np.inf
    assert not np.all(np.isfinite(g.neg_laplacian_banded()))
    with pytest.raises(ValueError, match="non-finite"):
        g.band


def test_sobolev_constant_is_cached_once_per_grid(monkeypatch):
    calls = []
    sobolev = lc.grid.best_sobolev_constant

    def counting(N):
        calls.append(N)
        return sobolev(N)

    monkeypatch.setattr(lc.grid, "best_sobolev_constant", counting)
    g = lc.build_grid(4, 1.0, 64)
    assert g.sobolev == sobolev(4)
    assert g.sobolev is g.sobolev
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.sobolev = 1.0
    # solve_problem, select_endpoint and the verifier each read S(N) of
    # the solve's grid, which evaluates it once
    p = lc.ProblemParams(N=4, q=3.0, mu=1.0, nu=8.0, lam=-20.0, theta=-1.0)
    report, _, g2 = lc.solve_problem(p, M=64)
    lc.verify_two_level_structure(p, g2, report.u0, report.u_mp, report)
    assert calls == [4, 4]
    lc.build_grid(4, 1.0, 64).sobolev
    assert calls == [4, 4, 4]
