import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import logcrit as lc
from conftest import INSTANCE_A, random_dirichlet_profile

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
    assert g.lp_norm_p(u, 2.0) == pytest.approx(g.l2_norm_sq(u), rel=1e-13)


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
    assert np.allclose(g.solve_neg_laplacian(g.apply_neg_laplacian(u)), u, atol=1e-9)


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


@pytest.mark.parametrize(
    "N, R, M, solves",
    [(3, 1.0, 1024, 11), (4, 1.0, 512, 12), (4, 1.0, 200, 12), (5, 1.0, 400, 13),
     # lam1 = 340.8: the Rayleigh quotient's increments cycle between 2.6e-10
     # and 6.9e-10 here, so an absolute stop at 1e-10 never fires
     (5, 0.24340247239823118, 4096, 13)],
)
def test_eigen_iteration_stops_relative_to_lambda(N, R, M, solves, monkeypatch):
    solve = lc.grid.solve_tridiagonal
    calls = []

    def counting(band, x):
        calls.append(1)
        return solve(band, x)

    monkeypatch.setattr(lc.grid, "solve_tridiagonal", counting)
    lam, phi = lc.principal_eigenpair(lc.build_grid(N, R, M))
    assert len(calls) == solves
    assert lam == pytest.approx(lc.bessel_lambda1(N, R), rel=1e-5)
    assert np.all(phi > 0)


def test_eigenvalue_scales_with_radius():
    lam_1, _ = lc.principal_eigenpair(lc.build_grid(3, 1.0, 400))
    lam_2, _ = lc.principal_eigenpair(lc.build_grid(3, 2.0, 400))
    assert lam_2 == pytest.approx(lam_1 / 4.0, rel=1e-10)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_sobolev_constant_matches_closed_form(N):
    S = lc.best_sobolev_constant(N)
    assert S == pytest.approx(lc.sobolev_constant_closed_form(N), rel=1e-12)
    assert S == pytest.approx(SOBOLEV_REF[N], rel=1e-10)


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
        assert h1 >= lam1 * g.lp_norm_p(u, 2.0) * (1.0 - 1e-10)
        assert h1 >= 0.95 * S * g.lp_norm_p(u, ts) ** (2.0 / ts)


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
    with pytest.raises(ValueError):
        g.lp_norm_p(np.ones(64), 0.0)


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
        g.solve_neg_laplacian(g.apply_neg_laplacian(u))
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
        g.solve_neg_laplacian(kept), solve_banded((1, 1), g.band, kept)
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
    # h^2 underflows to 0 on this radius, so the band has inf and NaN entries
    g = lc.build_grid(3, 1e-200, 8)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(g.neg_laplacian_banded()))
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="non-finite"
    ):
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
