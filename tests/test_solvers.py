import dataclasses
import math

import mpmath
import numpy as np
import pytest

import logcrit as lc
from conftest import INSTANCE_A, INSTANCE_B, SHOWCASE
from logcrit import solvers
from logcrit.energy import XLOG_CLAMP, FiberMap, dilated_params, fiber_map

# frozen pipeline outputs at M = 1024, n = 64, P = 33
FROZEN_A = dict(
    c_rho=-1.394163816e-2,
    c_M=4.110800034,
    gap_bound=4.259722,
    rho=3.5806413119676099,
    alpha=0.084873863536651939,
)
FROZEN_B_C_M = 20.504307100
FROZEN_B_GAP_BOUND = 26.318945
# c_M of the path-deformation minimax that discrete shooting replaced
DEFORMATION_C_M = {
    "A1024": 4.1108000340697375,
    "B512": 20.505557968649164,
    "showcase200": 26.504846624932487,
}


def h1_norm(g, u):
    return float(np.sqrt(g.h1_seminorm_sq(u)))


def region_report(p, g):
    """The RegionReport that solve_problem evaluates once per solve."""
    return lc.region_membership(
        p, g.sobolev, g.eigenpair[0], lc.ball_volume(p.N, p.R)
    )


def ray_nodes(report, path):
    """The ridge check's samples u0 + t (u_mp - u0), rebuilt from path.t."""
    return report.u0 + path.t[:, None] * (report.u_mp - report.u0)


class TestNegativeSubcriticalInstance:
    def test_level_values(self, solved_a):
        report, _, _ = solved_a
        assert report.c_rho == pytest.approx(FROZEN_A["c_rho"], rel=1e-5)
        assert report.c_M == pytest.approx(FROZEN_A["c_M"], rel=1e-5)
        assert report.gap_bound == pytest.approx(FROZEN_A["gap_bound"], rel=1e-5)
        assert report.rho == pytest.approx(FROZEN_A["rho"], rel=1e-10)
        assert report.alpha == pytest.approx(FROZEN_A["alpha"], rel=1e-10)

    def test_two_level_ordering(self, solved_a):
        report, _, _ = solved_a
        assert report.c_rho < 0.0 < report.alpha <= report.c_M
        assert report.gap_ok and report.c_M < report.gap_bound

    def test_critical_point_residuals(self, solved_a):
        report, _, _ = solved_a
        assert report.residual0 < 1e-8
        assert report.residual_mp < 1e-8

    def test_minimizer_sits_inside_the_ball(self, solved_a):
        report, _, g = solved_a
        assert h1_norm(g, report.u0) < report.rho
        assert np.all(report.u0 >= 0.0) and np.max(report.u0) > 0.0

    def test_saddle_is_positive_and_near_the_crest(self, solved_a, params_a):
        report, path, g = solved_a
        nodes = ray_nodes(report, path)
        assert np.all(report.u_mp > 0.0)
        # a mountain-pass point: its Hessian has exactly one negative direction
        assert solvers._morse_index(params_a, g, report.u_mp) == 1
        # the crest of the ridge samples is the t = 1 node, the saddle itself
        k = int(np.argmax(path.energies))
        assert path.t[k] == 1.0
        assert h1_norm(g, nodes[k] - report.u_mp) <= 1e-14 * h1_norm(g, report.u_mp)
        assert path.energies[k] == pytest.approx(report.c_M, rel=1e-12)
        # the straight path from u0 through the saddle crests at c_M
        ts = np.linspace(0.0, 1.0, 33)
        chord = [
            lc.energy_value(
                params_a, g, (1 - t) * report.u0 + t * nodes[-1]
            )
            for t in ts
        ]
        assert max(chord) == pytest.approx(report.c_M, rel=1e-12)

    def test_fiber_profile_shape(self, solved_a, params_a):
        report, _, g = solved_a
        verdict = lc.verify_two_level_structure(
            params_a, g, report.u0, report.u_mp, report
        )
        assert verdict.sign_changes <= 2
        assert abs(verdict.t_local_min - 1.0) <= 0.05

    def test_path_state(self, solved_a, params_a):
        # the ridge samples of the ray u0 + t (u_mp - u0), t in [0, 2]
        report, path, g = solved_a
        assert [f.name for f in dataclasses.fields(path)] == ["t", "energies"]
        assert path.energies.shape == (33,)
        assert np.array_equal(path.t, np.linspace(0.0, 2.0, 33))
        # the rebuilt samples give the stored energies bit for bit
        assert np.array_equal(
            path.energies, lc.energy_value(params_a, g, ray_nodes(report, path))
        )
        assert path.energies[0] == pytest.approx(report.c_rho, rel=1e-10)
        assert path.energies[-1] < report.c_rho
        assert int(np.argmax(path.energies)) == 16
        assert report.iters_path == 1

    def test_path_iterates_stay_bounded(self, solved_a):
        report, path, g = solved_a
        nodes = ray_nodes(report, path)
        bound = 2.0 * max(report.rho, h1_norm(g, nodes[-1]))
        norms = [h1_norm(g, z) for z in nodes]
        assert max(norms) <= bound + 1e-9

    def test_structure_verifier_accepts_the_solution(self, solved_a, params_a):
        report, _, g = solved_a
        verdict = lc.verify_two_level_structure(
            params_a, g, report.u0, report.u_mp, report
        )
        assert verdict.ok and verdict.failures == ()


class TestPositiveSubcriticalInstance:
    def test_level_values(self, solved_b):
        report, _, _ = solved_b
        # the ball minimum hugs zero from below here
        assert report.c_rho < 0.0 and abs(report.c_rho) < 1e-12
        assert report.c_M == pytest.approx(FROZEN_B_C_M, rel=1e-5)
        assert report.gap_bound == pytest.approx(FROZEN_B_GAP_BOUND, rel=1e-5)
        assert report.gap_ok

    def test_critical_point_residuals(self, solved_b):
        report, _, _ = solved_b
        assert report.residual0 < 1e-8
        assert report.residual_mp < 1e-8

    def test_structure_verifier_accepts_the_solution(self, solved_b, params_b):
        report, _, g = solved_b
        verdict = lc.verify_two_level_structure(
            params_b, g, report.u0, report.u_mp, report
        )
        assert verdict.ok and verdict.failures == ()


class TestNewtonPolish:
    def test_critical_point_is_a_fixed_point(self, solved_a, params_a):
        report, _, g = solved_a
        res = solvers._newton(params_a, g, report.u_mp)
        assert res.converged
        assert res.residual < 1e-10
        drift = h1_norm(g, res.u - report.u_mp) / h1_norm(g, report.u_mp)
        assert drift < 1e-8


class TestEndpointSelection:
    def test_scale_and_energy_drop(self, solved_a, params_a):
        report, _, g = solved_a
        spec = lc.BubbleSpec(N=3, n=16, r0=0.25)
        T, _ = lc.select_endpoint(params_a, g, report.u0, spec, report.rho)
        S = lc.best_sobolev_constant(3)
        assert T > 4.0 * report.rho / S ** (3.0 / 4.0)
        Un = lc.truncated_bubble(spec, g)
        endpoint = report.u0 + T * Un
        e0 = lc.energy_value(params_a, g, report.u0)
        assert lc.energy_value(params_a, g, endpoint) < e0
        # past the crest the critical term dominates: doubling T again
        # must land strictly lower
        assert lc.energy_value(params_a, g, report.u0 + 2.0 * T * Un) < (
            lc.energy_value(params_a, g, endpoint)
        )

    def test_ray_clears_the_level_floor(self, solved_a, params_a):
        # the segment toward the endpoint crosses the sphere of radius rho,
        # so its energy maximum sits at or above alpha
        report, _, g = solved_a
        spec = lc.BubbleSpec(N=3, n=16, r0=0.25)
        T, _ = lc.select_endpoint(params_a, g, report.u0, spec, report.rho)
        endpoint = report.u0 + T * lc.truncated_bubble(spec, g)
        ts = np.linspace(0.0, 1.0, 200)
        vals = [
            lc.energy_value(params_a, g, (1 - t) * report.u0 + t * endpoint)
            for t in ts
        ]
        assert max(vals) >= report.alpha - 1e-9

    def test_peak_is_the_window_centre_of_the_solve(self, solved_a, params_a):
        # the peak is the maximum of the endpoint, bit for bit, and stage two
        # fed with it and the membership's alpha gives solve_problem's saddle
        report, _, g = solved_a
        spec = bubble_spec(params_a, 64)
        T, peak = lc.select_endpoint(params_a, g, report.u0, spec, report.rho)
        assert type(peak) is float
        assert peak == float(np.max(report.u0 + T * lc.truncated_bubble(spec, g)))
        rep = region_report(params_a, g)
        u_mp, c_M, _, _ = lc.mountain_pass(params_a, g, report.u0, peak, rep.alpha)
        assert np.array_equal(u_mp, report.u_mp)
        assert c_M == report.c_M

    def test_requires_region_membership(self, monkeypatch):
        # the membership gate is solve_problem's; it fires before any stage
        # that reads rho, endpoint selection included
        def reached(*args):
            raise AssertionError("select_endpoint reached without membership")

        monkeypatch.setattr(solvers, "select_endpoint", reached)
        p = lc.ProblemParams(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-1e6)
        with pytest.raises(ValueError, match="membership"):
            lc.solve_problem(p, M=128)


class TestPathDeformation:
    def test_rejects_short_paths(self, solved_a, params_a):
        report, _, g = solved_a
        with pytest.raises(ValueError, match="32 path nodes"):
            lc.mountain_pass(
                params_a, g, report.u0, 2.0 * float(np.max(report.u0)), report.alpha, P=8
            )

    def test_segment_on_a_descending_ray_collapses(self, params_a):
        # a base point on the decreasing tail of the principal-mode ray is
        # no minimizer: the ray from it through the saddle that shooting
        # finds rises far above c_M, and the ridge check rejects it
        g = lc.build_grid(3, 1.0, 256)
        _, phi1 = lc.principal_eigenpair(g)
        with pytest.raises(lc.PathCollapseError, match="above c_M"):
            lc.mountain_pass(
                params_a, g, 20.0 * phi1, float(np.max(20.5 * phi1)),
                region_report(params_a, g).alpha,
            )


def dense_morse_index(p, g, u):
    """Negative eigenvalues of the dense Jacobian A - f'(u), made symmetric
    by the similarity W^{1/2} J W^{-1/2} with the quadrature weights W."""
    band = g.band
    J = np.diag(band[1] - lc.source_derivative(p, u))
    J += np.diag(band[0, 1:], 1) + np.diag(band[2, :-1], -1)
    sw = np.sqrt(g.w)
    S = sw[:, None] * J / sw[None, :]
    assert np.allclose(S, S.T, rtol=1e-12, atol=0.0)
    return int(np.sum(np.linalg.eigvalsh(0.5 * (S + S.T)) < 0.0))


@pytest.fixture(scope="module")
def solved_b_512(params_b):
    return lc.solve_problem(params_b, M=512, n=32)


def bubble_spec(p, n):
    """The bubble solve_problem selects the endpoint with, for scale n."""
    return lc.BubbleSpec(N=p.N, n=n, r0=p.R / 4.0)


def peak_of(p, g, report, n):
    """The window centre solve_problem computes for bubble scale n."""
    return lc.select_endpoint(p, g, report.u0, bubble_spec(p, n), report.rho)[1]


def bracket_limits(p, g, peak):
    """(Morse index, level) of the Newton limit from each bracket of the
    scan, (None, None) where Newton does not converge."""
    amps = np.geomspace(peak / solvers.SHOOT_SPAN, peak * solvers.SHOOT_SPAN, solvers.SHOOT_AMPS)
    U, F = solvers._shoot(p, g, amps)
    out = []
    for j in range(len(amps) - 1):
        if np.isfinite(F[j]) and np.isfinite(F[j + 1]) and (F[j] > 0) != (F[j + 1] > 0):
            w = F[j + 1] / (F[j + 1] - F[j])
            res = solvers._newton(p, g, np.maximum(w * U[:, j] + (1 - w) * U[:, j + 1], 0.0))
            if not res.converged:
                out.append((None, None))
                continue
            out.append((solvers._morse_index(p, g, res.u), lc.energy_value(p, g, res.u)))
    return out


def first_crest_newton_limit(p, g, u0, endpoint):
    """Newton limit of the crest node of the undeformed segment (sweep 0)."""
    ts = np.linspace(0.0, 1.0, 33)
    Z = u0[None, :] + ts[:, None] * (endpoint - u0)[None, :]
    E = lc.energy_value(p, g, Z)
    k = 1 + int(np.argmax(E[1:-1]))
    return solvers._newton(p, g, Z[k])


class TestMorseIndex:
    def test_matches_dense_count_on_instance_a(self, params_a):
        report, _, g = lc.solve_problem(params_a, M=64)
        for u, want in ((report.v0, 0), (report.u_mp, 1)):
            got = solvers._morse_index(params_a, g, u)
            assert got == want
            assert got == dense_morse_index(params_a, g, u)

    def test_first_crest_of_b_falls_to_index_two(self, solved_b_512, params_b):
        # on instance B, Newton from the crest of the straight segment
        # converges to a critical point above the mountain pass.  Shooting
        # meets the same point at its second bracket, after the index-1
        # root it accepts, and an index-3 point at its third
        report, _, g = solved_b_512
        spec = bubble_spec(params_b, 32)
        T, peak = lc.select_endpoint(params_b, g, report.u0, spec, report.rho)
        endpoint = report.u0 + T * lc.truncated_bubble(spec, g)
        res = first_crest_newton_limit(params_b, g, report.u0, endpoint)
        assert res.converged
        assert lc.energy_value(params_b, g, res.u) == pytest.approx(25.344, rel=1e-4)
        assert solvers._morse_index(params_b, g, res.u) == 2
        assert dense_morse_index(params_b, g, res.u) == 2
        limits = bracket_limits(params_b, g, peak)
        assert [index for index, _ in limits] == [1, 2, 3]
        assert limits[0][1] == pytest.approx(report.c_M, rel=1e-12)
        assert limits[1][1] == pytest.approx(lc.energy_value(params_b, g, res.u), rel=1e-9)
        assert report.iters_path == 1

    def test_index_two_limit_is_passed_over(self, solved_a, params_a):
        # a window that starts past A's mountain-pass root meets a limit of
        # index 2 (level 4.133) first and the grid-scale root of index 1
        # (level 1.840) next; only the index-1 limit is accepted
        report, _, g = solved_a
        peak = peak_of(params_a, g, report, 64)
        peak = peak * (1000.0 / peak)
        limits = bracket_limits(params_a, g, peak)
        assert [index for index, _ in limits[:2]] == [2, 1]
        u_mp, c_M, _, stats = lc.mountain_pass(params_a, g, report.u0, peak, report.alpha)
        assert stats["iters_path"] == 2
        assert c_M == pytest.approx(limits[1][1], rel=1e-12)
        assert c_M == pytest.approx(1.8402, rel=1e-4)
        assert solvers._morse_index(params_a, g, u_mp) == 1
        assert dense_morse_index(params_a, g, u_mp) == 1

    def test_no_qualifying_bracket_names_the_range(self, solved_a, params_a, monkeypatch):
        # no Newton limit counts as index 1, so every bracket is rejected
        report, _, g = solved_a
        peak = peak_of(params_a, g, report, 64)
        monkeypatch.setattr(solvers, "_morse_index", lambda p, g, u: 2)
        with pytest.raises(lc.ConcentrationStallError) as err:
            lc.mountain_pass(params_a, g, report.u0, peak, report.alpha)
        assert f"[{peak / 64.0:.6e}, {peak * 64.0:.6e}]" in str(err.value)
        assert "(3 brackets tried)" in str(err.value)


class TestShooting:
    @pytest.mark.parametrize("name", sorted(DEFORMATION_C_M))
    def test_levels_match_the_deformation_minimax(
        self, name, solved_a, solved_b_512, params_showcase
    ):
        if name == "A1024":
            report = solved_a[0]
        elif name == "B512":
            report = solved_b_512[0]
        else:
            report = lc.solve_problem(params_showcase, M=200)[0]
        assert report.c_M == pytest.approx(DEFORMATION_C_M[name], rel=1e-12)
        assert np.all(report.u_mp > 0.0)

    def test_index_zero_limit_is_passed_over(self, solved_a, params_a, monkeypatch):
        # a window reaching a factor 1024 either side of the peak
        # holds the minimizer's root (amplitude 0.1345) below the saddle's;
        # its Newton limit has index 0 and is passed over
        report, _, g = solved_a
        peak = peak_of(params_a, g, report, 64)
        monkeypatch.setattr(solvers, "SHOOT_SPAN", 1024.0)
        limits = bracket_limits(params_a, g, peak)
        assert [index for index, _ in limits[:2]] == [0, 1]
        assert limits[0][1] == pytest.approx(float(report.c_rho), rel=1e-9)
        u_mp, c_M, _, stats = lc.mountain_pass(params_a, g, report.u0, peak, report.alpha)
        assert stats["iters_path"] == 2
        assert c_M == pytest.approx(report.c_M, rel=1e-12)

    def test_sign_changing_limit_is_passed_over(self, solved_a, params_a, monkeypatch):
        # the first limit, A's saddle, is made negative at its last node; it
        # still converges with index 1, so only the positivity test rejects
        # it.  The index-2 limit follows, then the grid-scale index-1 root
        report, _, g = solved_a
        peak = peak_of(params_a, g, report, 64)
        newton = solvers._newton
        calls = []

        def first_limit_dips(p, g, u, **kwargs):
            res = newton(p, g, u, **kwargs)
            calls.append(res)
            if len(calls) == 1:
                u = res.u.copy()
                u[-1] = -1e-9
                assert solvers._morse_index(p, g, u) == 1
                res = dataclasses.replace(res, u=u)
            return res

        monkeypatch.setattr(solvers, "_newton", first_limit_dips)
        u_mp, c_M, _, stats = lc.mountain_pass(params_a, g, report.u0, peak, report.alpha)
        assert stats["iters_path"] == 3
        assert np.all(u_mp > 0.0)
        assert c_M == pytest.approx(1.8402, rel=1e-4)

    def test_ridge_check_alone_raises(self, solved_a, params_a):
        # shooting finds A's saddle in both calls; only the ray from the
        # given base point through it fails
        report, _, g = solved_a
        u_mp = report.u_mp
        peak = peak_of(params_a, g, report, 64)
        # an oscillation raises the energy: the ray starts above c_M
        bump = 0.01 * (-1.0) ** np.arange(g.M) * (1.0 - g.r**2)
        with pytest.raises(lc.PathCollapseError, match="above c_M"):
            lc.mountain_pass(params_a, g, u_mp + bump, peak, report.alpha)
        # from 2 u_mp the ray ends at 0, above I(2 u_mp) < 0; a window
        # centred on the peak of 3 u_mp holds the same root
        with pytest.raises(lc.PathCollapseError, match="not below I\\(u0\\)"):
            lc.mountain_pass(params_a, g, 2.0 * u_mp, float(np.max(3.0 * u_mp)), report.alpha)


# -- stage one: the fiber-minimum start, descent, Newton and its checks -------
#
# ref_negative_start and ref_start are stage one's start as it was found
# before the closed-form fiber: a halving scan for a negative multiple of
# phi1, retried on the dilated problem when it fails.  ref_descend_in_ball
# and ref_minimize are the route without the Morse-index test: descent to
# gtol, then one Newton polish.


def ref_negative_start(p, g, phi1, lam1, radius):
    t = min(0.5, 0.5 * radius / np.sqrt(lam1))
    t_floor = np.sqrt(np.finfo(float).tiny) / float(np.max(phi1))
    for _ in range(1200):
        if t == 0.0 or t < max(t_floor, XLOG_CLAMP):
            break
        if lc.energy_value(p, g, t * phi1) < 0.0:
            return t
        t *= 0.5
    raise lc.UsableRegionError("no negative start before underflow")


def ref_descend_in_ball(p, g, u, radius, gtol=1e-3, itmax=5000):
    e = lc.energy_value(p, g, u)
    for it in range(itmax):
        grad = lc.gradient_field(p, g, u)
        gn2, pre = solvers._dual_norm_sq(g, grad)
        if np.sqrt(gn2) < gtol:
            return u, it
        s = 1.0
        while True:
            cand = solvers._project_ball(g, u - s * pre, radius)
            ec = lc.energy_value(p, g, cand)
            if ec <= e - solvers.ARMIJO * s * gn2:
                break
            s *= 0.5
            if s < 1e-14:
                return u, it
        u, e = cand, ec
        if solvers._h1_norm(g, u) > 2.0 * radius / (1.0 - solvers.BALL_MARGIN):
            raise RuntimeError("descent iterate left the expected bounded set")
    return u, itmax


def ref_start(p, g, rho):
    """(dilated params, s, descent start, ball radius for v) of the halving scan."""
    radius = rho * (1.0 - solvers.BALL_MARGIN)
    lam1, phi1 = g.eigenpair
    try:
        t0 = ref_negative_start(p, g, phi1, lam1, radius)
        return p, 0.0, t0 * phi1, radius
    except lc.UsableRegionError:
        s = solvers._dilation_exponent(p, lam1)
        ps = dilated_params(p, s)
        radius_v = radius * math.exp(-s) if -s < 700.0 else math.inf
        t0 = ref_negative_start(ps, g, phi1, lam1, radius_v)
        return ps, s, t0 * phi1, radius_v


def fiber_start(p, g, rho):
    """ref_start's tuple for the start that stage one uses: t* phi1."""
    s0, ps, radius_v, start = solvers._fiber_start(
        p, g, rho * (1.0 - solvers.BALL_MARGIN)
    )
    return ps, s0, start, radius_v


def ref_minimize(p, g, rho, start=ref_start):
    """(Newton result, s, c_rho, descent iterations) of descent to gtol, then
    Newton, from the start that start(p, g, rho) gives."""
    ps, s, u, radius_v = start(p, g, rho)
    v, iters = ref_descend_in_ball(ps, g, u, radius_v)
    nres = solvers._newton(ps, g, v)
    c = solvers._scaled_level(lc.energy_value(ps, g, nres.u), s)
    return nres, s, c, iters


def polish(p, g, u):
    """Newton to a residual of 1e-12 ||u||, relative to the size of u."""
    nres = solvers._newton(p, g, u, tol=1e-12 * h1_norm(g, u))
    assert nres.converged
    return nres.u


STAGE_ONE_CASES = {
    "A": (INSTANCE_A, 1024),
    "B": (INSTANCE_B, 512),
    "showcase": (SHOWCASE, 200),
    "N5": (dict(N=5, q=2.8, mu=1.5, nu=-2.0, lam=5.0, theta=-0.1), 400),
    "N5-strong-log": (dict(N=5, q=2.5, mu=1.0, nu=-1.0, lam=0.0, theta=-3.0), 400),
}
# minimizers of amplitude 6e-8 (B) and 3e-33 (N5): Newton's absolute
# tolerance 1e-10 stops each route at a different point near them
TINY_MINIMIZERS = ("B", "N5")


def stage_one_problem(name):
    kw, M = STAGE_ONE_CASES[name]
    p = lc.ProblemParams(**kw)
    g = lc.build_grid(p.N, p.R, M)
    return p, g, region_report(p, g).rho


class TestStageOneHandOff:
    @pytest.mark.parametrize("name", sorted(STAGE_ONE_CASES))
    def test_fiber_minimum_start_has_index_zero(self, name):
        p, g, rho = stage_one_problem(name)
        ps, s0, start, _ = fiber_start(p, g, rho)
        assert solvers._morse_index(ps, g, start) == 0
        v, s, _, stats = solvers._minimize_with_stats(p, g, rho)
        assert s == s0
        assert stats["iters_minimize"] == 0
        assert stats["iters_newton0"] <= 3
        assert solvers._morse_index(ps, g, v) == 0
        if name == "showcase":
            assert dense_morse_index(ps, g, v) == 0
            # the halving scan's start has index 1: Newton from it would
            # find a saddle, and descent took 309 steps to reach index 0
            _, _, old, _ = ref_start(p, g, rho)
            assert solvers._morse_index(ps, g, old) == 1

    def test_start_is_the_fiber_minimum(self):
        for name in ("A", "showcase"):
            p, g, rho = stage_one_problem(name)
            ps, _, start, _ = fiber_start(p, g, rho)
            e = [lc.energy_value(ps, g, k * start) for k in (1 - 1e-4, 1.0, 1 + 1e-4)]
            assert e[1] < 0.0 and e[1] < e[0] and e[1] < e[2]

    def test_index_one_start_descends_one_step(self):
        # the fiber minimum of phi1 is a saddle of index 1 here: one
        # projected descent step reaches index 0, and Newton takes 8
        p = lc.ProblemParams(N=4, q=2.4, mu=0.25, nu=-0.5, lam=-30.0, theta=-6.0, R=4.5)
        g = lc.build_grid(p.N, p.R, 256)
        rho = region_report(p, g).rho
        ps, _, start, _ = fiber_start(p, g, rho)
        assert solvers._morse_index(ps, g, start) == 1
        v, s, c, stats = solvers._minimize_with_stats(p, g, rho)
        assert s == 0.0
        assert stats["iters_minimize"] == 1 and stats["iters_newton0"] == 8
        assert c == -24.839351600128396
        assert solvers._morse_index(ps, g, v) == 0

    # each acceptance check on Newton's limit raises on its own: every test
    # below breaks exactly one of them and expects that check's name

    def test_unconverged_hand_off_is_rejected(self, monkeypatch):
        # Newton's limit on the showcase reads a residual just above 1e-8
        p, g, rho = stage_one_problem("showcase")
        newton = solvers._newton
        calls = []

        def stalls(*args, **kwargs):
            calls.append(newton(*args, **kwargs))
            return dataclasses.replace(calls[-1], converged=False, residual=2e-8)

        monkeypatch.setattr(solvers, "_newton", stalls)
        with pytest.raises(
            lc.UsableRegionError,
            match=r"^stage one: .* fails the residual check: 2\.000e-08 is not below 1e-8",
        ):
            solvers._minimize_with_stats(p, g, rho)
        assert len(calls) == 1

    def test_limit_of_index_one_is_rejected(self, monkeypatch):
        # the start has index 0, so Newton runs from it; its limit, the
        # minimizer, is reported as index 1
        p, g, rho = stage_one_problem("showcase")
        morse = solvers._morse_index
        seen = []

        def limit_reads_one(p, g, u):
            seen.append(morse(p, g, u))
            return seen[-1] if len(seen) == 1 else 1

        monkeypatch.setattr(solvers, "_morse_index", limit_reads_one)
        with pytest.raises(
            lc.UsableRegionError, match=r"^stage one: .* fails the Morse index check"
        ):
            solvers._minimize_with_stats(p, g, rho)
        assert seen == [0, 0]

    def test_limit_at_zero_energy_is_rejected(self, monkeypatch):
        # u = 0 is a critical point of index 0 (f'(0) = lam = 0 on A), at
        # energy 0; Newton is made to return it
        p, g, rho = stage_one_problem("A")

        def zero(p, g, u, **kwargs):
            z = np.zeros_like(u)
            assert solvers._morse_index(p, g, z) == 0
            return solvers.NewtonResult(u=z, converged=True, residual=0.0, iterations=0)

        monkeypatch.setattr(solvers, "_newton", zero)
        with pytest.raises(
            lc.UsableRegionError,
            match=r"^stage one: .* fails the energy check: 0\.000000e\+00 is not negative",
        ):
            solvers._minimize_with_stats(p, g, rho)

    def test_limit_outside_the_ball_is_rejected(self):
        # in a ball just too small to hold A's minimizer the fiber search
        # stops at the ball's edge, and Newton from there still reaches it
        p, g, rho = stage_one_problem("A")
        v, _, _, _ = solvers._minimize_with_stats(p, g, rho)
        rho_small = 0.99 * h1_norm(g, v) / (1.0 - solvers.BALL_MARGIN)
        with pytest.raises(
            lc.UsableRegionError,
            match=r"^stage one: the Newton limit after 0 descent steps fails the ball check",
        ):
            solvers._minimize_with_stats(p, g, rho_small)

    @pytest.mark.parametrize("name", sorted(STAGE_ONE_CASES))
    def test_matches_the_descend_then_newton_route(self, name):
        # the route from the halving scan's start; B's and N5's minimizers
        # end where each route meets the absolute tolerance, so both are
        # polished relative to their size before they are compared
        p, g, rho = stage_one_problem(name)
        v, s, c, _ = solvers._minimize_with_stats(p, g, rho)
        ref, s_ref, c_ref, _ = ref_minimize(p, g, rho)
        assert s == s_ref
        u_ref = ref.u
        if name in TINY_MINIMIZERS:
            ps = dilated_params(p, s)
            v, u_ref = polish(ps, g, v), polish(ps, g, u_ref)
            c = solvers._scaled_level(lc.energy_value(ps, g, v), s)
            c_ref = solvers._scaled_level(lc.energy_value(ps, g, u_ref), s)
        assert abs(float((c - c_ref) / c_ref)) <= 1e-10
        assert h1_norm(g, v - u_ref) <= 1e-8 * h1_norm(g, u_ref)

    def test_empty_fiber_window_names_stage_one(self):
        # a ball so small that (t max phi1)^2 underflows at its edge
        # leaves no scale of phi1 to search
        p, g, _ = stage_one_problem("A")
        with pytest.raises(
            lc.UsableRegionError,
            match=r"^stage one: .* for t in \[\S+, \S+\] \(s0 = 0\), and the ball caps t",
        ):
            solvers._minimize_with_stats(p, g, 1e-160)

    def test_fiber_without_a_negative_minimum_names_stage_one(self, monkeypatch):
        # a fiber t^2 that is positive everywhere, in place of phi1's
        p, g, rho = stage_one_problem("showcase")
        positive = FiberMap(quad=1.0, crit=0.0, sub=0.0, xlog=0.0, two_star=4.0, q=3.0)
        monkeypatch.setattr(solvers, "fiber_map", lambda p, g, u: positive)
        with pytest.raises(
            lc.UsableRegionError,
            match=r"^stage one: .* \(s0 = -734\.59\d*\), and its first minimum there is not negative",
        ):
            solvers._minimize_with_stats(p, g, rho)


# -- the closed-form fiber against one energy_value per sample -------------------


def ref_g_profile(p, g, u, t_max=2.0, samples=256):
    """g_profile as it sampled before the closed form: one energy_value per t."""
    ts = np.linspace(t_max / samples, t_max, samples)
    vals = np.array([lc.energy_value(p, g, t * u) for t in ts])
    signs = np.sign(np.diff(vals))
    signs = signs[signs != 0]
    changes = int(np.sum(signs[1:] != signs[:-1]))
    return lc.FiberProfile(t=ts, values=vals, sign_changes=changes)


class TestClosedFormFiber:
    @pytest.mark.parametrize("scale", [1.0, 1.15])
    @pytest.mark.parametrize("name", ["A", "B", "N5", "showcase"])
    def test_profile_matches_direct_samples(self, name, scale):
        # the minimizer, and a multiple whose fiber minimum sits at 1/1.15
        p, g, rho = stage_one_problem(name)
        v, s0, _, _ = solvers._minimize_with_stats(p, g, rho)
        ps = dilated_params(p, s0)
        prof = lc.g_profile(ps, g, scale * v)
        ref = ref_g_profile(ps, g, scale * v)
        assert np.array_equal(prof.t, ref.t)
        err = np.max(np.abs(prof.values - ref.values))
        assert err <= 1e-10 * np.max(np.abs(ref.values))
        assert prof.sign_changes == ref.sign_changes
        t_min = solvers._profile_local_min_near_one(prof)
        assert t_min == solvers._profile_local_min_near_one(ref)
        assert (abs(t_min - 1.0) <= 0.05) == (scale == 1.0)

    def test_log_slope_matches_differences(self, params_a):
        g = lc.build_grid(3, 1.0, 256)
        fib = fiber_map(params_a, g, g.eigenpair[1])
        for t in (1e-3, 0.1, 1.0, 3.0):
            h = 1e-5
            fd = (fib(t * math.exp(h)) - fib(t * math.exp(-h))) / (2.0 * h)
            assert fib.log_slope(t) == pytest.approx(float(fd), rel=1e-6, abs=1e-12)

    def test_profile_rejects_an_overflowing_fiber(self, params_a):
        g = lc.build_grid(3, 1.0, 128)
        u = 1.0 - g.r**2 + 0.01
        with pytest.raises(ValueError, match="non-finite"):
            lc.g_profile(params_a, g, u, t_max=1e60)


class TestStructureVerifierFailures:
    def test_swapped_solutions_break_the_ordering(self, solved_a, params_a):
        report, _, g = solved_a
        verdict = lc.verify_two_level_structure(
            params_a, g, report.u_mp, report.u0, None
        )
        assert not verdict.ok
        assert any(f.startswith("ordering:") for f in verdict.failures)

    def test_lower_saddle_level_breaks_least_energy(self, solved_a, params_a):
        report, _, g = solved_a
        bad = dataclasses.replace(report, c_M=report.c_rho - 1.0)
        verdict = lc.verify_two_level_structure(
            params_a, g, report.u0, report.u_mp, bad
        )
        assert not verdict.ok
        assert any(f.startswith("least-energy:") for f in verdict.failures)

    def test_endpoint_fails_ball_and_ray(self, solved_a, params_a):
        report, _, g = solved_a
        spec = lc.BubbleSpec(N=3, n=16, r0=0.25)
        T, _ = lc.select_endpoint(params_a, g, report.u0, spec, report.rho)
        endpoint = report.u0 + T * lc.truncated_bubble(spec, g)
        verdict = lc.verify_two_level_structure(
            params_a, g, endpoint, report.u_mp, None
        )
        assert not verdict.ok
        assert any(f.startswith("ball:") for f in verdict.failures)
        assert any(f.startswith("ray:") for f in verdict.failures)

    def test_rescaled_minimizer_moves_the_fiber_minimum(self, solved_a, params_a):
        report, _, g = solved_a
        verdict = lc.verify_two_level_structure(
            params_a, g, 1.15 * report.u0, report.u_mp, None
        )
        assert any(f.startswith("fiber:") for f in verdict.failures)


class TestPipelineGates:
    def test_region_membership_runs_once_per_solve(self, params_a, monkeypatch):
        calls = []
        membership = solvers.region_membership

        def counting(*args):
            calls.append(args)
            return membership(*args)

        monkeypatch.setattr(solvers, "region_membership", counting)
        report, _, g = lc.solve_problem(params_a, M=64)
        assert len(calls) == 1
        # the verifier evaluates the membership itself, so it can fail alone
        lc.verify_two_level_structure(params_a, g, report.u0, report.u_mp, report)
        assert len(calls) == 2

    def test_saddle_residual_is_the_accepted_newton_residual(
        self, params_a, monkeypatch
    ):
        # the residual is Newton's, bit for bit, and no gradient is
        # evaluated after mountain_pass returns the saddle
        results, gradients, at_saddle = [], [], []
        newton, gradient, shoot = (
            solvers._newton, solvers.gradient_field, solvers.mountain_pass
        )

        def newton_spy(*args, **kwargs):
            results.append(newton(*args, **kwargs))
            return results[-1]

        def gradient_spy(*args):
            gradients.append(args)
            return gradient(*args)

        def shoot_spy(*args, **kwargs):
            out = shoot(*args, **kwargs)
            at_saddle.append(len(gradients))
            return out

        monkeypatch.setattr(solvers, "_newton", newton_spy)
        monkeypatch.setattr(solvers, "gradient_field", gradient_spy)
        monkeypatch.setattr(solvers, "mountain_pass", shoot_spy)
        report, _, g = lc.solve_problem(params_a, M=256)
        accepted = next(r for r in results if r.u is report.u_mp)
        assert report.residual_mp == accepted.residual
        rn2, _ = solvers._dual_norm_sq(g, gradient(params_a, g, report.u_mp))
        assert report.residual_mp == float(np.sqrt(rn2))
        assert at_saddle == [len(gradients)]

    def test_no_membership_is_a_value_error(self):
        p = lc.ProblemParams(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-1e6)
        with pytest.raises(ValueError, match="membership"):
            lc.solve_problem(p, M=128)

    def test_unreachable_negative_start_raises(self):
        # subnormal log coefficient: the admissible scale for a negative
        # start lies below floating-point range, and so far below it that
        # the amplitude-dilation exponent (lam - lambda1)/(2|theta|) - 1/2
        # overflows to -inf, so the gate must fire
        p = lc.ProblemParams(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-1e-320)
        with pytest.raises(lc.UsableRegionError, match="dilation exponent"):
            lc.solve_problem(p, M=400)


class TestWeakLogShowcase:
    def test_minimizer_in_scaled_form(self, solved_showcase, params_showcase):
        # theta = -0.01: the minimizer u0 = e^{s0} v0 has amplitude e^{-733},
        # below double range; stage one solves for the O(1) profile v0
        report, _, g = solved_showcase
        lam1, _ = lc.principal_eigenpair(g)
        assert report.s0 == pytest.approx(-lam1 / 0.02 - 0.5, rel=1e-14)
        assert report.s0 == pytest.approx(-734.6, abs=0.05)
        log_norm_u0 = np.log(h1_norm(g, report.v0)) + report.s0
        assert log_norm_u0 == pytest.approx(-732.4, abs=0.05)
        assert log_norm_u0 < np.log(report.rho)
        # the dilated critical coefficient underflows, so v0 is a critical
        # point of the log-only problem, whose level is (theta/2) int v^2
        level_v = report.c_rho * mpmath.exp(-2 * report.s0)
        assert float(level_v) == pytest.approx(
            0.5 * params_showcase.theta * g.l2_norm_sq(report.v0), rel=1e-8
        )
        assert report.c_rho < 0.0
        assert report.residual0 < 1e-8

    def test_structure_verifier_reads_the_scaled_form(
        self, solved_showcase, params_showcase
    ):
        report, _, g = solved_showcase
        verdict = lc.verify_two_level_structure(
            params_showcase, g, report.v0, report.u_mp, report, s0=report.s0
        )
        assert verdict.ok and verdict.failures == ()
        assert verdict.sign_changes <= 2
        assert abs(verdict.t_local_min - 1.0) <= 0.05
        # the fiber and ball checks still fail on a wrong minimizer
        verdict = lc.verify_two_level_structure(
            params_showcase, g, 1.15 * report.v0, report.u_mp, None, s0=report.s0
        )
        assert any(f.startswith("fiber:") for f in verdict.failures)
        verdict = lc.verify_two_level_structure(
            params_showcase, g, report.v0, report.u_mp, None, s0=report.s0 + 740.0
        )
        assert any(f.startswith("ball:") for f in verdict.failures)


def test_levels_stable_under_refinement():
    # halving h moves both levels by well under 2%
    p = lc.ProblemParams(**INSTANCE_A)
    r800, _, _ = lc.solve_problem(p, M=800, n=16)
    r1600, _, _ = lc.solve_problem(p, M=1600, n=16)
    assert r1600.c_rho == pytest.approx(r800.c_rho, rel=0.02)
    assert r1600.c_M == pytest.approx(r800.c_M, rel=0.02)


# -- energy stacks against the plain expressions they replace ---------------
#
# Path energies are energy_value of a (P, M) node array; a gemv row rounds
# unlike a dot of one profile, so they are compared with ref_path_energies
# to 1e-14 relative, and the one-profile energy bit for bit with
# ref_energy_terms.  M = 200 keeps h = 1/200 off a power of two, where
# dividing by h and multiplying by 1/h round differently.


def ref_energy_terms(p, g, u):
    """energy_terms of one profile as computed before it took stacks."""
    d = np.empty_like(u)
    d[:-1] = u[1:] - u[:-1]
    d[-1] = -u[-1]
    kin = 0.5 * float(np.dot(g.fw, (d / g.h) ** 2))
    up = np.maximum(u, 0.0)
    ts = p.two_star
    crit = (p.mu / ts) * float(np.dot(g.w, up**ts))
    sub = (p.nu / p.q) * float(np.dot(g.w, up**p.q))
    lin = (p.lam / 2.0) * float(np.dot(g.w, up * up))
    logt = (p.theta / 2.0) * float(np.dot(g.w, lc.safe_xlog(up) - up * up))
    return kin, crit, sub, lin, logt


def ref_path_energies(p, g, Z):
    d = np.empty_like(Z)
    d[:, :-1] = Z[:, 1:] - Z[:, :-1]
    d[:, -1] = -Z[:, -1]
    kin = 0.5 * ((d / g.h) ** 2) @ g.fw
    up = np.maximum(Z, 0.0)
    ts = p.two_star
    pot = (p.mu / ts) * (up**ts) @ g.w
    pot += (p.nu / p.q) * (up**p.q) @ g.w
    pot += (p.lam / 2.0) * (up * up) @ g.w
    xl = np.zeros_like(up)
    mask = up > XLOG_CLAMP
    xl[mask] = up[mask] ** 2 * 2.0 * np.log(up[mask])
    pot += (p.theta / 2.0) * (xl - up * up) @ g.w
    return kin - pot


KERNEL_M = 200
KERNEL_P = 33


def kernel_paths():
    """Seeded (P, M) paths: generic, with repeated nodes, all-equal, and
    one whose node differences are subnormal."""
    g = lc.build_grid(3, 1.0, KERNEL_M)
    rng = np.random.default_rng(20240605)
    bump = 1.0 - g.r**2
    ts = np.linspace(0.0, 1.0, KERNEL_P)[:, None]
    # small noise, so that no single term dominates the energies and a
    # last-bit change in any of them shows in the result
    Z = ts * 6.0 * bump + 0.02 * rng.standard_normal((KERNEL_P, KERNEL_M)) * bump
    Z[:, 150:170] -= 0.3  # a negative shell on every node
    Z[:, 3::11] = 0.0
    Z[:, 5::13] = -0.0
    Z[:, 8::17] = 5e-301  # positive, below XLOG_CLAMP
    Z[:, 9::19] = 4e-320  # subnormal
    Z[:, 10::23] = 2e-300  # just above XLOG_CLAMP
    repeated = Z.copy()
    repeated[6] = repeated[5]  # a zero-length segment
    repeated[20] = repeated[19]
    flat = np.repeat(Z[12:13], KERNEL_P, axis=0)  # total length 0
    tiny = flat.copy()
    tiny[:, 40] = np.arange(KERNEL_P) * 5e-324  # steps whose squares underflow
    return {"generic": Z, "repeated": repeated, "flat": flat, "tiny": tiny}


KERNEL_PARAMS = {
    "A": lc.ProblemParams(**INSTANCE_A),
    "B": lc.ProblemParams(**INSTANCE_B),
    "N5": lc.ProblemParams(N=5, q=2.8, mu=1.5, nu=-2.0, lam=5.0, theta=-0.1),
    # the showcase dilated to its minimizer's scale: mu underflows to 0
    "showcase-dilated": dilated_params(lc.ProblemParams(**SHOWCASE), -734.6),
}


def only_term(term, coef):
    """Parameters with a single potential term, scaled to dominate the
    kinetic term, so that a last-bit change in that term shows in every
    energy."""
    coefs = dict(mu=0.0, nu=0.0, lam=0.0, theta=0.0)
    coefs[term] = coef
    return lc.energy.DilatedParams(N=3, q=2.5, R=1.0, two_star=6.0, **coefs)


for term, coef in (("mu", 1e6), ("nu", -1e6), ("lam", 1e6), ("theta", -1e6)):
    KERNEL_PARAMS[f"only-{term}"] = only_term(term, coef)


class TestPathKernelsBitExact:
    @pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
    def test_path_energies(self, name):
        # one energy per node, as each node alone and the plain batched
        # expression give it
        p = KERNEL_PARAMS[name]
        g = lc.build_grid(p.N, 1.0, KERNEL_M)
        for Z in kernel_paths().values():
            got = lc.energy_value(p, g, Z)
            assert got.shape == (KERNEL_P,)
            rows = [lc.energy_value(p, g, z) for z in Z]
            np.testing.assert_allclose(got, rows, rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(
                got, ref_path_energies(p, g, Z), rtol=1e-14, atol=0.0
            )

    @pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
    def test_one_profile_energy_keeps_its_bits(self, name):
        # every line-search candidate and level goes through this form
        p = KERNEL_PARAMS[name]
        g = lc.build_grid(p.N, 1.0, KERNEL_M)
        for Z in kernel_paths().values():
            for z in Z:
                terms = lc.energy_terms(p, g, z)
                assert all(type(t) is float for t in terms)
                assert terms == ref_energy_terms(p, g, z)
                kin, crit, sub, lin, logt = terms
                assert lc.energy_value(p, g, z) == kin - crit - sub - lin - logt

    def test_path_energies_leave_the_path_unmodified(self):
        p = KERNEL_PARAMS["A"]
        g = lc.build_grid(3, 1.0, KERNEL_M)
        Z = kernel_paths()["generic"]
        before = Z.copy()
        lc.energy_value(p, g, Z)
        lc.energy_value(p, g, Z[16])
        assert np.array_equal(Z, before)

    def test_stacks_are_checked(self):
        p = KERNEL_PARAMS["A"]
        g = lc.build_grid(3, 1.0, KERNEL_M)
        Z = kernel_paths()["generic"]
        for bad in (np.nan, np.inf, -np.inf):
            Zb = Z.copy()
            Zb[KERNEL_P - 1, 7] = bad
            with pytest.raises(ValueError, match="non-finite"):
                g.h1_seminorm_sq(Zb)
            with pytest.raises(ValueError, match="non-finite"):
                lc.energy_value(p, g, Zb)
        # u^{2*} of one row overflows although the row is finite
        Zb = Z.copy()
        Zb[3] = 1e60
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="non-finite"):
                lc.energy_value(p, g, Zb)
        for shape in (
            (KERNEL_P, KERNEL_M - 1),
            (KERNEL_P, KERNEL_M + 1),
            (KERNEL_M, KERNEL_P),
            (2, KERNEL_P, KERNEL_M),
        ):
            with pytest.raises(ValueError, match="shape"):
                g.h1_seminorm_sq(np.ones(shape))
            with pytest.raises(ValueError, match="shape"):
                lc.energy_value(p, g, np.ones(shape))
