"""Acceptance gate: ten go/no-go checks with stated tolerances and budgets.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
Criteria 4 and 9 exercise the weak-log showcase configuration, whose
least-energy minimizer has amplitude about e^{-733}, below double range.
The pipeline solves it in scaled form u0 = e^{s0} v0 with an O(1) profile
v0 and carries c_rho (about -2.27e-640) as an mpmath.mpf, so both criteria
reach their checks.  Criterion 9 passes.  Criterion 4 fails on its gap
check alone: on these meshes the saddle is a bubble at the scale of the
grid (its peak grows from 161 at M=400 to 225 at M=800) with c_M above
c_rho + S^2/4, not a mesh-converged mountain-pass solution.
"""

import json
import math
import os
import sys
import time

import mpmath
import numpy as np
import pytest

import logcrit as lc
from logcrit.bubbles import DEFAULT_N_LIST
from logcrit.cli import main
from conftest import (
    INSTANCE_A,
    INSTANCE_B,
    SHOWCASE,
    random_dirichlet_profile,
    sobolev_rayleigh_quotient,
)


def report_line(num, desc, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {num}: {desc} -- {detail}")
    sys.stdout.flush()
    return ok


def levels_detail(report):
    return (
        f"c_rho {mpmath.nstr(report.c_rho, 6)}, c_M {report.c_M:.6f}, "
        f"gap bound {report.gap_bound:.6f}, gap_ok {report.gap_ok}"
    )


def failed_names(checks):
    failed = [name for name, ok in checks.items() if not ok]
    return "failed: " + ", ".join(failed) if failed else "all checks hold"


def test_criterion_1_principal_eigenvalue():
    t0 = time.perf_counter()
    g = lc.build_grid(3, 1.0, 800)
    lam1, _ = lc.principal_eigenpair(g)
    dt = time.perf_counter() - t0
    err = abs(lam1 - np.pi**2) / np.pi**2
    ok = err <= 1e-3 and dt < 1.0
    assert report_line(
        1,
        "principal eigenvalue of the unit ball (N=3) within 1e-3 of pi^2, under 1s",
        ok,
        f"rel err {err:.2e}, {dt:.2f}s",
    )


def test_criterion_2_sobolev_constant():
    t0 = time.perf_counter()
    worst = 0.0
    for N in (3, 4, 5):
        got = lc.best_sobolev_constant(N)
        ref = sobolev_rayleigh_quotient(N)
        worst = max(worst, abs(got - ref) / ref)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-3 and dt < 1.0
    assert report_line(
        2,
        "optimal Sobolev constant within 1e-3 of the closed form for N=3,4,5, under 1s",
        ok,
        f"worst rel err {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_3_directional_derivatives():
    param_sets = [
        dict(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0),
        dict(N=3, q=2.2, mu=2.0, nu=1.0, lam=3.0, theta=-0.5),
        dict(N=4, q=3.5, mu=0.5, nu=0.0, lam=-1.0, theta=-1.0),
        dict(N=5, q=3.0, mu=1.5, nu=-2.0, lam=5.0, theta=-0.1),
        dict(N=3, q=4.0, mu=1.0, nu=0.3, lam=0.5, theta=-3.0),
    ]
    rng = np.random.default_rng(1234)
    t0 = time.perf_counter()
    worst = 0.0
    eps = 1e-5
    for kw in param_sets:
        p = lc.ProblemParams(**kw)
        g = lc.build_grid(p.N, 1.0, 256)
        for _ in range(100):
            u = random_dirichlet_profile(g, rng, floor=0.2)
            v = rng.standard_normal(g.M)
            dnum = (
                lc.energy_value(p, g, u + eps * v)
                - lc.energy_value(p, g, u - eps * v)
            ) / (2 * eps)
            dana = float(np.dot(g.w, lc.gradient_field(p, g, u) * v))
            worst = max(worst, abs(dana - dnum) / max(1e-14, abs(dnum)))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 10.0
    assert report_line(
        3,
        "gradient matches central differences to 1e-6 over 5 x 100 random probes, under 10s",
        ok,
        f"worst rel err {worst:.2e}, {dt:.2f}s",
    )


def test_criterion_4_weak_log_showcase_pipeline():
    desc = (
        "two-level pipeline on the weak-log showcase (M=400): "
        "c_rho < 0 < c_M, residuals < 1e-8, ||u0|| < rho, c_M < c_rho + S^2/4, under 5min"
    )
    p = lc.ProblemParams(**SHOWCASE)
    t0 = time.perf_counter()
    try:
        report, _, g = lc.solve_problem(p, M=400)
    except lc.UsableRegionError as e:
        dt = time.perf_counter() - t0
        report_line(4, desc, False, f"UsableRegionError after {dt:.2f}s")
        pytest.fail(
            "the minimize stage found no negative-energy start for the showcase "
            f"even in scaled form ({e})"
        )
    dt = time.perf_counter() - t0
    S = lc.best_sobolev_constant(4)
    # ||u0|| = e^{s0} ||v0|| lies below double range; compare logarithms
    log_norm_u0 = math.log(math.sqrt(g.h1_seminorm_sq(report.v0))) + report.s0
    checks = {
        "ordering": report.c_rho < 0.0 < report.c_M,
        "residuals": report.residual0 < 1e-8 and report.residual_mp < 1e-8,
        "ball": log_norm_u0 < math.log(report.rho),
        "gap": report.c_M < report.c_rho + 0.25 * S**2,
        "time": dt < 300.0,
    }
    assert report_line(
        4,
        desc,
        all(checks.values()),
        f"{failed_names(checks)}; {levels_detail(report)}, {dt:.1f}s",
    )


def test_criterion_5_both_sign_regimes():
    t0 = time.perf_counter()
    pa = lc.ProblemParams(**INSTANCE_A)
    ra, _, ga = lc.solve_problem(pa, M=1024, n=64)
    va = lc.verify_two_level_structure(pa, ga, ra.u0, ra.u_mp, ra)
    pb = lc.ProblemParams(**INSTANCE_B)
    rb, _, gb = lc.solve_problem(pb, M=1024, n=64)
    vb = lc.verify_two_level_structure(pb, gb, rb.u0, rb.u_mp, rb)
    dt = time.perf_counter() - t0
    ok = (
        va.ok
        and vb.ok
        and ra.gap_ok
        and rb.gap_ok
        and ra.c_rho < 0 < ra.c_M
        and rb.c_rho < 0 < rb.c_M
        and dt < 600.0
    )
    assert report_line(
        5,
        "verified two-level solutions for nu < 0 (q=2.5, N=3) and nu > 0 (q=3, N=4), under 10min",
        ok,
        f"c_M {ra.c_M:.4f} / {rb.c_M:.4f}, {dt:.1f}s",
    )


def test_criterion_6_fiber_profile_of_the_minimizer():
    t0 = time.perf_counter()
    p = lc.ProblemParams(**INSTANCE_A)
    g = lc.build_grid(3, 1.0, 800)
    lam1, _ = lc.principal_eigenpair(g)
    rho = lc.region_membership(
        p, lc.best_sobolev_constant(3), lam1, lc.ball_volume(3, 1.0)
    ).rho
    u0, _ = lc.find_ball_minimizer(p, g, rho)
    prof = lc.g_profile(p, g, u0, t_max=2.0, samples=256)
    tmin = prof.t[np.argmin(prof.values)]
    dt = time.perf_counter() - t0
    ok = (
        prof.sign_changes <= 2
        and abs(tmin - 1.0) <= 0.05
        and bool(np.all(prof.values[prof.t <= 1.0] < 0.0))
        and dt < 5.0
    )
    assert report_line(
        6,
        "fiber profile of the ball minimizer: <= 2 slope sign changes, "
        "local minimum at t = 1 +- 0.05, negative on (0, 1], under 5s",
        ok,
        f"sign changes {prof.sign_changes}, t_min {tmin:.3f}, {dt:.2f}s",
    )


def test_criterion_7_inequality_certificates():
    t0 = time.perf_counter()
    box = lc.BoxSpec(0.5, 2.0)  # 1000 y samples, scanned at t = 0.5 and 2
    eps = 0.5
    A1 = lc.find_A1(box, eps)
    _, A2h = lc.find_f_constants(6.0, box)
    A3 = lc.find_A3(2.5, box)
    # the margins are checked on the full 1000 x 1000 grid, t interior included
    t = np.linspace(box.C1, box.C2, 1000)[:, None]
    y = box.y_grid()[None, :]
    m1 = y ** (2.0 + eps) + A1 * y**2 - lc.g_term(t, y)
    m2 = 0.5 * 36.0 * 2.0**4 * y**2 + A2h * 2.0 * y**5 - np.abs(lc.f_term(6.0, t, y))
    m3a = 2.0 * y**2.5 + A3 * y**2 - lc.f1_term(2.5, t, y)
    m3b = lc.f1_term(2.5, t, y) - 0.5 * y**2.5 + A3 * y**2
    points = m1.size + m2.size + m3a.size + m3b.size
    margins_pos = all(float(np.min(m)) > 0.0 for m in (m1, m2, m3a, m3b))
    # small-y curvature of g/y^2 against its limit ln C2^2 + 3
    limit = np.log(4.0) + 3.0
    got = float(lc.g_term(2.0, 1e-8)) / 1e-16
    curv_ok = abs(got - limit) / limit < 0.01
    got_f1 = float(lc.f1_term(3.0, 1.0, 1e-5)) / 1e-10
    curv_ok = curv_ok and abs(got_f1 - 3.0) / 3.0 < 0.01
    dt = time.perf_counter() - t0
    ok = points >= 4_000_000 and margins_pos and curv_ok and dt < 30.0
    assert report_line(
        7,
        "certified expansion bounds hold with positive margin on >= 1e6 "
        "scan points each, small-y curvature within 1%, under 30s",
        ok,
        f"{points} points, {dt:.2f}s",
    )


def test_criterion_8_bubble_norm_decay():
    t0 = time.perf_counter()
    slopes = {}
    for N in (3, 4, 5):
        slopes[N], _, _ = lc.fit_norm_exponent(N, DEFAULT_N_LIST, 2.0, 0.25)
    grad_ok = True
    for N in (3, 4, 5):
        s, _, _ = lc.fit_gap_exponent(N, (16, 32, 64, 128, 256), 0.25, "grad")
        grad_ok = grad_ok and s <= -0.9 * (N - 2)
    dt = time.perf_counter() - t0
    ok = (
        abs(slopes[3] + 1.0) <= 0.05
        and abs(slopes[5] + 2.0) <= 0.10
        and lc.log_corrected(4, 2.0)
        and abs(slopes[4] + 2.0) <= 0.10
        and grad_ok
        and dt < 30.0
    )
    assert report_line(
        8,
        "cut-off bubble L2 decay exponents (-1 at N=3, -2 at N=5, "
        "ln-corrected -2 at N=4) within 5%, gradient gap decay <= -0.9(N-2), under 30s",
        ok,
        f"slopes {slopes[3]:.3f}/{slopes[4]:.3f}/{slopes[5]:.3f}, {dt:.1f}s",
    )


def test_criterion_9_levels_stable_under_refinement():
    desc = (
        "weak-log showcase levels c_rho, c_M move < 2% from M=400 to M=800, under 15min"
    )
    p = lc.ProblemParams(**SHOWCASE)
    t0 = time.perf_counter()
    try:
        r400, _, _ = lc.solve_problem(p, M=400)
        r800, _, _ = lc.solve_problem(p, M=800)
    except lc.UsableRegionError as e:
        dt = time.perf_counter() - t0
        report_line(9, desc, False, f"UsableRegionError after {dt:.2f}s")
        pytest.fail(
            "refinement comparison needs the showcase levels to exist, but the "
            f"minimize stage found no negative-energy start even in scaled form ({e})"
        )
    dt = time.perf_counter() - t0
    checks = {
        "c_rho": abs(r800.c_rho - r400.c_rho) <= 0.02 * abs(r400.c_rho),
        "c_M": abs(r800.c_M - r400.c_M) <= 0.02 * abs(r400.c_M),
        "time": dt < 900.0,
    }
    assert report_line(
        9,
        desc,
        all(checks.values()),
        f"{failed_names(checks)}; M=400: {levels_detail(r400)}; "
        f"M=800: {levels_detail(r800)}; {dt:.1f}s",
    )


def test_criterion_10_solve_is_deterministic(tmp_path):
    t0 = time.perf_counter()
    cfg_path = os.path.join(str(tmp_path), "cfg.json")
    kw = dict(INSTANCE_A)
    kw["lambda"] = kw.pop("lam")
    kw.update(M=1024, n=64)
    with open(cfg_path, "w") as f:
        json.dump(kw, f)
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    code1 = main(["solve", "--config", cfg_path, "--out", out1])
    code2 = main(["solve", "--config", cfg_path, "--out", out2])
    same = True
    for name in ("solve.json", "u0.csv", "ump.csv", "path.csv"):
        with open(os.path.join(out1, name), "rb") as f1:
            with open(os.path.join(out2, name), "rb") as f2:
                same = same and f1.read() == f2.read()
    dt = time.perf_counter() - t0
    ok = code1 == 0 and code2 == 0 and same and dt < 120.0
    assert report_line(
        10,
        "solve command writes byte-identical outputs across repeated runs",
        ok,
        f"{dt:.1f}s",
    )
