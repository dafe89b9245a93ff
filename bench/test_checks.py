"""Each output check passes on real outputs and fails on a perturbed copy.

    python3 -m pytest bench/test_checks.py -q

The fixtures run one operation of each workload (about 10 s in all).
"""

import csv
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def run_once(name, tmp_path_factory):
    w = workloads.WORKLOADS[name]
    d = tmp_path_factory.mktemp(name)
    (d / "out").mkdir()
    inputs = w.build(0, str(d))
    return w, inputs, d / "out", w.run(inputs, str(d / "out"))


def fails(name, fn, *args, **kwargs):
    with pytest.raises(CheckFailed, match=f"^{name}"):
        fn(*args, **kwargs)


# -- solve-ref ----------------------------------------------------------------


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    return run_once("solve-ref", tmp_path_factory)


def instance(solved, key):
    """(coeffs, grid, u0, ump, solve.json) of instance A or B."""
    _, _, out, _ = solved
    cfg = workloads.SOLVE_INSTANCES[key]
    with open(out / key / "solve.json") as f:
        report = json.load(f)
    _, u0 = workloads.read_nodes(out / key / "u0.csv")
    _, ump = workloads.read_nodes(out / key / "ump.csv")
    return workloads.coeffs_of(cfg), checks.fv_grid(cfg["N"], cfg["R"], cfg["M"]), u0, ump, report


def test_solve_ref_outputs_pass(solved):
    w, inputs, out, result = solved
    measured = w.check(inputs, str(out), result, 0)
    assert measured["A"]["u0"]["rel_residual"] < 1e-9


def test_perturbed_csv_fails_the_workload_check(solved, tmp_path):
    w, inputs, out, result = solved
    shutil.copytree(out, tmp_path / "out")
    path = tmp_path / "out" / "A" / "ump.csv"
    r, u = workloads.read_nodes(path)
    with open(path, "w") as f:
        f.write("r,value\n" + "".join("%.17g,%.17g\n" % (a, b) for a, b in zip(r, u * 1.001)))
    fails("ump.residual", w.check, inputs, str(tmp_path / "out"), result, 0)


def test_positive(solved):
    _, _, u0, _, _ = instance(solved, "A")
    checks.check_positive(u0, "u0")
    fails("u0.positive", checks.check_positive, np.append(u0[:-1], -1e-12), "u0")


def test_residual(solved):
    c, g, _, ump, _ = instance(solved, "A")
    checks.check_residual(g, c, ump, "ump")
    fails("ump.residual", checks.check_residual, g, c, ump * (1 + 1e-6), "ump")


def test_energy(solved):
    c, g, u0, _, rep = instance(solved, "A")
    checks.check_energy(g, c, u0, rep["c_rho"], "u0")
    fails("u0.energy", checks.check_energy, g, c, u0, rep["c_rho"] * (1 + 1e-8), "u0")


def test_nehari(solved):
    c, g, _, ump, rep = instance(solved, "A")
    r = checks.check_residual(g, c, ump, "ump")
    checks.check_nehari(g, c, ump, rep["c_M"], r, "ump")
    fails("ump.nehari", checks.check_nehari, g, c, ump, rep["c_M"] * (1 + 1e-8), r, "ump")


def test_nehari_bound_is_absolute_on_b(solved):
    # B's c_rho is about -8.6e-16: the identity holds to the residual bound,
    # far outside any small relative tolerance
    c, g, u0, _, rep = instance(solved, "B")
    r = checks.check_residual(g, c, u0, "u0")
    gap = checks.check_nehari(g, c, u0, rep["c_rho"], r, "u0")
    assert gap > 1e-6 * abs(rep["c_rho"])


def test_ball(solved):
    c, g, u0, _, _ = instance(solved, "A")
    rho = checks.reference_rho(c, 1.0)
    checks.check_ball(g, u0, 0.0, rho, "u0")
    s = math.log(rho / checks.h1_norm(g, u0)) + 1e-9
    fails("u0.ball", checks.check_ball, g, u0, s, rho, "u0")


def test_order_and_gap(solved):
    c, _, _, _, rep = instance(solved, "A")
    checks.check_order(rep["c_rho"], rep["c_M"])
    fails("levels.order", checks.check_order, -rep["c_rho"], rep["c_M"])
    assert checks.check_gap(c, rep["c_rho"], rep["c_M"], True)
    above = checks.gap_bound(c, rep["c_rho"], checks.sobolev_S(c.N)) * (1 + 1e-12)
    fails("levels.gap", checks.check_gap, c, rep["c_rho"], above, True)


# -- weak-log -----------------------------------------------------------------


@pytest.fixture(scope="module")
def weak(tmp_path_factory):
    return run_once("weak-log", tmp_path_factory)


def weak_args(weak, **over):
    _, p, _, (report, verdict) = weak
    args = dict(c=checks.Coeffs(p.N, p.q, p.mu, p.nu, p.lam, p.theta), R=p.R,
                M=workloads.SHOWCASE_M, v0=report.v0, s0=report.s0, c_rho=report.c_rho,
                ump=report.u_mp, c_M=report.c_M, gap_ok=report.gap_ok, verified=verdict.ok)
    args.update(over)
    return args


def test_weak_log_outputs_pass(weak):
    measured = checks.check_scaled_minimizer(**weak_args(weak))
    assert measured["v0"]["identity_rel"] < 1e-8


def test_scaled_nehari(weak):
    a = weak_args(weak)
    fails("v0.nehari", checks.check_scaled_minimizer,
          **weak_args(weak, c_rho=a["c_rho"] * 1.000001))
    g = checks.fv_grid(4, 1.0, a["M"])
    r = checks.check_residual(g, a["c"].dilated(a["s0"]), a["v0"], "v0")
    # a shifted scale exponent moves e^{2 s0} far more than the bound allows
    fails("v0.nehari", checks.check_scaled_nehari, g, a["c"], a["v0"], a["s0"] + 1e-3,
          a["c_rho"], r)


def test_scaled_residual(weak):
    a = weak_args(weak)
    fails("v0.residual", checks.check_scaled_minimizer, **weak_args(weak, v0=a["v0"] * 1.001))


def test_scaled_ball_gap_and_verdict(weak):
    a = weak_args(weak)
    g = checks.fv_grid(4, 1.0, a["M"])
    rho = checks.reference_rho(a["c"], 1.0)
    fails("v0.ball", checks.check_ball, g, a["v0"], math.log(rho), rho, "v0")
    fails("levels.gap", checks.check_scaled_minimizer, **weak_args(weak, gap_ok=not a["gap_ok"]))
    fails("report.verdict", checks.check_scaled_minimizer, **weak_args(weak, verified=False))


# -- region-scan --------------------------------------------------------------


@pytest.fixture(scope="module")
def scanned(tmp_path_factory):
    return run_once("region-scan", tmp_path_factory)


def scan_rows(scanned):
    _, path, out, _ = scanned
    with open(path) as f:
        cfg = json.load(f)
    with open(out / "sweep.csv") as f:
        rows = list(csv.DictReader(f))
    N, R = cfg["N"], cfg["R"]
    parsed = [workloads.parse_sweep_row(r, N) for r in rows]
    return parsed, (checks.sobolev_S(N), checks.lambda1_continuum(N, R), checks.ball_volume(N, R))


def test_region_scan_outputs_pass(scanned):
    w, path, out, result = scanned
    measured = w.check(path, str(out), result, 0)
    assert measured["rows"] == 128 and measured["checked"] > 120
    assert 0 < measured["members"] < 128


def test_region_membership_and_geometry(scanned):
    rows, consts = scan_rows(scanned)
    c, row = next((c, row) for c, row in rows if row["rho"] is not None)
    assert checks.check_region_row(row, c, *consts)
    member = next(k for k in row if k.startswith("in_M") and row[k])
    fails("regions.membership", checks.check_region_row, dict(row, **{member: False}), c, *consts)
    fails("regions.geometry", checks.check_region_row, dict(row, rho=row["rho"] * 1.001),
          c, *consts)
    fails("regions.geometry", checks.check_region_row, dict(row, alpha=row["alpha"] + 0.01),
          c, *consts)


def test_region_row_on_the_boundary_is_exempt(scanned):
    _, (S, lam1, vol) = scan_rows(scanned)
    # theta that puts the M2 test value of (N=3, mu=1, nu=0, lambda=0) at 0
    theta = -2 * S**1.5 / (3 * vol)
    c = checks.Coeffs(3, 2.5, 1.0, 0.0, 0.0, theta)
    ref = checks.region_reference(c, S, lam1, vol)
    assert checks.region_row_undecidable(ref, c, lam1)


def test_dropped_sweep_row_fails_the_workload_check(scanned, tmp_path):
    w, path, out, result = scanned
    lines = (out / "sweep.csv").read_text().splitlines()
    (tmp_path / "sweep.csv").write_text("\n".join(lines[:-1]) + "\n")
    fails("sweep.rows", w.check, path, str(tmp_path), result, 0)


# -- certify ------------------------------------------------------------------


@pytest.fixture(scope="module")
def certified(tmp_path_factory):
    return run_once("certify", tmp_path_factory)


def certs_of(certified, N):
    _, _, out, _ = certified
    with open(out / f"N{N}" / "certificates.json") as f:
        return json.load(f)


def test_certify_outputs_pass(certified):
    w, inputs, out, result = certified
    measured = w.check(inputs, str(out), result, 0)
    assert all(s > 0 for s in measured["min_slack"].values())


def test_slopes():
    checks.check_slopes(3, [(2.0, -0.99)])
    fails("slopes.rate", checks.check_slopes, 3, [(2.0, -1.06)])


@pytest.mark.parametrize("N, q", workloads.CERTIFY_CASES)
def test_every_inequality_certificate_can_fail(certified, N, q):
    for cert in certs_of(certified, N):
        if cert["lemma"] in checks.DECAY_THRESHOLDS:
            continue
        checks.check_inequality_certificate(N, q, cert, np.random.default_rng(1), 64)
        low = dict(cert, constant=-abs(cert["constant"]) - 100)
        fails("certificates.bound", checks.check_inequality_certificate, N, q, low,
              np.random.default_rng(1), 64)


def test_decay_certificate(certified):
    for cert in certs_of(certified, 3):
        if cert["lemma"] in checks.DECAY_THRESHOLDS:
            checks.check_decay_certificate(3, cert)
            thr = checks.DECAY_THRESHOLDS[cert["lemma"]](3)
            fails("certificates.decay", checks.check_decay_certificate, 3,
                  dict(cert, constant=thr + 0.01, margin=-0.01))


def test_missing_certificate_fails(certified):
    certs = certs_of(certified, 4)
    fails("certificates.lemmas", checks.check_certificates, 4, 3.0, certs[1:],
          np.random.default_rng(0), 4)
