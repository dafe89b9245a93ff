"""The benchmark's workloads: inputs drawn from a seed, one operation, its checks.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Operations call logcrit in-process,
through module attributes (`logcrit.cli.main`, `logcrit.solvers.solve_problem`)
so that the traced run's wrappers see every call.
"""

import csv
import json
import os

import numpy as np

import logcrit
import logcrit.cli
from checks import (
    Coeffs,
    ball_volume,
    check_certificates,
    check_region_row,
    check_scaled_minimizer,
    check_slopes,
    check_two_solutions,
    lambda1_continuum,
    require,
    sobolev_S,
)

# instance A and B of the test suite (tests/conftest.py).  A runs on the
# reference mesh M=1024, n=64.  B runs on M=512, n=32: on M=1024, n=64 one B
# solve takes 17 s (4217 path sweeps), more than a run can hold several times.
SOLVE_INSTANCES = {
    "A": dict(N=3, q=2.5, mu=1.0, nu=-0.5, theta=-2.0, R=1.0, M=1024, n=64, P=33,
              **{"lambda": 0.0}),
    "B": dict(N=4, q=3.0, mu=1.0, nu=8.0, theta=-1.0, R=1.0, M=512, n=32, P=33,
              **{"lambda": -20.0}),
}
# the weak-log showcase (the CLI default parameters) on M=200: the dilated
# descent does the same 2063 iterations as on M=400, and the solve takes
# 1.5 s instead of 5.2 s
SHOWCASE = dict(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-0.01, R=1.0)
SHOWCASE_M = 200
# region-scan: 4 x 4 x 4 x 2 = 128 rows at N=3, M=1024
SCAN_BASE = dict(N=3, q=2.5, R=1.0, M=1024)
SCAN_LISTS = {  # key: (count, low, high)
    "sweep_theta": (4, -3.0, -0.2),
    "sweep_lambda": (4, -8.0, 12.0),
    "sweep_nu": (4, -2.0, 3.0),
    "sweep_mu": (2, 0.5, 2.0),
}
CERTIFY_CASES = ((3, 2.5), (4, 3.0), (5, 2.8))
CERTIFY_POINTS = 32  # mpmath check points per inequality certificate


class OpFailed(Exception):
    """An operation did not complete: an exception or a nonzero exit code."""


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True)


def _cli(args):
    rc = logcrit.cli.main(args)
    if rc != 0:
        raise OpFailed(f"logcrit {' '.join(args)} exited {rc}")


def read_nodes(path):
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


def coeffs_of(cfg):
    return Coeffs(int(cfg["N"]), float(cfg["q"]), float(cfg["mu"]), float(cfg["nu"]),
                  float(cfg["lambda"]), float(cfg["theta"]))


# -- solve-ref ----------------------------------------------------------------


class SolveRef:
    name = "solve-ref"

    def build(self, seed, workdir):
        cfgs = {}
        for key, cfg in SOLVE_INSTANCES.items():
            cfgs[key] = os.path.join(workdir, f"solve-{key}.json")
            _write_json(cfgs[key], cfg)
        return cfgs

    def run(self, cfgs, outdir):
        for key, path in cfgs.items():
            _cli(["solve", "--config", path, "--out", os.path.join(outdir, key)])

    def check(self, cfgs, outdir, result, seed):
        measured = {}
        for key in cfgs:
            cfg = SOLVE_INSTANCES[key]
            d = os.path.join(outdir, key)
            with open(os.path.join(d, "solve.json")) as f:
                out = json.load(f)
            r0, u0 = read_nodes(os.path.join(d, "u0.csv"))
            r1, ump = read_nodes(os.path.join(d, "ump.csv"))
            h = cfg["R"] / cfg["M"]
            nodes = h * np.arange(cfg["M"])
            require(np.array_equal(r0, nodes) and np.array_equal(r1, nodes), "csv.nodes",
                    f"{key}: CSV nodes are not i*h for i < M={cfg['M']}")
            measured[key] = check_two_solutions(coeffs_of(cfg), cfg["R"], cfg["M"], u0, ump, out)
        return measured


# -- weak-log -----------------------------------------------------------------


class WeakLog:
    name = "weak-log"

    def build(self, seed, workdir):
        return logcrit.ProblemParams(**SHOWCASE)

    def run(self, p, outdir):
        report, _, g = logcrit.solvers.solve_problem(p, M=SHOWCASE_M)
        verdict = logcrit.solvers.verify_two_level_structure(
            p, g, report.v0, report.u_mp, report, s0=report.s0
        )
        return report, verdict

    def check(self, p, outdir, result, seed):
        report, verdict = result
        c = Coeffs(p.N, p.q, p.mu, p.nu, p.lam, p.theta)
        return check_scaled_minimizer(
            c, p.R, SHOWCASE_M, report.v0, report.s0, report.c_rho,
            report.u_mp, report.c_M, report.gap_ok, verdict.ok,
        )


# -- region-scan --------------------------------------------------------------


def scan_lists(seed):
    """Distinct values per swept key, drawn from the seed, rounded to 4 digits."""
    rng = np.random.default_rng([seed, 1])
    lists = {}
    for key, (count, lo, hi) in SCAN_LISTS.items():
        grid = np.round(np.linspace(lo, hi, 10001), 4)
        lists[key] = sorted(float(v) for v in rng.choice(grid, count, replace=False))
    return lists


def parse_sweep_row(r, N):
    """(coefficients, {in_M1..in_M4, alpha, rho}) of one sweep.csv row."""
    c = Coeffs(N, float(r["q"]), float(r["mu"]), float(r["nu"]),
               float(r["lambda"]), float(r["theta"]))
    row = {f"in_M{i}": r[f"in_M{i}"] == "true" for i in range(1, 5)}
    row["alpha"] = float(r["alpha"]) if r["alpha"] else None
    row["rho"] = float(r["rho"]) if r["rho"] else None
    return c, row


class RegionScan:
    name = "region-scan"

    def build(self, seed, workdir):
        path = os.path.join(workdir, "sweep.json")
        cfg = dict(SCAN_BASE, **scan_lists(seed))
        _write_json(path, cfg)
        return path

    def run(self, path, outdir):
        _cli(["sweep", "--config", path, "--out", outdir])

    def check(self, path, outdir, result, seed):
        with open(path) as f:
            cfg = json.load(f)
        with open(os.path.join(outdir, "sweep.csv")) as f:
            rows = list(csv.DictReader(f))
        N, R = cfg["N"], cfg["R"]
        S, lam1, vol = sobolev_S(N), lambda1_continuum(N, R), ball_volume(N, R)
        want = {
            (lam, mu, nu, th)
            for lam in cfg["sweep_lambda"] for mu in cfg["sweep_mu"]
            for nu in cfg["sweep_nu"] for th in cfg["sweep_theta"]
        }
        got = {tuple(float(r[k]) for k in ("lambda", "mu", "nu", "theta")) for r in rows}
        require(len(rows) == len(want) and got == want, "sweep.rows",
                f"{len(rows)} rows, expected the {len(want)}-row product of the lists")
        checked = 0
        for r in rows:
            c, row = parse_sweep_row(r, N)
            member = any(row[f"in_M{i}"] for i in range(1, 5))
            require(r["status"] == ("ok" if member else "no-membership"), "sweep.status",
                    f"status {r['status']!r} with membership {member}")
            checked += check_region_row(row, c, S, lam1, vol)
        return {"rows": len(rows), "checked": checked,
                "members": sum(r["status"] == "ok" for r in rows)}


# -- certify ------------------------------------------------------------------


class Certify:
    name = "certify"

    def build(self, seed, workdir):
        cfgs = {}
        for N, q in CERTIFY_CASES:
            cfgs[(N, q)] = os.path.join(workdir, f"verify-N{N}.json")
            _write_json(cfgs[(N, q)], {"N": N, "q": q})
        return cfgs

    def run(self, cfgs, outdir):
        for (N, q), path in cfgs.items():
            _cli(["verify", "--config", path, "--out", os.path.join(outdir, f"N{N}")])

    def check(self, cfgs, outdir, result, seed):
        rng = np.random.default_rng([seed, 2])
        worst = {}
        for N, q in cfgs:
            d = os.path.join(outdir, f"N{N}")
            with open(os.path.join(d, "certificates.json")) as f:
                certs = json.load(f)
            with open(os.path.join(d, "slopes.csv")) as f:
                slopes = [(float(r["p"]), float(r["slope"])) for r in csv.DictReader(f)]
            check_slopes(N, slopes)
            worst[N] = check_certificates(N, q, certs, rng, CERTIFY_POINTS)
        return {"min_slack": worst}


WORKLOADS = {w.name: w for w in (SolveRef(), WeakLog(), RegionScan(), Certify())}
