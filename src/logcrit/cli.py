"""Batch front end: regions / solve / verify / sweep over flat JSON configs.

Exit codes: 0 success; 1 config error (including a bad certificate box
and the N >= 6, nu <= 0 hypothesis gate); 2 solve precondition failed at
run time (no region membership, unusable region, a failed ridge check
of the saddle); 3 verification failure (structure check, gap bound,
certificate margin, a non-finite scan supremum or slope fit) or no saddle
(ConcentrationStallError: no sign change of the shooting map led Newton
to a positive critical point of Morse index 1).
All emitted files use fixed 17-significant-digit float formatting and
fixed orderings, so identical configs produce byte-identical outputs.
"""

import argparse
import json
import math
import os
import sys
from itertools import product

import mpmath
import numpy as np

from . import bubbles, inequalities, solvers
from .energy import ProblemParams
from .grid import ball_volume, build_grid, save_grid_function
from .regions import region_membership

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_GATE = 2
EXIT_VERIFY = 3

GAP_N_LIST = (16, 32, 64, 128, 256)  # quadrature-based decay fits

CONFIG_DEFAULTS = {
    # problem
    "N": 4,
    "q": 3.0,
    "mu": 1.0,
    "nu": 0.0,
    "lambda": 0.0,
    "theta": -0.01,
    "R": 1.0,
    # discretization / solver
    "M": 400,
    "n": 16,
    "r0": None,  # defaults to R/4
    "P": 33,
    # output
    "out": ".",
    # verify knobs
    "n_list": list(bubbles.DEFAULT_N_LIST),
    "fit_p": [2.0],
    "C1": 0.5,
    "C2": 2.0,
    "y_max": 1e3,
    "t_samples": 1000,
    "y_samples": 1000,
    # sweep ranges (lists of values; empty = not swept)
    "sweep_lambda": [],
    "sweep_mu": [],
    "sweep_nu": [],
    "sweep_q": [],
    "sweep_theta": [],
    "sweep_solve": False,
}

SWEEP_KEYS = ("sweep_lambda", "sweep_mu", "sweep_nu", "sweep_q", "sweep_theta")

# sweep row status of each solve failure; other failures read error:<type>
SOLVE_FAILURE_STATUS = (
    (solvers.UsableRegionError, "usable-region"),
    (solvers.PathCollapseError, "collapse"),
    (solvers.ConcentrationStallError, "stall"),
)


class ConfigError(ValueError):
    pass


# -- deterministic serialization ------------------------------------------


def fmt_float(x):
    return "%.17g" % float(x)


def fmt_level(x):
    """A float or mpmath.mpf level as a lossless JSON/CSV number literal.

    Values that a double holds exactly print as fmt_float does; others (a
    level like -2.27e-640 from a dilated minimizer) print 17 significant
    digits with an unbounded exponent.
    """
    if mpmath.mpf(float(x)) == x:
        return fmt_float(x)
    return mpmath.nstr(mpmath.mpf(x), 17, min_fixed=0, max_fixed=0)


def canonical_json(obj, indent=0):
    """JSON text with %.17g floats, sorted keys, stable layout.

    JSON has no literal for nan or infinity, so a non-finite float is
    written as null.
    """
    pad = " " * indent
    if isinstance(obj, dict):
        items = [
            '%s "%s": %s' % (pad, k, canonical_json(obj[k], indent + 1).lstrip())
            for k in sorted(obj)
        ]
        return "%s{\n%s\n%s}" % (pad, ",\n".join(items), pad)
    if isinstance(obj, (list, tuple)):
        items = [canonical_json(v, indent + 1) for v in obj]
        return "%s[\n%s\n%s]" % (pad, ",\n".join(items), pad)
    if isinstance(obj, bool):
        return pad + ("true" if obj else "false")
    if obj is None:
        return pad + "null"
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating, mpmath.mpf)):
        return pad + (fmt_level(obj) if mpmath.isfinite(obj) else "null")
    if isinstance(obj, str):
        return pad + json.dumps(obj)
    raise TypeError(f"not serializable: {obj!r}")


def write_text(path, text):
    with open(path, "w") as f:
        f.write(text)
        if not text.endswith("\n"):
            f.write("\n")


# -- configuration ---------------------------------------------------------


def load_config(path):
    if path is None:
        raw = {}
    else:
        with open(path) as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    cfg = dict(CONFIG_DEFAULTS)
    cfg.update(raw)
    return cfg


def problem_from(cfg):
    try:
        return ProblemParams(
            N=_config_int(cfg, "N"),
            q=float(cfg["q"]),
            mu=float(cfg["mu"]),
            nu=float(cfg["nu"]),
            lam=float(cfg["lambda"]),
            theta=float(cfg["theta"]),
            R=float(cfg["R"]),
        )
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _config_number(cfg, key):
    try:
        return float(cfg[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key}: need a number") from None


def _config_int(cfg, key):
    """cfg[key] as an int; a bool, a non-number or a non-integral float is a ConfigError."""
    n = cfg[key]
    if (
        isinstance(n, bool)
        or not isinstance(n, (int, float))
        or (isinstance(n, float) and not n.is_integer())
    ):
        raise ConfigError(f"{key}: need an integer")
    return int(n)


def validate_numerics(cfg, p=None):
    """Reject bad numeric keys; returns the certificate scan box.

    With the problem p, also reject a box whose f_abs constant
    (2*^2/2) C2^(2*-2) overflows a double.
    """
    if _config_int(cfg, "M") < 8:
        raise ConfigError("M: need at least 8 mesh cells")
    if _config_int(cfg, "n") < 1:
        raise ConfigError("n: bubble scale must be a positive integer")
    if _config_int(cfg, "P") < 32:
        raise ConfigError("P: need at least 32 path nodes")
    r0 = cfg["r0"]
    if r0 is not None and 4.0 * float(r0) > float(cfg["R"]):
        raise ConfigError("r0: need 4*r0 <= R")
    if len(cfg["n_list"]) < 5:
        raise ConfigError("n_list: need at least 5 scales")
    try:
        box = inequalities.BoxSpec(
            C1=_config_number(cfg, "C1"),
            C2=_config_number(cfg, "C2"),
            y_max=_config_number(cfg, "y_max"),
            t_samples=_config_int(cfg, "t_samples"),
            y_samples=_config_int(cfg, "y_samples"),
        )
        if p is not None:
            box.abs_scale(p.two_star)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    return box


def hypothesis_gate(p, explore):
    """Saddle-branch dimension restriction for nonpositive nu."""
    if p.nu <= 0 and p.N >= 6 and not explore:
        raise ConfigError(
            "hypothesis violated: the saddle existence branch for nu <= 0 "
            "requires 3 <= N <= 5; pass --explore-open-problem to run anyway"
        )


def _outdir(cfg, args):
    out = args.out if args.out is not None else cfg["out"]
    os.makedirs(out, exist_ok=True)
    return out


# -- subcommands ------------------------------------------------------------


def cmd_regions(cfg, args):
    p = problem_from(cfg)
    validate_numerics(cfg)
    g = build_grid(p.N, p.R, int(cfg["M"]))
    S = g.sobolev
    lam1, _ = g.eigenpair
    vol = ball_volume(p.N, p.R)
    rep = region_membership(p, S, lam1, vol)
    out = _outdir(cfg, args)
    payload = {
        "in_M1": rep.in_M1,
        "in_M2": rep.in_M2,
        "in_M3": rep.in_M3,
        "in_M4": rep.in_M4,
        "S": rep.S,
        "lambda1": rep.lambda1,
        "volume": rep.volume,
        "alpha": rep.alpha,
        "rho": rep.rho,
        "applicable_case": rep.applicable_case,
        "geometry_case": rep.geometry_case,
    }
    write_text(os.path.join(out, "regions.json"), canonical_json(payload))
    return EXIT_OK if rep.any_membership() else EXIT_GATE


def cmd_solve(cfg, args):
    p = problem_from(cfg)
    validate_numerics(cfg)
    hypothesis_gate(p, args.explore_open_problem)
    out = _outdir(cfg, args)
    r0 = cfg["r0"]
    try:
        report, path, g = solvers.solve_problem(
            p,
            M=int(cfg["M"]),
            n=int(cfg["n"]),
            P=int(cfg["P"]),
            r0=None if r0 is None else float(r0),
        )
    except ValueError as e:
        print(f"solve gate: {e}", file=sys.stderr)
        return EXIT_GATE
    except solvers.UsableRegionError as e:
        print(f"solve stage minimize: {e}", file=sys.stderr)
        return EXIT_GATE
    except solvers.PathCollapseError as e:
        print(f"solve stage ridge: {e}", file=sys.stderr)
        return EXIT_GATE
    except RuntimeError as e:
        # ConcentrationStallError, and the checks mountain_pass makes on the
        # saddle it found: a level that is not positive or lies below alpha,
        # or a saddle at u0
        print(f"solve stage saddle: {e}", file=sys.stderr)
        return EXIT_VERIFY

    verdict = solvers.verify_two_level_structure(
        p, g, report.v0, report.u_mp, report, s0=report.s0
    )
    payload = {
        "c_rho": report.c_rho,
        "residual0": report.residual0,
        "c_M": report.c_M,
        "residual_mp": report.residual_mp,
        "gap_bound": report.gap_bound,
        "gap_ok": report.gap_ok,
        "sign_changes": report.sign_changes,
        "t_local_min": report.t_local_min,
        "rho": report.rho,
        "alpha": report.alpha,
        "iters_minimize": report.iters_minimize,
        "iters_newton0": report.iters_newton0,
        "iters_path": report.iters_path,
        "iters_newton_path": report.iters_newton_path,
        "verified": verdict.ok,
        "failures": list(verdict.failures),
        "exploratory": bool(args.explore_open_problem),
    }
    write_text(os.path.join(out, "solve.json"), canonical_json(payload))
    save_grid_function(os.path.join(out, "u0.csv"), g, report.u0)
    save_grid_function(os.path.join(out, "ump.csv"), g, report.u_mp)
    energies = [fmt_float(e) for e in path.energies]
    if report.s0 != 0.0:
        # the path starts at u0 = e^{s0} v0, whose level underflows in double
        energies[0] = fmt_level(report.c_rho)
    lines = ["node_index,t,energy"]
    for k, (t, e) in enumerate(zip(path.t, energies)):
        lines.append("%d,%s,%s" % (k, fmt_float(t), e))
    write_text(os.path.join(out, "path.csv"), "\n".join(lines))
    return EXIT_OK if (verdict.ok and report.gap_ok) else EXIT_VERIFY


def _inequality_certificates(p, box):
    """The scan certificates on box, and each lemma's scan supremum."""
    box_payload = {
        "C1": box.C1,
        "C2": box.C2,
        "y_max": box.y_max,
        "t_samples": box.t_samples,
        "y_samples": box.y_samples,
    }
    grid_sizes = [box.t_samples, box.y_samples]
    sups = {"g_upper": inequalities.scan_sup_A1(box, p.q - 2.0)}
    sup_low, sup_hat = inequalities.scan_sup_f(p.two_star, box)
    if sup_low is not None:
        sups["f_lower"] = sup_low
    sups["f_abs"] = sup_hat
    sups["f1_sandwich"] = inequalities.scan_sup_A3(p.q, box)
    certs = []
    for lemma, sup in sups.items():
        constant = inequalities.HEADROOM * max(sup, 0.0)
        certs.append(
            {
                "lemma": lemma,
                "box": box_payload,
                "constant": constant,
                "margin": constant - sup,
                "grid_sizes": grid_sizes,
            }
        )
    return certs, sups


def _decay_certificates(p, cfg):
    """Quadrature-based decay rates of the two critical bubble norms."""
    r0 = cfg["r0"]
    r0 = p.R / 4.0 if r0 is None else float(r0)
    certs = []
    slope, _, _ = bubbles.fit_gap_exponent(p.N, GAP_N_LIST, r0, "grad")
    thresh = -0.9 * (p.N - 2.0)
    certs.append(
        {
            "lemma": "grad_norm_gap_decay",
            "box": {"n_list": list(GAP_N_LIST), "r0": r0},
            "constant": slope,
            "margin": thresh - slope,
            "grid_sizes": [len(GAP_N_LIST)],
        }
    )
    slope, _, _ = bubbles.fit_gap_exponent(p.N, GAP_N_LIST, r0, "crit")
    thresh = -(p.N - 1.0)
    certs.append(
        {
            "lemma": "critical_norm_gap_decay",
            "box": {"n_list": list(GAP_N_LIST), "r0": r0},
            "constant": slope,
            "margin": thresh - slope,
            "grid_sizes": [len(GAP_N_LIST)],
        }
    )
    return certs


def cmd_verify(cfg, args):
    p = problem_from(cfg)
    box = validate_numerics(cfg, p)
    out = _outdir(cfg, args)

    certs, sups = _inequality_certificates(p, box)
    certs += _decay_certificates(p, cfg)
    write_text(os.path.join(out, "certificates.json"), canonical_json(certs))

    n_list = [int(n) for n in cfg["n_list"]]
    M = bubbles.fit_grid_for(p.R, n_list)
    g = build_grid(p.N, p.R, M)
    r0 = cfg["r0"]
    r0 = p.R / 4.0 if r0 is None else float(r0)
    rows = ["N,p,slope,intercept,residual"]
    slope_ok = True
    for pexp in cfg["fit_p"]:
        pexp = float(pexp)
        slope, inter, resid = bubbles.fit_norm_exponent(g, n_list, pexp, r0=r0)
        rows.append(
            "%d,%s,%s,%s,%s"
            % (p.N, fmt_float(pexp), fmt_float(slope), fmt_float(inter), fmt_float(resid))
        )
        expected = bubbles.expected_lp_exponent(p.N, pexp)
        if abs(slope - expected) > 0.05 * abs(expected):
            slope_ok = False
            print(
                f"slope fit p={pexp:g}: {slope:.4f} vs expected {expected:g}",
                file=sys.stderr,
            )
    write_text(os.path.join(out, "slopes.csv"), "\n".join(rows))

    bad = False
    for c in certs:
        lemma = c["lemma"]
        if lemma in sups and not math.isfinite(sups[lemma]):
            bad = True
            print(
                f"certificate {lemma}: scan supremum {sups[lemma]} is not finite "
                "(the scan left double range on this box)",
                file=sys.stderr,
            )
        elif not (c["margin"] > 0):
            bad = True
            print(f"certificate margin not positive: {lemma}", file=sys.stderr)
    return EXIT_OK if (not bad and slope_ok) else EXIT_VERIFY


def _sweep_params(cfg, combo, keys):
    """The row's config, its output record, and its ProblemParams (None when invalid)."""
    sub = dict(cfg)
    for k, v in zip(keys, combo):
        sub[k.replace("sweep_", "")] = v
    row = {k.replace("sweep_", ""): v for k, v in zip(keys, combo)}
    base = {
        "lambda": float(sub["lambda"]),
        "mu": float(sub["mu"]),
        "nu": float(sub["nu"]),
        "q": float(sub["q"]),
        "theta": float(sub["theta"]),
    }
    base.update(row)
    out = {
        "params": base,
        "in_M1": "",
        "in_M2": "",
        "in_M3": "",
        "in_M4": "",
        "alpha": "",
        "rho": "",
        "c_rho": "",
        "c_M": "",
        "gap_ok": "",
        "status": "ok",
    }
    N = _config_int(sub, "N")  # not swept: a config error, not a row status
    try:
        p = ProblemParams(
            N=N,
            q=base["q"],
            mu=base["mu"],
            nu=base["nu"],
            lam=base["lambda"],
            theta=base["theta"],
            R=float(sub["R"]),
        )
    except ValueError:
        out["status"] = "invalid-params"
        return sub, out, None
    return sub, out, p


def _sweep_instance(p, sub, out, geometry, do_solve):
    """Fill the row record out; geometry is (S, lambda1, volume) of the shared grid."""
    rep = region_membership(p, *geometry)
    for name in ("in_M1", "in_M2", "in_M3", "in_M4"):
        out[name] = "true" if getattr(rep, name) else "false"
    if rep.alpha is not None:
        out["alpha"] = fmt_float(rep.alpha)
        out["rho"] = fmt_float(rep.rho)
    if not rep.any_membership():
        out["status"] = "no-membership"
        return
    if do_solve:
        try:
            report, _, _ = solvers.solve_problem(
                p, M=int(sub["M"]), n=int(sub["n"]), P=int(sub["P"])
            )
            out["c_rho"] = fmt_level(report.c_rho)
            out["c_M"] = fmt_float(report.c_M)
            out["gap_ok"] = "true" if report.gap_ok else "false"
        except (ValueError, RuntimeError) as e:
            out["status"] = next(
                (status for cls, status in SOLVE_FAILURE_STATUS if isinstance(e, cls)),
                "error:%s" % type(e).__name__,
            )
            params = " ".join("%s=%s" % (k, fmt_float(v)) for k, v in out["params"].items())
            print(f"sweep row {params}: {out['status']}: {e}", file=sys.stderr)


def cmd_sweep(cfg, args):
    validate_numerics(cfg)
    ranges = {k: sorted(float(v) for v in cfg[k]) for k in SWEEP_KEYS if cfg[k]}
    if not ranges:
        raise ConfigError("sweep: at least one sweep_* range must be nonempty")
    keys = sorted(ranges)  # lexicographic in parameter names, then values
    combos = list(product(*(ranges[k] for k in keys)))
    do_solve = bool(cfg["sweep_solve"])
    out = _outdir(cfg, args)

    # N, R and M are not swept, so every row shares one grid; it is built
    # at the first row whose parameters validate (a config with N < 3 or
    # R <= 0 has none, and yields invalid-params rows only)
    geometry = None
    results = []
    for combo in combos:
        sub, row, p = _sweep_params(cfg, combo, keys)
        if p is not None:
            if geometry is None:
                g = build_grid(p.N, p.R, int(sub["M"]))
                geometry = (g.sobolev, g.eigenpair[0], ball_volume(p.N, p.R))
            _sweep_instance(p, sub, row, geometry, do_solve)
        results.append(row)

    header = "lambda,mu,nu,q,theta,in_M1,in_M2,in_M3,in_M4,alpha,rho,c_rho,c_M,gap_ok,status"
    lines = [header]
    for row in results:
        pr = row["params"]
        lines.append(
            ",".join(
                [
                    fmt_float(pr["lambda"]),
                    fmt_float(pr["mu"]),
                    fmt_float(pr["nu"]),
                    fmt_float(pr["q"]),
                    fmt_float(pr["theta"]),
                    row["in_M1"],
                    row["in_M2"],
                    row["in_M3"],
                    row["in_M4"],
                    row["alpha"],
                    row["rho"],
                    row["c_rho"],
                    row["c_M"],
                    row["gap_ok"],
                    row["status"],
                ]
            )
        )
    write_text(os.path.join(out, "sweep.csv"), "\n".join(lines))
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="logcrit",
        description="radial two-solution solver and verification suite",
        epilog="exit codes: 0 ok, 1 config error, 2 solve gate, "
        "3 verification failure or no saddle",
    )
    parser.add_argument("command", choices=["regions", "solve", "verify", "sweep"])
    parser.add_argument("--config", default=None, help="flat JSON config file")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--explore-open-problem",
        action="store_true",
        help="unlock N >= 6 with nu <= 0 (exploratory; outside proven range)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        handler = {
            "regions": cmd_regions,
            "solve": cmd_solve,
            "verify": cmd_verify,
            "sweep": cmd_sweep,
        }[args.command]
        return handler(cfg, args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
