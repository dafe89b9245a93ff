"""Batch front end: regions / solve / verify / sweep over flat JSON configs.

load_config parses each config key once, by its kind in CONFIG_KEYS, so the
subcommands read typed values; validate_numerics makes the range checks.
Exit codes: 0 success; 1 config error (a bad key or value, an integer
beyond 2^53 in magnitude, a grid over MAX_CELLS cells, a ridge check over
MAX_PATH_CELLS ray-sample cells, a bad certificate box, or the N >= 6,
nu <= 0 hypothesis gate, which a solving sweep applies to every row it
solves); 2 solve
precondition failed at run time (no region membership, unusable region, a
failed ridge check of the saddle); 3 verification failure (structure
check, gap bound, certificate margin, a non-finite scan supremum or slope
fit) or a saddle failure (no saddle found, or one at or below its level
floor or at the minimizer).  SOLVE_FAILURES maps each solve failure to its
stderr prefix, its exit code and its sweep row status.  Outputs use fixed
17-significant-digit floats and fixed orderings, so identical configs
produce byte-identical outputs.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, fields
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

# config key: (default, kind).  load_config parses each value once, by its
# kind; a list kind is (element kind, what the list holds)
CONFIG_KEYS = {
    # problem
    "N": (4, "integer"),
    "q": (3.0, "number"),
    "mu": (1.0, "number"),
    "nu": (0.0, "number"),
    "lambda": (0.0, "number"),
    "theta": (-0.01, "number"),
    "R": (1.0, "number"),
    # discretization / solver
    "M": (400, "integer"),
    "n": (16, "integer"),
    "r0": (None, "number or null"),  # null: R/4
    "P": (33, "integer"),
    # output
    "out": (".", "path"),
    # verify knobs
    "n_list": (list(bubbles.DEFAULT_N_LIST), ("integer", "scales")),
    "fit_p": ([2.0], ("number", "exponents")),
    "C1": (0.5, "number"),
    "C2": (2.0, "number"),
    "y_max": (1e3, "number"),
    "y_samples": (1000, "integer"),
    # sweep ranges (lists of values; empty = not swept)
    "sweep_lambda": ([], ("number", "numbers")),
    "sweep_mu": ([], ("number", "numbers")),
    "sweep_nu": ([], ("number", "numbers")),
    "sweep_q": ([], ("number", "numbers")),
    "sweep_theta": ([], ("number", "numbers")),
    "sweep_solve": (False, "flag"),
}

# the largest integer magnitude a config may hold: the range in which JSON
# integers interoperate (RFC 8259, section 6) and doubles hold every integer
MAX_INTEGER = 2**53

# each scalar kind: (what a value must be, whether x is one, x parsed)
SCALAR_KINDS = {
    "integer": (
        "an integer",
        lambda x: isinstance(x, (int, float)) and abs(x) <= MAX_INTEGER and x == int(x),
        int,
    ),
    "number": ("a number", lambda x: isinstance(x, (int, float)), float),
    "number or null": ("a number", lambda x: isinstance(x, (int, float)), float),
    "path": ("a path", lambda x: isinstance(x, str), str),
    "flag": ("true or false", lambda x: isinstance(x, bool), bool),
}

# the largest grid a config may ask for, in cells: M, and verify's fit grid
MAX_CELLS = 2**20
# the largest (P, M) stack of ray samples the ridge check may build
MAX_PATH_CELLS = 64 * MAX_CELLS

# sweep.csv columns; the first five are the row's problem parameters
SWEEP_COLUMNS = (
    "lambda", "mu", "nu", "q", "theta",
    "in_M1", "in_M2", "in_M3", "in_M4",
    "alpha", "rho", "c_rho", "c_M", "gap_ok", "status",
)
SWEEP_PARAMS = SWEEP_COLUMNS[:5]

# each solve failure: (class, solve's stderr prefix, solve's exit code, sweep
# row status).  The first matching row wins; a sweep row whose failure has
# no status of its own reads error:<type>.  The plain RuntimeError row holds
# the checks mountain_pass makes on the saddle it found: a level that is not
# positive or lies below alpha, or a saddle at u0.
SOLVE_FAILURES = (
    (solvers.UsableRegionError, "solve stage minimize", EXIT_GATE, "usable-region"),
    (solvers.PathCollapseError, "solve stage ridge", EXIT_GATE, "collapse"),
    (solvers.ConcentrationStallError, "solve stage saddle", EXIT_VERIFY, "stall"),
    (ValueError, "solve gate", EXIT_GATE, None),
    (RuntimeError, "solve stage saddle", EXIT_VERIFY, None),
)
SOLVE_FAILURE_TYPES = tuple(row[0] for row in SOLVE_FAILURES)


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
    if isinstance(obj, float):  # np.float64 too
        return pad + (fmt_float(obj) if math.isfinite(obj) else "null")
    if isinstance(obj, (np.floating, mpmath.mpf)):
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


def parse_value(key, value, kind):
    """The value of config key parsed by its kind, or a ConfigError naming key.

    A bool is a flag and nothing else; an integer may be an integral
    float.  Each entry of a list parses as its element kind.
    """
    if isinstance(kind, tuple):
        element, holds = kind
        if not isinstance(value, list):
            raise ConfigError(f"{key}: need a list of {holds}")
        return [parse_value(key, v, element) for v in value]
    if value is None and kind == "number or null":
        return None
    need, test, parse = SCALAR_KINDS[kind]
    try:
        if test(value) and isinstance(value, bool) == (kind == "flag"):
            return parse(value)
    except (OverflowError, ValueError):  # inf or nan, or an int beyond double range
        pass
    raise ConfigError(f"{key}: need {need}")


def load_config(path):
    """The config at path (None: all defaults), each key parsed by its kind."""
    raw = {}
    if path is not None:
        with open(path) as f:
            raw = json.load(f)
    if not isinstance(raw, dict):
        raise ConfigError("config must be a flat JSON object")
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return {
        key: parse_value(key, raw.get(key, default), kind)
        for key, (default, kind) in CONFIG_KEYS.items()
    }


def problem_from(cfg):
    try:
        return ProblemParams(
            N=cfg["N"], q=cfg["q"], mu=cfg["mu"], nu=cfg["nu"],
            lam=cfg["lambda"], theta=cfg["theta"], R=cfg["R"],
        )
    except ValueError as e:
        raise ConfigError(str(e)) from e


def solve_args(cfg):
    """The solve_problem keyword arguments M, n, P, r0 of a config."""
    return {key: cfg[key] for key in ("M", "n", "P", "r0")}


def _solve_failure(e):
    """The SOLVE_FAILURES row of the solve failure e."""
    return next(row for row in SOLVE_FAILURES if isinstance(e, row[0]))


def validate_numerics(cfg, p=None):
    """Reject out-of-range numeric and list keys; returns the certificate scan box.

    With the problem p, also reject fit_p exponents outside [1, 2*), a
    verify fit grid of more than MAX_CELLS cells, a box whose f_abs
    constant (2*^2/2) C2^(2*-2) overflows a double, and a box past the
    cancellation range of BoxSpec.check_span.
    """
    if cfg["M"] < 8:
        raise ConfigError("M: need at least 8 mesh cells")
    if cfg["M"] > MAX_CELLS:
        raise ConfigError(f"M: need at most {MAX_CELLS} mesh cells, got {cfg['M']}")
    if cfg["n"] < 1:
        raise ConfigError("n: bubble scale must be a positive integer")
    if cfg["P"] < 32:
        raise ConfigError("P: need at least 32 path nodes")
    if cfg["P"] * cfg["M"] > MAX_PATH_CELLS:
        raise ConfigError(
            f"P: need P * M <= {MAX_PATH_CELLS}, got {cfg['P'] * cfg['M']}"
        )
    if cfg["r0"] is not None and not (0.0 < 4.0 * cfg["r0"] <= cfg["R"]):
        raise ConfigError("r0: need 0 < 4*r0 <= R")
    try:
        bubbles.scale_ladder(cfg["n_list"])
    except ValueError as e:
        raise ConfigError(f"n_list: {e}") from e
    if p is not None:
        if not all(1.0 <= pexp < p.two_star for pexp in cfg["fit_p"]):
            raise ConfigError(f"fit_p: need exponents in [1, {p.two_star:g})")
        cells = bubbles.fit_grid_for(p.R, cfg["n_list"])
        if cells > MAX_CELLS:
            raise ConfigError(f"n_list: need a fit grid of at most {MAX_CELLS} cells, got {cells}")
    try:
        box = inequalities.BoxSpec(**{f.name: cfg[f.name] for f in fields(inequalities.BoxSpec)})
        if p is not None:
            box.abs_scale(p.two_star)
            box.check_span()
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
    g = build_grid(p.N, p.R, cfg["M"])
    S = g.sobolev
    lam1, _ = g.eigenpair
    vol = ball_volume(p.N, p.R)
    rep = region_membership(p, S, lam1, vol)
    out = _outdir(cfg, args)
    write_text(os.path.join(out, "regions.json"), canonical_json(asdict(rep)))
    return EXIT_OK if rep.any_membership() else EXIT_GATE


def cmd_solve(cfg, args):
    p = problem_from(cfg)
    validate_numerics(cfg)
    hypothesis_gate(p, args.explore_open_problem)
    out = _outdir(cfg, args)
    try:
        report, path, g = solvers.solve_problem(p, **solve_args(cfg))
    except SOLVE_FAILURE_TYPES as e:
        _, prefix, code, _ = _solve_failure(e)
        print(f"{prefix}: {e}", file=sys.stderr)
        return code

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
        "sign_changes": verdict.sign_changes,
        "t_local_min": verdict.t_local_min,
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
    box_payload = asdict(box)
    grid_sizes = [box.y_samples]
    sups = inequalities.scan_box(box, p.q - 2.0, p.two_star, p.q)
    certs = []
    for lemma, sup in sups.items():
        constant = inequalities.certified_constant(sup)
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


def _decay_certificates(p, r0):
    """Quadrature-based decay rates of the two critical bubble norms."""
    certs = []
    for lemma, norm, thresh in (
        ("grad_norm_gap_decay", "grad", -0.9 * (p.N - 2.0)),
        ("critical_norm_gap_decay", "crit", -(p.N - 1.0)),
    ):
        slope, _, _ = bubbles.fit_gap_exponent(p.N, GAP_N_LIST, r0, norm)
        certs.append(
            {
                "lemma": lemma,
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
    r0 = p.R / 4.0 if cfg["r0"] is None else cfg["r0"]

    certs, sups = _inequality_certificates(p, box)
    certs += _decay_certificates(p, r0)
    write_text(os.path.join(out, "certificates.json"), canonical_json(certs))

    n_list = cfg["n_list"]
    g = build_grid(p.N, p.R, bubbles.fit_grid_for(p.R, n_list))
    rows = ["N,p,slope,intercept,residual"]
    slope_ok = True
    for pexp in cfg["fit_p"]:
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


def _sweep_instance(p, row, geometry, solve_kw):
    """Fill the row record; geometry is (S, lambda1, volume) of the shared grid.

    solve_kw holds the solve arguments of a solving sweep, None otherwise.
    """
    rep = region_membership(p, *geometry)
    for name in ("in_M1", "in_M2", "in_M3", "in_M4"):
        row[name] = "true" if getattr(rep, name) else "false"
    if rep.alpha is not None:
        row["alpha"] = fmt_float(rep.alpha)
        row["rho"] = fmt_float(rep.rho)
    if not rep.any_membership():
        row["status"] = "no-membership"
        return
    if solve_kw is None:
        return
    try:
        report, _, _ = solvers.solve_problem(p, **solve_kw)
    except SOLVE_FAILURE_TYPES as e:
        *_, status = _solve_failure(e)
        row["status"] = status or "error:%s" % type(e).__name__
        params = " ".join("%s=%s" % (k, row[k]) for k in SWEEP_PARAMS)
        print(f"sweep row {params}: {row['status']}: {e}", file=sys.stderr)
        return
    row["c_rho"] = fmt_level(report.c_rho)
    row["c_M"] = fmt_float(report.c_M)
    row["gap_ok"] = "true" if report.gap_ok else "false"


def _sweep_rows(cfg, ranges):
    """Each row's config, and its problem (None if its parameters do not validate)."""
    keys = sorted(ranges)  # lexicographic in parameter names, then values
    for combo in product(*(ranges[k] for k in keys)):
        sub = dict(cfg, **dict(zip(keys, combo)))
        try:
            p = problem_from(sub)
        except ConfigError:
            p = None
        yield sub, p


def cmd_sweep(cfg, args):
    validate_numerics(cfg)
    ranges = {k: sorted(cfg["sweep_" + k]) for k in SWEEP_PARAMS if cfg["sweep_" + k]}
    if not ranges:
        raise ConfigError("sweep: at least one sweep_* range must be nonempty")
    solve_kw = solve_args(cfg) if cfg["sweep_solve"] else None
    if solve_kw is not None:  # every row to solve passes solve's gate before any runs
        for _, p in _sweep_rows(cfg, ranges):
            if p is not None:
                hypothesis_gate(p, args.explore_open_problem)
    out = _outdir(cfg, args)

    # N, R and M are not swept, so every row shares one grid; it is built
    # at the first row whose parameters validate (a config with N < 3 or
    # R <= 0 has none, and yields invalid-params rows only)
    geometry = None
    lines = [",".join(SWEEP_COLUMNS)]
    for sub, p in _sweep_rows(cfg, ranges):
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update({k: fmt_float(sub[k]) for k in SWEEP_PARAMS}, status="ok")
        if p is None:
            row["status"] = "invalid-params"
        else:
            if geometry is None:
                g = build_grid(p.N, p.R, cfg["M"])
                geometry = (g.sobolev, g.eigenpair[0], ball_volume(p.N, p.R))
            _sweep_instance(p, row, geometry, solve_kw)
        lines.append(",".join(row[c] for c in SWEEP_COLUMNS))
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
    except (ConfigError, OSError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
