import json
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import logcrit as lc
from logcrit.cli import ConfigError, load_config, main, validate_numerics
from conftest import INSTANCE_A


def write_config(tmp_path, name="cfg.json", **kw):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as f:
        json.dump(kw, f)
    return path


def instance_a_config(**over):
    kw = dict(INSTANCE_A)
    kw["lambda"] = kw.pop("lam")
    kw.update(M=1024, n=64, P=33)
    kw.update(over)
    return kw


def test_regions_writes_report_and_exits_zero(tmp_path):
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config())
    assert main(["regions", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "regions.json")) as f:
        rep = json.load(f)
    assert rep["in_M1"] is True and rep["in_M2"] is True
    assert rep["applicable_case"] == "nu_nonpositive"
    assert rep["alpha"] > 0 and rep["rho"] > 0
    # the RegionReport fields, which bench/checks.py reads
    assert set(rep) == {
        "in_M1", "in_M2", "in_M3", "in_M4", "S", "lambda1", "volume",
        "alpha", "rho", "applicable_case", "geometry_case",
    }


def test_regions_without_membership_exits_two(tmp_path):
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(theta=-1e6))
    assert main(["regions", "--config", cfg, "--out", tmp]) == 2
    with open(os.path.join(tmp, "regions.json")) as f:
        rep = json.load(f)
    assert rep["alpha"] is None and rep["rho"] is None


def test_invalid_exponent_exits_one(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=5.0)
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    assert "q" in capsys.readouterr().err


def test_unknown_config_key_exits_one(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, qq=2.5)
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    assert "qq" in capsys.readouterr().err


def test_removed_solver_tolerance_key_exits_one(tmp_path, capsys):
    # the solver's path tolerances are module constants, not config keys
    tmp = str(tmp_path)
    cfg = write_config(tmp, path_gtol=1e-3)
    assert main(["solve", "--config", cfg, "--out", tmp]) == 1
    err = capsys.readouterr().err
    assert "unknown config keys" in err and "path_gtol" in err


def test_removed_t_samples_key_exits_one(tmp_path, capsys):
    # a box scan reads only t = C1 and t = C2, so the t grid has no size
    tmp = str(tmp_path)
    cfg = write_config(tmp, t_samples=1000)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err == "config error: unknown config keys: t_samples\n"
    assert os.listdir(tmp) == ["cfg.json"]


def test_malformed_json_exits_one(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = os.path.join(tmp, "bad.json")
    with open(cfg, "w") as f:
        f.write("{not json")
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    assert "config error" in capsys.readouterr().err


def test_open_problem_gate(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=6, q=2.2, nu=-1.0)
    assert main(["solve", "--config", cfg, "--out", tmp]) == 1
    err = capsys.readouterr().err
    assert "hypothesis" in err and "--explore-open-problem" in err
    # the unlock flag gets past the gate; these parameters then fail the
    # membership check instead
    cfg2 = write_config(tmp, name="c2.json", N=6, q=2.2, nu=-1.0, theta=-1e6)
    code = main(
        ["solve", "--config", cfg2, "--out", tmp, "--explore-open-problem"]
    )
    assert code == 2
    assert "membership" in capsys.readouterr().err


def test_solving_sweep_rows_pass_the_open_problem_gate(tmp_path, capsys):
    # every row that a solving sweep solves passes solve's gate before any
    # row runs; a sweep that does not solve is not gated, as regions is not
    over = dict(N=6, q=2.5, nu=-0.5, theta=-2.0, M=64, n=4, sweep_theta=[-2.0])
    cfg = write_config(str(tmp_path), **over, sweep_solve=True)
    out = str(tmp_path / "out")
    for command in ("solve", "sweep"):
        assert main([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: hypothesis violated")
        assert "--explore-open-problem" in err
        assert not os.path.exists(out)
    assert main(["sweep", "--config", cfg, "--out", out, "--explore-open-problem"]) == 0
    with open(os.path.join(out, "sweep.csv")) as f:
        row = f.read().splitlines()[1].split(",")
    assert row[-1] == "ok" and row[12] != ""  # c_M of a solved row
    cfg = write_config(str(tmp_path), name="c2.json", **over)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "unsolved")]) == 0


def test_unusable_region_exits_two(tmp_path, capsys):
    # showcase parameters with a subnormal log coefficient: memberships
    # hold, but the negative-energy start lies below floating-point range
    # and the amplitude-dilation exponent is not a finite double
    tmp = str(tmp_path)
    cfg = write_config(tmp, M=400, theta=-1e-320)
    assert main(["solve", "--config", cfg, "--out", tmp]) == 2
    err = capsys.readouterr().err
    assert "minimize" in err and "dilation exponent" in err


def test_saddle_below_the_level_floor_exits_three(tmp_path, capsys):
    # on this coarse grid the first positive index-1 limit of the scan has
    # level 1.858, below the floor alpha = 2.179, and mountain_pass rejects it
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(theta=-1.0, M=64, n=16))
    assert main(["solve", "--config", cfg, "--out", tmp]) == 3
    err = capsys.readouterr().err
    assert err.startswith("solve stage saddle: saddle level 1.858")
    assert "below the geometry floor 2.179" in err
    assert not os.path.exists(os.path.join(tmp, "solve.json"))


def test_weak_log_showcase_solve_misses_the_gap_bound(tmp_path):
    # the default config is the weak-log showcase: the minimizer is solved
    # in scaled form and its level is written as a lossless literal far
    # below double range; the saddle found on this grid sits above the gap
    # bound, so the run reports a verification failure
    tmp = str(tmp_path)
    cfg = write_config(tmp, M=400)
    assert main(["solve", "--config", cfg, "--out", tmp]) == 3
    with open(os.path.join(tmp, "solve.json")) as f:
        rep = json.load(f, parse_float=mpmath.mpf)
    assert mpmath.mpf("-1e-639") < rep["c_rho"] < mpmath.mpf("-1e-641")
    assert rep["gap_ok"] is False and rep["c_M"] > rep["gap_bound"]
    assert rep["residual0"] < 1e-8
    # the path starts at the underflowed u0; row 0 carries the scaled level
    with open(os.path.join(tmp, "path.csv")) as f:
        first = f.read().splitlines()[1].split(",")
    assert first[0] == "0" and mpmath.mpf(first[2]) == rep["c_rho"]


def test_solve_outputs_and_determinism(tmp_path):
    out1 = str(tmp_path / "run1")
    out2 = str(tmp_path / "run2")
    cfg = write_config(str(tmp_path), **instance_a_config())
    assert main(["solve", "--config", cfg, "--out", out1]) == 0
    assert main(["solve", "--config", cfg, "--out", out2]) == 0

    for name in ("solve.json", "u0.csv", "ump.csv", "path.csv"):
        with open(os.path.join(out1, name), "rb") as f:
            b1 = f.read()
        with open(os.path.join(out2, name), "rb") as f:
            b2 = f.read()
        assert b1 == b2, f"{name} differs between identical runs"

    with open(os.path.join(out1, "solve.json")) as f:
        rep = json.load(f)
    assert rep["c_rho"] < 0 < rep["c_M"]
    assert rep["gap_ok"] is True and rep["verified"] is True
    assert rep["failures"] == []
    assert rep["exploratory"] is False
    assert rep["iters_path"] >= 1
    assert set(rep) == {
        "alpha", "c_M", "c_rho", "exploratory", "failures", "gap_bound", "gap_ok",
        "iters_minimize", "iters_newton0", "iters_newton_path", "iters_path",
        "residual0", "residual_mp", "rho", "sign_changes", "t_local_min", "verified",
    }

    g = lc.build_grid(3, 1.0, 1024)
    u0 = lc.load_grid_function(os.path.join(out1, "u0.csv"), g)
    ump = lc.load_grid_function(os.path.join(out1, "ump.csv"), g)
    assert np.all(np.isfinite(u0)) and np.all(np.isfinite(ump))
    p = lc.ProblemParams(**INSTANCE_A)
    assert lc.energy_value(p, g, u0) == pytest.approx(rep["c_rho"], rel=1e-12)
    assert lc.energy_value(p, g, ump) == pytest.approx(rep["c_M"], rel=1e-12)

    with open(os.path.join(out1, "path.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0] == "node_index,t,energy"
    assert len(lines) == 1 + 33
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 0.0
    assert float(first[2]) == pytest.approx(rep["c_rho"], rel=1e-12)
    # the ridge samples run over t in [0, 2] and crest at t = 1, the saddle
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[-1][1]) == 2.0 and float(rows[16][1]) == 1.0
    assert max(float(r[2]) for r in rows) == pytest.approx(rep["c_M"], rel=1e-12)
    assert float(rows[-1][2]) < rep["c_rho"]


def test_verify_certificates_and_slopes(tmp_path):
    tmp = str(tmp_path)
    # default scale ladder; |U_n|_2^2 at N = 3 decays like n^{-1}
    cfg = write_config(
        tmp,
        N=3,
        q=2.5,
        nu=-0.5,
        theta=-2.0,
        fit_p=[2.0],
    )
    assert main(["verify", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "certificates.json")) as f:
        certs = json.load(f)
    assert len(certs) >= 4
    for cert in certs:
        assert cert["margin"] > 0
        assert set(cert) >= {"lemma", "margin", "constant"}
    names = {c["lemma"] for c in certs}
    assert "grad_norm_gap_decay" in names and "critical_norm_gap_decay" in names
    # a scan certificate's box is the BoxSpec, which bench/checks.py reads
    for cert in certs:
        if cert["lemma"].endswith("_gap_decay"):
            assert set(cert["box"]) == {"n_list", "r0"}
        else:
            assert set(cert["box"]) == {"C1", "C2", "y_max", "y_samples"}
            assert cert["grid_sizes"] == [cert["box"]["y_samples"]]

    with open(os.path.join(tmp, "slopes.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0] == "N,p,slope,intercept,residual"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "3"
    assert float(fields[2]) == pytest.approx(-1.0, abs=0.05)


def test_verify_scans_the_box_once(tmp_path, monkeypatch):
    # the four scan certificates come from one scan_box pass over the
    # box, and no single-lemma scan runs
    from logcrit import inequalities

    calls = []
    for name in ("scan_box", "scan_sup_A1", "scan_sup_f", "scan_sup_A3"):
        scan = getattr(inequalities, name)
        monkeypatch.setattr(
            inequalities, name, lambda *a, name=name, scan=scan: calls.append(name) or scan(*a)
        )
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=3, q=2.5, y_samples=500)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 0
    assert calls == ["scan_box"]
    with open(os.path.join(tmp, "certificates.json")) as f:
        lemmas = [c["lemma"] for c in json.load(f)]
    assert lemmas[:4] == ["g_upper", "f_lower", "f_abs", "f1_sandwich"]


def _reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


def test_verify_overflowing_box_writes_valid_json(tmp_path, capsys):
    # at y_max = 1e200 every scan overflows to a nan supremum
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, y_max=1e200, y_samples=500)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 3
    with open(os.path.join(tmp, "certificates.json")) as f:
        certs = json.load(f, parse_constant=_reject_constant)
    scans = {"g_upper", "f_lower", "f_abs", "f1_sandwich"}
    assert scans <= {c["lemma"] for c in certs}
    for c in certs:
        if c["lemma"] in scans:
            assert c["constant"] is None and c["margin"] is None
    err = capsys.readouterr().err
    for lemma in scans:
        assert f"certificate {lemma}: scan supremum nan is not finite" in err


def test_verify_overflowing_box_prints_no_numpy_warnings(tmp_path):
    # the certificate lines alone report a box that leaves double range
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, y_max=1e200, y_samples=500)
    src = os.path.dirname(os.path.dirname(lc.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-m", "logcrit.cli", "verify", "--config", cfg, "--out", tmp],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 3
    assert proc.stderr.splitlines() == [
        f"certificate {lemma}: scan supremum nan is not finite "
        "(the scan left double range on this box)"
        for lemma in ("g_upper", "f_lower", "f_abs", "f1_sandwich")
    ]
    assert "RuntimeWarning" not in proc.stderr


def test_canonical_json_writes_non_finite_as_null():
    from logcrit.cli import canonical_json

    text = canonical_json(
        {"a": float("nan"), "b": -np.inf, "c": mpmath.mpf("inf"), "d": 1.5}
    )
    assert json.loads(text, parse_constant=_reject_constant) == {
        "a": None,
        "b": None,
        "c": None,
        "d": 1.5,
    }
    # each number kind, byte for byte: a double prints %.17g whatever its
    # type, an mpf below double range keeps its own exponent
    for value, literal in [
        (0.1, "0.10000000000000001"),
        (np.float64(-2.5e-300), "-2.5e-300"),
        (mpmath.mpf(0.75), "0.75"),
        (mpmath.mpf("-2.27e-640"), "-2.2700000000000001e-640"),
        (float("inf"), "null"),
        (-np.inf, "null"),
        (np.nan, "null"),
        (mpmath.mpf("-inf"), "null"),
        (mpmath.mpf("nan"), "null"),
    ]:
        assert canonical_json(value) == literal
        assert canonical_json({"k": [value]}) == '{\n "k": [\n  %s\n ]\n}' % literal


@pytest.mark.parametrize(
    "box, key",
    [
        (dict(y_samples=-1000), "y_samples"),
        (dict(y_samples=0), "y_samples"),
        (dict(y_samples=499), "y_samples"),
        (dict(y_samples=1000.5), "y_samples"),
        (dict(y_samples="1000"), "y_samples"),
        (dict(C1=float("nan")), "C1"),
        (dict(C2=float("inf")), "C2"),
        (dict(y_max=float("inf")), "y_max"),
        (dict(C2=1e300), "C2"),
        # past the cancellation range: C2 / y_min = 1e66
        (dict(C1=0.5, C2=1e60), "C2"),
        (dict(y_max=1e-12), "C2"),
    ],
)
def test_verify_rejects_bad_box_keys(tmp_path, capsys, box, key):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, **box)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    assert not os.path.exists(os.path.join(tmp, "certificates.json"))


@pytest.mark.parametrize("key", ["N", "M", "n", "P", "y_samples"])
@pytest.mark.parametrize(
    "value",
    [
        True, "abc", 8.7, None, float("nan"),
        pytest.param(10**400, id="10**400"), pytest.param(2**53 + 1, id="2**53+1"),
    ],
)
def test_integer_keys_reject_non_integers(tmp_path, capsys, key, value):
    tmp = str(tmp_path)
    cfg = write_config(tmp, **{key: value})
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err == f"config error: {key}: need an integer\n"
    assert not os.path.exists(os.path.join(tmp, "regions.json"))


@pytest.mark.parametrize(
    "key", ["q", "mu", "nu", "lambda", "theta", "R", "C1", "C2", "y_max"]
)
@pytest.mark.parametrize("value", [True, "1.0", None])
def test_number_keys_reject_non_numbers(tmp_path, capsys, key, value):
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), **{key: value})
    assert main(["regions", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: {key}: need a number\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "key, value",
    [
        ("q", float("nan")),
        ("mu", float("inf")),
        ("nu", float("nan")),
        ("lambda", float("nan")),
        ("theta", float("-inf")),
        ("R", float("inf")),
    ],
)
def test_non_finite_coefficients_are_config_errors(tmp_path, capsys, key, value):
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), **{key: value})
    assert main(["regions", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: {key} must be finite, got {value}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["solve", "verify"])
@pytest.mark.parametrize(
    "r0, why",
    [
        ("abc", "need a number"),
        (-0.1, "need 0 < 4*r0 <= R"),
        (0, "need 0 < 4*r0 <= R"),
        (float("nan"), "need 0 < 4*r0 <= R"),
        (0.3, "need 0 < 4*r0 <= R"),
        (True, "need a number"),
        ("0.1", "need a number"),
    ],
)
def test_bad_r0_is_a_config_error(tmp_path, capsys, command, r0, why):
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), r0=r0)
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: r0: {why}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "over, why",
    [
        (dict(n_list=5), "n_list: need a list of scales"),
        (dict(n_list=[16, 32, "abc", 128, 256]), "n_list: need an integer"),
        (dict(n_list=[16, 32, 64.5, 128, 256]), "n_list: need an integer"),
        (dict(n_list=[16, 32, 48, 64, 80]), "n_list: scales must form a geometric progression"),
        (dict(n_list=[16, 32, 64, 128]), "n_list: need at least 5 scales for a stable fit"),
        (dict(n_list=[128, 128, 128, 128, 128]), "n_list: scales must be distinct"),
        (dict(fit_p=2.0), "fit_p: need a list of exponents"),
        (dict(fit_p=[]), "fit_p: need at least one exponent"),
        (dict(fit_p=[2.0, "abc"]), "fit_p: need a number"),
        (dict(N=4, q=3.0, fit_p=[7.0]), "fit_p: need exponents in [1, 4)"),
        # the fit at p = N/(N-2) divides by ln n, which is 0 at n = 1
        (
            dict(N=4, q=3.0, n_list=[1, 2, 4, 8, 16]),
            "n_list: every scale must exceed 1 when fit_p holds the ln-corrected "
            "exponent 2, whose fit divides by ln n",
        ),
        (
            dict(N=3, q=2.5, n_list=[1, 3, 9, 27, 81], fit_p=[2.0, 3.0]),
            "n_list: every scale must exceed 1 when fit_p holds the ln-corrected "
            "exponent 3, whose fit divides by ln n",
        ),
        (dict(sweep_solve="false"), "sweep_solve: need true or false"),
        (dict(n_list=[16, 32, True, 128, 256]), "n_list: need an integer"),
        (dict(fit_p=[True]), "fit_p: need a number"),
        (dict(fit_p=["2.0"]), "fit_p: need a number"),
    ],
)
def test_verify_rejects_bad_lists_and_flags_before_writing(tmp_path, capsys, over, why):
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), **over)
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: {why}\n"
    assert not os.path.exists(out)


SWEEP_RANGE_KEYS = ["sweep_lambda", "sweep_mu", "sweep_nu", "sweep_q", "sweep_theta"]


@pytest.mark.parametrize("command", ["regions", "solve", "sweep"])
@pytest.mark.parametrize(
    "over, why",
    [
        (dict(n_list=5), "n_list: need a list of scales"),
        (dict(sweep_solve="false"), "sweep_solve: need true or false"),
        (dict(n_list=[16, 32, True, 128, 256]), "n_list: need an integer"),
        (dict(n_list=[16, 32, "64", 128, 256]), "n_list: need an integer"),
        (dict(fit_p=2.0), "fit_p: need a list of exponents"),
        (dict(fit_p=[True]), "fit_p: need a number"),
        (dict(fit_p=["2.0"]), "fit_p: need a number"),
        (dict(n_list=[128, 128, 128, 128, 128]), "n_list: scales must be distinct"),
        (dict(fit_p=[]), "fit_p: need at least one exponent"),
        (dict(out=5), "out: need a path"),
        (dict(out=None), "out: need a path"),
    ]
    + [({key: -1.0}, f"{key}: need a list of numbers") for key in SWEEP_RANGE_KEYS]
    + [({key: [True, -1.0]}, f"{key}: need a number") for key in SWEEP_RANGE_KEYS]
    + [({key: ["-1.0"]}, f"{key}: need a number") for key in SWEEP_RANGE_KEYS],
)
def test_every_subcommand_rejects_bad_lists_and_flags(tmp_path, capsys, command, over, why):
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), **{"sweep_theta": [-0.01], **over})
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: {why}\n"
    assert not os.path.exists(out)


def test_solve_samples_the_fiber_profile_once(tmp_path, monkeypatch):
    # the verifier owns the minimizer's fiber profile; solve_problem does
    # not sample it, and solve.json takes it from the verdict
    calls = []
    profile = lc.solvers.g_profile

    def counting(*args, **kwargs):
        calls.append(args)
        return profile(*args, **kwargs)

    monkeypatch.setattr(lc.solvers, "g_profile", counting)
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(M=256, n=16))
    assert main(["solve", "--config", cfg, "--out", tmp]) == 0
    assert len(calls) == 1
    with open(os.path.join(tmp, "solve.json")) as f:
        rep = json.load(f)
    assert rep["sign_changes"] <= 2 and abs(rep["t_local_min"] - 1.0) <= 0.05


@pytest.mark.parametrize(
    "command, over",
    [
        ("sweep", dict(N=10**400, sweep_theta=[-2.0])),
        ("solve", instance_a_config(M=64, n=10**400)),
    ],
)
def test_integers_beyond_two_to_53_are_config_errors(tmp_path, capsys, command, over):
    # past 2^53 an integer is no longer a JSON interoperable value; it is
    # refused as it is read, before a problem, a grid or a bubble sees it
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), **over)
    assert main([command, "--config", cfg, "--out", out]) == 1
    key = "N" if command == "sweep" else "n"
    assert capsys.readouterr().err == f"config error: {key}: need an integer\n"
    assert not os.path.exists(out)


def test_path_cells_cap_boundary(tmp_path):
    # P * M may reach 2^26 exactly; one more path node is a config error.
    # Only the config is read and checked: no solve runs at this size
    tmp = str(tmp_path)
    validate_numerics(load_config(write_config(tmp, "at.json", M=2**20, P=64)))
    over = load_config(write_config(tmp, "over.json", M=2**20, P=65))
    with pytest.raises(ConfigError, match=r"^P: need P \* M <= 67108864, got 68157440$"):
        validate_numerics(over)


def test_scan_span_cap_boundary(tmp_path):
    # C2 / y_min may reach 1e10 exactly (y_min = 1e-6 here); past it the
    # box is a config error for verify only, the command that scans it
    tmp = str(tmp_path)
    p = lc.ProblemParams(N=4, q=3.0, mu=1.0, nu=0.0, lam=0.0, theta=-1.0)
    validate_numerics(load_config(write_config(tmp, "at.json", C2=1e4)), p)
    over = load_config(write_config(tmp, "over.json", C2=1.0000001e4))
    with pytest.raises(ConfigError, match=r"^C2: need C2 / y_min <= 1e\+10 "):
        validate_numerics(over, p)
    validate_numerics(over)


def test_integral_float_keys_are_accepted(tmp_path):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4.0, M=64.0, n=4.0, P=32.0, y_samples=1e3)
    assert main(["regions", "--config", cfg, "--out", tmp]) == 0


def test_verify_rejects_an_oversized_box(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, y_samples=16385)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 1
    err = capsys.readouterr().err
    assert err == "config error: y_samples: need at most 16384 y samples, got 16385\n"
    assert os.listdir(tmp) == ["cfg.json"]


@pytest.mark.parametrize(
    "command, over, why",
    [
        ("regions", dict(M=2**21), "M: need at most 1048576 mesh cells, got 2097152"),
        ("solve", dict(M=2**21), "M: need at most 1048576 mesh cells, got 2097152"),
        ("sweep", dict(M=2**21), "M: need at most 1048576 mesh cells, got 2097152"),
        ("solve", dict(P=10**7), "P: need P * M <= 67108864, got 4000000000"),
        ("sweep", dict(P=10**7), "P: need P * M <= 67108864, got 4000000000"),
    ],
)
def test_grids_over_the_cap_are_config_errors(tmp_path, capsys, monkeypatch, command, over, why):
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(lc.grid, "RadialGrid", refuse)
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), sweep_theta=[-0.01], **over)
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: {why}\n"
    assert not os.path.exists(out)


def test_sweep_grid_rows_and_determinism(tmp_path, monkeypatch):
    # every row shares one grid, so a sweep runs the eigen-iteration once
    eigen_calls = []
    eigenpair = lc.grid.principal_eigenpair

    def counting(g, *a, **kw):
        eigen_calls.append(g)
        return eigenpair(g, *a, **kw)

    monkeypatch.setattr(lc.grid, "principal_eigenpair", counting)
    sobolev_calls = []
    sobolev = lc.grid.best_sobolev_constant
    monkeypatch.setattr(
        lc.grid, "best_sobolev_constant", lambda N: sobolev_calls.append(N) or sobolev(N)
    )
    tmp = str(tmp_path)
    cfg = write_config(
        tmp,
        N=4,
        q=3.0,
        theta=-0.1,
        sweep_nu=[0.3, 0.1],
        sweep_lambda=[0.0, 1.0],
        sweep_theta=[-0.1, -0.5, -1.0],
    )
    out1 = str(tmp_path / "s1")
    out2 = str(tmp_path / "s2")
    assert main(["sweep", "--config", cfg, "--out", out1]) == 0
    assert len(eigen_calls) == 1 and sobolev_calls == [4]
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    assert len(eigen_calls) == 2 and sobolev_calls == [4, 4]
    with open(os.path.join(out1, "sweep.csv")) as f:
        rows = f.read().splitlines()
    with open(os.path.join(out2, "sweep.csv")) as f:
        rows2 = f.read().splitlines()
    assert rows == rows2
    assert rows[0] == (
        "lambda,mu,nu,q,theta,in_M1,in_M2,in_M3,in_M4,alpha,rho,c_rho,c_M,gap_ok,status"
    )
    assert len(rows) == 1 + 12
    # ranges iterate sorted ascending, keys alphabetical: lambda varies
    # slowest, then nu, then theta
    lams = [float(r.split(",")[0]) for r in rows[1:]]
    assert lams == sorted(lams)
    thetas = [float(r.split(",")[4]) for r in rows[1:7]]
    assert thetas == [-1.0, -0.5, -0.1, -1.0, -0.5, -0.1]
    statuses = {r.split(",")[-1] for r in rows[1:]}
    assert statuses <= {"ok", "no-membership"}


# sweep.csv bytes as written when each row copied the config:
# one swept list holding both -0.0 and 0.0 (kept by position, printed -0 and
# 0), invalid-params rows (mu <= 0, theta >= 0, q outside (2, 2*)), and
# N < 3, where no grid is built and every row is invalid
SWEEP_HEADER = "lambda,mu,nu,q,theta,in_M1,in_M2,in_M3,in_M4,alpha,rho,c_rho,c_M,gap_ok,status"
SWEEP_MEMBER = "true,true,false,false,0.084873863536651939,3.5806413119676099,,,,ok"
SWEEP_GOLDEN = [
    (
        dict(sweep_nu=[0.5, 0.0, -0.0, -0.5], sweep_lambda=[0.0, -0.0]),
        [
            f"0,1,-0.5,2.5,-2,{SWEEP_MEMBER}",
            f"0,1,0,2.5,-2,{SWEEP_MEMBER}",
            f"0,1,-0,2.5,-2,{SWEEP_MEMBER}",
            "0,1,0.5,2.5,-2,false,false,false,false,,,,,,no-membership",
            f"-0,1,-0.5,2.5,-2,{SWEEP_MEMBER}",
            f"-0,1,0,2.5,-2,{SWEEP_MEMBER}",
            f"-0,1,-0,2.5,-2,{SWEEP_MEMBER}",
            "-0,1,0.5,2.5,-2,false,false,false,false,,,,,,no-membership",
        ],
    ),
    (
        dict(sweep_mu=[1.0, 0.0], sweep_theta=[-1.0, 0.0], sweep_q=[2.0, 2.5, 6.0]),
        [f"0,0,-0.5,{q},{t},,,,,,,,,,invalid-params" for q in (2, 2.5, 6) for t in (-1, 0)]
        + ["0,1,-0.5,2,-1,,,,,,,,,,invalid-params", "0,1,-0.5,2,0,,,,,,,,,,invalid-params"]
        + ["0,1,-0.5,2.5,-1,true,true,false,false,2.1792689659298472,3.5806413119676099,,,,ok"]
        + ["0,1,-0.5,2.5,0,,,,,,,,,,invalid-params"]
        + [f"0,1,-0.5,6,{t},,,,,,,,,,invalid-params" for t in (-1, 0)],
    ),
    (
        dict(N=2, sweep_theta=[-1.0, -0.5], sweep_nu=[-0.0, 0.0]),
        [f"0,1,{nu},2.5,{t},,,,,,,,,,invalid-params" for nu in ("-0", "0") for t in (-1, -0.5)],
    ),
]


@pytest.mark.parametrize("over, lines", SWEEP_GOLDEN)
def test_sweep_writes_the_pinned_bytes(tmp_path, over, lines):
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(M=64, **over))
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "sweep.csv")) as f:
        assert f.read() == "\n".join([SWEEP_HEADER] + lines) + "\n"


def test_sweep_formats_each_list_value_once(tmp_path, monkeypatch):
    # one fmt_float call per position of the five columns (a column not
    # swept holds its one config value), plus alpha and rho of each member
    # row; a sweep used to format all five parameters on every row
    calls = []
    fmt_float = lc.cli.fmt_float
    monkeypatch.setattr(lc.cli, "fmt_float", lambda x: calls.append(x) or fmt_float(x))
    tmp = str(tmp_path)
    over = dict(sweep_nu=[0.5, 0.0, -0.0, -0.5], sweep_theta=[-2.0, -1.0, 0.0])
    cfg = write_config(tmp, **instance_a_config(M=64, **over))
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "sweep.csv")) as f:
        statuses = [line.rsplit(",", 1)[1] for line in f.read().splitlines()[1:]]
    assert len(statuses) == 12 and statuses.count("ok") == 6
    assert len(calls) == (4 + 3 + 1 + 1 + 1) + 2 * statuses.count("ok")


@pytest.mark.parametrize("command", ["regions", "sweep"])
def test_a_ball_at_the_edge_of_the_mesh_range_gets_its_eigenpair(tmp_path, capsys, command):
    # at N = 3 and R up to about 3.9e-62 the Rayleigh quotient of the old
    # inverse power iteration overflowed, and these radii were refused; one
    # LAPACK call gets lambda1 there.  The mesh's divisors w_i h^2 are
    # subnormal near R = 1e-62, which moves lambda1 R^2 by about 1.3e-6.
    # R = 1e-70 is refused by the mesh, before any output directory is made
    lam_unit = lc.build_grid(3, 1.0, 400).eigenpair[0]
    for R in (1e-62, 2e-62, 3e-62):
        out = str(tmp_path / f"{command}-{R:g}")
        cfg = write_config(str(tmp_path), N=3, q=2.5, R=R, sweep_theta=[-0.01])
        assert main([command, "--config", cfg, "--out", out]) == 0
        assert capsys.readouterr().err == ""
        if command == "regions":
            with open(os.path.join(out, "regions.json")) as f:
                assert json.load(f)["lambda1"] * R * R == pytest.approx(lam_unit, rel=1e-5)
    out = str(tmp_path / f"{command}-1e-70")
    cfg = write_config(str(tmp_path), N=3, q=2.5, R=1e-70, sweep_theta=[-0.01])
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == (
        "config error: R = 1e-70: the 400-cell mesh on B(0, 1e-70) divides by "
        "cell weights times h^2 outside double range\n"
    )
    assert not os.path.exists(out)


@pytest.mark.parametrize("R", [1e-30, 1e-61, 1e-62, 2e-62, 3e-62])
def test_solve_on_a_tiny_ball_names_its_stage(tmp_path, capsys, R):
    # phi1 grows like R^{-N/2}, and stage one's fiber search used to sample
    # multiples of phi1 whose powers overflow: solve ended in a RuntimeWarning
    # or a "solve gate: array must not contain infs or NaNs" line.  The search
    # reads phi1 scaled to unit maximum, and a failure names its stage
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), N=3, q=2.5, R=R)
    code = main(["solve", "--config", cfg, "--out", out])
    err = capsys.readouterr().err
    assert code in (2, 3)
    assert err.startswith(("solve stage minimize: ", "solve stage saddle: "))
    assert err.count("\n") == 1 and "solve gate" not in err
    assert not os.path.exists(out)


def test_sweep_with_invalid_dimension_writes_invalid_rows(tmp_path):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=2, M=64, sweep_theta=[-1.0, -0.5])
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "sweep.csv")) as f:
        rows = f.read().splitlines()
    assert len(rows) == 1 + 2
    assert [r.split(",")[-1] for r in rows[1:]] == ["invalid-params"] * 2


def test_sweep_rejects_a_non_integral_dimension(tmp_path, capsys):
    # N is not swept, so N = 3.7 is a config error rather than rows of N = 3
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=3.7, q=2.5, M=64, sweep_theta=[-1.0])
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err == "config error: N: need an integer\n"
    assert not os.path.exists(os.path.join(tmp, "sweep.csv"))


def test_sweep_rejects_a_non_numeric_fixed_parameter(tmp_path, capsys):
    # q is not swept and is written into every row: the same config error as
    # regions reports, not a traceback
    tmp = str(tmp_path)
    cfg = write_config(tmp, q="abc", M=64, sweep_theta=[-1.0])
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    err = capsys.readouterr().err
    assert err == "config error: q: need a number\n"
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err == err
    # the base value of a swept parameter is parsed like every other key
    cfg = write_config(tmp, name="c2.json", q="abc", M=64, sweep_q=[2.5])
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err == err
    assert not os.path.exists(os.path.join(tmp, "sweep.csv"))


def test_sweep_rejects_a_non_numeric_range_value(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, M=64, sweep_theta=[-1.0, "abc"])
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_sweep_ignores_the_base_value_of_a_swept_parameter(tmp_path):
    # the row holds the swept q, not the base q
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(M=64, q=2.4, sweep_q=[2.5]))
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "sweep.csv")) as f:
        rows = f.read().splitlines()
    assert rows[1].split(",")[3] == "2.5" and rows[1].endswith(",ok")


# Run in a fresh interpreter: the test process has loaded scipy.integrate
# through other tests.  The printed sets are the scipy packages loaded by
# import logcrit, after the other subcommands (regions also at N = 13),
# then after verify.
_IMPORT_PROBE = """
import json, sys
import logcrit, logcrit.cli
from logcrit.cli import main
heavy = ("scipy.integrate", "scipy.special", "scipy.optimize")
loaded = lambda: [m for m in heavy if m in sys.modules]
cfg, cfg13, out = sys.argv[1], sys.argv[2], sys.argv[3]
on_import = loaded()
codes = [main([cmd, "--config", cfg, "--out", out]) for cmd in ("solve", "regions", "sweep")]
codes.append(main(["regions", "--config", cfg13, "--out", out]))
before = loaded()
codes.append(main(["verify", "--config", cfg, "--out", out]))
print(json.dumps([codes, on_import, before, loaded()]))
"""


def test_cli_loads_neither_quadrature_nor_optimizer(tmp_path):
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(M=128, n=16, sweep_theta=[-2.0, -1.0]))
    # N = 13: the first dimension whose S(N) did not come from a table
    cfg13 = write_config(tmp, "n13.json", **instance_a_config(N=13, q=2.1, M=128))
    src = os.path.dirname(os.path.dirname(lc.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, cfg, cfg13, tmp],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, on_import, before, after = json.loads(proc.stdout.splitlines()[-1])
    assert codes[1:] == [0, 0, 0, 0]  # regions, sweep, regions at N = 13 and verify succeed
    assert codes[0] in (0, 3)  # solve ran to its outputs
    assert os.path.exists(os.path.join(tmp, "solve.json"))
    assert on_import == before == []
    # verify's gaps are closed forms: its incomplete beta functions load
    # scipy.special, and nothing loads a quadrature or an optimizer
    assert after == ["scipy.special"]


def test_sweep_names_the_cause_of_a_failed_row(tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(lc.solvers, "solve_problem", boom)
    tmp = str(tmp_path)
    cfg = write_config(
        tmp, **instance_a_config(M=64, sweep_theta=[-2.0, -1.0], sweep_solve=True)
    )
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "sweep.csv")) as f:
        rows = f.read().splitlines()
    assert [r.split(",")[-1] for r in rows[1:]] == ["error:RuntimeError"] * 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for line, theta in zip(err, ("-2", "-1")):
        assert "theta=%s" % theta in line and "nu=-0.5" in line
        assert line.endswith("error:RuntimeError: boom")


def test_solve_and_sweep_rows_pass_the_same_solve_arguments(tmp_path, monkeypatch):
    calls = []
    solve_problem = lc.solvers.solve_problem

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return solve_problem(*args, **kwargs)

    monkeypatch.setattr(lc.solvers, "solve_problem", spy)
    tmp = str(tmp_path)
    over = dict(M=64, n=8, P=40, r0=0.1)
    cfg = write_config(tmp, **instance_a_config(**over, sweep_theta=[-2.0], sweep_solve=True))
    main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")])
    main(["sweep", "--config", cfg, "--out", str(tmp_path / "sweep")])
    assert len(calls) == 2
    assert calls[0] == calls[1]
    assert calls[0][1] == over


@pytest.mark.parametrize(
    "exc, prefix, code, status",
    [
        (lc.UsableRegionError, "solve stage minimize", 2, "usable-region"),
        (lc.PathCollapseError, "solve stage ridge", 2, "collapse"),
        (lc.ConcentrationStallError, "solve stage saddle", 3, "stall"),
        (ValueError, "solve gate", 2, "error:ValueError"),
        (RuntimeError, "solve stage saddle", 3, "error:RuntimeError"),
    ],
)
def test_solve_failures_map_to_exit_codes_and_row_statuses(
    tmp_path, capsys, monkeypatch, exc, prefix, code, status
):
    def fail(*args, **kwargs):
        raise exc("boom")

    monkeypatch.setattr(lc.solvers, "solve_problem", fail)
    tmp = str(tmp_path)
    cfg = write_config(tmp, **instance_a_config(M=64, sweep_theta=[-2.0], sweep_solve=True))
    assert main(["solve", "--config", cfg, "--out", tmp]) == code
    assert capsys.readouterr().err == f"{prefix}: boom\n"
    assert not os.path.exists(os.path.join(tmp, "solve.json"))
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 0
    with open(os.path.join(tmp, "sweep.csv")) as f:
        rows = f.read().splitlines()
    assert [r.split(",")[-1] for r in rows[1:]] == [status]
    assert capsys.readouterr().err.endswith(f": {status}: boom\n")


MESH_RANGE = (
    "the origin cell of the 400-cell mesh on B(0, 1) has a volume outside the normal doubles"
)


@pytest.mark.parametrize(
    "command, over",
    [
        ("regions", dict(N=100)),
        ("regions", dict(N=200)),  # S(200) overflowed in the old quadrature
        ("solve", dict(N=100, nu=0.5)),  # nu > 0: past the N >= 6 gate
        ("sweep", dict(N=100, sweep_lambda=[0.0])),
    ],
)
def test_large_dimension_mesh_is_a_config_error(tmp_path, capsys, command, over):
    # the grid operator of this mesh held inf or nan: regions and sweep
    # ended in a traceback, solve at its gate with exit 2
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), q=2.01, **over)
    assert main([command, "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == f"config error: N = {over['N']}: {MESH_RANGE}\n"
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "over", [dict(N=100, q=2.01), dict(N=4, q=3.0, R=1e-62, r0=1e-63)]
)
def test_verify_is_not_refused_for_a_mesh_it_never_builds(tmp_path, capsys, over):
    # verify builds no grid; it was a config error about the 400-cell mesh
    # at N = 100 and about the divisors w_i h^2 at R = 1e-62.  Both now run
    # to their certificates (the critical-norm gap fit misses its margin)
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), **over)
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    assert "config error" not in capsys.readouterr().err
    for name in ("certificates.json", "slopes.csv"):
        assert os.path.exists(os.path.join(out, name))


def test_mesh_range_boundary():
    # at M = 400 on the unit ball the origin cell |B(0, 1/800)| is a normal
    # double up to N = 93; a coarser mesh holds N = 94
    lc.build_grid(93, 1.0, 400)
    with pytest.raises(lc.grid.GridRangeError, match=f"^N = 94: {re.escape(MESH_RANGE)}$"):
        lc.build_grid(94, 1.0, 400)
    lc.build_grid(94, 1.0, 64)
    # at N = 3 the divisors w_i h^2 leave double range at R = 1e80 (the
    # boundary cell's overflows) and at R = 1e-80 (the origin cell's
    # underflows to 0); R = 1e-61 and R = 1e50 are in range
    for R in (1e80, 1e-80):
        why = (
            f"R = {R:g}: the 400-cell mesh on B(0, {R:g}) divides by "
            "cell weights times h^2 outside double range"
        )
        with pytest.raises(lc.grid.GridRangeError, match=f"^{re.escape(why)}$"):
            lc.build_grid(3, R, 400)
    for R in (1e-61, 1e50):
        assert lc.build_grid(3, R, 400).R == R


# the deepest scales of the fit below: at p = 1, |U_n|_p^p falls like n^{1 - N/2}
DEEP_N_LIST = [2**26, 2**27, 2**28, 2**29, 2**30]


@pytest.mark.parametrize("N", [70, 80])
def test_verify_fit_sample_past_double_range_is_a_config_error(tmp_path, capsys, N):
    # the closed-form norm |U_n|_1 at n = 2^30 underflows from N = 70, where
    # the fit would take the logarithm of 0
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), N=N, q=2.01, n_list=DEEP_N_LIST, fit_p=[1.0])
    assert main(["verify", "--config", cfg, "--out", out]) == 1
    assert capsys.readouterr().err == (
        f"config error: N = {N}: an L^p norm of the cut-off bubble leaves double range\n"
    )
    assert not os.path.exists(out)
    # N = 69 holds these scales, and N = 80 holds the default ones, which the
    # largest grid sample (amp 2048^m)^2 refused from N = 63
    for over in (dict(N=69, n_list=DEEP_N_LIST, fit_p=[1.0]), dict(N=80)):
        out = str(tmp_path / f"N{over['N']}")
        cfg = write_config(str(tmp_path), q=2.01, **over)
        assert main(["verify", "--config", cfg, "--out", out]) != 1
        capsys.readouterr()
        assert os.path.exists(os.path.join(out, "slopes.csv"))


def test_verify_builds_no_grid(tmp_path, monkeypatch):
    # the L^p decay fits use the closed form of lp_norms, as the gaps do
    def refuse(*args, **kwargs):
        raise AssertionError("a grid was built")

    monkeypatch.setattr(lc.grid, "RadialGrid", refuse)
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), N=4, q=3.0)
    assert main(["verify", "--config", cfg, "--out", out]) == 0
    with open(os.path.join(out, "slopes.csv")) as f:
        assert f.readline() == "N,p,slope,intercept,residual\n"


def test_verify_nan_slope_fails_the_band_check(tmp_path, capsys, monkeypatch):
    # abs(nan - e) > 0.05 |e| is False, so a NaN slope passed the band
    monkeypatch.setattr(lc.bubbles, "fit_norm_exponent", lambda *a, **k: (np.nan, 0.0, 0.0))
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), N=4, q=3.0)
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == "slope fit p=2: nan vs expected -2\n"


def test_verify_vanishing_decay_gap_is_a_failed_certificate(tmp_path, capsys, monkeypatch):
    # a gap of exactly 0 has no logarithm: the certificate has no slope and
    # fails, where it ended in a ValueError traceback
    norm_gaps = lc.bubbles.norm_gaps

    def vanishing_grad(N, n_list, r0, which):
        gaps = norm_gaps(N, n_list, r0, which)
        return np.zeros_like(gaps) if which == "grad" else gaps

    monkeypatch.setattr(lc.bubbles, "norm_gaps", vanishing_grad)
    out = str(tmp_path / "out")
    cfg = write_config(str(tmp_path), N=4, q=3.0)
    assert main(["verify", "--config", cfg, "--out", out]) == 3
    assert capsys.readouterr().err == "certificate margin not positive: grad_norm_gap_decay\n"
    with open(os.path.join(out, "certificates.json")) as f:
        certs = {c["lemma"]: c for c in json.load(f)}
    assert certs["grad_norm_gap_decay"]["constant"] is None
    assert certs["grad_norm_gap_decay"]["margin"] is None
    assert certs["critical_norm_gap_decay"]["margin"] > 0


def test_verify_decay_certificates_hold_through_n_13(tmp_path, capsys):
    # the gaps used to be a quadrature minus S^{N/2}, which cancelled to
    # rounding noise from N = 10.  Closed-form gaps hold the certificates
    # through N = 13; at N = 14 the true grad gap changes sign between
    # n = 16 and n = 32, and that certificate fails on its own
    for N in range(6, 15):
        out = str(tmp_path / f"N{N}")
        cfg = write_config(str(tmp_path), N=N, q=2.01)
        code = main(["verify", "--config", cfg, "--out", out])
        err = capsys.readouterr().err
        if N < 14:
            assert (N, code, err) == (N, 0, "")
        else:
            assert code == 3
            assert err == "certificate margin not positive: grad_norm_gap_decay\n"


def test_regions_at_a_radius_past_the_operator_range_is_a_config_error(tmp_path, capsys):
    # at R = 1e80 the boundary cell weight times h^2 overflows, the operator
    # row divides by inf, and the eigen solve ended in a LinAlgError
    # traceback; at R = 1e-80 the origin cell's underflows to 0, and the
    # operator held inf.  R = 1e50, 1e-61 and 1e-62 are in range; at R = 1e50
    # the default parameters lie in no region (exit 2)
    divisors = "the 400-cell mesh on B(0, {R}) divides by cell weights times h^2"
    for R, code, why in (
        (1e50, 2, None), (1e-61, 0, None), (1e-62, 0, None),
        (1e80, 1, divisors), (1e-80, 1, divisors),
    ):
        out = str(tmp_path / f"R{R:g}")
        cfg = write_config(str(tmp_path), N=3, q=2.5, R=R)
        assert main(["regions", "--config", cfg, "--out", out]) == code
        err = capsys.readouterr().err
        if code == 1:
            what = why.format(R=f"{R:g}")
            assert err == f"config error: R = {R:g}: {what} outside double range\n"
            assert not os.path.exists(out)
            # solve refuses the same ball with the same line, before it
            # writes anything
            assert main(["solve", "--config", cfg, "--out", out]) == 1
            assert capsys.readouterr().err == err
            assert not os.path.exists(out)
        else:
            assert err == "" and os.path.exists(os.path.join(out, "regions.json"))


def test_sweep_without_ranges_exits_one(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4)
    assert main(["sweep", "--config", cfg, "--out", tmp]) == 1
    assert "sweep" in capsys.readouterr().err


def test_numeric_validation_rejects_bad_mesh(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, M=4)
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    assert "M" in capsys.readouterr().err
