import json
import os

import mpmath
import numpy as np
import pytest

import logcrit as lc
from logcrit.cli import main
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
    for key in ("S", "lambda1", "volume", "geometry_case"):
        assert key in rep


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
    assert rep["iters_path"] >= 1 and "path_exit" not in rep

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

    with open(os.path.join(tmp, "slopes.csv")) as f:
        lines = f.read().splitlines()
    assert lines[0] == "N,p,slope,intercept,residual"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "3"
    assert float(fields[2]) == pytest.approx(-1.0, abs=0.05)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON literal {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_overflowing_box_writes_valid_json(tmp_path, capsys):
    # at y_max = 1e200 every scan overflows to a nan supremum
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, y_max=1e200, t_samples=100, y_samples=100)
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


@pytest.mark.parametrize(
    "box, key",
    [
        (dict(t_samples=-1000, y_samples=-1000), "t_samples"),
        (dict(y_samples=0), "y_samples"),
        (dict(t_samples=1000.5), "t_samples"),
        (dict(y_samples="1000"), "y_samples"),
        (dict(C1=float("nan")), "C1"),
        (dict(C2=float("inf")), "C2"),
        (dict(y_max=float("inf")), "y_max"),
        (dict(C2=1e300), "C2"),
    ],
)
def test_verify_rejects_bad_box_keys(tmp_path, capsys, box, key):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, **box)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}:")
    assert not os.path.exists(os.path.join(tmp, "certificates.json"))


@pytest.mark.parametrize("key", ["N", "M", "n", "P", "t_samples", "y_samples"])
@pytest.mark.parametrize("value", [True, "abc", 8.7, None])
def test_integer_keys_reject_non_integers(tmp_path, capsys, key, value):
    tmp = str(tmp_path)
    cfg = write_config(tmp, **{key: value})
    assert main(["regions", "--config", cfg, "--out", tmp]) == 1
    assert capsys.readouterr().err == f"config error: {key}: need an integer\n"
    assert not os.path.exists(os.path.join(tmp, "regions.json"))


def test_integral_float_keys_are_accepted(tmp_path):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4.0, M=64.0, n=4.0, P=32.0, t_samples=1000.0, y_samples=1e3)
    assert main(["regions", "--config", cfg, "--out", tmp]) == 0


def test_verify_rejects_an_oversized_box(tmp_path, capsys):
    tmp = str(tmp_path)
    cfg = write_config(tmp, N=4, q=3.0, t_samples=10**6, y_samples=10**6)
    assert main(["verify", "--config", cfg, "--out", tmp]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: t_samples, y_samples: need at most")
    assert os.listdir(tmp) == ["cfg.json"]


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
