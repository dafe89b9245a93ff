import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import logcrit as lc
from logcrit import inequalities

BOX = lc.BoxSpec(0.5, 2.0)

# frozen finder outputs on the [0.5, 2] x (0, 1e3] box at 1000 y samples
FROZEN_A1_EPS_HALF = 4.823824165511649
FROZEN_F6_ABS = 227.72400383260273
FROZEN_F4_ABS = 4.395599999999463
FROZEN_A3_M3 = 6.599998899165082

# (2*, q) of the certify runs (N, q) = (3, 2.5), (4, 3), (5, 2.8)
CERTIFY_EXPONENTS = [(6.0, 2.5), (4.0, 3.0), (10.0 / 3.0, 2.8)]


def test_closed_form_point_values():
    # g(1,1) = 4 ln 4 - 2, f(4,1,1) = 10, f1(3,1,1) = 4
    assert lc.g_term(1.0, 1.0) == pytest.approx(4.0 * np.log(4.0) - 2.0, rel=1e-14)
    assert lc.f_term(4.0, 1.0, 1.0) == pytest.approx(10.0, rel=1e-14)
    assert lc.f1_term(3.0, 1.0, 1.0) == pytest.approx(4.0, rel=1e-14)


def test_all_terms_vanish_at_y_zero():
    for t in (0.5, 1.0, 1.7):
        assert lc.g_term(t, 0.0) == 0.0
        assert lc.f_term(6.0, t, 0.0) == 0.0
        assert lc.f1_term(2.5, t, 0.0) == 0.0


def test_stable_forms_match_naive_evaluation():
    # at moderate y the direct formulas are accurate; the stable rewrites
    # must agree there to full precision
    rng = np.random.default_rng(31)
    t = rng.uniform(0.5, 2.0, 200)
    y = rng.uniform(0.05, 5.0, 200)
    naive_g = (t + y) ** 2 * np.log((t + y) ** 2) - t**2 * np.log(t**2) - 2 * t * y * (
        np.log(t**2) + 1.0
    )
    assert np.allclose(lc.g_term(t, y), naive_g, rtol=1e-9, atol=1e-12)
    for p in (2.5, 4.0, 6.0):
        naive_f = (t + y) ** p - t**p - y**p - p * t ** (p - 1) * y
        assert np.allclose(lc.f_term(p, t, y), naive_f, rtol=1e-9, atol=1e-12)
        naive_f1 = (t + y) ** p - t**p - p * t ** (p - 1) * y
        assert np.allclose(lc.f1_term(p, t, y), naive_f1, rtol=1e-9, atol=1e-12)


def test_small_y_expansions():
    # g/y^2 -> ln t^2 + 3 and f1(3,t,y)/y^2 -> 3t as y -> 0; the stable
    # forms must track the limits instead of losing them to cancellation
    for t in (0.5, 1.0, 2.0):
        got = float(lc.g_term(t, 1e-8)) / 1e-16
        assert got == pytest.approx(np.log(t * t) + 3.0, rel=1e-6)
    assert float(lc.f1_term(3.0, 1.0, 1e-5)) / 1e-10 == pytest.approx(3.0, rel=1e-4)


def test_frozen_finder_constants():
    assert lc.find_A1(BOX, 0.5) == pytest.approx(FROZEN_A1_EPS_HALF, rel=1e-12)
    low6, hat6 = lc.find_f_constants(6.0, BOX)
    assert low6 == 0.0
    assert hat6 == pytest.approx(FROZEN_F6_ABS, rel=1e-12)
    low4, hat4 = lc.find_f_constants(4.0, BOX)
    assert low4 == 0.0
    assert hat4 == pytest.approx(FROZEN_F4_ABS, rel=1e-12)
    assert lc.find_A3(3.0, BOX) == pytest.approx(FROZEN_A3_M3, rel=1e-12)


@pytest.mark.parametrize("y_samples", [2000, inequalities.MAX_Y_SAMPLES])
def test_constants_stable_under_grid_doubling(y_samples):
    # the cap's rationale: at 2^14 y samples the certify exponents' suprema
    # sit within 1e-4 of the default box's (measured 1.7e-5), far inside
    # the 10% HEADROOM, so a denser float scan would certify nothing more
    fine = lc.BoxSpec(0.5, 2.0, y_samples=y_samples)
    assert lc.find_A1(fine, 0.5) == pytest.approx(lc.find_A1(BOX, 0.5), rel=0.05)
    assert lc.find_A3(2.5, fine) == pytest.approx(lc.find_A3(2.5, BOX), rel=0.05)
    _, hat_f = lc.find_f_constants(6.0, fine)
    _, hat_c = lc.find_f_constants(6.0, BOX)
    assert hat_f == pytest.approx(hat_c, rel=0.05)
    for p, q in CERTIFY_EXPONENTS:
        coarse = inequalities.scan_box(BOX, q - 2.0, p, q)
        assert inequalities.scan_box(fine, q - 2.0, p, q) == pytest.approx(coarse, rel=1e-4)


def test_constants_monotone_in_box():
    # enlarging the box can only raise the certified constants
    small = lc.BoxSpec(0.6, 1.5, y_max=10.0)
    big = lc.BoxSpec(0.6, 2.5, y_max=100.0)
    assert lc.find_A1(big, 0.5) >= lc.find_A1(small, 0.5) - 1e-12
    assert lc.find_A3(2.5, big) >= lc.find_A3(2.5, small) - 1e-12
    _, hat_s = lc.find_f_constants(4.0, small)
    _, hat_b = lc.find_f_constants(4.0, big)
    assert hat_b >= hat_s - 1e-12


def test_certified_bounds_hold_on_offset_grid():
    # re-scan the certified inequalities on a finer grid shifted off the
    # nodes the finders used
    eps = 0.5
    A1 = lc.find_A1(BOX, eps)
    _, A2h = lc.find_f_constants(6.0, BOX)
    A3 = lc.find_A3(2.5, BOX)
    t = np.linspace(0.5 + 1e-4, 2.0 - 1e-4, 1500)[:, None]
    y = np.geomspace(1.3e-6, 9.7e2, 1500)[None, :]
    g = lc.g_term(t, y)
    assert np.all(g <= y ** (2.0 + eps) + A1 * y**2 + 1e-9)
    f = lc.f_term(6.0, t, y)
    assert np.all(np.abs(f) <= 0.5 * 36.0 * 2.0**4 * y**2 + A2h * 2.0 * y**5 + 1e-9)
    f1 = lc.f1_term(2.5, t, y)
    assert np.all(f1 <= 2.0 * y**2.5 + A3 * y**2 + 1e-9)
    assert np.all(f1 >= 0.5 * y**2.5 - A3 * y**2 - 1e-9)


def test_finders_share_one_headroom_rule(monkeypatch):
    sups = []
    certify = inequalities.certified_constant
    monkeypatch.setattr(
        inequalities, "certified_constant", lambda sup: sups.append(sup) or certify(sup)
    )
    box = lc.BoxSpec(0.5, 2.0, y_samples=500)
    A1 = lc.find_A1(box, 0.5)
    A2, A2_hat = lc.find_f_constants(6.0, box)
    A3 = lc.find_A3(2.5, box)
    assert [A1, A2, A2_hat, A3] == [inequalities.HEADROOM * max(s, 0.0) for s in sups]
    assert sups == [
        inequalities.scan_sup_A1(box, 0.5),
        *inequalities.scan_sup_f(6.0, box),
        inequalities.scan_sup_A3(2.5, box),
    ]
    assert certify(-1.0) == 0.0


def test_finder_rejections():
    with pytest.raises(ValueError):
        lc.find_A1(BOX, 0.0)
    with pytest.raises(ValueError, match="exceed 2"):
        lc.find_f_constants(2.0, BOX)
    with pytest.raises(ValueError, match="exceed 2"):
        lc.find_A3(1.5, BOX)
    with pytest.raises(ValueError, match="0 < C1 < C2"):
        lc.BoxSpec(2.0, 0.5)
    with pytest.raises(ValueError, match="0 < C1 < C2"):
        lc.BoxSpec(0.0, 1.0)
    with pytest.raises(ValueError, match="y_max"):
        lc.BoxSpec(0.5, 2.0, y_max=-1.0)
    with pytest.raises(ValueError, match="^y_samples: need at least 500 y samples"):
        lc.BoxSpec(0.5, 2.0, y_samples=10)


@pytest.mark.parametrize(
    "kw, key",
    [
        (dict(y_samples=-1000), "y_samples"),
        (dict(y_samples=0), "y_samples"),
        (dict(y_samples=1000.5), "y_samples"),
        (dict(y_samples=True), "y_samples"),
        (dict(C1=float("nan")), "C1"),
        (dict(C2=float("inf")), "C2"),
        (dict(y_max=float("inf")), "y_max"),
    ],
)
def test_box_rejects_bad_keys(kw, key):
    args = dict(C1=0.5, C2=2.0)
    args.update(kw)
    with pytest.raises(ValueError, match=f"^{key}:"):
        lc.BoxSpec(**args)


def test_box_size_is_bounded():
    # a scan evaluates 2 points per y sample, at least 1000 of them, and
    # holds the whole y grid: 500 <= y_samples <= 2^14.  Building a box
    # scans nothing.
    with pytest.raises(ValueError, match="^y_samples: need at least 500 y samples, got 499"):
        lc.BoxSpec(0.5, 2.0, y_samples=499)
    assert lc.BoxSpec(0.5, 2.0, y_samples=500).y_samples == 500
    assert lc.BoxSpec(0.5, 2.0, y_samples=16384).y_samples == 16384
    for y_samples in (16385, np.int64(2**62)):
        with pytest.raises(ValueError, match="^y_samples: need at most 16384 y samples"):
            lc.BoxSpec(0.5, 2.0, y_samples=y_samples)


def test_box_constant_overflow_names_C2():
    # (p^2/2) C2^{p-2} overflows a double; the float power alone raises
    # OverflowError, which the scan turns into a ValueError naming C2
    box = lc.BoxSpec(0.5, 1e300)
    with pytest.raises(ValueError, match="^C2:"):
        box.abs_scale(6.0)
    with pytest.raises(ValueError, match="^C2:"):
        lc.find_f_constants(6.0, box)
    assert lc.BoxSpec(0.5, 2.0).abs_scale(6.0) == 0.5 * 6.0 * 6.0 * 2.0**4


def test_log_bound_margin_nonnegative_everywhere():
    # 1e6 samples of s^2 log s^2 + C1 s^2 + e^{-1-C1} >= 0
    rng = np.random.default_rng(33)
    for C1 in (-1.0, 0.5, 2.0, 5.0):
        s = np.concatenate(
            [
                np.geomspace(1e-12, 1e3, 500000),
                rng.uniform(0.0, 10.0, 499999),
                [0.0],
            ]
        )
        m = lc.pointwise_log_bound_margin(s, C1)
        assert m.shape == s.shape
        assert np.min(m) >= -1e-12


def ref_corollary(p, u0, bubbles, t_n):
    """check_corollary's constants (B1, B2, B3) and margins, written out by hand."""
    ts, q, eps = p.two_star, p.q, p.q - 2.0
    support = np.any([b > 0 for b in bubbles], axis=0)
    L1, L2 = float(np.min(u0[support])), float(np.max(u0[support]))
    if L1 == L2:
        L2 = L1 * (1.0 + 1e-12)
    y_top = max(t * float(np.max(b)) for t, b in zip(t_n, bubbles))
    sups = inequalities.scan_box(lc.BoxSpec(L1, L2, y_max=max(1.05 * y_top, 1e-3)), eps, ts, q)
    certify = inequalities.certified_constant
    B1 = certify(sups["g_upper"])
    B2 = max(certify(sups.get("f_lower", 0.0)), certify(sups["f_abs"]))
    B3 = certify(sups["f1_sandwich"])
    margins = {key: np.inf for key in ("g_upper", "f_lower", "f_abs", "f1_upper", "f1_lower")}
    for t_fac, b in zip(t_n, bubbles):
        mask = b > 0
        t, y = u0[mask], t_fac * b[mask]
        y2 = y * y
        gval, fval, f1val = lc.g_term(t, y), lc.f_term(ts, t, y), lc.f1_term(q, t, y)
        for key, margin in (
            ("g_upper", y ** (2.0 + eps) + B1 * y2 - gval),
            ("f_lower", fval - 0.5 * ts * L1 * y ** (ts - 1.0) + B2 * y2),
            (
                "f_abs",
                0.5 * ts * ts * L2 ** (ts - 2.0) * y2 + B2 * L2 * y ** (ts - 1.0) - np.abs(fval),
            ),
            ("f1_upper", 2.0 * y**q + B3 * y2 - f1val),
            ("f1_lower", f1val - 0.5 * y**q + B3 * y2),
        ):
            margins[key] = min(margins[key], float(np.min(margin / y2)))
    if ts <= 3:
        del margins["f_lower"]
    return (B1, B2, B3), margins


def assert_matches_ref_corollary(p, u0, bubbles, t_n):
    """check_corollary equals its hand-written reference up to rounding in the margins."""
    v = lc.check_corollary(p, u0, bubbles, t_n)
    constants, margins = ref_corollary(p, u0, bubbles, t_n)
    assert (v.B1, v.B2, v.B3) == constants
    assert list(v.margins) == list(margins)
    for key, margin in margins.items():
        assert v.margins[key] == pytest.approx(margin, rel=1e-12, abs=0.0)
    assert v.worst_bound == min(margins, key=margins.get)
    assert v.worst_margin == v.margins[v.worst_bound]
    assert v.ok == (v.worst_margin >= 0)
    return v


def test_corollary_on_computed_minimizer(solved_a, params_a):
    report, _, g = solved_a
    bubbles = [
        lc.truncated_bubble(lc.BubbleSpec(N=3, n=n, r0=0.25), g) for n in (16, 32, 64)
    ]
    floor = 1e-3  # corollary wants u0 > 0; lift the boundary zeros
    u0 = np.maximum(report.u0, floor)
    verdict = assert_matches_ref_corollary(params_a, u0, bubbles, [0.8, 0.4, 0.2])
    assert verdict.ok
    assert verdict.worst_margin > 0
    assert 0 < verdict.L1 < verdict.L2
    assert verdict.B1 > 0 and verdict.B2 > 0 and verdict.B3 > 0
    assert set(verdict.margins) == {
        "g_upper",
        "f_abs",
        "f1_upper",
        "f1_lower",
        "f_lower",
    }

    # shrinking the bubble amplitudes keeps every bound satisfied and
    # relaxes the g bound monotonically
    g_margins = [verdict.margins["g_upper"]]
    for fac in (0.1, 0.01, 0.001):
        v = assert_matches_ref_corollary(params_a, u0, bubbles, [0.8 * fac, 0.4 * fac, 0.2 * fac])
        assert v.ok
        g_margins.append(v.margins["g_upper"])
    assert all(a <= b + 1e-12 for a, b in zip(g_margins, g_margins[1:]))


def test_corollary_rejections(params_a):
    g = lc.build_grid(3, 1.0, 256)
    b = lc.truncated_bubble(lc.BubbleSpec(N=3, n=8, r0=0.25), g)
    u0 = np.full(256, 0.5)
    with pytest.raises(ValueError, match="positive"):
        lc.check_corollary(params_a, np.zeros(256), [b], [0.5])
    with pytest.raises(ValueError, match="one scale factor"):
        lc.check_corollary(params_a, u0, [b, b], [0.5])
    with pytest.raises(ValueError, match="vanish"):
        lc.check_corollary(params_a, u0, [np.zeros(256)], [0.5])
    # one vanishing bubble beside a live one hit an empty reduction
    with pytest.raises(ValueError, match=r"^bubbles\[1\] vanishes identically$"):
        lc.check_corollary(params_a, u0, [b, np.zeros(256)], [0.5, 0.5])


def corollary_case_a():
    """A bubble of scale 8 and u0 = 0.5 (1 + 0.1 r) on a 256-cell grid."""
    g = lc.build_grid(3, 1.0, 256)
    b = lc.truncated_bubble(lc.BubbleSpec(N=3, n=8, r0=0.25), g)
    return 0.5 * (1.0 + 0.1 * g.r), b


@pytest.mark.parametrize("t", [0.0, -0.5, np.inf, np.nan])
def test_corollary_rejects_nonpositive_or_nonfinite_scale(params_a, t):
    # a zero scale gave every margin inf and ok = True
    u0, b = corollary_case_a()
    with pytest.raises(ValueError, match="^t_n: need positive finite scale factors"):
        lc.check_corollary(params_a, u0, [b], [t])


@pytest.mark.parametrize(
    "t, nan_constants, worst_bound",
    [(1e60, ("B2",), "f_lower"), (1e200, ("B1", "B2", "B3"), "g_upper")],
)
def test_corollary_fails_on_nan(params_a, t, nan_constants, worst_bound):
    # the f scans leave double range at t_n = 1e60, and every scan does at
    # 1e200; the verdict passed on such NaN constants.  Now it fails, on
    # the first NaN margin
    u0, b = corollary_case_a()
    v = lc.check_corollary(params_a, u0, [b], [t])
    assert [key for key in ("B1", "B2", "B3") if np.isnan(getattr(v, key))] == list(nan_constants)
    assert not v.ok
    assert np.isnan(v.worst_margin)
    assert v.worst_bound == worst_bound


def test_box_span_cap_boundary():
    # C2 / y_min may reach 1e10 exactly; y_min is 1e-6, or y_max / 10
    lc.BoxSpec(0.5, 1e4).check_span()
    with pytest.raises(ValueError, match=r"^C2: need C2 / y_min <= 1e\+10 "):
        lc.BoxSpec(0.5, 1.0000001e4).check_span()
    lc.BoxSpec(0.5, 1e4, y_max=1e-5).check_span()
    with pytest.raises(ValueError, match=r"y_min = 1e-07,"):
        lc.BoxSpec(0.5, 1e4, y_max=1e-6).check_span()


def test_corollary_rejects_box_past_cancellation_range(params_a):
    # u0 near 1e10 spans C2 / y_min = 1.05e16, where the scanned B2 was
    # rounding noise (3.1e48) and the verdict still passed
    u0, b = corollary_case_a()
    with pytest.raises(ValueError, match=r"^C2: need C2 / y_min <= 1e\+10 .* got 1\.05e\+16"):
        lc.check_corollary(params_a, 2e10 * u0, [b], [0.5])


@pytest.mark.parametrize("t", [1e-100, 1e-160, 1e-200])
def test_corollary_rejects_points_past_cancellation_range(params_a, t):
    # the box passes its span check, but u0 / (t_n U_n) reaches 3.7e101
    # and beyond at the evaluated points; the verdicts were rounding
    # failures: a margin of -4.8e85 at 1e-100, -inf at 1e-160, NaN at 1e-200
    u0, b = corollary_case_a()
    with pytest.raises(ValueError, match=r"^bubbles\[0\]: need u0 / \(t_n U_n\) <= 1e\+10 "):
        lc.check_corollary(params_a, u0, [b], [t])


def test_corollary_point_span_names_the_bubble(params_a):
    # t_n = 1e-6 spans 3.7e7 and is checked; the error names the bubble past the range
    u0, b = corollary_case_a()
    assert lc.check_corollary(params_a, u0, [b], [1e-6]).ok
    with pytest.raises(ValueError, match=r"^bubbles\[1\]: .* got 3\.69e\+101"):
        lc.check_corollary(params_a, u0, [b, b], [1e-6, 1e-100])


def test_corollary_high_dimension_drops_f_lower():
    # 2* = 4 at N = 4 fails the p > 3 requirement only for the lower
    # bound at... 4 > 3 so it is kept; N = 6 has 2* = 3 and drops it
    p = lc.ProblemParams(N=6, q=2.2, mu=1.0, nu=0.5, lam=0.0, theta=-1.0)
    g = lc.build_grid(6, 1.0, 256)
    b = lc.truncated_bubble(lc.BubbleSpec(N=6, n=8, r0=0.25), g)
    u0 = np.full(256, 0.5)
    v = assert_matches_ref_corollary(p, u0, [b], [0.1])
    assert "f_lower" not in v.margins
    assert v.ok


# -- block evaluation of the scans ----------------------------------------
# Reference copies of the full-array scans that evaluate a whole t grid of
# t_samples points in [C1, C2] against the y grid at once.

REF_T_SAMPLES = 1000


def ref_t_grid(box, t_samples):
    return np.linspace(box.C1, box.C2, t_samples)[:, None]


def ref_scan_sup_A1(box, eps, t_samples=REF_T_SAMPLES):
    t = ref_t_grid(box, t_samples)
    y = box.y_grid()[None, :]
    ratio = (lc.g_term(t, y) - y ** (2.0 + eps)) / (y * y)
    return float(np.max(ratio))


def ref_scan_sup_f(p, box, t_samples=REF_T_SAMPLES):
    t = ref_t_grid(box, t_samples)
    y = box.y_grid()[None, :]
    f = lc.f_term(p, t, y)
    sup_low = None
    if p > 3:
        ratio = (0.5 * p * box.C1 * y ** (p - 1.0) - f) / (y * y)
        sup_low = float(np.max(ratio))
    ratio_hat = (np.abs(f) - 0.5 * p * p * box.C2 ** (p - 2.0) * y * y) / (
        box.C2 * y ** (p - 1.0)
    )
    return sup_low, float(np.max(ratio_hat))


def ref_scan_sup_A3(m, box, t_samples=REF_T_SAMPLES):
    t = ref_t_grid(box, t_samples)
    y = box.y_grid()[None, :]
    f1 = lc.f1_term(m, t, y)
    upper = (f1 - 2.0 * y**m) / (y * y)
    low = (0.5 * y**m - f1) / (y * y)
    return float(max(np.max(upper), np.max(low)))


def keyed(scan_A1, scan_f, scan_A3):
    """The suprema of three single-lemma scans, keyed and ordered as scan_box returns them.

    Keyword arguments (a reference scan's t_samples) go to each scan.
    """

    def sups(box, eps, p, m, **kw):
        out = {}
        if eps is not None:
            out["g_upper"] = scan_A1(box, eps, **kw)
        if p is not None:
            sup_low, sup_hat = scan_f(p, box, **kw)
            if sup_low is not None:
                out["f_lower"] = sup_low
            out["f_abs"] = sup_hat
        if m is not None:
            out["f1_sandwich"] = scan_A3(m, box, **kw)
        return out

    return sups


ref_sups = keyed(ref_scan_sup_A1, ref_scan_sup_f, ref_scan_sup_A3)
single_sups = keyed(inequalities.scan_sup_A1, inequalities.scan_sup_f, inequalities.scan_sup_A3)


def bits(sups):
    """Keys and reprs of the suprema: equal when every bit is, NaN included."""
    return [(key, repr(v)) for key, v in sups.items()]


# both ways to scan a box: the single-lemma scans and one scan_box pass
SCANS = pytest.mark.parametrize(
    "scans", [single_sups, inequalities.scan_box], ids=["single", "scan_box"]
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@SCANS
class TestScanBitExact:
    def check(self, scans, box, p, q, t_samples=REF_T_SAMPLES):
        got = scans(box, q - 2.0, p, q)
        want = ref_sups(box, q - 2.0, p, q, t_samples=t_samples)
        return got, want

    @pytest.mark.parametrize("p, q", CERTIFY_EXPONENTS)
    def test_certify_exponents_on_default_box(self, scans, p, q):
        got, want = self.check(scans, BOX, p, q)
        assert bits(got) == bits(want)
        assert all(np.isfinite(v) for v in got.values())

    @pytest.mark.parametrize("y_samples", [500, 1001, 16383, 16384])
    def test_y_sample_counts(self, scans, y_samples):
        # the floor, odd counts and the cap; a 7-point reference t grid
        # keeps the long rows' reference small
        box = lc.BoxSpec(0.5, 2.0, y_samples=y_samples)
        for p, q in CERTIFY_EXPONENTS:
            got, want = self.check(scans, box, p, q, t_samples=7)
            assert bits(got) == bits(want)

    def test_lower_bound_absent_for_p_at_most_3(self, scans):
        for p in (2.5, 3.0):
            got, want = self.check(scans, BOX, p, 2.2)
            assert bits(got) == bits(want)
            assert "f_lower" not in got

    def test_corollary_box(self, scans, monkeypatch):
        # the box check_corollary builds from a solution and bubbles,
        # scanned once for all three lemmas
        boxes = []
        scan = inequalities.scan_box
        monkeypatch.setattr(
            inequalities, "scan_box", lambda box, *args: boxes.append(box) or scan(box, *args)
        )
        p = lc.ProblemParams(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0)
        g = lc.build_grid(3, 1.0, 256)
        u0 = 1.0 - 0.9 * g.r**2
        b = lc.truncated_bubble(lc.BubbleSpec(N=3, n=8, r0=0.25), g)
        lc.check_corollary(p, u0, [b], [0.3])
        (box,) = boxes
        assert box.y_samples == 1000
        for p, q in CERTIFY_EXPONENTS:
            got, want = self.check(scans, box, p, q)
            assert bits(got) == bits(want)

    def test_overflowing_box_keeps_nan(self, scans):
        box = lc.BoxSpec(0.5, 2.0, y_max=1e200)
        got, want = self.check(scans, box, 6.0, 3.0)
        assert all(np.isnan(v) for v in want.values())
        assert bits(got) == bits(want)

    def test_underflowing_normalizer_keeps_its_bits(self, scans):
        # y*y underflows to 0 on the whole y grid, so every normalizer c is
        # 0 and x/c is -inf, inf or nan by the sign of x
        box = lc.BoxSpec(0.5, 2.0, y_max=1e-200)
        assert np.all(box.y_grid() ** 2 == 0.0)
        for p, q in CERTIFY_EXPONENTS:
            got, want = self.check(scans, box, p, q)
            assert bits(got) == bits(want)

    @pytest.mark.parametrize(
        "exponents, box",
        [
            # (t+y)^2 overflows and log1p(y/t) underflows to 0 at t = 1e300
            ((0.5, None, None), dict(C1=1.0, C2=1e300, y_max=1e-30)),
            # t^6 and 6 t^5 y both overflow at t = 1e60, y > 3e7
            ((None, 6.0, None), dict(C1=1.0, C2=1e60, y_max=1e9)),
            # t^3 and 3 t^2 y both overflow at t = 1e103, y > 6e101
            ((None, None, 3.0), dict(C1=1.0, C2=1e103, y_max=1e102)),
        ],
        ids=["A1", "f", "A3"],
    )
    def test_nan_only_in_the_t_C2_row(self, scans, exponents, box):
        # the t = C1 row is finite, and the t = C2 row holds every NaN; the
        # one- and two-point reference t grids are [C1] and [C1, C2]
        box = lc.BoxSpec(**box, y_samples=inequalities.MAX_Y_SAMPLES)
        assert all(np.isfinite(v) for v in ref_sups(box, *exponents, t_samples=1).values())
        want = ref_sups(box, *exponents, t_samples=2)
        assert any(np.isnan(v) for v in want.values())
        assert bits(scans(box, *exponents)) == bits(want)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-4.0, max_value=8.0),
    st.floats(min_value=1e-3, max_value=10.0),
)
def test_terms_nondecreasing_in_t(log_t2, log_ratio, step):
    # the premise of the end-point scan, on the stable forms it evaluates:
    # at fixed y > 0 each term is no larger at t1 than at t2 = t1 (1 + step),
    # for t2/y = 10^log_ratio up to 1e8
    t2 = 10.0**log_t2
    t1 = t2 / (1.0 + step)
    y = t2 / 10.0**log_ratio
    assert lc.g_term(t1, y) <= lc.g_term(t2, y)
    for p, q in CERTIFY_EXPONENTS:
        assert lc.f_term(p, t1, y) <= lc.f_term(p, t2, y)
        assert lc.f1_term(q, t1, y) <= lc.f1_term(q, t2, y)


def test_scan_evaluates_only_the_t_end_points(monkeypatch):
    # each family is evaluated at t = C1 and t = C2 against every y sample
    points = {}
    g, f1 = inequalities._g, inequalities._f1

    def count(key, t, y, L):
        points[key] = points.get(key, 0) + np.broadcast(t, y, L).size

    monkeypatch.setattr(inequalities, "_g", lambda t, y, L: count("g", t, y, L) or g(t, y, L))
    monkeypatch.setattr(
        inequalities, "_f1", lambda m, t, y, L: count(m, t, y, L) or f1(m, t, y, L)
    )
    inequalities.scan_box(BOX, 0.5, 6.0, 2.5)
    n = 2 * BOX.y_samples
    assert points == {"g": n, 6.0: n, 2.5: n}


@SCANS
def test_scan_memory_stays_below_one_full_grid(scans):
    # the full-array scan of the 1000 x 1000 default box peaked at about
    # 32 MB (four 8 MB grids alive at once); the end-point scan holds a few
    # (2, y_samples) temporaries, about 200 bytes per y sample, so even the
    # largest box stays below one 8 MB grid of 1e6 points
    for box in (BOX, lc.BoxSpec(0.5, 2.0, y_samples=inequalities.MAX_Y_SAMPLES)):
        tracemalloc.start()
        try:
            scans(box, 0.5, 6.0, 2.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**6 * 8
