import tracemalloc

import numpy as np
import pytest

import logcrit as lc
from logcrit import inequalities

BOX = lc.BoxSpec(0.5, 2.0)

# frozen finder outputs on the [0.5, 2] x (0, 1e3] box at 1000 x 1000
FROZEN_A1_EPS_HALF = 4.823824165511649
FROZEN_F6_ABS = 227.72400383260273
FROZEN_F4_ABS = 4.395599999999463
FROZEN_A3_M3 = 6.599998899165082


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


def test_constants_stable_under_grid_doubling():
    fine = lc.BoxSpec(0.5, 2.0, t_samples=2000, y_samples=2000)
    assert lc.find_A1(fine, 0.5) == pytest.approx(lc.find_A1(BOX, 0.5), rel=0.05)
    assert lc.find_A3(2.5, fine) == pytest.approx(lc.find_A3(2.5, BOX), rel=0.05)
    _, hat_f = lc.find_f_constants(6.0, fine)
    _, hat_c = lc.find_f_constants(6.0, BOX)
    assert hat_f == pytest.approx(hat_c, rel=0.05)


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


def test_finder_rejections():
    with pytest.raises(ValueError):
        lc.find_A1(BOX, 0.0)
    with pytest.raises(ValueError, match="exceed 2"):
        lc.find_f_constants(2.0, BOX)
    with pytest.raises(ValueError, match="p > 3"):
        lc.find_f_constants(2.5, BOX, lower=True)
    with pytest.raises(ValueError, match="exceed 2"):
        lc.find_A3(1.5, BOX)
    with pytest.raises(ValueError, match="0 < C1 < C2"):
        lc.BoxSpec(2.0, 0.5)
    with pytest.raises(ValueError, match="0 < C1 < C2"):
        lc.BoxSpec(0.0, 1.0)
    with pytest.raises(ValueError, match="y_max"):
        lc.BoxSpec(0.5, 2.0, y_max=-1.0)
    with pytest.raises(ValueError, match="1000 grid points"):
        lc.BoxSpec(0.5, 2.0, t_samples=10, y_samples=10)


@pytest.mark.parametrize(
    "kw, key",
    [
        (dict(t_samples=-1000, y_samples=-1000), "t_samples"),
        (dict(t_samples=0, y_samples=1000), "t_samples"),
        (dict(y_samples=1000.5), "y_samples"),
        (dict(t_samples=True), "t_samples"),
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
    # 1e12 points would scan for hours; the bound is 1e8, 100 default boxes
    for t_samples, y_samples in ((10**6, 10**6), (10**4, 10**4 + 1), (1, 10**8 + 1)):
        with pytest.raises(ValueError, match="^t_samples, y_samples: need at most"):
            lc.BoxSpec(0.5, 2.0, t_samples=t_samples, y_samples=y_samples)
    # int64 counts whose product wraps around are still rejected
    with pytest.raises(ValueError, match="at most"):
        lc.BoxSpec(0.5, 2.0, t_samples=np.int64(2**32), y_samples=np.int64(2**32))
    assert lc.BoxSpec(0.5, 2.0, t_samples=10**4, y_samples=10**4).t_samples == 10**4


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


def test_corollary_on_computed_minimizer(solved_a, params_a):
    report, _, g = solved_a
    bubbles = [
        lc.truncated_bubble(lc.BubbleSpec(N=3, n=n, r0=0.25), g) for n in (16, 32, 64)
    ]
    floor = 1e-3  # corollary wants u0 > 0; lift the boundary zeros
    u0 = np.maximum(report.u0, floor)
    verdict = lc.check_corollary(params_a, u0, bubbles, [0.8, 0.4, 0.2])
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
        v = lc.check_corollary(
            params_a, u0, bubbles, [0.8 * fac, 0.4 * fac, 0.2 * fac]
        )
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


def test_corollary_high_dimension_drops_f_lower():
    # 2* = 4 at N = 4 fails the p > 3 requirement only for the lower
    # bound at... 4 > 3 so it is kept; N = 6 has 2* = 3 and drops it
    p = lc.ProblemParams(N=6, q=2.2, mu=1.0, nu=0.5, lam=0.0, theta=-1.0)
    g = lc.build_grid(6, 1.0, 256)
    b = lc.truncated_bubble(lc.BubbleSpec(N=6, n=8, r0=0.25), g)
    u0 = np.full(256, 0.5)
    v = lc.check_corollary(p, u0, [b], [0.1])
    assert "f_lower" not in v.margins
    assert v.ok


# -- block evaluation of the scans ----------------------------------------
# Reference copies of the full-array scans that evaluate the whole
# t_samples x y_samples grid at once.


def ref_scan_sup_A1(box, eps):
    t = box.t_grid()[:, None]
    y = box.y_grid()[None, :]
    ratio = (lc.g_term(t, y) - y ** (2.0 + eps)) / (y * y)
    return float(np.max(ratio))


def ref_scan_sup_f(p, box, lower=None):
    if lower is None:
        lower = p > 3
    t = box.t_grid()[:, None]
    y = box.y_grid()[None, :]
    f = lc.f_term(p, t, y)
    sup_low = None
    if lower:
        ratio = (0.5 * p * box.C1 * y ** (p - 1.0) - f) / (y * y)
        sup_low = float(np.max(ratio))
    ratio_hat = (np.abs(f) - 0.5 * p * p * box.C2 ** (p - 2.0) * y * y) / (
        box.C2 * y ** (p - 1.0)
    )
    return sup_low, float(np.max(ratio_hat))


def ref_scan_sup_A3(m, box):
    t = box.t_grid()[:, None]
    y = box.y_grid()[None, :]
    f1 = lc.f1_term(m, t, y)
    upper = (f1 - 2.0 * y**m) / (y * y)
    low = (0.5 * y**m - f1) / (y * y)
    return float(max(np.max(upper), np.max(low)))


def all_sups(scan_A1, scan_f, scan_A3, box, p, q):
    """The four suprema of one certify run: g, f lower, |f|, f1."""
    return (scan_A1(box, q - 2.0), *scan_f(p, box), scan_A3(q, box))


def same_or_both_nan(a, b):
    return a == b or (a is not None and b is not None and np.isnan(a) and np.isnan(b))


# (2*, q) of the certify runs (N, q) = (3, 2.5), (4, 3), (5, 2.8)
CERTIFY_EXPONENTS = [(6.0, 2.5), (4.0, 3.0), (10.0 / 3.0, 2.8)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestScanBlocksBitExact:
    def check(self, box, p, q):
        ineq = inequalities
        got = all_sups(ineq.scan_sup_A1, ineq.scan_sup_f, ineq.scan_sup_A3, box, p, q)
        want = all_sups(ref_scan_sup_A1, ref_scan_sup_f, ref_scan_sup_A3, box, p, q)
        return got, want

    @pytest.mark.parametrize("p, q", CERTIFY_EXPONENTS)
    def test_certify_exponents_on_default_box(self, p, q):
        got, want = self.check(BOX, p, q)
        assert got == want
        assert all(np.isfinite(v) for v in got)

    @pytest.mark.parametrize("shape", [(999, 1001), (1, 1000), (1000, 1), (7, 200)])
    def test_shapes_the_block_does_not_divide(self, shape):
        t_samples, y_samples = shape
        assert t_samples % max(1, inequalities.BLOCK // y_samples) != 0
        box = lc.BoxSpec(0.5, 2.0, t_samples=t_samples, y_samples=y_samples)
        for p, q in CERTIFY_EXPONENTS:
            got, want = self.check(box, p, q)
            assert got == want

    def test_rows_longer_than_a_block(self):
        # a row splits into pieces of BLOCK columns; the blocks' points are
        # those of t_grid and y_grid, bit for bit
        box = lc.BoxSpec(0.5, 2.0, t_samples=3, y_samples=2 * inequalities.BLOCK + 5)
        blocks = list(inequalities._row_blocks(box))
        assert len(blocks) == 9
        assert max(t.size * y.size for t, y in blocks) == inequalities.BLOCK
        ts = np.concatenate([t[:, 0] for t, _ in blocks[:3]])
        ys = np.concatenate([y[0] for _, y in blocks[::3]])
        assert np.array_equal(ts, box.t_grid()) and np.array_equal(ys, box.y_grid())
        for p, q in CERTIFY_EXPONENTS:
            got, want = self.check(box, p, q)
            assert got == want

    def test_lower_bound_absent_for_p_at_most_3(self):
        for p in (2.5, 3.0):
            got, want = self.check(BOX, p, 2.2)
            assert got == want
            assert got[1] is None
        with pytest.raises(ValueError, match="p > 3"):
            inequalities.scan_sup_f(3.0, BOX, lower=True)

    def test_corollary_box(self, monkeypatch):
        # the 400 x 400 box check_corollary builds from a solution and bubbles
        boxes = []
        scan = inequalities.scan_sup_A1
        monkeypatch.setattr(
            inequalities, "scan_sup_A1", lambda box, eps: boxes.append(box) or scan(box, eps)
        )
        p = lc.ProblemParams(N=3, q=2.5, mu=1.0, nu=-0.5, lam=0.0, theta=-2.0)
        g = lc.build_grid(3, 1.0, 256)
        u0 = 1.0 - 0.9 * g.r**2
        b = lc.truncated_bubble(lc.BubbleSpec(N=3, n=8, r0=0.25), g)
        lc.check_corollary(p, u0, [b], [0.3])
        (box,) = boxes
        assert (box.t_samples, box.y_samples) == (400, 400)
        for p, q in CERTIFY_EXPONENTS:
            got, want = self.check(box, p, q)
            assert got == want

    def test_overflowing_box_keeps_nan(self):
        box = lc.BoxSpec(0.5, 2.0, y_max=1e200)
        got, want = self.check(box, 6.0, 3.0)
        assert all(np.isnan(v) for v in want)
        assert all(same_or_both_nan(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize(
        "scan, ref, box",
        [
            # (t+y)^2 overflows and log1p(y/t) underflows to 0 at t = 1e300
            (
                lambda box: inequalities.scan_sup_A1(box, 0.5),
                lambda box: ref_scan_sup_A1(box, 0.5),
                dict(C1=1.0, C2=1e300, y_max=1e-30),
            ),
            # t^6 and 6 t^5 y both overflow at t = 1e60, y > 3e7
            (
                lambda box: inequalities.scan_sup_f(6.0, box),
                lambda box: ref_scan_sup_f(6.0, box),
                dict(C1=1.0, C2=1e60, y_max=1e9),
            ),
            # t^3 and 3 t^2 y both overflow at t = 1e103, y > 6e101
            (
                lambda box: inequalities.scan_sup_A3(3.0, box),
                lambda box: ref_scan_sup_A3(3.0, box),
                dict(C1=1.0, C2=1e103, y_max=1e102),
            ),
        ],
        ids=["A1", "f", "A3"],
    )
    def test_nan_only_in_the_last_block(self, scan, ref, box):
        # one t row per block: the t = C1 row is finite, the t = C2 row is
        # the last block and holds every NaN
        head = lc.BoxSpec(**box, t_samples=1, y_samples=inequalities.BLOCK)
        full = lc.BoxSpec(**box, t_samples=2, y_samples=inequalities.BLOCK)
        assert np.all(np.isfinite(ref(head)))
        want = np.atleast_1d(ref(full))
        assert np.any(np.isnan(want))
        got = np.atleast_1d(scan(full))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.array_equal(got, want, equal_nan=True)


def test_scan_memory_stays_below_one_full_grid():
    # the full-array scan peaked at about 32 MB (four 8 MB grids alive at
    # once); a block scan holds a few block-sized temporaries.  A box of
    # one t row splits the row, and builds its y axis block by block too
    for box in (BOX, lc.BoxSpec(0.5, 2.0, t_samples=1, y_samples=10**6)):
        tracemalloc.start()
        try:
            inequalities.scan_sup_f(6.0, box)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < box.t_samples * box.y_samples * 8
