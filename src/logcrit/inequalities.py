"""Empirical certification of the scalar expansion inequalities.

Three families of pointwise bounds control how the energy of u0 + tU_n
splits into the energy of u0, the bubble terms, and remainders:

    g(t,y)    = (t+y)^2 ln (t+y)^2 - t^2 ln t^2 - 2ty(ln t^2 + 1)
    f(p,t,y)  = (t+y)^p - t^p - y^p - p t^{p-1} y
    f1(m,t,y) = (t+y)^m - t^m - m t^{m-1} y

for t in [C1, C2] and y > 0.  The finders scan a box and return the
smallest constants certifying the bounds there, with 10% headroom so a
re-scan at finer resolution still passes.  A certificate is therefore a
grid scan with headroom, not a rigorous enclosure: nothing bounds the
functions between the grid nodes.  All three functions are evaluated in
cancellation-stable forms (log1p/expm1) because the interesting margins
sit at y several orders below t.

scan_box scans a box once for all three lemmas, and only at the two t
end points C1 and C2.  Each function is nondecreasing in t for every
y > 0:

    dg/dt      = 4 [(t+y) log1p(y/t) - y] >= 0,  as (1+s) log(1+s) >= s;
    df1(m)/dt  = m f1(m-1) >= 0 for m > 2,  by convexity of x^{m-1};

and f(p) = f1(p) - y^p has the t-derivative of f1(p).  Each bound's
normalization depends on y alone, so each defect is monotone in t, and
its supremum over t in [C1, C2] sits at t = C1 or t = C2.  The scan builds
the y grid in chunks of at most BLOCK points, so a long axis is never
held whole, and evaluates the two t end points against each chunk.
Each point gets one L = log1p(y/t), and g, f and f1 all follow from it
through the same ufunc sequence as the pointwise forms.  The single-lemma
scans scan_sup_A1, scan_sup_f and scan_sup_A3 are scan_box restricted to
one family.

_bounds is the one table of the five bounds (g_upper, f_lower, f_abs,
f1_upper, f1_lower), and _excesses evaluates it at any points (t, y).
scan_box evaluates it at t = C1 and t = C2 against the y grid;
check_corollary evaluates it at (u0, t_n U_n) on each bubble's support,
with the constants that scan_box certified.  Both reject a box past the
cancellation range (BoxSpec.check_span: C2 / y_min at most 1e10).
"""

import math
from dataclasses import dataclass

import numpy as np

HEADROOM = 1.1
Y_GRID_FLOOR = 1e-6
BLOCK = 1 << 14  # y samples per scan chunk: 256 kB per two-row float64 temporary
# cap on the points a scan evaluates, 2 per y sample: one scan_box of 2^20
# y samples takes 0.11-0.13 s on a 2-core Xeon, and the cap (5e7 y samples)
# is 48 times that box
_MAX_POINTS = 10**8
# the largest C2 / y_min a box may span: float g carries a relative error
# of about 2^-52 t/y, so about 6 digits are left at 1e10 (the default box
# spans 2e6)
MAX_SCAN_T_OVER_Y = 1e10


@dataclass(frozen=True)
class BoxSpec:
    """Scan box [C1, C2] x (0, y_max] with a geometric y grid from 1e-6.

    A scan evaluates t = C1 and t = C2 against each of the y_samples.
    """

    C1: float
    C2: float
    y_max: float = 1e3
    y_samples: int = 1000

    def __post_init__(self):
        for key in ("C1", "C2", "y_max"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key}: need a finite number")
        if not (0 < self.C1 < self.C2):
            raise ValueError("C1: need 0 < C1 < C2")
        if not (self.y_max > 0):
            raise ValueError("y_max: need a positive number")
        n = self.y_samples
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
            raise ValueError("y_samples: need a positive integer")
        points = 2 * int(n)
        if points < 1000:
            raise ValueError(
                f"y_samples: need at least 1000 scanned points (2 per y sample), got {points}"
            )
        if points > _MAX_POINTS:
            raise ValueError(
                f"y_samples: need at most {_MAX_POINTS:.0e} scanned points "
                f"(2 per y sample), got {points}"
            )

    def y_grid(self):
        return np.geomspace(self._y_min(), self.y_max, self.y_samples)

    def check_span(self):
        """Raise ValueError naming C2 when C2 / y_min exceeds MAX_SCAN_T_OVER_Y.

        Not a __post_init__ check: a box past the range still scans, to NaN
        or to rounding noise, so how a scan handles overflow stays testable.
        """
        y_min = self._y_min()
        if self.C2 / y_min > MAX_SCAN_T_OVER_Y:
            raise ValueError(
                f"C2: need C2 / y_min <= {MAX_SCAN_T_OVER_Y:.0e} (y_min = {y_min:g}, "
                f"the first y sample), got {self.C2 / y_min:.3g}: rounding swamps the scanned g"
            )

    def _y_min(self):
        """First point of the y grid: Y_GRID_FLOOR, or y_max/10 if that is lower."""
        return min(Y_GRID_FLOOR, self.y_max / 10.0)

    def abs_scale(self, p):
        """(p^2/2) C2^{p-2}, the y^2 coefficient of the |f| bound.

        Raises ValueError naming C2 when it overflows a double.
        """
        try:
            scale = 0.5 * p * p * self.C2 ** (p - 2.0)
        except OverflowError:
            scale = math.inf
        if not math.isfinite(scale):
            raise ValueError(f"C2: (p^2/2) C2^(p-2) overflows at p = {p:g}")
        return scale


def _linspace_part(start, stop, num, lo, hi):
    """np.linspace(start, stop, num)[lo:hi], computed without the other points.

    numpy's arithmetic, k * step + start with step = (stop - start)/(num - 1)
    and the last point set to stop, so the values are bit-identical.
    """
    part = np.arange(lo, min(hi, num), dtype=float)
    part = part * ((stop - start) / max(num - 1, 1)) + start
    if hi >= num > 1:
        part[-1] = stop
    return part


def _row_blocks(box):
    """The box's y grid as (1, cols) rows of at most BLOCK columns each.

    The chunks are built one at a time, bit for bit as box.y_grid() (a
    geomspace: 10 to the power of a linspace of exponents, with exact end
    points) gives them, so no array holds more than BLOCK points of it.
    """
    y_lo, n_y = box._y_min(), box.y_samples
    log_lo, log_hi = np.log10(y_lo), np.log10(box.y_max)
    for col in range(0, n_y, BLOCK):
        y = 10.0 ** _linspace_part(log_lo, log_hi, n_y, col, col + BLOCK)
        if col == 0:
            y[0] = y_lo
        if col + BLOCK >= n_y > 1:
            y[-1] = box.y_max
        yield y[None, :]


# -- stable scalar forms ------------------------------------------------
# Each term is written once, from L = log1p(y/t), so a scan computes L
# once per grid point for all three.


def _g(t, y, L):
    """g = y^2 ln t^2 + 2 (t+y)^2 L - 2ty, with L = log1p(y/t)."""
    return y * y * 2.0 * np.log(t) + 2.0 * (t + y) ** 2 * L - 2.0 * t * y


def _f1(m, t, y, L):
    """f1 = t^m expm1(m L) - m t^{m-1} y, with L = log1p(y/t); f is f1 - y^m."""
    return t**m * np.expm1(m * L) - m * t ** (m - 1.0) * y


def g_term(t, y):
    """(t+y)^2 ln(t+y)^2 - t^2 ln t^2 - 2ty(ln t^2 + 1), stable for y << t.

    Rewrite with ln(t+y)^2 = ln t^2 + 2 log1p(y/t):
    g = y^2 ln t^2 + 2 (t+y)^2 log1p(y/t) - 2ty.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return _g(t, y, np.log1p(y / t))


def f_term(p, t, y):
    """(t+y)^p - t^p - y^p - p t^{p-1} y via expm1(p log1p(y/t))."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return _f1(p, t, y, np.log1p(y / t)) - y**p


def f1_term(m, t, y):
    """(t+y)^m - t^m - m t^{m-1} y via expm1(m log1p(y/t))."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return _f1(m, t, y, np.log1p(y / t))


def pointwise_log_bound_margin(s, C1):
    """s^2 log s^2 + C1 s^2 + e^{-1-C1}, nonnegative for all s >= 0.

    The integrand-level inequality that bounds the logarithmic part of
    the energy from below by -e^{-1-C1} |Omega|.
    """
    from .energy import safe_xlog

    return safe_xlog(s) + C1 * np.asarray(s, dtype=float) ** 2 + np.exp(-1.0 - C1)


# -- the box scan --------------------------------------------------------


def _bounds(box, y, eps, p, m):
    """(key, term, sign, k, c) of each bound at the y values: the one table of the bounds."""
    bounds = []
    if eps is not None:
        bounds.append(("g_upper", "g", 1, y ** (2.0 + eps), y * y))
    if p is not None:
        if p > 3:
            bounds.append(("f_lower", "f", -1, 0.5 * p * box.C1 * y ** (p - 1.0), y * y))
        bounds.append(("f_abs", "|f|", 1, box.abs_scale(p) * y * y, box.C2 * y ** (p - 1.0)))
    if m is not None:
        bounds.append(("f1_upper", "f1", 1, 2.0 * y**m, y * y))
        bounds.append(("f1_lower", "f1", -1, 0.5 * y**m, y * y))
    return bounds


def _excesses(box, t, y, eps, p, m):
    """(key, excess, c) of each bound at the points (t, y), in _bounds order.

    The excess is term - k for an upper bound and k - term for a lower
    one, so the bound holds with constant C wherever excess <= C c.
    """
    # first, so an overflowing f_abs scale raises before any term
    bounds = _bounds(box, y, eps, p, m)
    L = np.log1p(y / t)
    terms = {}
    if eps is not None:
        terms["g"] = _g(t, y, L)
    if p is not None:
        terms["f"] = _f1(p, t, y, L) - y**p
        terms["|f|"] = np.abs(terms["f"])
    if m is not None:
        terms["f1"] = _f1(m, t, y, L)
    for key, term, sign, k, c in bounds:
        x = terms[term]
        yield key, (x - k) if sign > 0 else (k - x), c


def scan_box(box, eps, p, m):
    """Suprema of the lemmas' normalized defects over the box grid, in one pass.

    Returns a dict with "g_upper" (scanned when eps is given), "f_lower"
    (when p > 3), "f_abs" (when p is given) and "f1_sandwich" (when m is
    given); None skips a family.

    Only the t end points C1 and C2 are evaluated.  g, f and f1 are
    nondecreasing in t for every y > 0:

        dg/dt     = 4 [(t+y) log1p(y/t) - y] >= 0
        df1(m)/dt = m f1(m-1) >= 0,  and f(p) has the t-derivative of f1(p)

    and each normalizer depends on y alone, so every defect is monotone
    in t and its supremum over [C1, C2] sits at an end point:
    g_upper, f1_upper and the upper side of f_abs at C2, f_lower,
    f1_lower and the lower side of f_abs at C1.  Each point gets one
    L = log1p(y/t), from which g, f and f1 follow.  A box that leaves
    double range gives NaN suprema without floating-point warnings.
    """
    if eps is not None and not (eps > 0):
        raise ValueError("eps must be positive")
    if p is not None and not (p > 2):
        raise ValueError("exponent p must exceed 2")
    if m is not None and not (m > 2):
        raise ValueError("exponent m must exceed 2")
    t = np.array([box.C1, box.C2])[:, None]
    chunk_sups = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for y in _row_blocks(box):
            for key, excess, c in _excesses(box, t, y, eps, p, m):
                chunk_sups.setdefault(key, []).append(np.max(excess / c))
    sups = {key: float(np.max(v)) for key, v in chunk_sups.items()}
    if m is not None:
        # as in a full-array scan, a NaN in the upper defect propagates
        # while a NaN only in the lower one does not
        sups["f1_sandwich"] = float(max(sups.pop("f1_upper"), sups.pop("f1_lower")))
    return sups


# -- constant finders ----------------------------------------------------


def certified_constant(sup):
    """The constant a scan supremum certifies: HEADROOM * max(sup, 0)."""
    return HEADROOM * max(sup, 0.0)


def scan_sup_A1(box, eps):
    """Supremum of (g - y^{2+eps}) / y^2 over the box grid."""
    return scan_box(box, eps, None, None)["g_upper"]


def find_A1(box, eps):
    """Smallest A1 (with headroom) certifying g(t,y) <= y^{2+eps} + A1 y^2 on the box.

    The small-y profile of g/y^2 approaches ln t^2 + 3, so A1 is at least
    3 + ln C2^2 once the y grid reaches far enough down.
    """
    return certified_constant(scan_sup_A1(box, eps))


def scan_sup_f(p, box):
    """Suprema behind the two f bounds: (lower-bound sup or None, |f| sup).

    The lower bound is scanned only when p > 3; for p <= 3 no y^2
    correction can rescue its y^{p-1} term near y = 0, and its sup is
    None.  Raises ValueError naming C2 when the |f| bound's coefficient
    (p^2/2) C2^{p-2} overflows.
    """
    sups = scan_box(box, None, p, None)
    return sups.get("f_lower"), sups["f_abs"]


def find_f_constants(p, box):
    """Constants (A2, A2_hat) for the two bounds on f(p,t,y) over the box.

        f  >= (p/2) C1 y^{p-1} - A2 y^2        (needs p > 3)
        |f| <= (p^2/2) C2^{p-2} y^2 + A2_hat C2 y^{p-1}

    A2 is None when p <= 3 (see scan_sup_f).
    """
    sup_low, sup_hat = scan_sup_f(p, box)
    A2 = None if sup_low is None else certified_constant(sup_low)
    return A2, certified_constant(sup_hat)


def scan_sup_A3(m, box):
    """Supremum of both sandwich defects for f1, normalized by y^2."""
    return scan_box(box, None, None, m)["f1_sandwich"]


def find_A3(m, box):
    """Smallest A3 (with headroom) for 2 y^m + A3 y^2 >= f1 >= y^m/2 - A3 y^2."""
    return certified_constant(scan_sup_A3(m, box))


# -- transfer to the solution-plus-bubble decomposition ------------------


@dataclass(frozen=True)
class CorollaryVerdict:
    ok: bool
    worst_margin: float
    worst_bound: str
    L1: float
    L2: float
    B1: float
    B2: float
    B3: float
    margins: dict


def check_corollary(p, u0, bubbles, t_n):
    """Check the scan_box bounds on g, f, f1 at t = u0, y = t_n U_n.

    The support mask comes from the bubbles themselves (they vanish at
    and beyond the taper edge), so L1/L2 are the extremes of u0 on the
    union of supports.  Constants B1, B2, B3 are certified from one
    scan_box pass over the box [L1, L2] x (0, y_max], which evaluates its
    two t end points against BoxSpec's default 1000 y samples; the box
    must pass BoxSpec.check_span.  The same bound table (_bounds) is then
    evaluated at every (u0, t_n U_n) point of each bubble's support.
    With eps = q - 2 the bounds are:

        g(u0, y)        <=  y^{2+eps} + B1 y^2
        f(2s, u0, y)    >=  (2s/2) L1 y^{2s-1} - B2 y^2     (only 2s > 3)
        |f(2s, u0, y)|  <=  (2s^2/2) L2^{2s-2} y^2 + B2 L2 y^{2s-1}
        2 y^q + B3 y^2  >=  f1(q, u0, y)  >=  y^q/2 - B3 y^2

    Margins are normalized by y^2 (both sides scale like y^2 near the
    taper edge), so they stay bounded away from 0 as t_n shrinks.
    Returns the worst margin over all nodes, scales, and bounds.  A NaN
    margin (a constant or a term that left double range) is the worst:
    it makes ok False and worst_bound names it.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0):
        raise ValueError("u0 must be positive everywhere")
    bubbles = [np.asarray(b, dtype=float) for b in bubbles]
    t_n = [float(t) for t in t_n]
    if len(bubbles) != len(t_n):
        raise ValueError("need one scale factor per bubble")
    if not all(0.0 < t < math.inf for t in t_n):
        raise ValueError(f"t_n: need positive finite scale factors, got {t_n}")
    masks = [b > 0 for b in bubbles]
    for i, mask in enumerate(masks):
        if not np.any(mask):
            raise ValueError(f"bubbles[{i}] vanishes identically")
    eps = p.q - 2.0

    support = np.logical_or.reduce(masks)
    L1 = float(np.min(u0[support]))
    L2 = float(np.max(u0[support]))
    if L1 == L2:
        L2 = L1 * (1.0 + 1e-12)

    y_top = max(t * float(np.max(b)) for t, b in zip(t_n, bubbles))
    box = BoxSpec(C1=L1, C2=L2, y_max=max(1.05 * y_top, 1e-3))
    box.check_span()
    ts = p.two_star
    sups = scan_box(box, eps, ts, p.q)
    B1 = certified_constant(sups["g_upper"])
    # np.max, unlike max, keeps a NaN in either f constant
    B2 = float(np.max([certified_constant(sups.get("f_lower", 0.0)),
                       certified_constant(sups["f_abs"])]))
    B3 = certified_constant(sups["f1_sandwich"])
    B = {"g_upper": B1, "f_lower": B2, "f_abs": B2, "f1_upper": B3, "f1_lower": B3}

    margins = {}
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for t_fac, b, mask in zip(t_n, bubbles, masks):
            t, y = u0[mask], t_fac * b[mask]
            for key, excess, c in _excesses(box, t, y, eps, ts, p.q):
                margin = np.min((B[key] * c - excess) / (y * y))
                margins[key] = float(np.minimum(margins.get(key, np.inf), margin))

    worst_bound = min(margins, key=lambda k: -np.inf if math.isnan(margins[k]) else margins[k])
    worst = margins[worst_bound]
    return CorollaryVerdict(
        ok=bool(worst >= 0.0),
        worst_margin=worst,
        worst_bound=worst_bound,
        L1=L1,
        L2=L2,
        B1=B1,
        B2=B2,
        B3=B3,
        margins=margins,
    )
