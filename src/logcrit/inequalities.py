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

The scans evaluate the box in blocks of at most BLOCK elements (whole
t-grid rows, or pieces of one row when a row is longer), and build the
grid points of each block as they go, so their temporaries stay in cache
instead of streaming full t_samples x y_samples arrays through memory,
and a long axis is never held whole.  Every element goes through the same
ufunc sequence as in a full-array evaluation, and the block maxima are
reduced with np.max (which propagates NaN), so the suprema are
bit-identical to the full-array ones.
"""

import math
from dataclasses import dataclass

import numpy as np

HEADROOM = 1.1
Y_GRID_FLOOR = 1e-6
BLOCK = 1 << 14  # grid points per scan block: 128 kB per float64 temporary
# box size cap, 100 times the default box: three scans of it take seconds,
# where an unbounded box (1e6 x 1e6) would run for hours
_MAX_POINTS = 10**8


@dataclass(frozen=True)
class BoxSpec:
    """Scan box [C1, C2] x (0, y_max] with a geometric y grid from 1e-6."""

    C1: float
    C2: float
    y_max: float = 1e3
    t_samples: int = 1000
    y_samples: int = 1000

    def __post_init__(self):
        for key in ("C1", "C2", "y_max"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key}: need a finite number")
        if not (0 < self.C1 < self.C2):
            raise ValueError("C1: need 0 < C1 < C2")
        if not (self.y_max > 0):
            raise ValueError("y_max: need a positive number")
        for key in ("t_samples", "y_samples"):
            n = getattr(self, key)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
                raise ValueError(f"{key}: need a positive integer")
        points = int(self.t_samples) * int(self.y_samples)
        if points < 1000:
            raise ValueError("t_samples, y_samples: need at least 1000 grid points in total")
        if points > _MAX_POINTS:
            raise ValueError(
                f"t_samples, y_samples: need at most {_MAX_POINTS:.0e} grid points "
                f"in total, got {points}"
            )

    def t_grid(self):
        return np.linspace(self.C1, self.C2, self.t_samples)

    def y_grid(self):
        return np.geomspace(self._y_min(), self.y_max, self.y_samples)

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
    """(t, y) blocks of the box grid, a (rows, 1) column against a (1, cols) row.

    Blocks of max(1, BLOCK // y_samples) t-grid rows by at most BLOCK
    y-grid columns cover every grid point once.  Both axes are built one
    block at a time, bit for bit as box.t_grid() and box.y_grid() (a
    geomspace: 10 to the power of a linspace of exponents, with exact end
    points) give them, so no array holds more than BLOCK points of an axis.
    """
    y_lo, n_y = box._y_min(), box.y_samples
    log_lo, log_hi = np.log10(y_lo), np.log10(box.y_max)
    rows = max(1, BLOCK // n_y)
    for col in range(0, n_y, BLOCK):
        y = 10.0 ** _linspace_part(log_lo, log_hi, n_y, col, col + BLOCK)
        if col == 0:
            y[0] = y_lo
        if col + BLOCK >= n_y > 1:
            y[-1] = box.y_max
        for row in range(0, box.t_samples, rows):
            t = _linspace_part(box.C1, box.C2, box.t_samples, row, row + rows)
            yield t[:, None], y[None, :]


# -- stable scalar forms ------------------------------------------------


def g_term(t, y):
    """(t+y)^2 ln(t+y)^2 - t^2 ln t^2 - 2ty(ln t^2 + 1), stable for y << t.

    Rewrite with ln(t+y)^2 = ln t^2 + 2 log1p(y/t):
    g = y^2 ln t^2 + 2 (t+y)^2 log1p(y/t) - 2ty.
    """
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return y * y * 2.0 * np.log(t) + 2.0 * (t + y) ** 2 * np.log1p(y / t) - 2.0 * t * y


def f_term(p, t, y):
    """(t+y)^p - t^p - y^p - p t^{p-1} y via expm1(p log1p(y/t))."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return t**p * np.expm1(p * np.log1p(y / t)) - p * t ** (p - 1.0) * y - y**p


def f1_term(m, t, y):
    """(t+y)^m - t^m - m t^{m-1} y via expm1(m log1p(y/t))."""
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    return t**m * np.expm1(m * np.log1p(y / t)) - m * t ** (m - 1.0) * y


def pointwise_log_bound_margin(s, C1):
    """s^2 log s^2 + C1 s^2 + e^{-1-C1}, nonnegative for all s >= 0.

    The integrand-level inequality that bounds the logarithmic part of
    the energy from below by -e^{-1-C1} |Omega|.
    """
    from .energy import safe_xlog

    return safe_xlog(s) + C1 * np.asarray(s, dtype=float) ** 2 + np.exp(-1.0 - C1)


# -- constant finders ----------------------------------------------------


def scan_sup_A1(box, eps):
    """Supremum of (g - y^{2+eps}) / y^2 over the box grid, block by block."""
    if not (eps > 0):
        raise ValueError("eps must be positive")
    sups = [np.max((g_term(t, y) - y ** (2.0 + eps)) / (y * y)) for t, y in _row_blocks(box)]
    return float(np.max(sups))


def find_A1(box, eps):
    """Smallest A1 (with headroom) certifying g(t,y) <= y^{2+eps} + A1 y^2 on the box.

    The small-y profile of g/y^2 approaches ln t^2 + 3, so A1 is at least
    3 + ln C2^2 once the y grid reaches far enough down.
    """
    return HEADROOM * max(scan_sup_A1(box, eps), 0.0)


def scan_sup_f(p, box, lower=None):
    """Suprema behind the two f bounds: (lower-bound sup or None, |f| sup).

    Evaluated block by block; raises ValueError naming C2 when the |f|
    bound's coefficient (p^2/2) C2^{p-2} overflows.
    """
    if not (p > 2):
        raise ValueError("exponent p must exceed 2")
    if lower is None:
        lower = p > 3
    if lower and not (p > 3):
        raise ValueError("lower bound certificate requires p > 3")
    scale = box.abs_scale(p)
    sups_low, sups_hat = [], []
    for t, y in _row_blocks(box):
        f = f_term(p, t, y)
        if lower:
            sups_low.append(np.max((0.5 * p * box.C1 * y ** (p - 1.0) - f) / (y * y)))
        sups_hat.append(np.max((np.abs(f) - scale * y * y) / (box.C2 * y ** (p - 1.0))))
    sup_low = float(np.max(sups_low)) if lower else None
    return sup_low, float(np.max(sups_hat))


def find_f_constants(p, box, lower=None):
    """Constants (A2, A2_hat) for the two bounds on f(p,t,y) over the box.

        f  >= (p/2) C1 y^{p-1} - A2 y^2        (needs p > 3)
        |f| <= (p^2/2) C2^{p-2} y^2 + A2_hat C2 y^{p-1}

    lower=None computes A2 only when p > 3 (returned as None otherwise);
    lower=True insists on it and rejects p <= 3, where no y^2 correction
    can rescue the y^{p-1} lower bound near y = 0.
    """
    sup_low, sup_hat = scan_sup_f(p, box, lower)
    A2 = None if sup_low is None else HEADROOM * max(sup_low, 0.0)
    return A2, HEADROOM * max(sup_hat, 0.0)


def scan_sup_A3(m, box):
    """Supremum of both sandwich defects for f1, normalized by y^2, block by block.

    As in a full-array scan, a NaN in the upper defect propagates while a
    NaN only in the lower one does not: max(sup_upper, sup_low).
    """
    if not (m > 2):
        raise ValueError("exponent m must exceed 2")
    sups_upper, sups_low = [], []
    for t, y in _row_blocks(box):
        f1 = f1_term(m, t, y)
        sups_upper.append(np.max((f1 - 2.0 * y**m) / (y * y)))
        sups_low.append(np.max((0.5 * y**m - f1) / (y * y)))
    return float(max(np.max(sups_upper), np.max(sups_low)))


def find_A3(m, box):
    """Smallest A3 (with headroom) for 2 y^m + A3 y^2 >= f1 >= y^m/2 - A3 y^2."""
    return HEADROOM * max(scan_sup_A3(m, box), 0.0)


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


def check_corollary(p, u0, bubbles, t_n, eps=None, box_samples=400):
    """Verify the four pointwise bounds for g, f, f1 at y = t_n U_n, t = u0.

    The support mask comes from the bubbles themselves (they vanish at
    and beyond the taper edge), so L1/L2 are the extremes of u0 on the
    union of supports.  Constants B1, B2, B3 come from the scalar
    finders over the box [L1, L2].  Bounds:

        g(u0, y)        <=  y^{2+eps} + B1 y^2
        f(2s, u0, y)    >=  (2s/2) L1 y^{2s-1} - B2 y^2     (only 2s > 3)
        |f(2s, u0, y)|  <=  (2s^2/2) L2^{2s-2} y^2 + B2 L2 y^{2s-1}
        2 y^q + B3 y^2  >=  f1(q, u0, y)  >=  y^q/2 - B3 y^2

    Margins are normalized by y^2 (both sides scale like y^2 near the
    taper edge), so they stay bounded away from 0 as t_n shrinks.
    Returns the worst margin over all nodes, scales, and bounds.
    """
    u0 = np.asarray(u0, dtype=float)
    if np.any(u0 <= 0):
        raise ValueError("u0 must be positive everywhere")
    bubbles = [np.asarray(b, dtype=float) for b in bubbles]
    t_n = [float(t) for t in t_n]
    if len(bubbles) != len(t_n):
        raise ValueError("need one scale factor per bubble")
    if eps is None:
        eps = p.q - 2.0

    support = np.zeros(u0.shape, dtype=bool)
    for b in bubbles:
        support |= b > 0
    if not np.any(support):
        raise ValueError("all bubbles vanish identically")
    L1 = float(np.min(u0[support]))
    L2 = float(np.max(u0[support]))
    if L1 == L2:
        L2 = L1 * (1.0 + 1e-12)

    y_top = max(t * float(np.max(b)) for t, b in zip(t_n, bubbles))
    box = BoxSpec(
        C1=L1,
        C2=L2,
        y_max=max(1.05 * y_top, 1e-3),
        t_samples=box_samples,
        y_samples=box_samples,
    )
    ts = p.two_star
    B1 = find_A1(box, eps)
    A2, A2_hat = find_f_constants(ts, box)
    B2 = max(A2 if A2 is not None else 0.0, A2_hat)
    B3 = find_A3(p.q, box)

    margins = {
        "g_upper": np.inf,
        "f_lower": np.inf,
        "f_abs": np.inf,
        "f1_upper": np.inf,
        "f1_lower": np.inf,
    }
    for t_fac, b in zip(t_n, bubbles):
        mask = b > 0
        t = u0[mask]
        y = t_fac * b[mask]
        y2 = y * y
        gval = g_term(t, y)
        fval = f_term(ts, t, y)
        f1val = f1_term(p.q, t, y)
        margins["g_upper"] = min(
            margins["g_upper"],
            float(np.min((y ** (2.0 + eps) + B1 * y2 - gval) / y2)),
        )
        if ts > 3:
            margins["f_lower"] = min(
                margins["f_lower"],
                float(
                    np.min((fval - 0.5 * ts * L1 * y ** (ts - 1.0) + B2 * y2) / y2)
                ),
            )
        margins["f_abs"] = min(
            margins["f_abs"],
            float(
                np.min(
                    (
                        0.5 * ts * ts * L2 ** (ts - 2.0) * y2
                        + B2 * L2 * y ** (ts - 1.0)
                        - np.abs(fval)
                    )
                    / y2
                )
            ),
        )
        margins["f1_upper"] = min(
            margins["f1_upper"],
            float(np.min((2.0 * y**p.q + B3 * y2 - f1val) / y2)),
        )
        margins["f1_lower"] = min(
            margins["f1_lower"],
            float(np.min((f1val - 0.5 * y**p.q + B3 * y2) / y2)),
        )
    if ts <= 3:
        del margins["f_lower"]  # no lower-bound certificate in high dimension

    worst_bound = min(margins, key=lambda k: margins[k])
    worst = margins[worst_bound]
    return CorollaryVerdict(
        ok=bool(worst >= 0.0),
        worst_margin=float(worst),
        worst_bound=worst_bound,
        L1=L1,
        L2=L2,
        B1=B1,
        B2=B2,
        B3=B3,
        margins=margins,
    )
