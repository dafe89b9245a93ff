"""Radial finite-volume grid on a ball B(0, R) in R^N with zero Dirichlet data.

A function u(|x|) is stored by its node values u_i = u(r_i), r_i = i*h,
h = R/M, for i = 0..M-1.  The boundary value u_M = 0 is implied and never
stored.  All integrals over the ball reduce to weighted sums over nodes;
the Dirichlet energy reduces to a weighted sum of squared differences at
cell faces.

Each grid builds its banded operator -Laplacian once (RadialGrid.band),
computes its principal eigenpair once (RadialGrid.eigenpair, one LAPACK
eigh_tridiagonal call on the symmetric tridiagonal similar to the band)
and evaluates the sharp Sobolev constant S(N) once (RadialGrid.sobolev),
as its closed form rounded once to a double; all three are cached on the
instance, read-only, and shared by every solver stage that works on the
grid.  Every tridiagonal system goes through solve_tridiagonal, a direct
call of LAPACK gtsv.

A grid range-checks the arrays it builds, and nothing else raises
GridRangeError: it names N when the origin cell is not a normal double,
and R when a divisor w_i h^2 of the operator lies outside (0, inf).
"""

from dataclasses import dataclass, field
from functools import cached_property
from math import gamma, inf, nan, pi
from sys import float_info

import mpmath
import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal, get_lapack_funcs


def sphere_area(N):
    # surface measure of the unit sphere S^{N-1}
    return 2.0 * pi ** (N / 2.0) / gamma(N / 2.0)


def ball_volume(N, R):
    return sphere_area(N) * R**N / N


class GridRangeError(OverflowError):
    """A mesh leaves double range; the message names the N or the R that
    takes it there.  Raised only by RadialGrid, as it builds its arrays."""


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Nodes, quadrature weights and face weights for the radial mesh.

    w[i] is the volume weight of node i (integral of 1 over the cell
    around r_i, to second order).  The origin cell is the exact ball of
    radius h/2, which keeps the discrete Laplacian symmetric in the
    weighted inner product and gives the pinned five-point stencil
    -2N(u_1 - u_0)/h^2 at the center.  fw[i] is the face weight
    sigma_{N-1} r_{i+1/2}^{N-1} h multiplying ((u_{i+1}-u_i)/h)^2 in the
    Dirichlet energy.

    Grids compare by identity: two grids on the same (N, R, M) are equal
    in content but each carries its own cached operator, eigenpair and S(N).
    """

    N: int
    R: float
    M: int
    h: float = field(init=False)
    r: np.ndarray = field(init=False, repr=False)
    w: np.ndarray = field(init=False, repr=False)
    fw: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        N, R, M = self.N, self.R, self.M
        if N < 3:
            raise ValueError("dimension N must be >= 3")
        if not (R > 0):
            raise ValueError("radius R must be positive")
        if M < 8:
            raise ValueError("need at least 8 mesh cells")
        h = R / M
        try:
            sig = sphere_area(N)
            origin = ball_volume(N, h / 2.0)  # exact ball of radius h/2
        except OverflowError:  # |S^{N-1}| or (h/2)^N leaves double range
            origin = nan
        if not (float_info.min <= origin < inf):
            raise GridRangeError(
                f"N = {N}: the origin cell of the {M}-cell mesh on B(0, {R:g}) "
                "has a volume outside the normal doubles"
            )
        with np.errstate(over="ignore"):  # a weight that overflows is refused below
            r = h * np.arange(M)
            w = sig * r ** (N - 1) * h
            w[0] = origin
            # trapezoid half-weight of the boundary node, folded into the last
            # stored node so the weight sum reproduces the ball volume to O(h^2)
            try:
                w[-1] += sig * R ** (N - 1) * h / 2.0
            except OverflowError:
                w[-1] = inf
            faces = h * (np.arange(M) + 0.5)
            fw = sig * faces ** (N - 1) * h
            # the operator divides by these, as neg_laplacian_banded forms them
            divisors = w * h * h
        if not ((divisors > 0.0) & (divisors < inf)).all():
            raise GridRangeError(
                f"R = {R:g}: the {M}-cell mesh on B(0, {R:g}) divides by "
                "cell weights times h^2 outside double range"
            )
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "fw", fw)

    # -- integrals ---------------------------------------------------

    def integrate(self, vals):
        """Integral over the ball of a nodal function (boundary value 0)."""
        vals = np.asarray(vals, dtype=float)
        self._check_shape(vals)
        return float(np.dot(self.w, vals))

    def dot(self, u, v):
        """Weighted L^2 inner product <u, v>; dot(u, u) checks u once."""
        u = np.asarray(u, dtype=float)
        self._check_shape(u)
        if v is not u:
            v = np.asarray(v, dtype=float)
            self._check_shape(v)
        return float(np.dot(self.w, u * v))

    def l2_norm_sq(self, u):
        return self.dot(u, u)

    def h1_seminorm_sq(self, u):
        """Integral of |grad u|^2, with the zero boundary value included.

        u is one grid function of shape (M,), or a (P, M) stack of them,
        which gives an array with one value per row.
        """
        u = np.asarray(u, dtype=float)
        if u.ndim != 2 or u.shape[1] != self.M:
            self._check_shape(u)
        elif not np.isfinite(u).all():
            raise ValueError("non-finite values in grid function")
        d = np.empty_like(u)
        d[..., :-1] = u[..., 1:] - u[..., :-1]
        d[..., -1] = -u[..., -1]  # u_M = 0
        out = (d / self.h) ** 2 @ self.fw
        return float(out) if u.ndim == 1 else out

    def _check_shape(self, u):
        if u.shape != (self.M,):
            raise ValueError(f"expected array of shape ({self.M},), got {u.shape}")
        if not np.isfinite(u).all():
            raise ValueError("non-finite values in grid function")

    # -- the operator -------------------------------------------------

    def neg_laplacian_banded(self):
        """-Laplacian as a symmetric-in-w tridiagonal, in solve_banded layout.

        Row i of A u is (1/w_i) * sum of face fluxes, so A is self-adjoint
        with respect to the w-weighted inner product.  Returns the (3, M)
        band matrix for scipy.linalg.solve_banded((1, 1), ...) and
        solve_tridiagonal.
        """
        M = self.M
        fw, w, h = self.fw, self.w, self.h
        lower = np.zeros(M)
        diag = np.zeros(M)
        upper = np.zeros(M)
        # interior flux balance: (fw_{i-1}(u_i-u_{i-1}) + fw_i(u_i-u_{i+1}))/(w_i h^2)
        diag[0] = fw[0] / (w[0] * h * h)
        upper[1:] = -fw[:-1] / (w[:-1] * h * h)
        diag[1:] = (fw[:-1] + fw[1:]) / (w[1:] * h * h)
        lower[:-1] = -fw[:-1] / (w[1:] * h * h)
        return np.vstack([upper, diag, lower])

    @cached_property
    def band(self):
        """The operator of neg_laplacian_banded, built once per grid; read-only.

        Checked for finiteness here, once, so that solve_tridiagonal need
        not scan it on every solve.
        """
        band = self.neg_laplacian_banded()
        if not np.isfinite(band).all():
            raise ValueError("non-finite entries in the grid operator")
        band.setflags(write=False)
        return band

    @cached_property
    def eigenpair(self):
        """(lambda1, phi1) of principal_eigenpair, one LAPACK call per grid; phi1 is read-only."""
        lam1, phi1 = principal_eigenpair(self)
        phi1.setflags(write=False)
        return lam1, phi1

    @cached_property
    def sobolev(self):
        """S(N) of best_sobolev_constant, evaluated once per grid."""
        return best_sobolev_constant(self.N)

    def apply_neg_laplacian(self, u):
        """Matrix-vector product A u for the banded operator above."""
        u = np.asarray(u, dtype=float)
        self._check_shape(u)
        band = self.band
        out = band[1] * u
        out[:-1] += band[0][1:] * u[1:]
        out[1:] += band[2][:-1] * u[:-1]
        return out


_GTSV = get_lapack_funcs("gtsv", (np.zeros(1),))


def solve_tridiagonal(band, rhs):
    """Solve the tridiagonal system with band in solve_banded((1, 1), ...) layout.

    Calls LAPACK gtsv, the routine solve_banded((1, 1), band, rhs) calls,
    on the same arguments, so the solution has the same bits.  Unlike
    solve_banded it does not scan the band for NaN and inf: the caller
    guarantees a finite band (RadialGrid.band is checked once, when it is
    cached).  rhs is checked on every call and left unmodified.  Raises
    ValueError on a non-finite rhs and LinAlgError on a singular matrix.
    """
    rhs = np.asarray(rhs, dtype=float)
    if not np.isfinite(rhs).all():
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = _GTSV(band[2, :-1], band[1], band[0, 1:], rhs)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gtsv")
    return x


def build_grid(N, R, M):
    """Construct the radial mesh.  Raises ValueError on bad arguments."""
    return RadialGrid(N=int(N), R=float(R), M=int(M))


# -- principal Dirichlet eigenpair ------------------------------------


def bessel_lambda1(N, R):
    """First Dirichlet eigenvalue of -Laplacian on B(0,R): (j_{N/2-1,1}/R)^2.

    Used as an independent reference (tests and demos; no solver calls it).
    Integer Bessel order for even N via jn_zeros; half-integer order for
    odd N through the spherical Bessel function j_{(N-3)/2}, whose first
    zero equals j_{N/2-1,1}.  scipy.special and scipy.optimize are imported
    here, at the first call, so that importing logcrit does not load them.
    """
    from scipy.optimize import brentq
    from scipy.special import jn_zeros, spherical_jn

    if N % 2 == 0:
        z = jn_zeros(N // 2 - 1, 1)[0]
    else:
        k = (N - 3) // 2
        f = lambda x: spherical_jn(k, x)
        lo = 0.5
        hi = lo + 0.5
        while f(lo) * f(hi) > 0:
            lo, hi = hi, hi + 0.5
        z = brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16)
    return (z / R) ** 2


def symmetric_tridiagonal(band):
    """(diag, off) of the symmetric tridiagonal similar to a w-self-adjoint band.

    band is in solve_banded((1, 1), ...) layout and self-adjoint in the w
    inner product, as RadialGrid.band and the Jacobian A - f'(u) are:
    conjugated by W^{1/2}, it keeps its diagonal and has the off-diagonal
    -sqrt(upper * lower), negative as the operator's own.
    """
    return band[1], -np.sqrt(band[0, 1:] * band[2, :-1])


def principal_eigenpair(grid):
    """Smallest eigenvalue and positive unit-L^2 eigenfunction of -Laplacian.

    One LAPACK call (eigh_tridiagonal, by bisection and inverse iteration)
    gives the eigenvector y of the smallest eigenvalue of the symmetric
    tridiagonal of symmetric_tridiagonal(grid.band); phi1 = y / sqrt(w),
    signed positive, has unit weighted L^2 norm.  lam1 is its Rayleigh
    quotient <phi1, A phi1>_w, summed as (w phi1) . (A phi1) so that no
    product leaves double range; it is more accurate than the eigenvalue
    LAPACK returns at its default tolerance.  Returns (lam1, phi1).
    Solvers read the grid's cached copy, grid.eigenpair.
    """
    d, off = symmetric_tridiagonal(grid.band)
    _, y = eigh_tridiagonal(d, off, select="i", select_range=(0, 0))
    phi = y[:, 0] / np.sqrt(grid.w)
    if phi[0] < 0:
        phi = -phi
    if np.any(phi <= 0):
        raise RuntimeError("principal eigenfunction not positive on the mesh")
    return float((grid.w * phi) @ grid.apply_neg_laplacian(phi)), phi


# -- sharp Sobolev constant -------------------------------------------

# A context of its own: setting the shared mpmath precision would race
# with other threads that use mpmath.
_MP40 = mpmath.MPContext()
_MP40.dps = 40


def best_sobolev_constant(N):
    """Best constant S(N) in ||grad u||_2^2 >= S ||u||_{2*}^2 on R^N.

    The closed form pi N (N-2) (Gamma(N/2) / Gamma(N))^{2/N} (Aubin 1976;
    Talenti 1976), evaluated at 40 digits and rounded once: the correctly
    rounded double for every N.
    """
    if N < 3:
        raise ValueError("dimension N must be >= 3")
    mp = _MP40
    return float(
        mp.pi * N * (N - 2) * (mp.gamma(mp.mpf(N) / 2) / mp.gamma(N)) ** (mp.mpf(2) / N)
    )


# -- CSV round trip ----------------------------------------------------


def save_grid_function(path, grid, vals):
    """Write nodes and values as CSV with header 'r,value'.

    Floats use repr-faithful %.17g so a read-back is bit exact.  The rows
    are formatted from Python floats and written in one call.
    """
    vals = np.asarray(vals, dtype=float)
    grid._check_shape(vals)
    rows = "".join("%.17g,%.17g\n" % rv for rv in zip(grid.r.tolist(), vals.tolist()))
    with open(path, "w") as f:
        f.write("r,value\n" + rows)


def load_grid_function(path, grid=None):
    """Read a CSV written by save_grid_function.

    Returns (r, values).  If a grid is given, checks node agreement and
    returns just the value array.
    """
    r = []
    v = []
    with open(path) as f:
        header = f.readline().strip()
        if header != "r,value":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            a, b = line.split(",")
            r.append(float(a))
            v.append(float(b))
    r = np.array(r)
    v = np.array(v)
    if grid is not None:
        if len(v) != grid.M or not np.array_equal(r, grid.r):
            raise ValueError("CSV nodes do not match the grid")
        return v
    return r, v
