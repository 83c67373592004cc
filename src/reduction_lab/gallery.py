"""Operator families and 1-D discretizations.

Everything here constructs matrices for the sweep-and-certify layer: linear
mixing-growth pairs m*A + beta*V, row-stochastic dispersal families
[(1-alpha)I + alpha*P]D, entrywise log-affine families c_ij*exp(g_ij*theta),
and finite-difference / quadrature surrogates of diffusion, drift-diffusion,
and nonlocal dispersal operators. Each family class evaluates its members
along a 1-D parameter array with `matrices_at`, the one evaluator every sweep
calls once per grid; `matrix_at` is its one-point case. Discretizers build
only the mixing generator, essentially nonnegative by construction; a growth
term is an operator of multiplication, the V of a LinearFamily.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidAlpha, NegativeKernel, NonPositiveDiffusion, OverflowRisk
from .perron import is_essentially_nonnegative, square_matrix
from .rng import XorShift64Star

STOCHASTIC_ROW_TOL = 1e-12
_TINY = np.finfo(float).tiny  # the smallest normal double


def _until_first(S, failed, error_at):
    """(S[:k], error_at(k)) at the first point k where `failed` holds, or (S, None) where it holds nowhere."""
    if not failed.any():
        return S, None
    k = int(np.argmax(failed))
    return S[:k], error_at(k)


def _one(members) -> np.ndarray:
    """The member of a one-point `matrices_at`, or its error raised."""
    S, error = members
    if error is not None:
        raise error
    return S[0]


def _require_diagonal(M, name):
    off = M[~np.eye(M.shape[0], dtype=bool)]
    if M.shape[0] > 1 and (off != 0.0).any():
        raise ValueError(f"{name} must be diagonal (exact zero off-diagonal)")


@dataclass
class LinearFamily:
    """Pair (A, V) defining the family (m, beta) -> m*A + beta*V.

    A is the essentially nonnegative mixing generator, V the diagonal growth
    multiplier; the combination stays essentially nonnegative for every m >= 0.
    """

    A: np.ndarray
    V: np.ndarray

    def __post_init__(self):
        self.A = square_matrix(self.A)
        self.V = square_matrix(self.V)
        if self.A.shape != self.V.shape:
            raise ValueError("A and V must share a common dimension")
        if not is_essentially_nonnegative(self.A):
            raise ValueError("A must be essentially nonnegative")
        _require_diagonal(self.V, "V")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def matrices_at(self, m, beta=1.0) -> tuple[np.ndarray, Exception | None]:
        """The members m*A + beta*V along 1-D arrays m and beta (a scalar is broadcast), stacked
        (k, n, n) up to the first failing point, and that point's error or None: ValueError where
        m or beta is not finite or m < 0, OverflowRisk where the member of finite m and beta is not finite."""
        m, beta = np.broadcast_arrays(*(np.asarray(p, dtype=float).ravel() for p in (m, beta)))
        with np.errstate(over="ignore", invalid="ignore"):
            S = m[:, None, None] * self.A
            S += beta[:, None, None] * self.V

        def error_at(k):  # a NaN or infinite m or beta leaves its member non-finite too, since inf*0 is NaN
            for name, p in (("m", m), ("beta", beta)):
                if not math.isfinite(p[k]):
                    return ValueError(f"{name} must be finite, got {p.item(k)}")
            if m[k] < 0.0:
                return ValueError("mixing weight m must be nonnegative")
            return OverflowRisk(f"m*A + beta*V overflows double precision at m = {m.item(k)}, beta = {beta.item(k)}")

        return _until_first(S, (m < 0.0) | ~np.isfinite(S).all(axis=(1, 2)), error_at)

    def matrix_at(self, m: float, beta: float = 1.0) -> np.ndarray:
        """m*A + beta*V for m >= 0, the one-point case of matrices_at."""
        return _one(self.matrices_at(m, beta))


@dataclass
class KarlinFamily:
    """Row-stochastic dispersal pattern P with positive diagonal growth D.

    `linear` is the split karlin_to_linear(self), built once; the family is
    evaluated on it, so the two parameterizations agree entrywise exactly.
    """

    P: np.ndarray
    D: np.ndarray
    linear: LinearFamily = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.P = square_matrix(self.P)
        self.D = square_matrix(self.D)
        if self.P.shape != self.D.shape:
            raise ValueError("P and D must share a common dimension")
        if (self.P < 0.0).any():
            raise ValueError("P must be entrywise nonnegative")
        rows = self.P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > STOCHASTIC_ROW_TOL:
            raise ValueError("P must be row-stochastic (rows summing to 1)")
        _require_diagonal(self.D, "D")
        if (np.diagonal(self.D) <= 0.0).any():
            raise ValueError("D must have strictly positive diagonal")
        self.linear = karlin_to_linear(self)

    @property
    def n(self) -> int:
        return self.P.shape[0]

    def matrices_at(self, alpha) -> tuple[np.ndarray, Exception | None]:
        """The members [(1-alpha)I + alpha*P] @ D along a 1-D alpha array, evaluated as alpha*A + V on
        `linear`, up to the first point outside [0, 1], which is InvalidAlpha (see LinearFamily.matrices_at)."""
        alpha = np.asarray(alpha, dtype=float).ravel()
        invalid = ~((0.0 <= alpha) & (alpha <= 1.0))
        at = "alpha must lie in [0, 1], got {}"
        inside, error = _until_first(alpha, invalid, lambda k: InvalidAlpha(at.format(alpha.item(k))))
        S, linear_error = self.linear.matrices_at(inside)
        return S, linear_error or error

    def matrix_at(self, alpha: float) -> np.ndarray:
        """[(1-alpha)I + alpha*P] @ D for alpha in [0, 1], the one-point case of matrices_at."""
        return _one(self.matrices_at(alpha))


@dataclass
class KingmanFamily:
    """Entrywise log-affine family A_ij(theta) = c_ij * exp(g_ij * theta)."""

    c: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        self.c = square_matrix(self.c)
        self.g = square_matrix(self.g)
        if self.c.shape != self.g.shape:
            raise ValueError("c and g must share a common dimension")
        if (self.c < 0.0).any():
            raise ValueError("c must be entrywise nonnegative")

    @property
    def n(self) -> int:
        return self.c.shape[0]

    def matrices_at(self, theta) -> tuple[np.ndarray, Exception | None]:
        """The members along a 1-D theta array, stacked (k, n, n) up to the first point where an entry
        overflows or theta is not finite, and that point's OverflowRisk or ValueError, or None. exp(g*theta)
        is taken only where c != 0, so an entry that is 0 at every theta cannot overflow; where it is not a
        normal finite number, the entry is exp(log(c) + g*theta)."""
        theta = np.asarray(theta, dtype=float).ravel()
        invalid = lambda k: ValueError(f"theta must be finite, got {theta[k]}")  # noqa: E731
        finite, error = _until_first(theta, ~np.isfinite(theta), invalid)
        nonzero = self.c != 0.0
        c, exponent = self.c[nonzero], self.g[nonzero] * finite[:, None]
        with np.errstate(over="ignore"):
            growth = np.exp(exponent)
            outside = (growth < _TINY) | (growth == math.inf)
            entries = np.multiply(growth, c, out=growth)  # c*growth in the buffer of growth
            if outside.any():
                entries[outside] = np.exp(np.log(np.broadcast_to(c, entries.shape)[outside]) + exponent[outside])
        S = np.zeros((finite.size, *self.c.shape))
        S[:, nonzero] = entries
        at = "c*exp(g*theta) overflows double precision at theta = {}"
        S, overflow = _until_first(S, np.isinf(entries).any(axis=1), lambda k: OverflowRisk(at.format(theta.item(k))))
        return S, overflow or error

    def matrix_at(self, theta: float) -> np.ndarray:
        """The member at theta, the one-point case of matrices_at."""
        return _one(self.matrices_at(theta))


def kingman_family_eval(F: KingmanFamily, theta: float) -> np.ndarray:
    """F.matrix_at(theta)."""
    return F.matrix_at(theta)


def karlin_to_linear(F: KarlinFamily) -> LinearFamily:
    """Rewrite [(1-m)I + mP]D as m*A + V with A = (P - I)D and V = D.

    Row-stochastic P gives (P - I)D the strictly positive right null vector
    formed by the reciprocal growth rates, so spb(A) = 0: these families sit
    exactly on the lossless-mixing boundary. When P is column-stochastic as
    well, the all-ones vector annihilates A from the left too.
    """
    n = F.n
    A = (F.P - np.eye(n)) * np.diagonal(F.D)[None, :]
    return LinearFamily(A=A, V=F.D.copy())


def karlin_matrix(F: KarlinFamily, alpha: float) -> np.ndarray:
    """F.matrix_at(alpha): [(1-alpha)I + alpha*P] @ D for alpha in [0, 1]."""
    return F.matrix_at(alpha)


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1-D grid of n interior points on a domain of the given length.

    Spacing is length/(n+1) for dirichlet and neumann boundaries; periodic
    grids cover [0, length) with spacing length/n.
    """

    n: int
    length: float
    boundary: str = "dirichlet"

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grid needs n >= 2 points")
        if not self.length > 0:
            raise ValueError("grid length must be positive")
        h2 = self.h * self.h  # laplacian_1d scales by 1/h^2
        if not (h2 > 0.0 and 0.0 < 1.0 / h2 < math.inf):
            raise ValueError(f"grid length {self.length!r} gives a spacing h whose 1/h^2 is not finite and positive")
        if self.boundary not in ("dirichlet", "neumann", "periodic"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def h(self) -> float:
        if self.boundary == "periodic":
            return self.length / self.n
        return self.length / (self.n + 1)

    @property
    def points(self) -> np.ndarray:
        if self.boundary == "periodic":
            return self.h * np.arange(self.n)
        return self.h * np.arange(1, self.n + 1)


def laplacian_1d(grid: Grid1D) -> np.ndarray:
    """Second-difference operator (1/h^2) tridiag(1, -2, 1) with boundary rows adjusted.

    dirichlet keeps the plain interior stencil (absorbing), neumann sets the
    first/last diagonal to -1/h^2 (reflecting, rows sum to zero exactly),
    periodic adds the corner couplings.
    """
    n = grid.n
    w = 1.0 / (grid.h * grid.h)
    L = np.zeros((n, n))
    idx = np.arange(n)
    L[idx, idx] = -2.0 * w
    L[idx[:-1], idx[:-1] + 1] = w
    L[idx[1:], idx[1:] - 1] = w
    if grid.boundary == "neumann":
        L[0, 0] = -w
        L[n - 1, n - 1] = -w
    elif grid.boundary == "periodic":
        L[0, n - 1] += w
        L[n - 1, 0] += w
    return L


def _sample_on_grid(f, x: np.ndarray, name: str) -> np.ndarray:
    vals = np.asarray(f(x) if callable(f) else f, dtype=float)
    if vals.ndim == 0:
        vals = np.full(x.shape, float(vals))
    if vals.shape != x.shape:
        raise ValueError(f"{name} must evaluate to one value per grid point")
    if not np.isfinite(vals).all():
        raise ValueError(f"{name} produced non-finite samples")
    return vals


def elliptic_1d(a, b, grid: Grid1D) -> np.ndarray:
    """Upwind discretization of the mixing generator a(x) f'' + b(x) f'.

    Diffusion uses central differences; drift is upwinded (forward difference
    where b > 0, backward where b < 0), which keeps every off-diagonal entry
    nonnegative regardless of the drift magnitude. Coefficients may be
    callables on the grid points, arrays, or scalars. A growth term c(x) f
    multiplies, so it is the V of a LinearFamily, not part of this matrix.
    """
    x = grid.points
    av = _sample_on_grid(a, x, "a")
    bv = _sample_on_grid(b, x, "b")
    if (av <= 0.0).any():
        raise NonPositiveDiffusion("diffusion coefficient must be strictly positive on the grid")

    n = grid.n
    M = av[:, None] * laplacian_1d(grid)
    rows = np.flatnonzero(bv)
    cols = np.where(bv[rows] > 0.0, rows + 1, rows - 1)
    if grid.boundary == "periodic":
        cols %= n
    elif grid.boundary == "neumann":
        # ghost value equals f_i at an outward end, so the difference vanishes
        keep = (cols >= 0) & (cols < n)
        rows, cols = rows[keep], cols[keep]
    w = np.abs(bv[rows]) / grid.h
    M[rows, rows] -= w
    # dirichlet: the absorbing ghost value is 0 at an outward end, so only the diagonal remains
    inside = (cols >= 0) & (cols < n)
    M[rows[inside], cols[inside]] += w[inside]
    return M


def nonlocal_operator(K, grid: Grid1D) -> np.ndarray:
    """Quadrature matrix K * h of the dispersal f -> integral K(x, y) f(y) dy.

    K holds kernel samples on the grid (n x n, entrywise nonnegative). The
    trapezoid rule on the interior points has the uniform weight h there, so
    the result is entrywise nonnegative. A growth term b(x) f is the V of a
    LinearFamily, not part of this matrix.
    """
    K = np.asarray(K, dtype=float)
    n = grid.n
    if K.shape != (n, n):
        raise ValueError(f"kernel samples must be {n} x {n}")
    if not np.isfinite(K).all():
        raise ValueError("kernel samples must be finite")
    if (K < 0.0).any():
        raise NegativeKernel("kernel samples must be entrywise nonnegative")
    return K * grid.h


def random_stochastic(n: int, seed: int) -> np.ndarray:
    """Entrywise positive row-stochastic matrix from a seeded xorshift stream."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = XorShift64Star(seed)
    M = np.array([[rng.uniform_open() for _ in range(n)] for _ in range(n)])
    return M / M.sum(axis=1, keepdims=True)


def random_ess_nonneg(n: int, seed: int) -> np.ndarray:
    """Seeded Metzler matrix: off-diagonal uniform in [0,1), diagonal in [-2,0)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = XorShift64Star(seed)
    return np.array([[-2.0 + 2.0 * rng.uniform() if i == j else rng.uniform() for j in range(n)] for i in range(n)])


def random_diagonal(n: int, lo: float, hi: float, seed: int) -> np.ndarray:
    """Seeded diagonal matrix with diagonal entries uniform in [lo, hi)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError("need finite lo <= hi")
    rng = XorShift64Star(seed)
    d = np.array([lo + (hi - lo) * rng.uniform() for _ in range(n)])
    return np.diag(d)
