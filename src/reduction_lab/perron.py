"""Dense Perron machinery for essentially nonnegative (Metzler) matrices.

The spectral bound spb(M) is the largest real part over the spectrum. For a
Metzler matrix it is attained by a real eigenvalue with nonnegative left and
right eigenvectors, which is what the shifted power iteration below computes.
Reducible inputs are handled by recursing on the strongly connected components
of the off-diagonal adjacency digraph.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .errors import NoConvergence, NotEssentiallyNonnegative, NotIrreducible, SingularResolvent

# Solver contract: stop once successive Rayleigh estimates agree to
# RATIO_TOL*(1+|estimate|) and the eigen-residual is below
# RESIDUAL_TOL*(1+||M||_inf).
RATIO_TOL = 1e-13
RESIDUAL_TOL = 1e-10
MAX_ITERATIONS = 200_000


def square_matrix(entries) -> np.ndarray:
    """Validate and return a dense square float64 matrix with finite entries."""
    M = np.asarray(entries, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix entries must be finite")
    return M


@dataclass
class SpectralData:
    """Spectral bound plus Perron vectors (absent for reducible inputs).

    u and v are normalized so that u @ v = 1 and sum(v) = 1; residual is the
    max-norm of (M - spb*I) @ v for the returned v.
    """

    spb: float
    u: np.ndarray | None
    v: np.ndarray | None
    iterations: int
    residual: float


@dataclass
class SccDecomposition:
    component_id: np.ndarray  # component index per vertex
    component_count: int


def is_essentially_nonnegative(M) -> bool:
    """True iff every off-diagonal entry is >= 0 (exact comparison)."""
    M = square_matrix(M)
    n = M.shape[0]
    if n == 1:
        return True
    off = M[~np.eye(n, dtype=bool)]
    return bool((off >= 0.0).all())


def scc_decomposition(M) -> SccDecomposition:
    """Strongly connected components of the digraph i -> j iff i != j and M[i][j] != 0."""
    M = square_matrix(M)
    adjacency = M != 0.0
    np.fill_diagonal(adjacency, False)
    count, labels = scipy.sparse.csgraph.connected_components(adjacency, directed=True, connection="strong")
    return SccDecomposition(labels, count)


def is_irreducible(M) -> bool:
    """True iff the off-diagonal adjacency digraph is strongly connected (n = 1 counts)."""
    M = square_matrix(M)
    n = M.shape[0]
    if n == 1:
        return True
    off = M[~np.eye(n, dtype=bool)]
    if (off != 0.0).all():
        return True  # dense off-diagonal pattern is always strongly connected
    return scc_decomposition(M).component_count == 1


def _power_dominant(B, residual_tol, cap):
    """Dominant eigenpair of an entrywise nonnegative primitive matrix.

    Iterates from the positive constant vector, keeping iterates normalized to
    unit sum; returns (rayleigh estimate, vector, iterations, residual).
    """
    n = B.shape[0]
    x = np.full(n, 1.0 / n)
    lam_prev = np.inf
    lam = 0.0
    res = np.inf
    for it in range(1, cap + 1):
        y = B @ x
        lam = float(x @ y) / float(x @ x)
        res = float(np.max(np.abs(y - lam * x)))
        if abs(lam - lam_prev) < RATIO_TOL * (1.0 + abs(lam)) and res <= residual_tol:
            return lam, x, it, res
        s = float(y.sum())
        if not np.isfinite(s) or s <= 0.0:
            raise NoConvergence("power iterate degenerated", residual=res, iterations=it)
        x = y / s
        lam_prev = lam
    raise NoConvergence(
        f"power iteration hit the {cap}-iteration cap (last residual {res:.3e})",
        residual=res,
        iterations=cap,
    )


def _solve_irreducible(M) -> SpectralData:
    n = M.shape[0]
    if n == 1:
        one = np.array([1.0])
        return SpectralData(float(M[0, 0]), one, one.copy(), 0, 0.0)
    # diagonal shift making M + shift*I entrywise nonnegative with positive
    # diagonal, hence primitive for irreducible M
    shift = max(0.0, -float(np.min(np.diagonal(M)))) + 1.0
    B = M + shift * np.eye(n)
    residual_tol = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(M).sum(axis=1))))
    lam_v, v, it_v, _ = _power_dominant(B, residual_tol, MAX_ITERATIONS)
    if np.array_equal(M, M.T):
        u_raw, it_u = v, 0
    else:
        _, u_raw, it_u, _ = _power_dominant(B.T, residual_tol, MAX_ITERATIONS)
    # two-sided Rayleigh quotient: error is quadratic in the vector errors
    lam = float(u_raw @ (B @ v)) / float(u_raw @ v)
    spb = lam - shift
    v = v / float(v.sum())
    u = u_raw / float(u_raw @ v)
    residual = float(np.max(np.abs(M @ v - spb * v)))
    return SpectralData(spb, u, v, it_v + it_u, residual)


def spectral_bound(M) -> SpectralData:
    """Spectral bound of an essentially nonnegative matrix.

    Irreducible inputs return Perron vectors as well; reducible inputs are
    solved per strongly connected diagonal block and report u = v = None.
    """
    M = square_matrix(M)
    n = M.shape[0]
    if not is_essentially_nonnegative(M):
        raise NotEssentiallyNonnegative("matrix has a negative off-diagonal entry")
    if n == 1:
        return _solve_irreducible(M)
    off = M[~np.eye(n, dtype=bool)]
    if (off != 0.0).all():
        return _solve_irreducible(M)
    dec = scc_decomposition(M)
    if dec.component_count == 1:
        return _solve_irreducible(M)
    best = -np.inf
    iterations = 0
    residual = 0.0
    for cid in range(dec.component_count):
        idx = np.flatnonzero(dec.component_id == cid)
        block = _solve_irreducible(M[np.ix_(idx, idx)])
        best = max(best, block.spb)
        iterations += block.iterations
        residual = max(residual, block.residual)
    return SpectralData(best, None, None, iterations, residual)


def perron_vectors(M):
    """Left and right Perron vectors (u, v) with u @ v = 1 and sum(v) = 1."""
    M = square_matrix(M)
    if not is_essentially_nonnegative(M):
        raise NotEssentiallyNonnegative("matrix has a negative off-diagonal entry")
    if not is_irreducible(M):
        raise NotIrreducible("Perron vectors require an irreducible matrix")
    data = _solve_irreducible(M)
    return data.u, data.v


def resolvent(M, xi: float) -> np.ndarray:
    """(xi*I - M)^-1 via LU with partial pivoting (n right-hand-side solves)."""
    M = square_matrix(M)
    n = M.shape[0]
    shifted = xi * np.eye(n) - M
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on exactly-zero pivots
        lu, piv = scipy.linalg.lu_factor(shifted, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    tiny = n * np.finfo(float).eps * max(float(np.max(np.abs(shifted))), np.finfo(float).tiny)
    if float(np.min(pivots)) <= tiny:
        raise SingularResolvent(f"xi = {xi} lies in the spectrum within pivot tolerance")
    return scipy.linalg.lu_solve((lu, piv), np.eye(n), check_finite=False)


def is_resolvent_positive_at(M, xi: float, tol: float = 1e-12) -> bool:
    """True iff the resolvent at xi exists and is entrywise >= -tol."""
    try:
        R = resolvent(M, xi)
    except SingularResolvent:
        return False
    return bool((R >= -tol).all())
