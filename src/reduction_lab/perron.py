"""Dense Perron machinery for essentially nonnegative (Metzler) matrices.

The spectral bound spb(M) is the largest real part over the spectrum. For a
Metzler matrix it is attained by a real eigenvalue with nonnegative left and
right eigenvectors, which the Noda inverse iteration below computes together
with a Collatz-Wielandt bracket that certifies it.
Reducible inputs are solved per strongly connected component of the off-diagonal
adjacency digraph, for the right vector and bracket alone.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotEssentiallyNonnegative, NotIrreducible, SingularResolvent

EPS = np.finfo(float).eps
# Solver contract: a Collatz-Wielandt bracket wider than WIDTH_TOL*||M||_inf
# raises NoConvergence.
WIDTH_TOL = 1e-11
BATCH_STEPS = 8  # step cap of batched_starts; a start still wider is certified from where it stands
# largest block whose grids take batched Noda starts: in BENCH_38.json the benchmark's linear and
# Karlin grids gain at least 10% up to n = 24, and its linear grid loses at n = 32
BATCH_MAX_N = 24
# the one floating-point scope of every solve, entered by spectral_bound, perron_vectors and
# batched_starts: an overflow, a division by zero or a NaN there is decided by the values it leaves
# (the bracket tests, _unit_vector, a solve's None), never by a warning
_FLOAT_SCOPE = np.errstate(all="ignore")
# bound once: the solves below run on matrices of a few rows, where the lookups
# and the Python wrappers behind ndarray.min/max cost more than the arithmetic
_min = np.minimum.reduce
_max = np.maximum.reduce
_sum = np.add.reduce


@functools.cache
def _lapack():
    """scipy's LAPACK wrappers, imported by the first solve rather than with the package.

    Importing scipy.linalg takes longer than most runs compute, and a run that
    only writes or parses files never solves.
    """
    from scipy.linalg import lapack

    return lapack


def _matrix_and_abs(entries) -> tuple[np.ndarray, np.ndarray]:
    """(M, |M|) of a dense square float64 matrix M with finite entries; ValueError otherwise.

    The largest |entry| is NaN or inf exactly when some entry is, so it tests finiteness at the cost
    of np.isfinite.
    """
    M = np.asarray(entries, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    abs_M = np.abs(M)
    if not _max(abs_M, axis=None) < math.inf:
        raise ValueError("matrix entries must be finite")
    return M, abs_M


def square_matrix(entries) -> np.ndarray:
    """Validate and return a dense square float64 matrix with finite entries."""
    return _matrix_and_abs(entries)[0]


@dataclass
class SpectralData:
    """Spectral bound plus Perron vectors (absent for reducible inputs).

    u and v are normalized so that u @ v = 1 and sum(v) = 1. [spb_lo, spb_hi]
    is the Collatz-Wielandt bracket min_i (Mv)_i/v_i <= spb <= max_i (Mv)_i/v_i
    at the returned v; for reducible inputs it is [max spb_lo, max spb_hi] over
    the diagonal blocks, whose own results `blocks` lists in the order of the
    component labels of scc_decomposition (None for irreducible inputs), each
    with v, no u and spb its bracket's midpoint (see spectral_bound). A result
    passed back as `spectral_bound(M, start=...)` starts the solve of a nearby M
    from this v, or each diagonal block from its own.
    """

    spb: float
    u: np.ndarray | None
    v: np.ndarray | None
    iterations: int
    spb_lo: float
    spb_hi: float
    blocks: list["SpectralData"] | None = None


@dataclass
class SccDecomposition:
    component_id: np.ndarray  # component index per vertex
    component_count: int


@functools.lru_cache(maxsize=64)
def _scc_blocks(n: int, packed: bytes) -> tuple[tuple[np.ndarray, ...], bool]:
    """(blocks, tridiagonal) of an n x n adjacency pattern packed by np.packbits: _pattern's memo.

    blocks are the vertex indices of each SCC in label order: read-only views of one array, in
    increasing order within each component, from one csgraph.connected_components call on the
    unpacked dense pattern. tridiagonal is whether n >= 3 and every edge joins neighbours i, i +- 1;
    each SCC of such a pattern is then an interval of neighbours, so its diagonal block is tridiagonal
    too. A pattern of n <= 2 is banded and triangular alike, and gains nothing from a band solver.
    """
    from scipy.sparse import csgraph

    adjacency = np.unpackbits(np.frombuffer(packed, dtype=np.uint8), count=n * n).reshape(n, n)
    count, labels = csgraph.connected_components(adjacency, directed=True, connection="strong")
    order = np.argsort(labels, kind="stable")
    order.flags.writeable = False
    blocks = tuple(np.split(order, np.cumsum(np.bincount(labels, minlength=count))[:-1]))
    return blocks, n >= 3 and not (np.triu(adjacency, 2).any() or np.tril(adjacency, -2).any())


def _pattern(M) -> tuple[bool, tuple[np.ndarray, ...], bool]:
    """(every off-diagonal entry >= 0, blocks, tridiagonal) of a validated square M: _scc_blocks of its
    off-diagonal pattern, or all rows as one block and False, with no memo lookup, when that pattern has no
    zero (n = 1 included). Every question a solve or a predicate asks of M's structure is answered here."""
    n = M.shape[0]
    off = M.copy()
    off.reshape(-1)[:: n + 1] = 1.0  # a positive diagonal leaves every answer to the off-diagonal
    least = float(_min(off, axis=None))
    if least > 0.0:
        return True, (np.arange(n),), False
    adjacency = off != 0.0
    if least < 0.0 and adjacency.all():  # a zero among nonnegative entries is the least of them
        return False, (np.arange(n),), False
    np.fill_diagonal(adjacency, False)
    return (least == 0.0, *_scc_blocks(n, np.packbits(adjacency).tobytes()))


def is_essentially_nonnegative(M) -> bool:
    """True iff every off-diagonal entry is >= 0 (exact comparison)."""
    return _pattern(square_matrix(M))[0]


def scc_decomposition(M) -> SccDecomposition:
    """Strongly connected components of the digraph i -> j iff i != j and M[i][j] != 0, in fresh labels."""
    blocks = _pattern(square_matrix(M))[1]
    labels = np.empty(sum(idx.size for idx in blocks), dtype=np.int32)
    for c, idx in enumerate(blocks):
        labels[idx] = c
    return SccDecomposition(labels, len(blocks))


def is_irreducible(M) -> bool:
    """True iff the off-diagonal adjacency digraph is strongly connected (n = 1 counts)."""
    return len(_pattern(square_matrix(M))[1]) == 1


def _unit_vector(x, n: int):
    """x/sum(x) where x is a vector of length n with a finite sum and x/sum(x) is strictly positive, else None.

    The test follows the division, so an entry that underflows to 0 there fails it.
    """
    if x is None or x.shape != (n,):
        return None
    total = float(_sum(x))
    if not (total > 0.0 and math.isfinite(total)):
        return None
    x = x / total
    return x if _min(x) > 0.0 else None


@functools.lru_cache(maxsize=64)
def _ones(n: int) -> np.ndarray:
    """Read-only ones(n), the right-hand side of every Noda step."""
    ones = np.ones(n)
    ones.flags.writeable = False
    return ones


@dataclass(slots=True)
class _Frame:
    """The operands of the Noda solves of one irreducible diagonal block M, as _frames builds them.

    reach is the same for M and M^T, and so is tridiagonal, the fact of M's pattern (_pattern) by
    which _scaled_solve picks dgtsv over dgesv; the frame of M^T is made of transposed views.
    """

    M: np.ndarray
    neg_MT: np.ndarray  # -M^T
    abs_M: np.ndarray  # |M|
    floor: float  # 4*n*eps: relative rounding floor of the Collatz-Wielandt quotients
    reach: float  # 2*max(0, -min_i M_ii), so that max(|M|x/x) <= max|(Mx)/x| + reach
    tridiagonal: bool


def _scaled_solve(F, x, shift, slack, rhs, trans=False):
    """z with S z = rhs, or S^T z = rhs if trans, for S = shift*I - D^-1 M D, D = diag(x), M = F.M.

    Solving (shift*I - M) y = x as y = x*z with rhs = 1 keeps every entry of y
    accurate relative to itself, however widely the entries of x spread. At
    info > 0 the shift is an eigenvalue to working precision, so the system is
    rebuilt at shift + slack, just past it, and solved once more (Wilkinson's
    remedy at an exact eigenvalue); None if that is singular too. A tridiagonal
    frame is solved from the three diagonals of the system by dgtsv, Gaussian
    elimination with partial pivoting in O(n), and any other by the dense
    dgesv; both factor the same entries S_ij = (x_j/x_i)*(-M_ij).
    """
    neg_MT = F.neg_MT
    if F.tridiagonal:
        # S_{i,i+1} = (x_{i+1}/x_i)*(-M_{i,i+1}) and S_{i+1,i} = (x_i/x_{i+1})*(-M_{i+1,i}); S^T swaps the two
        upper = x[1:] / x[:-1]
        upper *= np.diagonal(neg_MT, -1)
        lower = x[:-1] / x[1:]
        lower *= np.diagonal(neg_MT, 1)
        if trans:
            upper, lower = lower, upper
    lapack = _lapack()
    n = x.shape[0]
    for s in (shift, shift + slack):
        if F.tridiagonal:
            z, info = lapack.dgtsv(lower, np.diagonal(neg_MT) + s, upper, rhs)[3:]
        else:
            # A is the transpose of the system in C order, so A.T is the system in the Fortran order
            # that dgesv factors without a copy: A = S^T for S, and A = S for S^T; either way the
            # entry S_ij is the product (x_j/x_i)*(-M_ij)
            if trans:
                A = x / x[:, None]
                A *= neg_MT.T
            else:
                A = x[:, None] / x
                A *= neg_MT
            A.reshape(-1)[:: n + 1] += s
            z, info = lapack.dgesv(A.T, rhs, overwrite_a=True)[2:]
        if info == 0:
            return z
    return None


def _noda(F, start=None, below=-math.inf):
    """Noda inverse iteration for the Perron root of the irreducible Metzler M of the frame F.

    Starting from `start`, a strictly positive vector of length n and unit sum
    (_unit_vector), or from the constant vector if it is None, each step takes the
    Collatz-Wielandt quotients q = (Mx)/x, whose extremes bracket spb(M) for
    any positive x, and replaces x by |solve(max(q)*I - M, x)| normalized to
    unit sum (_scaled_solve). In exact arithmetic the upper end decreases
    strictly and the bracket closes superlinearly. Near convergence the
    shifted system is almost singular and its rounded solution may carry
    entries of the wrong sign; taking |.| keeps x positive, which is all the
    bracket needs. A step that narrows neither the upper end nor the bracket
    may have shifted by a max(q) rounded below the root, where the solution
    changes sign across the small entries of x: the loop then steps once more
    from the narrowest bracket at its hi + slack (at least the rounding floor),
    and stops at a second such step. It stops as well at the rounding floor of
    the quotients, floor*max(|M|x/x), at a shift still singular after
    _scaled_solve's move, or at an iterate that is not strictly positive (an
    entry underflowed), and returns the narrowest bracket seen as (x, lo, hi,
    steps), steps counting the solves made. As soon as the upper end falls
    below `below`, the current bracket is returned instead.
    It runs in its caller's _FLOAT_SCOPE, and values decide every overflow: an
    infinite quotient ends the loop through the bracket tests (and _too_wide
    refuses a bracket with an infinite end), and a solve that is not finite
    fails the test of the next iterate.

    The floor test first tries max|q| = max(-lo, hi) in place of max(|M|x/x), and
    computes |M|x/x only when that fails. (|M|x)_i >= |(Mx)_i| holds for the
    computed products too: both take the same products in the same summation
    order (M and abs_M share their layout), |fl(a + b)| = fl(|a + b|) <=
    fl(|a| + |b|) since rounding is monotone and odd, and so is the division
    by x_i > 0. So the computed max(|M|x/x) is at least max(-lo, hi), a pass of
    the first test is a pass of the second, and no decision or iterate changes.
    """
    M, abs_M, floor, reach = F.M, F.abs_M, F.floor, F.reach
    n = M.shape[0]
    ones = _ones(n)
    x = np.full(n, 1.0 / n) if start is None else start
    best = None  # (width, x, lo, hi) of the narrowest bracket so far
    prev_hi = np.inf
    steps = 0
    retried = False  # whether a step has stepped again from `best` past a stall
    while True:
        q = M @ x
        q /= x
        lo, hi = float(_min(q)), float(_max(q))
        if hi < below:
            return x, lo, hi, steps
        retry = False
        if best is None or hi - lo < best[0]:
            best = (hi - lo, x, lo, hi)
        elif hi >= prev_hi:
            if retried:
                break
            retried = retry = True
            _, x, lo, hi = best
        # Off the diagonal |M| = M, so (|M|x)_i/x_i = q_i + 2*max(0, -M_ii) and
        # max(|M|x/x) <= |hi| + reach: while hi - lo exceeds twice floor times that
        # bound, the floor test cannot pass and |M|x/x is not computed.
        slack = 2.0 * floor * (abs(hi) + reach)
        if hi - lo <= slack:
            # max(-lo, hi) = max|q| is at most max(|M|x/x) as computed (see the docstring)
            if hi - lo <= floor * max(-lo, hi):
                break
            if hi - lo <= floor * float(_max(abs_M @ x / x)):
                break
        z = _scaled_solve(F, x, hi + slack if retry else hi, slack, ones)
        if z is None:
            break
        np.abs(z, out=z)
        z *= x  # y = x*z
        total = float(_sum(z))
        if not (total > 0.0 and math.isfinite(total)):
            break
        z /= total
        least = float(_min(z))
        if not least > 0.0:
            break  # no positive iterate to continue from: an entry underflowed
        x = z
        prev_hi = hi
        steps += 1
    return (*best[1:], steps)


@_FLOAT_SCOPE
def batched_starts(S) -> list["SpectralData | None"]:
    """Uncertified Noda starts for a stack S of k finite n x n matrices, one per matrix.

    Every point starts from the constant vector and takes the steps of _noda
    together: the quotients q = (S x)/x, a shift just above each point's max q
    (by _noda's slack, so that the shift of a Metzler matrix is nonsingular) and
    x replaced by |y|, y solving (shift*I - S) y = x in one stacked
    np.linalg.solve, normalized to unit sum. A point at _noda's rounding floor
    takes further steps with the others, which keep it there; the loop stops
    when no point is above its floor or after BATCH_STEPS steps, so a stack of
    1x1 matrices takes no step and each start is its entry. A point's start
    is SpectralData(hi, None, x, 0, lo, hi) at its last iterate, for
    `spectral_bound(M, start=...)` to certify. Nothing raises: a point whose
    last iterate is not positive and finite, or whose bracket is not finite,
    gets None, and every point gets None when the stack is singular.
    """
    k, n, _ = S.shape
    floor = 4.0 * n * EPS
    eye = np.eye(n)
    x = np.full((k, n, 1), 1.0 / n)
    abs_S = np.abs(S)
    reach = 2.0 * np.maximum(0.0, -_min(np.diagonal(S, axis1=1, axis2=2), axis=1))
    for step in range(BATCH_STEPS + 1):
        q = (S @ x)[..., 0] / x[..., 0]
        lo, hi = _min(q, axis=1), _max(q, axis=1)
        if step == BATCH_STEPS:
            break
        width = hi - lo
        slack = 2.0 * floor * (np.abs(hi) + reach)
        # as in _noda, |S|x/x only once the floor test can pass at every point, and only
        # where max|q| = max(-lo, hi), which is at most it, does not pass the test already
        if not (width > slack).any():
            if not (width > floor * np.maximum(-lo, hi)).any():
                break
            if not (width > floor * _max((abs_S @ x)[..., 0] / x[..., 0], axis=1)).any():
                break
        shifted = (hi + slack)[:, None, None] * eye
        shifted -= S
        try:
            x = np.linalg.solve(shifted, x)
        except np.linalg.LinAlgError:
            return [None] * k
        np.abs(x, out=x)
        x /= _sum(x, axis=1)[:, None]
    usable = (_min(x, axis=1)[:, 0] > 0.0) & np.isfinite(lo) & np.isfinite(hi)
    return [SpectralData(hi[i], None, x[i, :, 0], 0, lo[i], hi[i]) if usable[i] else None for i in range(k)]


def grid_starts(stack) -> list[SpectralData | None]:
    """batched_starts of a grid's (k, n, n) stack of members where a batch pays, else None per point.

    A grid of at least two finite n x n points, n >= 2, batches per strongly
    connected block of the union of their off-diagonal patterns when no block is
    above BATCH_MAX_N. A single block is the whole stack. With more than one, every
    point must have exactly the union's off-diagonal pattern, and so its blocks; a
    point's start carries its block starts alone, as `blocks` in the union's label
    order (all that spectral_bound reads of a reducible start), or is None if one
    of them is. Any other grid gets None at every point, and spectral_bound then
    chains it point by point.
    """
    S = np.asarray(stack, dtype=float)
    none = [None] * len(S)
    if len(S) < 2 or S.ndim != 3 or not 2 <= S.shape[1] == S.shape[2] or not np.isfinite(S).all():
        return none
    pattern = S != 0.0
    union = pattern.any(axis=0)
    indices = _pattern(union)[1]
    if max(idx.size for idx in indices) > BATCH_MAX_N:
        return none
    if len(indices) == 1:
        return batched_starts(S)
    off = ~np.eye(S.shape[1], dtype=bool)
    if (pattern[:, off] != union[off]).any():
        return none
    per_block = [batched_starts(S[:, idx[:, None], idx]) for idx in indices]
    starts = [None if any(b is None for b in point) else list(point) for point in zip(*per_block)]
    return [None if b is None else SpectralData(math.nan, None, None, 0, math.nan, math.nan, b) for b in starts]


def _too_wide(abs_M, lo, hi) -> bool:
    """True iff the bracket [lo, hi] is wider than WIDTH_TOL*||M||_inf.

    lo <= spb <= hi and |spb| <= ||M||_inf give ||M||_inf >= |hi| - (hi - lo),
    which settles most brackets without the norm; the factor 0.5 covers the
    rounding of the quotients. A NaN or infinite end, or a width that overflows,
    is too wide at once: WIDTH_TOL*||M||_inf lies far below the largest double,
    and the row sums of a matrix near it can overflow.
    """
    width = hi - lo
    if not width < math.inf:
        return True
    return not width <= 0.5 * WIDTH_TOL * (abs(hi) - width) and width > WIDTH_TOL * float(_max(abs_M.sum(axis=1)))


def _v_pass(F, start: SpectralData | None, below: float) -> tuple:
    """(spb, v, iterations, spb_lo, spb_hi) of the certified v pass of the frame F from `start`'s v.

    A start whose v is not usable (see _unit_vector) is ignored as a whole; a started solve left
    wider than WIDTH_TOL*||M||_inf is solved again cold. spb is the bracket's midpoint, or the upper
    end once it falls below `below`, where the solve stops and keeps its last iterate as v.
    """
    n = F.M.shape[0]
    if n == 1:
        spb = float(F.M[0, 0])
        return spb, np.array([1.0]), 0, spb, spb
    x0 = None if start is None else _unit_vector(start.v, n)
    v, lo, hi, steps = _noda(F, x0, below)
    if hi < below:
        return hi, v, steps, lo, hi
    if _too_wide(F.abs_M, lo, hi):
        if x0 is not None:
            spb, v, cold_steps, lo, hi = _v_pass(F, None, below)
            return spb, v, cold_steps + steps, lo, hi
        raise NoConvergence(
            f"Collatz-Wielandt bracket [{lo:.17g}, {hi:.17g}] did not close to "
            f"{WIDTH_TOL:g}*||M||_inf = {WIDTH_TOL * float(_max(F.abs_M.sum(axis=1))):.3e}",
            residual=hi - lo,
            iterations=steps,
        )
    return lo + 0.5 * (hi - lo), v, steps, lo, hi  # 0.5*(lo + hi) can overflow


def _solve_irreducible(F, start: SpectralData | None = None) -> SpectralData:
    """Certified Perron pair of the frame F: the v pass from `start`, then the left-vector step.

    u starts from one transposed scaled solve at the certified shift hi and is certified by its own Noda
    run on M^T; spb is the clamped Rayleigh quotient. iterations counts every shifted solve, that one included.
    """
    M = F.M
    _, v, steps, lo, hi = _v_pass(F, start, -math.inf)
    if M.shape[0] == 1 or (M[0, 1] == M[1, 0] and (M == M.T).all()):
        u = v
    else:
        # S^T w = v with S = hi*I - D^-1 M D, D = diag(v), means (hi*I - M^T)(w/v) = 1:
        # one inverse-iteration step for u at the certified shift
        u_start = None
        # near the underflow range the scaled system or w/v can overflow: such a start is not
        # usable, and u starts cold
        w = _scaled_solve(F, v, hi, 2.0 * F.floor * (abs(hi) + F.reach), v, trans=True)
        if w is not None:
            steps += 1
            u_start = np.abs(w, out=w)
            u_start /= v
            u_start = _unit_vector(u_start, M.shape[0])
        u, _, _, steps_u = _noda(_Frame(M.T, F.neg_MT.T, F.abs_M.T, F.floor, F.reach, F.tridiagonal), u_start)
        steps += steps_u
    # two-sided Rayleigh quotient: error is quadratic in the vector errors
    uv = float(u @ v)
    spb = min(max(float(u @ (M @ v)) / uv, lo), hi)
    return SpectralData(spb, u / uv, v, steps, lo, hi)


def _frames(M) -> list[_Frame]:
    """The _Frame of each strongly connected diagonal block of M in label order, or of M itself when it is
    irreducible, from one _pattern call: the set-up of a solve. NotEssentiallyNonnegative if M is not Metzler."""
    M, abs_M = _matrix_and_abs(M)
    nonnegative, indices, tridiagonal = _pattern(M)
    if not nonnegative:
        raise NotEssentiallyNonnegative("matrix has a negative off-diagonal entry")
    if len(indices) == 1:
        blocks = [(M, abs_M)]
    else:
        blocks = [(B, np.abs(B)) for B in (M[idx[:, None], idx] for idx in indices)]
    return [
        _Frame(B, -B.T, abs_B, 4.0 * B.shape[0] * EPS, 2.0 * max(0.0, -float(_min(B.diagonal()))), tridiagonal)
        for B, abs_B in blocks
    ]


@_FLOAT_SCOPE
def spectral_bound(M, start: SpectralData | None = None) -> SpectralData:
    """Spectral bound of an essentially nonnegative matrix.

    Irreducible inputs, n = 1 included, return Perron vectors as well, so u is
    None exactly when M is reducible; the v iteration starts from start.v, of
    the result at a nearby matrix, where it is strictly positive, finite and of
    matching length. Reducible inputs are solved per strongly connected
    diagonal block by its v pass alone, with no left vector and its bracket's
    midpoint as spb, and report u = v = None, the block results as `blocks` and
    their v-pass solves as iterations. Block c starts from start.blocks[c] when
    `start` has as many blocks as M, under the same rules as an irreducible
    start. The blocks are solved in descending order of start.blocks[c].spb_hi,
    or for a cold start of their largest row sum, the upper end of the bracket
    at the constant vector. A block stops as soon as its upper end falls below
    the largest lower end already certified, which leaves the reported maxima
    unchanged, and keeps that upper end as spb and its last iterate as v for
    the next start.
    """
    frames = _frames(M)
    count = len(frames)
    if count == 1:
        return _solve_irreducible(frames[0], start)
    # the likely dominant block goes first, so that the others can stop early
    if start is not None and start.blocks is not None and len(start.blocks) == count:
        starts = start.blocks
        upper = [b.spb_hi for b in starts]
    else:
        starts = [None] * count
        upper = [float(_max(F.M.sum(axis=1))) for F in frames]
    order = sorted(range(count), key=upper.__getitem__, reverse=True)
    blocks = [None] * count
    below = -math.inf
    for c in order:
        spb, v, steps, lo, hi = _v_pass(frames[c], starts[c], below)
        blocks[c] = SpectralData(spb, None, v, steps, lo, hi)
        below = max(below, lo)
    # the maxima run in the order of solving, so a tie of 0.0 and -0.0 keeps the first sign
    solved = [blocks[c] for c in order]
    hi, iterations = max(b.spb_hi for b in solved), sum(b.iterations for b in solved)
    return SpectralData(max(b.spb for b in solved), None, None, iterations, max(b.spb_lo for b in solved), hi, blocks)


@_FLOAT_SCOPE
def perron_vectors(M):
    """Left and right Perron vectors (u, v) with u @ v = 1 and sum(v) = 1."""
    frames = _frames(M)
    if len(frames) > 1:
        raise NotIrreducible("Perron vectors require an irreducible matrix")
    data = _solve_irreducible(frames[0])
    return data.u, data.v


def resolvent(M, xi: float) -> np.ndarray:
    """(xi*I - M)^-1 from one LAPACK solve with n right-hand sides: dgtsv on the three diagonals of
    xi*I - M when M is tridiagonal (_pattern), else dgesv, both LU with partial pivoting. ValueError unless xi
    is finite; SingularResolvent if a pivot, a diagonal entry of U, is at most n*eps*max|xi*I - M|, an exact
    zero included, which either routine reports as info > 0."""
    if not math.isfinite(xi):
        raise ValueError(f"xi must be finite, got {xi}")
    M = square_matrix(M)
    n = M.shape[0]
    eye = np.eye(n)
    if _pattern(M)[2]:
        bands = (-np.diagonal(M, -1), xi - np.diagonal(M), -np.diagonal(M, 1))
        _, pivots, _, R, _ = _lapack().dgtsv(*bands, eye)
        largest = max(float(_max(np.abs(band))) for band in bands)
    else:
        shifted = xi * eye - M
        lu, _, R, _ = _lapack().dgesv(shifted, eye)
        pivots = np.diagonal(lu)
        largest = float(np.max(np.abs(shifted)))
    tiny = n * EPS * max(largest, np.finfo(float).tiny)
    if float(np.min(np.abs(pivots))) <= tiny:
        raise SingularResolvent(f"xi = {xi} lies in the spectrum within pivot tolerance")
    return R
