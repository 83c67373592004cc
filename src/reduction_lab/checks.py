"""Sweep drivers, numerical certifiers and the report lines built from them.

Each checker sweeps a family, tests the asserted inequality on the sampled
grid, and reports a worst-case margin with the witnessing parameters. Margins
are signed slacks: nonnegative (up to the stated tolerance) means the
inequality held. FAMILY_KINDS maps each family kind to the `*_lines` builder
of its `check` report and to the GridSpec of each grid it sweeps.
"""

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from operator import attrgetter

import numpy as np

from .errors import (
    NonUniformGrid,
    NoSignChange,
    NotIrreducible,
    NotMonotoneOnBracket,
    OverflowRisk,
    ReductionLabError,
    SingularResolvent,
    ZeroSpectralRadius,
)
from .gallery import KarlinFamily, KingmanFamily, LinearFamily, _require_diagonal
from .matrixio import format_value
from .perron import SpectralData, grid_starts, is_essentially_nonnegative, is_irreducible
from .perron import perron_vectors, resolvent, spectral_bound, square_matrix
from .semigroup import expm, growth_bound_estimate

CHECK_TOL = 1e-9
HOMOGENEITY_TOL = 1e-10
DERIVATIVE_TOL = 1e-6
FD_STEP_SCALE = 1e-5

THRESHOLD_VALUE_TOL = 1e-10
THRESHOLD_WIDTH_TOL = 1e-12
THRESHOLD_PRESWEEP = 9  # grid points of the monotonicity pre-sweep
SEMIGROUP_POSITIVITY_TOL = 1e-10
RESOLVENT_POSITIVITY_TOL = 1e-12
GROWTH_TOL = 1e-9  # growth_bound checks pass when |omega - spb| <= GROWTH_TOL*max(1, |spb|)


def is_uniform(grid: np.ndarray) -> bool:
    """Whether the steps of a strictly increasing grid agree to 1e-9 of their mean."""
    diffs = np.diff(grid)
    return bool(np.max(np.abs(diffs - diffs.mean())) <= 1e-9 * float(diffs.mean()))


@dataclass
class SweepResult:
    """Sampled curve: points[i] is the SpectralData solved at grid[i]; grid strictly increasing, length >= 3."""

    parameter_name: str
    grid: np.ndarray
    points: list[SpectralData]

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        if self.grid.ndim != 1 or len(self.grid) != len(self.points) or len(self.grid) < 3:
            raise ValueError("grid and points must have equal length, with >= 3 points")
        if (np.diff(self.grid) <= 0.0).any():
            raise ValueError("grid must be strictly increasing")

    @property
    def values(self) -> np.ndarray:
        return np.array([d.spb for d in self.points], dtype=float)

    @property
    def uniform(self) -> bool:
        return is_uniform(self.grid)


@dataclass
class CheckLine:
    """The verdict of one certifier and its report line `name,pass|fail,margin,witness`.

    The witness maps names to the numbers that locate the margin; only the
    advisory `verdict` is a word. `format` is the one place a line becomes
    text. Advisory lines carry evidence only; they always pass and `suite`
    does not count them as mandatory.
    """

    name: str
    passed: bool
    margin: float
    witness: dict[str, float | str]
    advisory: bool = False

    @classmethod
    def within(cls, name: str, gap: float, tol: float, **witness: float) -> "CheckLine":
        """A line that passes iff gap <= tol, with margin tol - gap."""
        return cls(name, bool(gap <= tol), tol - gap, witness)

    def format(self) -> str:
        status = "pass" if self.passed else "fail"
        witness = ";".join(f"{k}={v}" if isinstance(v, str) else f"{k}={v:.9g}" for k, v in self.witness.items())
        return f"{self.name},{status},{format_value(self.margin)},{witness}"


@dataclass(frozen=True)
class GridSpec:
    """A grid a family kind sweeps: the (start, stop, count) of its default grid, the interval [lo, hi]
    its points must lie in, which `domain` states in words, the member F -> (p -> M(p)) its sweeps
    solve, and F -> dM/dp, or None where no analytic derivative is written."""

    default: tuple[float, float, int]
    lo: float = -math.inf
    hi: float = math.inf
    domain: str = ""
    member: Callable = attrgetter("matrix_at")
    dM: Callable | None = None


def _slope(u, v, dM) -> float:
    """u^T dM v: d spb/dp at the Perron pair (u, v), u @ v = 1, of M(p) with dM = dM/dp (Kato 1966)."""
    return float(u @ (dM @ v))


def solve_along(grid, evaluate, parameter_name: str, previous: SpectralData | None = None) -> list[SpectralData]:
    """spectral_bound(evaluate(p)) at each grid point p, in grid order.

    Every sweep of the library solves its grid here. The grid is evaluated
    first, up to its first failing point, and each point is then one certified
    spectral_bound call, started from the batched Noda iterate of its point
    (perron.grid_starts) or, where the batch gives none, from the result at the
    previous point, or at the first point from `previous`. The first failing
    point in grid order raises: its evaluation's error as raised (matrix_at
    names its point), or its solve's library error with the point appended to
    its message, keeping type and attributes (such as NoConvergence.residual).
    """
    matrices, failure = [], None
    for p in grid:
        try:
            matrices.append(evaluate(p))
        except Exception as exc:  # raised below, once the points before it are solved
            failure = exc
            break
    results = []
    try:
        for p, M, start in zip(grid, matrices, grid_starts(matrices)):
            previous = spectral_bound(M, start=previous if start is None else start)
            results.append(previous)
    except ReductionLabError as exc:
        exc.args = (f"{exc} (at {parameter_name} = {p})",)
        raise
    if failure is not None:
        raise failure
    return results


def sweep_spb_in_m(F: LinearFamily, m_grid) -> SweepResult:
    """spb(m*A + V) along a positive m grid."""
    grid = np.asarray(m_grid, dtype=float)
    if (grid <= 0.0).any():
        raise ValueError("m grid must be strictly positive")
    return SweepResult("m", grid, solve_along(grid, F.matrix_at, "m"))


def _at_beta(F: LinearFamily):
    """beta -> A + beta*V, the member of F that every beta sweep solves."""
    return lambda beta: F.matrix_at(1.0, beta)


def sweep_spb_in_beta(F: LinearFamily, beta_grid) -> SweepResult:
    """spb(A + beta*V) along a beta grid."""
    grid = np.asarray(beta_grid, dtype=float)
    return SweepResult("beta", grid, solve_along(grid, _at_beta(F), "beta"))


def curve_table(F, name: str, spec: GridSpec, grid) -> tuple[str, list[tuple[float, ...]]]:
    """(CSV header, rows) of the sweep of F along `grid`, a grid of the parameter `name`.

    The sweep solves spec.member(F); a grid with a spec.dM adds the analytic
    derivative u^T (dM/dp) v when every swept point returned Perron vectors, that
    is, when every point is irreducible.
    """
    points = SweepResult(name, grid, solve_along(grid, spec.member(F), name)).points
    if spec.dM is None or any(d.u is None for d in points):
        return "param,spb", [(p, d.spb) for p, d in zip(grid, points)]
    dM = spec.dM(F)
    return "param,spb,analytic_derivative", [(p, d.spb, _slope(d.u, d.v, dM)) for p, d in zip(grid, points)]


def check_midpoint_convexity(S: SweepResult) -> CheckLine:
    """`convexity_<parameter>`: second-difference convexity test on a uniform sweep,
    to CHECK_TOL times its scale.

    The margin is the smallest second difference; the witness is the centre
    of that triple.
    """
    if not S.uniform:
        raise NonUniformGrid("midpoint convexity needs a uniformly spaced grid")
    v = S.values
    d2 = v[:-2] - 2.0 * v[1:-1] + v[2:]
    scale = max(1.0, float(np.max(np.abs(v))))
    k = int(np.argmin(d2))
    worst = float(d2[k])
    name = S.parameter_name
    return CheckLine(f"convexity_{name}", bool(worst >= -CHECK_TOL * scale), worst, {name: float(S.grid[k + 1])})


def check_monotone_reduction(S: SweepResult, spb_A: float) -> CheckLine:
    """`monotone_reduction`: spb((m+d)A + V) <= spb(mA + V) + d*spb(A) over all grid pairs.

    Also classifies the pairwise slacks against t = CHECK_TOL times the scale of
    the sweep: the family must be either strictly below the comparison line for
    every pair (slack > t, the strict branch), or on it for every pair
    (|slack| <= t, the equality branch); a violation or a mixture fails. So a
    pass has margin > t on the strict branch and |margin| <= t on the equality
    branch.
    """
    if S.parameter_name != "m":
        raise ValueError("monotone reduction expects an m sweep")
    grid, v = S.grid, S.values
    span = float(grid[-1] - grid[0])
    scale = max(1.0, float(np.max(np.abs(v))), abs(spb_A) * span)
    t = CHECK_TOL * scale
    i, j = np.triu_indices(len(grid), 1)
    d = grid[j] - grid[i]
    slack = v[i] + d * spb_A - v[j]
    k = int(np.argmin(slack))
    passed = bool((slack > t).all() or (np.abs(slack) <= t).all())
    return CheckLine("monotone_reduction", passed, float(slack[k]), {"m": float(grid[i[k]]), "d": float(d[k])})


def derivative_bound_check(F: LinearFamily, m: float) -> CheckLine:
    """`derivative_bound`: the central-difference d spb/dm at m must not exceed spb(A)."""
    if m <= 0:
        raise ValueError("derivative probe needs m > 0")
    M = F.matrix_at(m)
    if not is_irreducible(M):
        raise NotIrreducible("derivative bound requires an irreducible family point")
    h = min(FD_STEP_SCALE * max(1.0, m), 0.5 * m)  # m - h stays positive
    lo = spectral_bound(F.matrix_at(m - h)).spb
    hi = spectral_bound(F.matrix_at(m + h)).spb
    fd = (hi - lo) / (2.0 * h)
    spb_A = spectral_bound(F.A).spb
    scale = max(1.0, abs(spb_A))
    margin = spb_A - fd
    return CheckLine("derivative_bound", bool(margin >= -DERIVATIVE_TOL * scale), margin, {"m": m, "fd": fd})


def perron_derivative(F: LinearFamily, m: float) -> float:
    """Analytic d spb(mA+V)/dm = u^T A v at the Perron pair of mA + V (NotIrreducible if it has none)."""
    return _slope(*perron_vectors(F.matrix_at(m)), F.A)


def perron_derivative_agreement(F: LinearFamily, bound: CheckLine) -> CheckLine:
    """The analytic derivative u^T A v must match the finite difference of `bound`.

    `bound` is the derivative_bound_check line at the same family point.
    """
    m, fd = bound.witness["m"], bound.witness["fd"]
    analytic = perron_derivative(F, m)
    tol = DERIVATIVE_TOL * max(1.0, abs(analytic), abs(fd))
    return CheckLine.within("perron_derivative_agreement", abs(analytic - fd), tol, m=m, analytic=analytic)


def lindqvist_check(A, D) -> CheckLine:
    """`lindqvist`: spb(A + D) - spb(A) >= u(A)^T D v(A) for diagonal D of the size of A."""
    A = square_matrix(A)
    D = square_matrix(D)
    if D.shape != A.shape:
        raise ValueError(f"D is {D.shape[0]}x{D.shape[0]} but A is {A.shape[0]}x{A.shape[0]}")
    _require_diagonal(D, "D")
    if not is_irreducible(A):
        raise NotIrreducible("the inequality requires an irreducible matrix")
    base = spectral_bound(A)
    shifted = spectral_bound(A + D).spb
    rhs = float(base.u @ (np.diagonal(D) * base.v))
    margin = (shifted - base.spb) - rhs
    scale = max(1.0, abs(shifted), abs(base.spb), abs(rhs))
    return CheckLine("lindqvist", bool(margin >= -CHECK_TOL * scale), margin, {"lhs": shifted - base.spb, "rhs": rhs})


def kirkland_check(A) -> CheckLine:
    """`kirkland`: e^T A (u o v) >= spb(A), with equality exactly when e^T A = spb(A) e^T.

    With t = CHECK_TOL * max(1, |lhs|, |spb|), equality is |margin| <= t, and
    the line fails when that disagrees with the column-sum condition.
    """
    A = square_matrix(A)
    if not is_irreducible(A):
        raise NotIrreducible("the inequality requires an irreducible matrix")
    data = spectral_bound(A)
    lhs = float(np.sum(A @ (data.u * data.v)))
    margin = lhs - data.spb
    scale = max(1.0, abs(lhs), abs(data.spb))
    t = CHECK_TOL * scale
    at_equality = abs(margin) <= t
    col_tol = CHECK_TOL * max(1.0, float(np.max(np.abs(A))), abs(data.spb))
    col_condition = bool(np.max(np.abs(A.sum(axis=0) - data.spb)) <= col_tol)
    passed = bool(margin >= -t) and (at_equality == col_condition)
    return CheckLine("kirkland", passed, margin, {"lhs": lhs, "spb": data.spb})


def kingman_superconvexity_check(F: KingmanFamily, theta_grid) -> CheckLine:
    """`kingman_superconvexity`: midpoint log-convexity of theta -> rho(A(theta)) for a log-affine family."""
    grid = np.asarray(theta_grid, dtype=float)
    rho = solve_along(grid, F.matrix_at, "theta")
    for theta, d in zip(grid, rho):
        if d.spb <= 0.0:
            raise ZeroSpectralRadius(f"spectral radius vanished at theta = {theta}")
    with np.errstate(divide="ignore"):  # the sweep of log rho; a lower end <= 0 goes to log 0 = -inf
        logs = [replace(d, spb=np.log(d.spb), spb_lo=np.log(max(d.spb_lo, 0.0)), spb_hi=np.log(d.spb_hi)) for d in rho]
    return replace(check_midpoint_convexity(SweepResult("theta", grid, logs)), name="kingman_superconvexity")


def karlin_monotonicity_check(F: KarlinFamily, alpha_grid) -> CheckLine:
    """`karlin_monotonicity`: rho([(1-alpha)I + alpha P]D) must not increase along the alpha grid.

    Strict decrease is demanded between consecutive points when D is not an
    exact scalar multiple of I; scalar D must give a constant curve.
    """
    if not is_irreducible(F.P):
        raise NotIrreducible("the monotonicity statement requires irreducible P")
    grid = np.asarray(alpha_grid, dtype=float)
    values = SweepResult("alpha", grid, solve_along(grid, F.matrix_at, "alpha")).values
    diag = np.diagonal(F.D)
    scalar = bool((diag == diag[0]).all())
    scale = max(1.0, float(np.max(np.abs(values))))
    t = CHECK_TOL * scale
    if scalar:
        dev = np.abs(values - values[0])
        k = int(np.argmax(dev))
        margin = -float(dev[k])
        return CheckLine("karlin_monotonicity", bool(-margin <= t), margin, {"alpha": float(grid[k])})
    drops = values[:-1] - values[1:]
    k = int(np.argmin(drops))
    margin = float(drops[k])
    witness = {"alpha_lo": float(grid[k]), "alpha_hi": float(grid[k + 1])}
    return CheckLine("karlin_monotonicity", bool(margin > t), margin, witness)


def homogeneity_check(F: LinearFamily, m: float, beta: float, alphas) -> CheckLine:
    """`homogeneity`: spb(alpha*(mA + beta V)) = alpha * spb(mA + beta V) for each alpha > 0.

    OverflowRisk when some alpha*(mA + beta V) is not finite.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not alphas.size or (alphas <= 0.0).any():
        raise ValueError("need at least one scaling factor, each strictly positive")
    M = F.matrix_at(m, beta)
    base = spectral_bound(M).spb
    with np.errstate(over="ignore"):
        scaled = [a * M for a in alphas]
    for a, aM in zip(alphas, scaled):
        if not np.isfinite(aM).all():
            raise OverflowRisk(f"alpha*M overflows double precision at alpha = {a}, m = {m}, beta = {beta}")
    gaps = [abs(spectral_bound(aM).spb - a * base) for a, aM in zip(alphas, scaled)]
    slack = [HOMOGENEITY_TOL * max(1.0, abs(a * base)) - gap for a, gap in zip(alphas, gaps)]
    k = int(np.argmin(slack))
    witness = {"alpha": float(alphas[k]), "m": m, "beta": beta}
    return CheckLine("homogeneity", bool(slack[k] >= 0.0), float(slack[k]), witness)


def is_resolvent_positive_at(M, xi: float) -> bool:
    """True iff the resolvent at xi exists and is entrywise >= -RESOLVENT_POSITIVITY_TOL."""
    try:
        R = resolvent(M, xi)
    except SingularResolvent:
        return False
    return bool((R >= -RESOLVENT_POSITIVITY_TOL).all())


def semigroup_positivity_outcome(M, t_grid, metzler: bool, resolvent_ok: bool) -> CheckLine:
    """The `semigroup_positivity` line of positivity_of_semigroup_check on M from its parts:
    whether M is `metzler`, and for a Metzler M whether its resolvent at spb + 1 is positive.

    The margin is min_entry + SEMIGROUP_POSITIVITY_TOL for a Metzler M and
    -SEMIGROUP_POSITIVITY_TOL - min_entry otherwise.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if (t_grid <= 0.0).any():
        raise ValueError("probe times must be strictly positive")
    min_entry = np.inf
    worst_t = float(t_grid[0])
    for t in t_grid:
        entry = float(expm(M, t).min())
        if entry < min_entry:
            min_entry = entry
            worst_t = float(t)
    semigroup_positive = min_entry >= -SEMIGROUP_POSITIVITY_TOL
    if metzler:
        margin = min_entry + SEMIGROUP_POSITIVITY_TOL
    else:
        resolvent_ok = True
        margin = -SEMIGROUP_POSITIVITY_TOL - min_entry
    passed = bool(semigroup_positive == metzler and resolvent_ok)
    return CheckLine("semigroup_positivity", passed, float(margin), {"t": worst_t, "min_entry": min_entry})


def positivity_of_semigroup_check(M, t_grid) -> CheckLine:
    """`semigroup_positivity`: e^{tM} >= 0 on the probed times iff M is essentially nonnegative.

    For Metzler inputs the resolvent at spb + 1 is additionally required to be
    entrywise nonnegative.
    """
    M = square_matrix(M)
    metzler = is_essentially_nonnegative(M)
    resolvent_ok = metzler and is_resolvent_positive_at(M, spectral_bound(M).spb + 1.0)
    return semigroup_positivity_outcome(M, t_grid, metzler, resolvent_ok)


def find_threshold(F: LinearFamily, m_lo: float, m_hi: float) -> float:
    """Root of spb(m*A + V) = 0 on [m_lo, m_hi], by Newton steps guarded by bisection.

    A THRESHOLD_PRESWEEP-point sweep certifies monotonicity on the bracket;
    endpoints must straddle zero. The search starts on the cell of that sweep
    where spb changes sign and stops at |spb| <= THRESHOLD_VALUE_TOL or a cell
    width <= THRESHOLD_WIDTH_TOL. Each step starts from the end of the cell
    where spb > 0 and goes to the root of the tangent there,
    m - spb/(u^T A v), u^T A v being d spb/dm at that end's Perron pair. spb
    is convex in m (the paper's lemma), so the tangent lies below the curve and
    its root never passes the root of spb: the new point has spb >= 0 again
    and the steps approach the root from one side. Where that end has no
    Perron vectors (a reducible point) or the step does not land inside the
    open cell, as rounding can make it next to the root, the step bisects
    instead. Each solve is a solve_along point started from the previous one's
    result, so a solver error names its m.
    """
    if not 0.0 < m_lo < m_hi:
        raise ValueError("need 0 < m_lo < m_hi")

    grid = np.linspace(m_lo, m_hi, THRESHOLD_PRESWEEP)
    sweep = SweepResult("m", grid, solve_along(grid, F.matrix_at, "m"))
    vals = sweep.values
    slack = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    if not ((np.diff(vals) <= slack).all() or (np.diff(vals) >= -slack).all()):
        raise NotMonotoneOnBracket("preliminary sweep is not monotone on the bracket")
    f_lo, f_hi = float(vals[0]), float(vals[-1])
    if abs(f_lo) <= THRESHOLD_VALUE_TOL:
        return m_lo
    if abs(f_hi) <= THRESHOLD_VALUE_TOL:
        return m_hi
    if np.sign(f_lo) == np.sign(f_hi):
        raise NoSignChange("spb has the same sign at both bracket endpoints")
    k = int(np.argmax(np.sign(vals) != np.sign(f_lo)))  # the cell [grid[k-1], grid[k]]
    for end in (k - 1, k):
        if abs(vals[end]) <= THRESHOLD_VALUE_TOL:
            return float(grid[end])
    pos, neg = (k, k - 1) if vals[k] > 0.0 else (k - 1, k)
    data = latest = sweep.points[pos]
    pos, neg = float(grid[pos]), float(grid[neg])
    while abs(pos - neg) > THRESHOLD_WIDTH_TOL:
        m = 0.5 * (pos + neg)
        if data.u is not None:
            slope = _slope(data.u, data.v, F.A)
            step = pos - data.spb / slope if slope != 0.0 else math.nan
            if min(pos, neg) < step < max(pos, neg):
                m = step
        (latest,) = solve_along([m], F.matrix_at, "m", latest)
        if abs(latest.spb) <= THRESHOLD_VALUE_TOL:
            return m
        if latest.spb > 0.0:
            pos, data = m, latest
        else:
            neg = m
    return 0.5 * (pos + neg)


def strict_convexity_probe(F: LinearFamily, beta_grid) -> CheckLine:
    """Probe whether spb(A + beta V) looks strictly convex on the grid.

    Evidence only: a margin above CHECK_TOL*scale suggests strict convexity for
    the instance, a near-zero margin a flat (affine) stretch. Nothing is
    asserted beyond the report.
    """
    if not is_irreducible(F.A):
        raise NotIrreducible("the probe targets irreducible mixing generators")
    return check_midpoint_convexity(sweep_spb_in_beta(F, beta_grid))


def strict_convexity_line(probe: CheckLine, sweep: SweepResult) -> CheckLine:
    """Advisory verdict on a beta-sweep's convexity line: `strict` or `flat`.

    The verdict is `strict` when the smallest second difference exceeds
    CHECK_TOL times the scale of the swept values.
    """
    scale = max(1.0, float(np.max(np.abs(sweep.values))))
    verdict = "strict" if probe.margin > CHECK_TOL * scale else "flat"
    return CheckLine("strict_convexity_probe", True, probe.margin, {"verdict": verdict}, advisory=True)


def linear_family_lines(
    F: LinearFamily, spb_A: float, beta_grid, m_grid, m_probe: float
) -> tuple[list[CheckLine], SweepResult, CheckLine]:
    """The linear-family lines from `convexity_beta` to `kirkland`, in report order.

    The derivative lines need an irreducible family point at m_probe, and
    `lindqvist`/`kirkland` an irreducible A; otherwise they are left out.
    Also returns the beta sweep and its convexity line.
    """
    sweep_b = sweep_spb_in_beta(F, beta_grid)
    convex_b = check_midpoint_convexity(sweep_b)
    sweep_m = sweep_spb_in_m(F, m_grid)
    lines = [convex_b, check_midpoint_convexity(sweep_m), check_monotone_reduction(sweep_m, spb_A)]
    if is_irreducible(F.matrix_at(m_probe)):
        bound = derivative_bound_check(F, m_probe)
        lines += [bound, perron_derivative_agreement(F, bound)]
    lines.append(homogeneity_check(F, m_probe, 1.0, [0.1, 2.0, 10.0]))
    if is_irreducible(F.A):
        lines += [lindqvist_check(F.A, F.V), kirkland_check(F.A)]
    return lines, sweep_b, convex_b


def linear_check_lines(F: LinearFamily, m_grid, beta_grid) -> list[CheckLine]:
    """The `check` report of a linear family: the family lines probed at the middle of
    the m grid, then the strict-convexity line when A is irreducible."""
    lines, sweep_b, convex_b = linear_family_lines(
        F, spectral_bound(F.A).spb, beta_grid, m_grid, float(m_grid[len(m_grid) // 2])
    )
    if is_irreducible(F.A):
        # the probe reads only the second differences, which the beta sweep already has
        lines.append(strict_convexity_line(convex_b, sweep_b))
    return lines


def karlin_family_lines(F: KarlinFamily, alpha_grid) -> list[CheckLine]:
    """The `check` report of a Karlin family [(1-alpha)I + alpha P]D."""
    lines = [karlin_monotonicity_check(F, alpha_grid)]
    derived = F.linear
    spb_mix = spectral_bound(derived.A).spb
    # reciprocal growth rates form a positive right null vector of (P - I)D
    lines.append(CheckLine.within("mixing_spb_zero", abs(spb_mix), 1e-10, spb=spb_mix))
    if np.max(np.abs(F.P.sum(axis=0) - 1.0)) <= 1e-12:
        # the left-null identity is a theorem only when columns also sum to 1
        worst = float(np.max(np.abs(derived.A.sum(axis=0))))
        null_tol = 1e-13 * max(1.0, float(np.max(np.abs(derived.A))))
        lines.append(CheckLine.within("left_null_identity", worst, null_tol, max_colsum=worst))
    worst_gap = 0.0
    for a in alpha_grid:
        direct = ((1.0 - a) * np.eye(F.n) + a * F.P) @ F.D
        worst_gap = max(worst_gap, float(np.max(np.abs(direct - F.matrix_at(a)))))
    cons_tol = 1e-13 * max(1.0, float(np.max(np.abs(F.D))))
    lines.append(CheckLine.within("karlin_consistency", worst_gap, cons_tol, max_gap=worst_gap))
    sweep = sweep_spb_in_m(derived, np.linspace(0.1, 3.0, 11))
    lines.append(check_monotone_reduction(sweep, spb_mix))
    return lines


def kingman_family_lines(F: KingmanFamily, theta_grid) -> list[CheckLine]:
    """The `check` report of a Kingman family; `log_affine_entries` probes the grid's
    ends and its middle point, or the midpoint when that point is not halfway."""
    lines = [kingman_superconvexity_check(F, theta_grid)]
    probes = [float(theta_grid[0]), float(theta_grid[len(theta_grid) // 2]), float(theta_grid[-1])]
    if not np.allclose(np.diff(probes), probes[1] - probes[0], atol=0.0):
        probes = [probes[0], 0.5 * (probes[0] + probes[2]), probes[2]]
    nonzero = F.c != 0.0
    logs = [np.log(F.c[nonzero]) + F.g[nonzero] * t for t in probes]
    worst = float(np.max(np.abs(logs[0] - 2.0 * logs[1] + logs[2]), initial=0.0))
    # the log of every nonzero entry must be affine in theta
    lines.append(CheckLine.within("log_affine_entries", worst, 1e-12, second_difference=worst))
    return lines


def operator_family_lines(F: LinearFamily, m_grid) -> list[CheckLine]:
    """The `check` report of an operator A + V split as F; a Metzler operator whose
    rows sum to exactly 0 has spb = 0, which the `spb_zero` line checks."""
    A = F.matrix_at(1.0)
    n = A.shape[0]
    off = A[~np.eye(n, dtype=bool)]
    # parse_scenario has already rejected a non-Metzler mixing part, so this line reports the margin
    metzler = is_essentially_nonnegative(A)
    lines = [CheckLine("essential_nonnegativity", metzler, float(np.min(off)), {"n": n})]
    data = spectral_bound(A)
    if not A.sum(axis=1).any():
        lines.append(CheckLine.within("spb_zero", abs(data.spb), 1e-10, spb=data.spb))
    # the resolvent is entrywise nonnegative beyond the spectral bound
    positive_at = {offset: is_resolvent_positive_at(A, data.spb + offset) for offset in (0.1, 1.0, 10.0)}
    positive = all(positive_at.values())
    lines.append(CheckLine("resolvent_positive", positive, 1.0 if positive else -1.0, {"spb": data.spb}))
    # the semigroup line's resolvent probe at spb + 1 is the one above
    lines.append(semigroup_positivity_outcome(A, [0.1, 1.0, 5.0], metzler, metzler and positive_at[1.0]))
    omega = growth_bound_estimate(A)
    gtol = GROWTH_TOL * max(1.0, abs(data.spb))
    lines.append(CheckLine.within("growth_bound", abs(omega - data.spb), gtol, omega=omega, spb=data.spb))
    sweep = sweep_spb_in_m(F, m_grid)
    lines.append(check_monotone_reduction(sweep, spectral_bound(F.A).spb))
    return lines


# m > 0 (ulp(0), the least positive double, is the least m) and dM/dm = A
M_GRID = {"lo": math.ulp(0.0), "domain": "start above 0", "dM": attrgetter("A")}
OPERATOR_KIND = (operator_family_lines, {"m": GridSpec((0.5, 2.0, 7), **M_GRID)})

# family kind -> (builder of its `check` report, {grid name it sweeps: GridSpec});
# a builder takes the family and one grid per name, in this order
FAMILY_KINDS = {
    "linear": (
        linear_check_lines,
        {
            "m": GridSpec((0.1, 5.0, 21), **M_GRID),
            "beta": GridSpec((-3.0, 3.0, 21), member=_at_beta, dM=attrgetter("V")),
        },
    ),
    "karlin": (karlin_family_lines, {"alpha": GridSpec((0.0, 1.0, 11), 0.0, 1.0, "stay inside [0, 1]")}),
    "kingman": (kingman_family_lines, {"theta": GridSpec((-1.0, 1.0, 9))}),
    **dict.fromkeys(("laplacian", "elliptic", "nonlocal"), OPERATOR_KIND),
}
