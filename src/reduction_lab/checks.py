"""Sweep drivers, numerical certifiers and the report lines built from them.

Each checker sweeps a family, states its claim as slack samples (nonnegative
where the claim held) with a witness per sample and a tolerance, and hands
them to `judge`, the one place a verdict is decided. A claim's kinds are
`le` (slack >= -tol), `strict` (slack > tol) and `eq` (|slack| <= tol):
every mandatory line is `le` except the `monotone_reduction` dichotomy
(`strict` or `eq` for irreducible A), `kirkland` (`eq` or `strict`, chosen by
the column-sum condition), Karlin (`eq` for scalar D, else `strict`) and the
`strict` sign claim of `semigroup_positivity` on a non-Metzler matrix. The
line's margin is the least slack, and its witness locates that sample.
A claim on entries takes its tolerance as a factor times `scale_of` the
matrices it is about, so a change of units scales every tolerance, margin and
resolvent offset alike and moves no verdict; claims on logs are dimensionless
and keep absolute tolerances.
FAMILY_KINDS maps each family kind to the `*_lines` builder of its `check`
report and to the GridSpec of each grid it sweeps.
"""

import itertools
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
from .perron import EPS, SpectralData, grid_starts, is_essentially_nonnegative, is_irreducible
from .perron import perron_vectors, resolvent, spectral_bound, square_matrix
from .semigroup import PROBE_RUNGS, growth_slope, probes, propagators

CHECK_TOL = 1e-9
HOMOGENEITY_TOL = 1e-10
DERIVATIVE_TOL = 1e-6
FD_STEP_SCALE = 1e-5

THRESHOLD_PRESWEEP = 9  # grid points of the monotonicity pre-sweep
SEMIGROUP_POSITIVITY_TOL = 1e-10
RESOLVENT_POSITIVITY_TOL = 1e-12
GROWTH_TOL = 1e-9  # growth_bound checks pass when |omega - spb| <= GROWTH_TOL*scale_of(M)


def scale_of(*matrices) -> float:
    """The scale of a claim about `matrices`: their largest |entry|, or 1 where every entry is 0.

    It is read from matrices already in hand, and a zero matrix, which no change of units
    alters, may take any positive scale.
    """
    return max(float(np.max(np.abs(M))) for M in matrices) or 1.0


def is_uniform(grid: np.ndarray) -> bool:
    """Whether the steps of a strictly increasing grid agree to 1e-9 of their mean."""
    diffs = np.diff(grid)
    return bool(np.max(np.abs(diffs - diffs.mean())) <= 1e-9 * float(diffs.mean()))


@dataclass
class SweepResult:
    """Sampled curve: points[i] is the SpectralData solved at grid[i]; grid strictly increasing, length >= 3.

    scale is the scale_of the swept members, the unit of every tolerance on the curve.
    """

    parameter_name: str
    grid: np.ndarray
    points: list[SpectralData]
    scale: float

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

    def format(self) -> str:
        status = "pass" if self.passed else "fail"
        witness = ";".join(f"{k}={v}" if isinstance(v, str) else f"{k}={v:.9g}" for k, v in self.witness.items())
        return f"{self.name},{status},{format_value(self.margin)},{witness}"


def judge(name: str, slack, witness, tol: float, kinds) -> CheckLine:
    """The mandatory line `name` of a claim with slack samples `slack`, nonnegative where it held.

    Each kind is a test a sample may meet: `le` (slack >= -tol), `strict`
    (slack > tol) or `eq` (|slack| <= tol). The line passes when some kind is
    met by every sample, so ("strict", "eq") is a dichotomy that fails on a
    mixture, and no kind refutes the claim outright. NaN meets no kind. The
    margin is the least slack (the first NaN, if any), and the witness is
    `witness`, or `witness(k)` for that sample k.
    """
    slack = np.atleast_1d(np.asarray(slack, dtype=float))
    k = int(np.argmin(slack))
    meets = {"le": slack >= -tol, "strict": slack > tol, "eq": np.abs(slack) <= tol}
    passed = any(meets[kind].all() for kind in kinds)
    return CheckLine(name, passed, float(slack[k]), witness(k) if callable(witness) else witness)


@dataclass(frozen=True)
class GridSpec:
    """A grid a family kind sweeps: the (start, stop, count) of its default grid, the interval [lo, hi]
    its points must lie in, which `domain` states in words, the member F -> stacked evaluator that its
    sweeps solve (matrices_at by default), and F -> dM/dp, or None where no analytic derivative is written."""

    default: tuple[float, float, int]
    lo: float = -math.inf
    hi: float = math.inf
    domain: str = ""
    member: Callable = attrgetter("matrices_at")
    dM: Callable | None = None


def _slope(u, v, dM) -> float:
    """u^T dM v: d spb/dp at the Perron pair (u, v), u @ v = 1, of M(p) with dM = dM/dp (Kato 1966)."""
    return float(u @ (dM @ v))


def solve_along(grid, evaluate, parameter_name: str, previous: SpectralData | None = None) -> list[SpectralData]:
    """The spectral_bound of each member along the grid, in grid order.

    Every sweep of the library solves its grid here, evaluated by one call of the
    stacked evaluator `evaluate` (a family's matrices_at). Each member before the
    first failing point is one certified spectral_bound call, started from the
    batched Noda iterate of its point (perron.grid_starts of the stack) or, where
    the batch gives none, from the result at the previous point, or at the first
    point from `previous`. The first failing point in grid order raises: its
    evaluation's error, which names its point, or its solve's library error with
    the point appended, keeping type and attributes (such as NoConvergence.residual).
    """
    matrices, failure = evaluate(grid)
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


def sweep_along(parameter_name: str, grid, evaluate) -> SweepResult:
    """The SweepResult of the members evaluate(grid), solved by solve_along, with their scale."""
    members = evaluate(grid)
    points = solve_along(grid, lambda _: members, parameter_name)
    return SweepResult(parameter_name, grid, points, scale_of(members[0]))


def sweep_spb_in_m(F: LinearFamily, m_grid) -> SweepResult:
    """spb(m*A + V) along a positive m grid."""
    grid = np.asarray(m_grid, dtype=float)
    if (grid <= 0.0).any():
        raise ValueError("m grid must be strictly positive")
    return sweep_along("m", grid, F.matrices_at)


def _at_beta(F: LinearFamily):
    """The stacked evaluator of A + beta*V along a beta grid, the member of F that every beta sweep solves."""
    return lambda beta: F.matrices_at(1.0, beta)


def sweep_spb_in_beta(F: LinearFamily, beta_grid) -> SweepResult:
    """spb(A + beta*V) along a beta grid."""
    grid = np.asarray(beta_grid, dtype=float)
    return sweep_along("beta", grid, _at_beta(F))


def curve_table(F, name: str, spec: GridSpec, grid) -> tuple[str, list[tuple[float, ...]]]:
    """(CSV header, rows) of the sweep of F along `grid`, a grid of the parameter `name`.

    The sweep solves spec.member(F); a grid with a spec.dM adds the analytic
    derivative u^T (dM/dp) v when every swept point returned Perron vectors, that
    is, when every point is irreducible.
    """
    points = sweep_along(name, grid, spec.member(F)).points
    if spec.dM is None or any(d.u is None for d in points):
        return "param,spb", [(p, d.spb) for p, d in zip(grid, points)]
    dM = spec.dM(F)
    return "param,spb,analytic_derivative", [(p, d.spb, _slope(d.u, d.v, dM)) for p, d in zip(grid, points)]


def check_midpoint_convexity(S: SweepResult) -> CheckLine:
    """`convexity_<parameter>`: second-difference convexity test on a uniform sweep,
    to CHECK_TOL times S.scale.

    The margin is the smallest second difference; the witness is the centre
    of that triple.
    """
    if not S.uniform:
        raise NonUniformGrid("midpoint convexity needs a uniformly spaced grid")
    v = S.values
    d2 = v[:-2] - 2.0 * v[1:-1] + v[2:]
    name = S.parameter_name
    return judge(f"convexity_{name}", d2, lambda k: {name: float(S.grid[k + 1])}, CHECK_TOL * S.scale, ("le",))


def check_monotone_reduction(S: SweepResult, data_A: SpectralData) -> CheckLine:
    """`monotone_reduction`: spb((m+d)A + V) <= spb(mA + V) + d*spb(A) over all grid pairs.

    data_A is spectral_bound(A). The pairwise slacks are judged against t = CHECK_TOL times S.scale,
    the scale of the swept members. Where A is irreducible, that is, data_A has Perron vectors, the Perron root
    is simple (Kato 1966), so the dichotomy is judged too: the family is strictly below the
    comparison line for every pair (slack > t, the strict branch) or on it for every pair
    (|slack| <= t, the equality branch), and a mixture fails. For a reducible A, spb is a maximum
    of analytic branches and no dichotomy applies: the line passes iff no pair violates the inequality.
    """
    if S.parameter_name != "m":
        raise ValueError("monotone reduction expects an m sweep")
    grid, v, spb_A = S.grid, S.values, data_A.spb
    t = CHECK_TOL * S.scale
    i, j = np.triu_indices(len(grid), 1)
    d = grid[j] - grid[i]
    slack = v[i] + d * spb_A - v[j]
    kinds = ("strict", "eq") if data_A.u is not None else ("le",)
    return judge("monotone_reduction", slack, lambda k: {"m": float(grid[i[k]]), "d": float(d[k])}, t, kinds)


def derivative_bound_check(F: LinearFamily, m: float) -> CheckLine:
    """`derivative_bound`: the central-difference d spb/dm at m must not exceed spb(A), to
    DERIVATIVE_TOL times the scale of A. NotIrreducible, before any solve, if the family point
    at m is reducible."""
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
    return judge("derivative_bound", spb_A - fd, {"m": m, "fd": fd}, DERIVATIVE_TOL * scale_of(F.A), ("le",))


def perron_derivative(F: LinearFamily, m: float) -> float:
    """Analytic d spb(mA+V)/dm = u^T A v at the Perron pair of mA + V (NotIrreducible if it has none)."""
    return _slope(*perron_vectors(F.matrix_at(m)), F.A)


def perron_derivative_agreement(F: LinearFamily, bound: CheckLine) -> CheckLine:
    """The analytic derivative u^T A v must match the finite difference of `bound`, to
    DERIVATIVE_TOL times the scale of A.

    `bound` is the derivative_bound_check line at the same family point.
    """
    m, fd = bound.witness["m"], bound.witness["fd"]
    analytic = perron_derivative(F, m)
    tol = DERIVATIVE_TOL * scale_of(F.A)
    return judge("perron_derivative_agreement", tol - abs(analytic - fd), {"m": m, "analytic": analytic}, 0.0, ("le",))


def lindqvist_check(A, D) -> CheckLine:
    """`lindqvist`: spb(A + D) - spb(A) >= u(A)^T D v(A) for diagonal D of the size of A,
    to CHECK_TOL times the scale of A and D."""
    A = square_matrix(A)
    D = square_matrix(D)
    if D.shape != A.shape:
        raise ValueError(f"D is {D.shape[0]}x{D.shape[0]} but A is {A.shape[0]}x{A.shape[0]}")
    _require_diagonal(D, "D")
    base = spectral_bound(A)
    if base.u is None:
        raise NotIrreducible("the inequality requires an irreducible matrix")
    shifted = spectral_bound(A + D).spb
    rhs = float(base.u @ (np.diagonal(D) * base.v))
    witness = {"lhs": shifted - base.spb, "rhs": rhs}
    return judge("lindqvist", (shifted - base.spb) - rhs, witness, CHECK_TOL * scale_of(A, D), ("le",))


def kirkland_check(A) -> CheckLine:
    """`kirkland`: e^T A (u o v) >= spb(A), with equality exactly when e^T A = spb(A) e^T.

    With t = CHECK_TOL times the scale of A, the claim is equality
    (|margin| <= t) where the column sums are within t of spb(A), and strict
    inequality (margin > t) where they are not.
    """
    A = square_matrix(A)
    data = spectral_bound(A)
    if data.u is None:
        raise NotIrreducible("the inequality requires an irreducible matrix")
    lhs = float(np.sum(A @ (data.u * data.v)))
    t = CHECK_TOL * scale_of(A)
    kind = "eq" if np.max(np.abs(A.sum(axis=0) - data.spb)) <= t else "strict"
    return judge("kirkland", lhs - data.spb, {"lhs": lhs, "spb": data.spb}, t, (kind,))


def _log_rho(d: SpectralData) -> SpectralData:
    """The record of log rho: d with spb, spb_hi and max(spb_lo, 0) mapped through log, and each block's too."""
    blocks = None if d.blocks is None else [_log_rho(b) for b in d.blocks]
    return replace(d, spb=np.log(d.spb), spb_lo=np.log(max(d.spb_lo, 0.0)), spb_hi=np.log(d.spb_hi), blocks=blocks)


def kingman_superconvexity_check(F: KingmanFamily, theta_grid) -> CheckLine:
    """`kingman_superconvexity`: midpoint log-convexity of theta -> rho(A(theta)) for a log-affine family.

    Logs are dimensionless, so the record of log rho has scale 1 and the tolerance is CHECK_TOL.
    """
    grid = np.asarray(theta_grid, dtype=float)
    rho = solve_along(grid, F.matrices_at, "theta")
    for theta, d in zip(grid, rho):
        if d.spb <= 0.0:
            raise ZeroSpectralRadius(f"spectral radius vanished at theta = {theta}")
    with np.errstate(divide="ignore"):  # a zero block's rho and any lower end <= 0 go to log 0 = -inf
        logs = [_log_rho(d) for d in rho]
    return replace(check_midpoint_convexity(SweepResult("theta", grid, logs, 1.0)), name="kingman_superconvexity")


def karlin_monotonicity_check(F: KarlinFamily, alpha_grid) -> CheckLine:
    """`karlin_monotonicity`: rho([(1-alpha)I + alpha P]D) must not increase along the alpha grid.

    Strict decrease is demanded between consecutive points when D is not an
    exact scalar multiple of I; scalar D must give a constant curve. The
    tolerance is CHECK_TOL times the scale of the swept members.
    """
    if not is_irreducible(F.P):
        raise NotIrreducible("the monotonicity statement requires irreducible P")
    grid = np.asarray(alpha_grid, dtype=float)
    S = sweep_along("alpha", grid, F.matrices_at)
    values = S.values
    diag = np.diagonal(F.D)
    t = CHECK_TOL * S.scale
    if (diag == diag[0]).all():
        deviation = -np.abs(values - values[0])
        return judge("karlin_monotonicity", deviation, lambda k: {"alpha": float(grid[k])}, t, ("eq",))
    witness = lambda k: {"alpha_lo": float(grid[k]), "alpha_hi": float(grid[k + 1])}  # noqa: E731
    return judge("karlin_monotonicity", values[:-1] - values[1:], witness, t, ("strict",))


def homogeneity_check(F: LinearFamily, m: float, beta: float, alphas) -> CheckLine:
    """`homogeneity`: spb(alpha*(mA + beta V)) = alpha * spb(mA + beta V) for each alpha > 0,
    to HOMOGENEITY_TOL times the scale of alpha*(mA + beta V).

    OverflowRisk when some alpha*(mA + beta V) is not finite.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not alphas.size or not ((0.0 < alphas) & (alphas < math.inf)).all():
        raise ValueError("need at least one scaling factor, each strictly positive and finite")
    M = F.matrix_at(m, beta)
    base = spectral_bound(M).spb
    with np.errstate(over="ignore"):
        scaled = [a * M for a in alphas]
    for a, aM in zip(alphas, scaled):
        if not np.isfinite(aM).all():
            raise OverflowRisk(f"alpha*M overflows double precision at alpha = {a}, m = {m}, beta = {beta}")
    gaps = [abs(spectral_bound(aM).spb - a * base) for a, aM in zip(alphas, scaled)]
    slack = [HOMOGENEITY_TOL * scale_of(aM) - gap for aM, gap in zip(scaled, gaps)]
    return judge("homogeneity", slack, lambda k: {"alpha": float(alphas[k]), "m": m, "beta": beta}, 0.0, ("le",))


def is_resolvent_positive_at(M, xi: float) -> bool:
    """True iff the resolvent R at xi exists and is entrywise >= -RESOLVENT_POSITIVITY_TOL * scale_of(R)."""
    try:
        R = resolvent(M, xi)
    except SingularResolvent:
        return False
    return bool((R >= -RESOLVENT_POSITIVITY_TOL * scale_of(R)).all())


def semigroup_positivity_outcome(M, probes, resolvent_ok: bool) -> CheckLine:
    """The `semigroup_positivity` line of positivity_of_semigroup_check on M, given its `probes`
    (t, E = e^{tM}) and whether its resolvent at spb + scale_of(M) is positive (read only when M
    is Metzler).

    The probes are semigroup.probes of the propagator ladder of M, where ||tM||_inf is 0.5, 1
    and 4, and each probe's slack is min(E) + SEMIGROUP_POSITIVITY_TOL * scale_of(E); the witness
    is the probe of the least slack. For a Metzler M the claim is e^{tM} >= 0: `le` on that
    slack, and refuted outright (no kind) when the resolvent is not positive. For any other M it
    is a negative entry: `strict` on minus that slack.
    """
    slack = [float(E.min()) + SEMIGROUP_POSITIVITY_TOL * scale_of(E) for _, E in probes]
    k = int(np.argmin(slack))
    t, E = probes[k]
    witness = {"t": t, "min_entry": float(E.min())}
    if is_essentially_nonnegative(M):
        kinds = ("le",) if resolvent_ok else ()
        return judge("semigroup_positivity", slack[k], witness, 0.0, kinds)
    return judge("semigroup_positivity", -slack[k], witness, 0.0, ("strict",))


def positivity_of_semigroup_check(M) -> CheckLine:
    """`semigroup_positivity`: e^{tM} >= 0 at the probes of M's propagator ladder iff M is essentially
    nonnegative; one expm and three squarings reach the probes.

    For Metzler inputs the resolvent at spb + scale_of(M) is additionally required to be
    entrywise nonnegative.
    """
    M = square_matrix(M)
    resolvent_ok = is_essentially_nonnegative(M) and is_resolvent_positive_at(M, spectral_bound(M).spb + scale_of(M))
    return semigroup_positivity_outcome(M, probes(propagators(M)), resolvent_ok)


def growth_bound_line(M, omega: float, spb: float) -> CheckLine:
    """`growth_bound`: the growth rate omega of M (growth_bound_estimate) must match spb = spectral_bound(M).spb
    to GROWTH_TOL * scale_of(M)."""
    slack = GROWTH_TOL * scale_of(M) - abs(omega - spb)
    return judge("growth_bound", slack, {"omega": omega, "spb": spb}, 0.0, ("le",))


def find_threshold(F: LinearFamily, m_lo: float, m_hi: float) -> float:
    """Root of spb(m*A + V) = 0 on [m_lo, m_hi], by Newton steps guarded by bisection.

    Every decision reads the certified brackets [spb_lo, spb_hi] of the solved
    points, so no tolerance fixes a scale: a point is positive when spb_lo > 0,
    negative when spb_hi < 0, and otherwise returned, its bracket holding 0.
    The brackets of a THRESHOLD_PRESWEEP-point sweep must not prove both a rise
    and a fall between neighbours, and its ends must not share a sign. The
    search starts on the sweep's cell where the sign changes and returns the
    midpoint of a cell at most 4*EPS times its larger end wide. Each step goes
    from the positive end m to the tangent root m - spb/(u^T A v), u^T A v
    being d spb/dm there; spb is convex in m (the paper's lemma), so that root
    never passes the root of spb. Where that end has no Perron vectors (a
    reducible point) or the step leaves the open cell, as rounding can make it
    next to the root, the step bisects. Each solve is a solve_along point
    started from the previous one's result, so a solver error names its m.
    """
    if not 0.0 < m_lo < m_hi < math.inf:
        raise ValueError("need 0 < m_lo < m_hi < inf")

    grid = np.linspace(m_lo, m_hi, THRESHOLD_PRESWEEP)
    points = sweep_along("m", grid, F.matrices_at).points
    lo, hi = np.array([d.spb_lo for d in points]), np.array([d.spb_hi for d in points])
    if (lo[1:] > hi[:-1]).any() and (hi[1:] < lo[:-1]).any():
        raise NotMonotoneOnBracket("preliminary sweep is not monotone on the bracket")
    sign = (lo > 0.0).astype(int) - (hi < 0.0)
    if sign[0] == sign[-1] != 0:
        raise NoSignChange("spb has the same sign at both bracket endpoints")
    k = int(np.argmax((sign == 0) | (sign != sign[0])))  # the first point off the first one's nonzero sign
    if sign[k] == 0:
        return float(grid[k])
    pos, neg = (k, k - 1) if sign[k] > 0 else (k - 1, k)
    data = latest = points[pos]
    pos, neg = float(grid[pos]), float(grid[neg])
    while abs(pos - neg) > 4.0 * EPS * max(abs(pos), abs(neg)):
        m = 0.5 * (pos + neg)
        if data.u is not None:
            slope = _slope(data.u, data.v, F.A)
            step = pos - data.spb / slope if slope != 0.0 else math.nan
            if min(pos, neg) < step < max(pos, neg):
                m = step
        (latest,) = solve_along([m], F.matrices_at, "m", latest)
        if latest.spb_lo > 0.0:
            pos, data = m, latest
        elif latest.spb_hi < 0.0:
            neg = m
        else:
            return m
    return 0.5 * (pos + neg)


def strict_convexity_line(S: SweepResult) -> CheckLine:
    """`strict_convexity_probe`: the advisory verdict on the convexity of a beta sweep, `strict` or `flat`.

    The margin is the smallest second difference of S (check_midpoint_convexity),
    and the verdict is `strict` when it exceeds CHECK_TOL times S.scale.
    Evidence only: `strict` suggests strict convexity for the instance, `flat` an
    affine stretch. Nothing is asserted beyond the report.
    """
    margin = check_midpoint_convexity(S).margin
    verdict = "strict" if margin > CHECK_TOL * S.scale else "flat"
    return CheckLine("strict_convexity_probe", True, margin, {"verdict": verdict}, advisory=True)


def strict_convexity_probe(F: LinearFamily, beta_grid) -> CheckLine:
    """The strict_convexity_line of spb(A + beta V) swept along beta_grid; NotIrreducible unless A is irreducible."""
    if not is_irreducible(F.A):
        raise NotIrreducible("the probe targets irreducible mixing generators")
    return strict_convexity_line(sweep_spb_in_beta(F, beta_grid))


def linear_family_lines(
    F: LinearFamily, data_A: SpectralData, beta_grid, m_grid, m_probe: float
) -> tuple[list[CheckLine], SweepResult]:
    """The linear-family lines from `convexity_beta` to `kirkland`, in report order, and the beta sweep.

    data_A is spectral_bound(F.A). The derivative lines need an irreducible family point at
    m_probe (derivative_bound_check decides it), and `lindqvist`/`kirkland` an irreducible A,
    one whose data_A has Perron vectors; otherwise they are left out.
    """
    sweep_b = sweep_spb_in_beta(F, beta_grid)
    sweep_m = sweep_spb_in_m(F, m_grid)
    lines = [check_midpoint_convexity(sweep_b), check_midpoint_convexity(sweep_m)]
    lines.append(check_monotone_reduction(sweep_m, data_A))
    try:
        bound = derivative_bound_check(F, m_probe)
    except NotIrreducible:
        pass
    else:
        lines += [bound, perron_derivative_agreement(F, bound)]
    # no sample is a power of two, under which the solver is exactly homogeneous
    lines.append(homogeneity_check(F, m_probe, 1.0, [0.1, 3.0, 10.0]))
    if data_A.u is not None:
        lines += [lindqvist_check(F.A, F.V), kirkland_check(F.A)]
    return lines, sweep_b


def linear_check_lines(F: LinearFamily, m_grid, beta_grid) -> list[CheckLine]:
    """The `check` report of a linear family: the family lines probed at the middle of
    the m grid, then the strict-convexity line of their beta sweep when A is irreducible."""
    data_A = spectral_bound(F.A)
    lines, sweep_b = linear_family_lines(F, data_A, beta_grid, m_grid, float(m_grid[len(m_grid) // 2]))
    if data_A.u is not None:
        lines.append(strict_convexity_line(sweep_b))
    return lines


def karlin_family_lines(F: KarlinFamily, alpha_grid) -> list[CheckLine]:
    """The `check` report of a Karlin family [(1-alpha)I + alpha P]D."""
    lines = [karlin_monotonicity_check(F, alpha_grid)]
    derived = F.linear
    mix = spectral_bound(derived.A)
    # reciprocal growth rates form a positive right null vector of (P - I)D
    lines.append(judge("mixing_spb_zero", 1e-10 * scale_of(derived.A) - abs(mix.spb), {"spb": mix.spb}, 0.0, ("le",)))
    if np.max(np.abs(F.P.sum(axis=0) - 1.0)) <= 1e-12:
        # the left-null identity is a theorem only when columns also sum to 1
        worst = float(np.max(np.abs(derived.A.sum(axis=0))))
        null_tol = 1e-13 * scale_of(derived.A)
        lines.append(judge("left_null_identity", null_tol - worst, {"max_colsum": worst}, 0.0, ("le",)))
    # karlin_monotonicity_check swept this grid through solve_along, which raises its evaluation failure
    members, _ = F.matrices_at(alpha_grid)
    alphas = np.asarray(alpha_grid, dtype=float)[:, None, None]
    direct = ((1.0 - alphas) * np.eye(F.n) + alphas * F.P) @ F.D
    worst_gap = float(np.max(np.abs(direct - members)))
    cons_tol = 1e-13 * scale_of(F.D)
    lines.append(judge("karlin_consistency", cons_tol - worst_gap, {"max_gap": worst_gap}, 0.0, ("le",)))
    sweep = sweep_spb_in_m(derived, np.linspace(0.1, 3.0, 11))
    lines.append(check_monotone_reduction(sweep, mix))
    return lines


def kingman_family_lines(F: KingmanFamily, theta_grid) -> list[CheckLine]:
    """The `check` report of a Kingman family; `log_affine_entries` probes the members at the
    grid's ends and its middle point, or the midpoint when that point is not halfway. Its claim
    is on logs, which a change of units shifts but does not scale, so its tolerance is absolute."""
    lines = [kingman_superconvexity_check(F, theta_grid)]
    probes = [float(theta_grid[0]), float(theta_grid[len(theta_grid) // 2]), float(theta_grid[-1])]
    if not np.allclose(np.diff(probes), probes[1] - probes[0], atol=0.0):
        probes = [probes[0], 0.5 * (probes[0] + probes[2]), probes[2]]
    members, failure = F.matrices_at(np.array(probes))
    if failure is not None:
        raise failure
    # an entry that underflowed to 0 logs to -inf, and its second difference, NaN, fails the line
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = np.log(members[:, F.c != 0.0])
        worst = float(np.max(np.abs(logs[0] - 2.0 * logs[1] + logs[2]), initial=0.0))
    # the log of every nonzero entry must be affine in theta
    lines.append(judge("log_affine_entries", 1e-12 - worst, {"second_difference": worst}, 0.0, ("le",)))
    return lines


def operator_family_lines(F: LinearFamily, m_grid) -> list[CheckLine]:
    """The `check` report of an operator A + V split as F; a Metzler operator whose
    rows sum to exactly 0 has spb = 0, which the `spb_zero` line checks. The resolvent
    is probed at spb + {0.1, 1, 10} times the scale of the operator."""
    A = F.matrix_at(1.0)
    n = A.shape[0]
    off = A[~np.eye(n, dtype=bool)]
    # A + V is Metzler by construction (LinearFamily's A is, and V is diagonal), so this line cannot
    # fail: it is advisory and reports the least off-diagonal entry
    lines = [replace(judge("essential_nonnegativity", np.min(off), {"n": n}, 0.0, ("le",)), advisory=True)]
    data = spectral_bound(A)
    scale = scale_of(A)
    if not A.sum(axis=1).any():
        lines.append(judge("spb_zero", 1e-10 * scale - abs(data.spb), {"spb": data.spb}, 0.0, ("le",)))
    # the resolvent is entrywise nonnegative beyond the spectral bound
    positive_at = {offset: is_resolvent_positive_at(A, data.spb + offset * scale) for offset in (0.1, 1.0, 10.0)}
    positive = all(positive_at.values())
    lines.append(judge("resolvent_positive", 1.0 if positive else -1.0, {"spb": data.spb}, 0.0, ("le",)))
    # one propagator ladder serves both semigroup lines: its first rungs hold the probes, and the
    # growth slope reads on from the first rung until it settles
    ladder = propagators(A)
    rungs = list(itertools.islice(ladder, PROBE_RUNGS[-1] + 1))
    # the semigroup line's resolvent probe at spb + scale is the one above
    lines.append(semigroup_positivity_outcome(A, probes(rungs), positive_at[1.0]))
    lines.append(growth_bound_line(A, growth_slope(A, itertools.chain(rungs, ladder)), data.spb))
    sweep = sweep_spb_in_m(F, m_grid)
    lines.append(check_monotone_reduction(sweep, spectral_bound(F.A)))
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
