"""Command-line harness.

Subcommands: `spb` prints the spectral bound of a matrix file, `curve` writes
a parameter sweep as CSV, `check` runs every checker applicable to a scenario
family, `threshold` bisects the zero crossing of spb(m*A + V), and `suite`
runs the seeded randomized battery.

Exit codes: 0 success, 1 check failure, 2 parse/IO error, 3 numerical failure.
"""

import argparse
import sys

import numpy as np

from .battery import run_suite
from .checks import (
    CheckLine,
    CheckOutcome,
    check_midpoint_convexity,
    check_monotone_reduction,
    derivative_bound_check,
    find_threshold,
    homogeneity_check,
    kingman_superconvexity_check,
    kirkland_check,
    karlin_monotonicity_check,
    lindqvist_check,
    perron_derivative_agreement,
    strict_convexity_line,
    sweep_spb_in_beta,
    sweep_spb_in_m,
)
from .errors import (
    InvariantViolation,
    NoSignChange,
    NotMonotoneOnBracket,
    ParseError,
    ReductionLabError,
)
from .gallery import (
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    elliptic_1d,
    karlin_matrix,
    karlin_to_linear,
    kingman_family_eval,
    laplacian_1d,
    nonlocal_operator,
)
from .matrixio import format_value, load_matrix
from .perron import (
    is_essentially_nonnegative,
    is_irreducible,
    is_resolvent_positive_at,
    spectral_bound,
)
from .scenario import Scenario, coefficient_values, kernel_values, parse_scenario
from .semigroup import growth_bound_estimate, positivity_of_semigroup_check


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_report(path, lines: list[CheckLine]) -> int:
    """Write the report lines; the exit code is 1 iff any line failed."""
    _write_lines(path, [line.format() for line in lines])
    return 0 if all(line.passed for line in lines) else 1


def _operator_split(sc: Scenario) -> LinearFamily:
    """Mixing/growth split for the discretized operators: A mixes, V multiplies, the operator is A + V."""
    grid = sc.grid1d
    n = grid.n
    if sc.family_kind == "laplacian":
        return LinearFamily(laplacian_1d(grid), np.zeros((n, n)))
    if sc.family_kind == "elliptic":
        x = grid.points
        a = coefficient_values(sc.coefficients["a"], x, grid.length)
        b = coefficient_values(sc.coefficients["b"], x, grid.length)
        c = coefficient_values(sc.coefficients["c"], x, grid.length)
        return LinearFamily(elliptic_1d(a, b, 0.0, grid), np.diag(c))
    K = kernel_values(sc.coefficients["kernel"], grid.points)
    b = coefficient_values(sc.coefficients["b"], grid.points, grid.length)
    mixing = nonlocal_operator(K, np.zeros(n), grid)
    return LinearFamily(mixing, np.diag(b))


def run_spb(args) -> int:
    M = load_matrix(args.matrix)
    data = spectral_bound(M)
    print(f"spb {format_value(data.spb)}")
    if data.u is not None:
        print("u " + " ".join(format_value(x) for x in data.u))
        print("v " + " ".join(format_value(x) for x in data.v))
    return 0


def _curve_rows(sc: Scenario):
    """Yield (header, rows) for the scenario's sweep."""
    if sc.grid is None:
        raise ParseError(f"{sc.source}: curve needs a [grid] section")
    grid = sc.grid
    kind = sc.family_kind
    if kind == "linear":
        fam = LinearFamily(sc.matrices["A"], sc.matrices["V"])
        if sc.grid_name not in ("m", "beta"):
            raise ParseError(f"{sc.source}: linear families sweep m or beta")
        in_m = sc.grid_name == "m"
        values, derivs = [], []
        direction = fam.A if in_m else fam.V
        for p in grid:
            data = spectral_bound(fam.matrix_at(p) if in_m else fam.matrix_at(1.0, p))
            values.append(data.spb)
            # Perron vectors come back exactly when the point is irreducible
            if derivs is not None and data.u is not None:
                derivs.append(float(data.u @ (direction @ data.v)))
            else:
                derivs = None
        if derivs is not None:
            header = "param,spb,analytic_derivative"
            rows = [
                f"{format_value(p)},{format_value(s)},{format_value(d)}"
                for p, s, d in zip(grid, values, derivs)
            ]
        else:
            header = "param,spb"
            rows = [f"{format_value(p)},{format_value(s)}" for p, s in zip(grid, values)]
        return header, rows
    if kind == "karlin":
        fam = KarlinFamily(sc.matrices["P"], sc.matrices["D"])
        if sc.grid_name != "alpha":
            raise ParseError(f"{sc.source}: karlin families sweep alpha")
        values = [spectral_bound(karlin_matrix(fam, a)).spb for a in grid]
    elif kind == "kingman":
        fam = KingmanFamily(sc.matrices["c"], sc.matrices["g"])
        if sc.grid_name != "theta":
            raise ParseError(f"{sc.source}: kingman families sweep theta")
        values = [spectral_bound(kingman_family_eval(fam, t)).spb for t in grid]
    else:
        if sc.grid_name != "m":
            raise ParseError(f"{sc.source}: operator families sweep m")
        split = _operator_split(sc)
        A = split.A + split.V
        values = [spectral_bound(m * A).spb for m in grid]
    rows = [f"{format_value(p)},{format_value(s)}" for p, s in zip(grid, values)]
    return "param,spb", rows


def run_curve(args) -> int:
    sc = parse_scenario(args.scenario)
    header, rows = _curve_rows(sc)
    _write_lines(args.out, [header] + rows)
    return 0


def _linear_checks(sc: Scenario) -> list[CheckLine]:
    fam = LinearFamily(sc.matrices["A"], sc.matrices["V"])
    tol = sc.tolerances
    m_grid = sc.grid if sc.grid_name == "m" else np.linspace(0.1, 5.0, 21)
    beta_grid = sc.grid if sc.grid_name == "beta" else np.linspace(-3.0, 3.0, 21)
    sweep_b = sweep_spb_in_beta(fam, beta_grid)
    convex_b = check_midpoint_convexity(sweep_b, tol.get("convexity_beta", 1e-9))
    sweep_m = sweep_spb_in_m(fam, m_grid)
    convex_m = check_midpoint_convexity(sweep_m, tol.get("convexity_m", 1e-9))
    spb_A = spectral_bound(fam.A).spb
    lines = [
        CheckLine.from_convexity("convexity_beta", convex_b, beta_grid, "beta"),
        CheckLine.from_convexity("convexity_m", convex_m, m_grid, "m"),
        CheckLine.from_outcome("monotone_reduction", check_monotone_reduction(sweep_m, spb_A)),
    ]
    m_mid = float(m_grid[len(m_grid) // 2])
    if is_irreducible(fam.matrix_at(m_mid)):
        bound = derivative_bound_check(fam, m_mid)
        lines.append(CheckLine.from_outcome("derivative_bound", bound))
        lines.append(perron_derivative_agreement(fam, bound))
    lines.append(CheckLine.from_outcome("homogeneity", homogeneity_check(fam, m_mid, 1.0, [0.1, 2.0, 10.0])))
    if is_irreducible(fam.A):
        lines.append(CheckLine.from_outcome("lindqvist", lindqvist_check(fam.A, fam.V)))
        lines.append(CheckLine.from_outcome("kirkland", kirkland_check(fam.A)))
        # the probe reads only the second differences, which the beta sweep already has
        lines.append(strict_convexity_line(convex_b, sweep_b))
    return lines


def _karlin_checks(sc: Scenario) -> list[CheckLine]:
    fam = KarlinFamily(sc.matrices["P"], sc.matrices["D"])
    alpha_grid = sc.grid if sc.grid_name == "alpha" else np.linspace(0.0, 1.0, 11)
    lines = [CheckLine.from_outcome("karlin_monotonicity", karlin_monotonicity_check(fam, alpha_grid))]
    derived = karlin_to_linear(fam)
    spb_mix = spectral_bound(derived.A).spb
    zero = CheckOutcome(
        passed=abs(spb_mix) <= 1e-10,
        margin=1e-10 - abs(spb_mix),
        witness={"spb": spb_mix},
        detail="reciprocal growth rates form a positive right null vector of (P - I)D",
    )
    lines.append(CheckLine.from_outcome("mixing_spb_zero", zero))
    if np.max(np.abs(fam.P.sum(axis=0) - 1.0)) <= 1e-12:
        # the left-null identity is a theorem only when columns also sum to 1
        worst = float(np.max(np.abs(derived.A.sum(axis=0))))
        null_tol = 1e-13 * max(1.0, float(np.max(np.abs(derived.A))))
        null = CheckOutcome(
            passed=worst <= null_tol,
            margin=null_tol - worst,
            witness={"max_colsum": worst},
            detail="ones vector must annihilate (P - I)D from the left",
        )
        lines.append(CheckLine.from_outcome("left_null_identity", null))
    worst_gap = 0.0
    for a in alpha_grid:
        direct = ((1.0 - a) * np.eye(fam.n) + a * fam.P) @ fam.D
        worst_gap = max(worst_gap, float(np.max(np.abs(direct - karlin_matrix(fam, a)))))
    cons_tol = 1e-13 * max(1.0, float(np.max(np.abs(fam.D))))
    cons = CheckOutcome(
        passed=worst_gap <= cons_tol, margin=cons_tol - worst_gap, witness={"max_gap": worst_gap}
    )
    lines.append(CheckLine.from_outcome("karlin_consistency", cons))
    sweep = sweep_spb_in_m(derived, np.linspace(0.1, 3.0, 11))
    lines.append(CheckLine.from_outcome("monotone_reduction", check_monotone_reduction(sweep, spb_mix)))
    return lines


def _kingman_checks(sc: Scenario) -> list[CheckLine]:
    fam = KingmanFamily(sc.matrices["c"], sc.matrices["g"])
    theta_grid = sc.grid if sc.grid_name == "theta" else np.linspace(-1.0, 1.0, 9)
    convex = kingman_superconvexity_check(fam, theta_grid)
    lines = [CheckLine.from_convexity("kingman_superconvexity", convex, theta_grid, "theta")]
    probes = [float(theta_grid[0]), float(theta_grid[len(theta_grid) // 2]), float(theta_grid[-1])]
    worst = 0.0
    if not np.allclose(np.diff(probes), probes[1] - probes[0]):
        probes = [probes[0], 0.5 * (probes[0] + probes[2]), probes[2]]
    for i in range(fam.n):
        for j in range(fam.n):
            if fam.c[i, j] == 0.0:
                continue
            logs = [np.log(fam.c[i, j]) + fam.g[i, j] * t for t in probes]
            worst = max(worst, abs(logs[0] - 2.0 * logs[1] + logs[2]))
    affine = CheckOutcome(
        passed=worst <= 1e-12,
        margin=1e-12 - worst,
        witness={"second_difference": worst},
        detail="log of every nonzero entry must be affine in theta",
    )
    lines.append(CheckLine.from_outcome("log_affine_entries", affine))
    return lines


def _operator_checks(sc: Scenario) -> list[CheckLine]:
    fam = _operator_split(sc)
    A = fam.A + fam.V
    n = A.shape[0]
    metzler = is_essentially_nonnegative(A)
    off = A[~np.eye(n, dtype=bool)]
    ess = CheckOutcome(passed=metzler, margin=float(np.min(off)), witness={"n": float(n)})
    # _operator_split has already rejected a non-Metzler mixing part, so this line reports the margin
    lines = [CheckLine.from_outcome("essential_nonnegativity", ess)]
    data = spectral_bound(A)
    if sc.family_kind == "laplacian" and sc.grid1d.boundary in ("neumann", "periodic"):
        zero = CheckOutcome(
            passed=abs(data.spb) <= 1e-10,
            margin=1e-10 - abs(data.spb),
            witness={"spb": data.spb},
            detail="zero row sums force spb = 0",
        )
        lines.append(CheckLine.from_outcome("spb_zero", zero))
    worst = None
    for offset in (0.1, 1.0, 10.0):
        good = is_resolvent_positive_at(A, data.spb + offset)
        if not good and worst is None:
            worst = offset
    res = CheckOutcome(
        passed=worst is None,
        margin=1.0 if worst is None else -1.0,
        witness={"spb": data.spb},
        detail="resolvent entrywise nonnegative beyond the spectral bound",
    )
    lines.append(CheckLine.from_outcome("resolvent_positive", res))
    lines.append(CheckLine.from_outcome("semigroup_positivity", positivity_of_semigroup_check(A, [0.1, 1.0, 5.0])))
    est = growth_bound_estimate(A, t_max=50.0, k=10)
    gtol = sc.tolerances.get("growth_bound", 1e-3) * max(1.0, abs(data.spb))
    gap = abs(est.omega - data.spb)
    growth = CheckOutcome(
        passed=gap <= gtol, margin=gtol - gap, witness={"omega": est.omega, "spb": data.spb}
    )
    lines.append(CheckLine.from_outcome("growth_bound", growth))
    m_grid = sc.grid if sc.grid_name == "m" else np.linspace(0.5, 2.0, 7)
    sweep = sweep_spb_in_m(fam, m_grid)
    spb_mix = spectral_bound(fam.A).spb
    lines.append(CheckLine.from_outcome("monotone_reduction", check_monotone_reduction(sweep, spb_mix)))
    return lines


FAMILY_CHECKS = {"linear": _linear_checks, "karlin": _karlin_checks, "kingman": _kingman_checks}


def run_check(args) -> int:
    sc = parse_scenario(args.scenario)
    return _write_report(args.out, FAMILY_CHECKS.get(sc.family_kind, _operator_checks)(sc))


def run_threshold(args) -> int:
    sc = parse_scenario(args.scenario)
    if sc.family_kind != "linear":
        raise ParseError(f"{sc.source}: threshold needs a linear family")
    if sc.bracket is None:
        raise ParseError(f"{sc.source}: threshold needs a [threshold] section with m_lo, m_hi")
    fam = LinearFamily(sc.matrices["A"], sc.matrices["V"])
    try:
        m_star = find_threshold(fam, *sc.bracket)
    except (NoSignChange, NotMonotoneOnBracket) as exc:
        print(type(exc).__name__)
        return 3
    print(format_value(m_star))
    return 0


def run_suite_cmd(args) -> int:
    lines = run_suite(args.seed_count)
    status = _write_report(args.out, lines)
    mandatory = sum(1 for l in lines if not l.advisory)
    failures = sum(1 for l in lines if not l.passed)
    print(f"suite: {len(lines)} checks over {args.seed_count} seeds, {mandatory} mandatory, {failures} failed")
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reduction-lab",
        description="Spectral-bound sweeps and reduction certifiers for Metzler matrix families",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spb", help="print the spectral bound of a matrix file")
    p.add_argument("matrix")
    p.set_defaults(func=run_spb)

    p = sub.add_parser("curve", help="sweep a scenario and write param,spb CSV")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_curve)

    p = sub.add_parser("check", help="run every checker applicable to a scenario")
    p.add_argument("scenario")
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_check)

    p = sub.add_parser("threshold", help="bisect spb(m*A + V) = 0 on the scenario bracket")
    p.add_argument("scenario")
    p.set_defaults(func=run_threshold)

    p = sub.add_parser("suite", help="run the seeded randomized battery")
    p.add_argument("--seed-count", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=run_suite_cmd)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvariantViolation) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except ReductionLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
