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
    check_monotone_reduction,
    find_threshold,
    kingman_superconvexity_check,
    karlin_monotonicity_check,
    linear_family_lines,
    solve_along,
    strict_convexity_line,
    sweep_spb_in_m,
)
from .errors import (
    InvariantViolation,
    NoConvergence,
    NoSignChange,
    NotMonotoneOnBracket,
    ParseError,
    ReductionLabError,
)
from .matrixio import format_value, load_matrix
from .perron import is_essentially_nonnegative, is_irreducible, is_resolvent_positive_at, spectral_bound
from .scenario import Scenario, parse_scenario
from .semigroup import GROWTH_TOL, growth_bound_estimate, positivity_of_semigroup_check


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _write_report(path, lines: list[CheckLine]) -> int:
    """Write the report lines; the exit code is 1 iff any line failed."""
    _write_lines(path, [line.format() for line in lines])
    return 0 if all(line.passed for line in lines) else 1


def run_spb(args) -> int:
    M = load_matrix(args.matrix)
    data = spectral_bound(M)
    print(f"spb {format_value(data.spb)}")
    if data.u is not None:
        print("u " + " ".join(format_value(x) for x in data.u))
        print("v " + " ".join(format_value(x) for x in data.v))
    return 0


def _curve_rows(sc: Scenario):
    """(header, rows) of the scenario's sweep.

    Every family sweeps through its `matrix_at`; an m or beta sweep of m*A + beta*V
    (the linear and operator kinds) adds the analytic derivative u^T (dM/dp) v when
    every swept point returned Perron vectors, that is, when every point is irreducible.
    """
    if sc.grid is None:
        raise ParseError(f"{sc.source}: curve needs a [grid] section")
    name, fam = sc.grid_name, sc.family
    if name == "beta":
        evaluate, direction = (lambda beta: fam.matrix_at(1.0, beta)), fam.V
    else:
        evaluate, direction = fam.matrix_at, (fam.A if name == "m" else None)
    points = solve_along(sc.grid, evaluate, name)
    if direction is not None and all(d.u is not None for d in points):
        header = "param,spb,analytic_derivative"
        cells = [(p, d.spb, float(d.u @ (direction @ d.v))) for p, d in zip(sc.grid, points)]
    else:
        header = "param,spb"
        cells = [(p, d.spb) for p, d in zip(sc.grid, points)]
    return header, [",".join(format_value(x) for x in row) for row in cells]


def run_curve(args) -> int:
    sc = parse_scenario(args.scenario)
    header, rows = _curve_rows(sc)
    _write_lines(args.out, [header] + rows)
    return 0


def _linear_checks(sc: Scenario) -> list[CheckLine]:
    fam = sc.family
    m_grid, beta_grid = sc.grid_for("m"), sc.grid_for("beta")
    lines, sweep_b, convex_b = linear_family_lines(
        fam, spectral_bound(fam.A).spb, beta_grid, m_grid, float(m_grid[len(m_grid) // 2])
    )
    if is_irreducible(fam.A):
        # the probe reads only the second differences, which the beta sweep already has
        lines.append(strict_convexity_line(convex_b, sweep_b))
    return lines


def _karlin_checks(sc: Scenario) -> list[CheckLine]:
    fam, alpha_grid = sc.family, sc.grid_for("alpha")
    lines = [CheckLine.from_outcome("karlin_monotonicity", karlin_monotonicity_check(fam, alpha_grid))]
    derived = fam.linear
    spb_mix = spectral_bound(derived.A).spb
    # reciprocal growth rates form a positive right null vector of (P - I)D
    lines.append(CheckLine.within("mixing_spb_zero", abs(spb_mix), 1e-10, spb=spb_mix))
    if np.max(np.abs(fam.P.sum(axis=0) - 1.0)) <= 1e-12:
        # the left-null identity is a theorem only when columns also sum to 1
        worst = float(np.max(np.abs(derived.A.sum(axis=0))))
        null_tol = 1e-13 * max(1.0, float(np.max(np.abs(derived.A))))
        lines.append(CheckLine.within("left_null_identity", worst, null_tol, max_colsum=worst))
    worst_gap = 0.0
    for a in alpha_grid:
        direct = ((1.0 - a) * np.eye(fam.n) + a * fam.P) @ fam.D
        worst_gap = max(worst_gap, float(np.max(np.abs(direct - fam.matrix_at(a)))))
    cons_tol = 1e-13 * max(1.0, float(np.max(np.abs(fam.D))))
    lines.append(CheckLine.within("karlin_consistency", worst_gap, cons_tol, max_gap=worst_gap))
    sweep = sweep_spb_in_m(derived, np.linspace(0.1, 3.0, 11))
    lines.append(CheckLine.from_outcome("monotone_reduction", check_monotone_reduction(sweep, spb_mix)))
    return lines


def _kingman_checks(sc: Scenario) -> list[CheckLine]:
    fam, theta_grid = sc.family, sc.grid_for("theta")
    lines = [CheckLine.from_outcome("kingman_superconvexity", kingman_superconvexity_check(fam, theta_grid))]
    probes = [float(theta_grid[0]), float(theta_grid[len(theta_grid) // 2]), float(theta_grid[-1])]
    if not np.allclose(np.diff(probes), probes[1] - probes[0]):
        probes = [probes[0], 0.5 * (probes[0] + probes[2]), probes[2]]
    nonzero = fam.c != 0.0
    logs = [np.log(fam.c[nonzero]) + fam.g[nonzero] * t for t in probes]
    worst = float(np.max(np.abs(logs[0] - 2.0 * logs[1] + logs[2]), initial=0.0))
    # the log of every nonzero entry must be affine in theta
    lines.append(CheckLine.within("log_affine_entries", worst, 1e-12, second_difference=worst))
    return lines


def _operator_checks(sc: Scenario) -> list[CheckLine]:
    fam = sc.family
    A = fam.matrix_at(1.0)
    n = A.shape[0]
    off = A[~np.eye(n, dtype=bool)]
    # parse_scenario has already rejected a non-Metzler mixing part, so this line reports the margin
    lines = [CheckLine("essential_nonnegativity", is_essentially_nonnegative(A), float(np.min(off)), f"n={n}")]
    data = spectral_bound(A)
    if sc.family_kind == "laplacian" and sc.grid1d.boundary in ("neumann", "periodic"):
        # zero row sums force spb = 0
        lines.append(CheckLine.within("spb_zero", abs(data.spb), 1e-10, spb=data.spb))
    # the resolvent is entrywise nonnegative beyond the spectral bound
    positive = all(is_resolvent_positive_at(A, data.spb + offset) for offset in (0.1, 1.0, 10.0))
    lines.append(CheckLine("resolvent_positive", positive, 1.0 if positive else -1.0, f"spb={data.spb:.9g}"))
    lines.append(CheckLine.from_outcome("semigroup_positivity", positivity_of_semigroup_check(A, [0.1, 1.0, 5.0])))
    omega = growth_bound_estimate(A)
    gtol = GROWTH_TOL * max(1.0, abs(data.spb))
    lines.append(CheckLine.within("growth_bound", abs(omega - data.spb), gtol, omega=omega, spb=data.spb))
    sweep = sweep_spb_in_m(fam, sc.grid_for("m"))
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
    try:
        m_star = find_threshold(sc.family, *sc.bracket)
    except (NoSignChange, NotMonotoneOnBracket) as exc:
        print(type(exc).__name__)
        return 3
    print(format_value(m_star))
    return 0


def positive_int(text: str) -> int:
    """argparse type of a count; argparse reports the ValueError as an invalid positive_int."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


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
    p.add_argument("--seed-count", type=positive_int, required=True)
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
    except NoConvergence as exc:
        print(f"NoConvergence: {exc} (residual={exc.residual}, iterations={exc.iterations})", file=sys.stderr)
        return 3
    except ReductionLabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
