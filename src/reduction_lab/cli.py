"""Command-line harness.

Subcommands: `spb` prints the spectral bound of a matrix file, `curve` writes
a parameter sweep as CSV, `check` runs every checker applicable to a scenario
family, `threshold` bisects the zero crossing of spb(m*A + V), and `suite`
runs the seeded randomized battery.

Exit codes: 0 success, 1 check failure, 2 parse/IO error, 3 numerical failure.
"""

import argparse
import functools
import sys

from .battery import run_suite
from .checks import (
    CheckLine,
    find_threshold,
    karlin_family_lines,
    kingman_family_lines,
    linear_check_lines,
    operator_family_lines,
    solve_along,
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
from .perron import spectral_bound
from .scenario import Scenario, parse_scenario


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


# family kind -> the builder of its `check` report
FAMILY_CHECKS = {
    "linear": lambda sc: linear_check_lines(sc.family, sc.grid_for("beta"), sc.grid_for("m")),
    "karlin": lambda sc: karlin_family_lines(sc.family, sc.grid_for("alpha")),
    "kingman": lambda sc: kingman_family_lines(sc.family, sc.grid_for("theta")),
    **dict.fromkeys(
        ("laplacian", "elliptic", "nonlocal"), lambda sc: operator_family_lines(sc.family, sc.grid_for("m"))
    ),
}


def run_check(args) -> int:
    sc = parse_scenario(args.scenario)
    return _write_report(args.out, FAMILY_CHECKS[sc.family_kind](sc))


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: `main` may run many times in one."""
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
