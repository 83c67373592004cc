"""Command-line harness.

Subcommands: `spb` prints the spectral bound of a matrix file, `curve` writes
a parameter sweep as CSV, `check` runs every checker applicable to a scenario
family, `threshold` finds the zero crossing of spb(m*A + V), and `suite`
runs the seeded randomized battery.

Exit codes: 0 success, 1 check failure, 2 parse/IO error, 3 numerical failure.
"""

import argparse
import functools
import sys

from .battery import run_suite
from .checks import FAMILY_KINDS, CheckLine, curve_table, find_threshold
from .errors import (
    InvariantViolation,
    NoConvergence,
    NoSignChange,
    NotMonotoneOnBracket,
    ParseError,
    ReductionLabError,
)
from .gallery import LinearFamily
from .matrixio import format_value, load_matrix
from .perron import spectral_bound
from .scenario import parse_scenario


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


def run_curve(args) -> int:
    sc = parse_scenario(args.scenario)
    if sc.grid is None:
        raise ParseError(f"{sc.source}: curve needs a [grid] section")
    header, rows = curve_table(sc.family, sc.grid_name, FAMILY_KINDS[sc.family_kind][1][sc.grid_name], sc.grid)
    _write_lines(args.out, [header] + [",".join(format_value(x) for x in row) for row in rows])
    return 0


def run_check(args) -> int:
    sc = parse_scenario(args.scenario)
    builder, grids = FAMILY_KINDS[sc.family_kind]
    return _write_report(args.out, builder(sc.family, *map(sc.grid_for, grids)))


def run_threshold(args) -> int:
    sc = parse_scenario(args.scenario)
    if not isinstance(sc.family, LinearFamily):  # the linear and operator kinds
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

    p = sub.add_parser("threshold", help="find the root of spb(m*A + V) = 0 on the scenario bracket")
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
