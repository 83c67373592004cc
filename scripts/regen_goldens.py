#!/usr/bin/env python3
"""Regenerate the golden CLI outputs under tests/golden, refusing verdict changes not named.

For every `tests/golden/<name>.ini` it runs `check` (writing `<name>.check`) and
`curve` (writing `<name>.csv`), and `threshold` (stdout to `<name>.threshold`)
where that file exists; then `suite --seed-count 20` (report `suite20.txt`,
stdout `suite20.stdout`). These are the commands listed in the
`tests/test_golden.py` docstring.

The outputs are compared with the committed files first. Each line is reduced
to its name (the first comma-separated field, or `(number)` for a line that
is one number, such as a `threshold` root), its number of comma-separated
fields, its pass/fail word and its `verdict=` word; numbers after those may
move. If any such key, the number of lines, or an exit code differs, the
differences are printed, nothing is written and the script exits 1. The one
exception is a flip named with `--flip <file>:<line name>` (repeatable, as
`--flip linear.check:monotone_reduction` or `--flip suite20.txt:s001.kirkland`):
that line's pass/fail word must change, and its report's exit code follows;
a named flip that does not happen is refused like any other difference. Otherwise
the files are overwritten, and per file the number of changed lines is printed
with the names of the changed lines (a suite line without its `sNNN.` seed
prefix), so that a reviewer sees which kinds of line moved, and the largest
relative change |new - old|/max(|new|, |old|) of any number on them, with its
line and both numbers, so that a reviewer sees whether the moves are at
rounding level. A margin near zero moves by a large relative amount at a tiny
absolute one, which the two numbers show.

    PYTHONPATH=src python scripts/regen_goldens.py [--flip FILE:NAME ...]
"""

import argparse
import contextlib
import io
import math
import re
import sys
import tempfile
from pathlib import Path

from reduction_lab.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
VERDICT = re.compile(r"verdict=(\w+)")
SEED_PREFIX = re.compile(r"^s\d+\.")
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan")
FLIPPED = {"pass": "fail", "fail": "pass"}


def line_key(line: str) -> tuple:
    """(name, field count, pass/fail word, verdict word) of one output line; absent parts are None.

    A line that is one number, such as a `threshold` root, is named `(number)`,
    so that its number may move like any other; an error name there may not.
    """
    fields = line.split(",")
    name = "(number)" if len(fields) == 1 and NUMBER.fullmatch(line) else fields[0]
    word = fields[1] if len(fields) > 1 and fields[1] in ("pass", "fail") else None
    verdict = VERDICT.search(line)
    return name, len(fields), word, verdict.group(1) if verdict else None


def expected_key(name: str, line: str, flips) -> tuple:
    """The key that committed line `line` of golden file `name` must keep: its line_key, with the
    pass/fail word flipped when (name, line name) is among `flips`."""
    key = line_key(line)
    if (name, key[0]) in flips:
        return key[0], key[1], FLIPPED.get(key[2], key[2]), key[3]
    return key


def key_differences(name: str, old_lines: list[str], new_lines: list[str], flips) -> list[str]:
    """The differences of golden file `name`'s new lines from its committed ones beyond rounding and `flips`."""
    problems = []
    if len(old_lines) != len(new_lines):
        problems.append(f"{name}: {len(old_lines)} lines committed, {len(new_lines)} now")
    for number, (old, line) in enumerate(zip(old_lines, new_lines), 1):
        if expected_key(name, old, flips) != line_key(line):
            problems.append(f"{name}:{number}: {old!r} -> {line!r}")
    return problems


def flip_arg(text: str) -> tuple[str, str]:
    """(file, line name) of a `--flip <file>:<line name>` argument."""
    name, _, line = text.partition(":")
    if not (GOLDEN / name).is_file() or not line:
        raise argparse.ArgumentTypeError(f"expected <golden file>:<line name>, got {text!r}")
    return name, line


def largest_relative_change(pairs) -> tuple[float, str]:
    """Largest |new - old|/max(|new|, |old|) over the numbers of (old, new) line pairs, and where.

    The place is `name: old -> new` of the line's first field and the two
    numbers; a pair whose lines hold different counts of numbers counts as inf.
    """
    largest, where = 0.0, ""
    for old, new in pairs:
        old_numbers, new_numbers = NUMBER.findall(old), NUMBER.findall(new)
        if len(old_numbers) != len(new_numbers):
            return math.inf, f"{line_key(new)[0]}: {len(old_numbers)} -> {len(new_numbers)} numbers"
        for a, b in zip(old_numbers, new_numbers):
            x, y = float(a), float(b)
            if x != y and abs(y - x) / max(abs(x), abs(y)) > largest:
                largest, where = abs(y - x) / max(abs(x), abs(y)), f"{line_key(new)[0]}: {a} -> {b}"
    return largest, where


def commands():
    """(argv, file its --out writes or None, file recording its stdout or None) per golden command."""
    for ini in sorted(GOLDEN.glob("*.ini")):
        yield ["check", str(ini)], f"{ini.stem}.check", None
        yield ["curve", str(ini)], f"{ini.stem}.csv", None
        if (GOLDEN / f"{ini.stem}.threshold").exists():
            yield ["threshold", str(ini)], None, f"{ini.stem}.threshold"
    yield ["suite", "--seed-count", "20"], "suite20.txt", "suite20.stdout"


def committed(name: str) -> list[str]:
    return (GOLDEN / name).read_text(encoding="utf-8").splitlines()


def regenerate(scratch: Path, flips=frozenset()) -> tuple[dict[str, str], list[str]]:
    """New text per golden file, and the key or exit-code differences from the committed files
    other than the named `flips`, each a (file, line name)."""
    new, problems = {}, []
    for argv, out, stdout_name in commands():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + (["--out", str(scratch / out)] if out else []))
        if stdout_name:
            new[stdout_name] = stdout.getvalue()
        if out:
            new[out] = (scratch / out).read_text(encoding="utf-8")
        # a report exits 1 iff one of its lines fails; curves and thresholds exit 0
        expected = int(out is not None and any(expected_key(out, line, flips)[2] == "fail" for line in committed(out)))
        if code != expected:
            problems.append(f"{' '.join(argv)}: exit code {code}, committed files imply {expected}")
    for name, text in new.items():
        problems += key_differences(name, committed(name), text.splitlines(), flips)
    for name, line in sorted(flips):
        if name not in new or line not in {line_key(old)[0] for old in committed(name)}:
            problems.append(f"--flip {name}:{line}: no such golden line")
    return new, problems


def main_script(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate tests/golden, refusing verdict changes not named.")
    parser.add_argument(
        "--flip",
        action="append",
        default=[],
        type=flip_arg,
        metavar="FILE:NAME",
        help="let the pass/fail word of line NAME of golden FILE change (repeatable)",
    )
    flips = frozenset(parser.parse_args(argv).flip)
    with tempfile.TemporaryDirectory() as scratch:
        new, problems = regenerate(Path(scratch), flips)
    if problems:
        print("\n".join(problems))
        print(f"{len(problems)} differences beyond rounding; no golden file written")
        return 1
    lines = files = 0
    for name, text in new.items():
        changed = [(old, line) for old, line in zip(committed(name), text.splitlines()) if old != line]
        if changed:
            (GOLDEN / name).write_text(text, encoding="utf-8", newline="\n")
            kinds = sorted({SEED_PREFIX.sub("", line_key(line)[0]) for _, line in changed})
            largest, where = largest_relative_change(changed)
            print(f"{name}: {len(changed)} lines changed ({', '.join(kinds)})")
            print(f"  largest relative change {largest:.2g} ({where})")
            lines, files = lines + len(changed), files + 1
    print(f"{lines} lines changed in {files} files")
    return 0


if __name__ == "__main__":
    sys.exit(main_script())
