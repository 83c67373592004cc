"""Plain-text matrix format shared by the library and the CLI.

First line holds the dimension n, followed by n lines of n space-separated
decimals. Output uses 17 significant digits, which round-trips float64
exactly.
"""

import numpy as np

from .errors import InvariantViolation, ParseError


def format_value(x: float) -> str:
    return format(float(x), ".17g")


def format_matrix(M) -> str:
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    lines = [str(n)]
    for row in M:
        lines.append(" ".join(format_value(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str, origin: str = "<string>") -> np.ndarray:
    lines = text.splitlines()
    rows = [(i + 1, ln.strip()) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise ParseError(f"{origin}: empty matrix text")
    head_line, head = rows[0]
    try:
        n = int(head)
    except ValueError:
        raise ParseError(f"{origin}: expected dimension, got {head!r}", line=head_line)
    if n < 1:
        raise ParseError(f"{origin}: dimension must be >= 1", line=head_line)
    if len(rows) - 1 != n:
        raise ParseError(f"{origin}: expected {n} rows, found {len(rows) - 1}", line=head_line)
    out = np.empty((n, n))
    for k in range(n):
        lineno, row = rows[k + 1]
        parts = row.split()
        if len(parts) != n:
            raise ParseError(f"{origin}: expected {n} entries, found {len(parts)}", line=lineno)
        try:
            out[k] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{origin}: {exc}", line=lineno)
    if not np.isfinite(out).all():
        raise InvariantViolation(f"{origin}: matrix entries must be finite")
    return out


def read_text(path) -> str:
    """The text of the UTF-8 file at path, as every input file is read; a ParseError naming it if it does not decode."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})")


def load_matrix(path) -> np.ndarray:
    return parse_matrix(read_text(path), origin=str(path))


def save_matrix(path, M) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_matrix(M))
