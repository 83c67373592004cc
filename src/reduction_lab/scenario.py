"""Scenario files: flat `key = value` lines with bracketed section headers.

Example:

    [family]
    kind = linear
    A = -1 1 ; 1 -1
    V_diag = 1 -1

    [grid]
    name = m
    start = 0.1
    stop = 5
    count = 21

Matrices may be given inline (rows separated by `;`), as `<name>_file = path`
references in the shared matrix text format, or as `<name>_diag = d1 d2 ...`
diagonal shorthand. Coefficient functions for the discretized operators use
the named built-ins `constant:<value>`, `gaussian:<sigma>`, and
`linear:<slope>,<intercept>`.

A scenario chooses a family, its grids and a threshold bracket, never how
strictly a check is judged; any other key is a ParseError.
"""

import os
from dataclasses import dataclass

import numpy as np

from .checks import FAMILY_KINDS, THRESHOLD_PRESWEEP, is_uniform
from .errors import InvariantViolation, NegativeKernel, NonPositiveDiffusion, ParseError
from .gallery import Grid1D, KarlinFamily, KingmanFamily, LinearFamily, elliptic_1d, laplacian_1d, nonlocal_operator
from .matrixio import load_matrix

# matrix family kind -> (constructor, its [family] matrix keys)
MATRIX_FAMILIES = {
    "linear": (LinearFamily, ("a", "v")),
    "karlin": (KarlinFamily, ("p", "d")),
    "kingman": (KingmanFamily, ("c", "g")),
}


@dataclass
class Scenario:
    """A parsed scenario. `family` is built at parse time, so an invalid family or
    operator fails there; for the operator kinds it is the split LinearFamily(A, V)
    of mixing and growth, and the operator is A + V."""

    family_kind: str
    family: LinearFamily | KarlinFamily | KingmanFamily
    grid_name: str | None = None
    grid: np.ndarray | None = None
    bracket: tuple[float, float] | None = None
    source: str = "<memory>"

    def grid_for(self, name: str) -> np.ndarray:
        """The scenario's grid if it sweeps `name`, else the kind's default grid of that name."""
        if self.grid_name == name:
            return self.grid
        return np.linspace(*FAMILY_KINDS[self.family_kind][1][name])


def parse_builtin(spec: str, line=None, origin=None):
    """Parse `constant:<v>`, `gaussian:<sigma>`, `linear:<slope>,<intercept>`.

    An error names `origin` (the scenario path) when one is given.
    """
    prefix = f"{origin}: " if origin is not None else ""
    name, sep, rest = spec.partition(":")
    name = name.strip().lower()
    if not sep:
        raise ParseError(f"{prefix}coefficient {spec!r} needs the form name:params", line=line)
    try:
        params = tuple(float(p) for p in rest.split(","))
    except ValueError:
        raise ParseError(f"{prefix}bad numeric parameters in {spec!r}", line=line)
    if name == "constant" and len(params) == 1:
        return (name, params)
    if name == "gaussian" and len(params) == 1:
        if params[0] <= 0:
            raise ParseError(f"{prefix}gaussian width must be positive", line=line)
        if 2.0 * params[0] * params[0] == 0.0:
            raise ParseError(f"{prefix}gaussian width {params[0]!r} squares to 0 in double precision", line=line)
        return (name, params)
    if name == "linear" and len(params) == 2:
        return (name, params)
    raise ParseError(f"{prefix}unknown coefficient builtin {spec!r}", line=line)


def coefficient_values(builtin: tuple, x: np.ndarray, length: float) -> np.ndarray:
    """Sample a named coefficient on grid points; gaussian bumps sit at mid-domain."""
    name, params = builtin
    if name == "constant":
        return np.full(x.shape, params[0])
    if name == "gaussian":
        sigma = params[0]
        with np.errstate(over="ignore"):  # a tiny width gives -inf exponents, and exp(-inf) = 0
            return np.exp(-((x - 0.5 * length) ** 2) / (2.0 * sigma * sigma))
    slope, intercept = params
    return slope * x + intercept


def kernel_values(builtin: tuple, x: np.ndarray) -> np.ndarray:
    """Sample a named kernel K(x_i, y_j) on the grid; depends on |x - y|."""
    name, params = builtin
    diff = x[:, None] - x[None, :]
    if name == "constant":
        return np.full((len(x), len(x)), params[0])
    if name == "gaussian":
        sigma = params[0]
        with np.errstate(over="ignore"):  # a tiny width gives -inf exponents, and exp(-inf) = 0
            return np.exp(-(diff**2) / (2.0 * sigma * sigma))
    slope, intercept = params
    return slope * np.abs(diff) + intercept


def _operator_family(kind: str, grid: Grid1D, coefficients: dict[str, tuple]) -> LinearFamily:
    """Mixing/growth split of a discretized operator: A mixes, V multiplies, the operator is A + V."""
    n, x = grid.n, grid.points
    if kind == "laplacian":
        return LinearFamily(laplacian_1d(grid), np.zeros((n, n)))
    if kind == "elliptic":
        a, b, c = (coefficient_values(coefficients[key], x, grid.length) for key in "abc")
        return LinearFamily(elliptic_1d(a, b, grid), np.diag(c))
    K = kernel_values(coefficients["kernel"], x)
    b = coefficient_values(coefficients["b"], x, grid.length)
    return LinearFamily(nonlocal_operator(K, grid), np.diag(b))


def _read_items(text: str, origin: str):
    items: dict[tuple[str, str], tuple[str, int]] = {}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if not section:
                raise ParseError(f"{origin}: empty section header", line=lineno)
            continue
        key, sep, value = line.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not key:
            raise ParseError(f"{origin}: expected key = value, got {raw.strip()!r}", line=lineno)
        if (section, key) in items:
            raise ParseError(f"{origin}: duplicate key {key!r} in section [{section}]", line=lineno)
        items[(section, key)] = (value, lineno)
    return items


class _Items:
    def __init__(self, items, origin, base_dir):
        self.items = dict(items)
        self.origin = origin
        self.base_dir = base_dir

    def take(self, section, key, default=None):
        entry = self.items.pop((section, key), None)
        if entry is None:
            return default, None
        return entry

    def require(self, section, key):
        value, line = self.take(section, key)
        if value is None:
            raise ParseError(f"{self.origin}: missing [{section}] {key}")
        return value, line

    def leftovers(self):
        return self.items


def _parse_inline_matrix(value, line, origin):
    rows = [r.strip() for r in value.split(";") if r.strip()]
    if not rows:
        raise ParseError(f"{origin}: empty inline matrix", line=line)
    try:
        data = [[float(p) for p in r.split()] for r in rows]
    except ValueError as exc:
        raise ParseError(f"{origin}: {exc}", line=line)
    widths = {len(r) for r in data}
    if widths != {len(data)}:
        raise ParseError(f"{origin}: inline matrix must be square", line=line)
    return np.asarray(data)


def _take_matrix(items: _Items, section, name):
    inline, line = items.take(section, name)
    if inline is not None:
        return _parse_inline_matrix(inline, line, items.origin)
    diag, line = items.take(section, f"{name}_diag")
    if diag is not None:
        try:
            entries = [float(p) for p in diag.split()]
        except ValueError as exc:
            raise ParseError(f"{items.origin}: {exc}", line=line)
        if not entries:
            raise ParseError(f"{items.origin}: empty diagonal", line=line)
        return np.diag(entries)
    path, line = items.take(section, f"{name}_file")
    if path is not None:
        full = path if os.path.isabs(path) else os.path.join(items.base_dir, path)
        if not os.path.exists(full):
            raise ParseError(f"{items.origin}: referenced file {path!r} does not exist", line=line)
        return load_matrix(full)
    return None


def _require_matrix(items, section, name):
    M = _take_matrix(items, section, name)
    if M is None:
        raise ParseError(f"{items.origin}: family needs matrix {name!r} in section [{section}]")
    return M


def _take_float(items, section, key, default=None):
    value, line = items.take(section, key)
    if value is None:
        return default
    try:
        return float(value)
    except ValueError:
        raise ParseError(f"{items.origin}: {key} must be a number, got {value!r}", line=line)


def _take_int(items, section, key, default=None):
    value, line = items.take(section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{items.origin}: {key} must be an integer, got {value!r}", line=line)


def _linspace(origin, start, stop, count):
    """np.linspace(start, stop, count); a ParseError if rounding repeats a point."""
    points = np.linspace(start, stop, count)
    if not (np.diff(points) > 0.0).all():
        raise ParseError(f"{origin}: {count} points from {start!r} to {stop!r} repeat a value in double precision")
    return points


def parse_scenario(path) -> Scenario:
    origin = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    items = _Items(_read_items(text, origin), origin, os.path.dirname(os.path.abspath(origin)))

    kind, kind_line = items.require("family", "kind")
    kind = kind.lower()
    if kind not in FAMILY_KINDS:
        raise ParseError(f"{origin}: unknown family kind {kind!r}", line=kind_line)
    if kind in MATRIX_FAMILIES:
        constructor, keys = MATRIX_FAMILIES[kind]
        args = [_require_matrix(items, "family", key) for key in keys]
    else:
        n = _take_int(items, "operator", "n")
        length = _take_float(items, "operator", "length", 1.0)
        boundary, bline = items.take("operator", "boundary")
        boundary = (boundary or "dirichlet").lower()
        if n is None:
            raise ParseError(f"{origin}: operator families need [operator] n")
        try:
            grid1d = Grid1D(n=n, length=length, boundary=boundary)
        except ValueError as exc:
            raise InvariantViolation(f"{origin}: {exc}")
        coefficients = {}
        if kind == "elliptic":
            for coef, default in (("a", "constant:1"), ("b", "constant:0"), ("c", "constant:0")):
                value, line = items.take("operator", coef)
                coefficients[coef] = parse_builtin(value or default, line, origin)
        elif kind == "nonlocal":
            kernel, kline = items.require("operator", "kernel")
            coefficients["kernel"] = parse_builtin(kernel, kline, origin)
            value, line = items.take("operator", "b")
            coefficients["b"] = parse_builtin(value or "constant:0", line, origin)
        constructor, args = _operator_family, (kind, grid1d, coefficients)

    grid_name = grid = bracket = None
    name, name_line = items.take("grid", "name")
    if name is not None:
        name = name.lower()
        if name not in FAMILY_KINDS[kind][1]:
            names = " or ".join(FAMILY_KINDS[kind][1])
            raise ParseError(f"{origin}: {kind} families sweep {names}, not {name!r}", line=name_line)
        start = _take_float(items, "grid", "start")
        stop = _take_float(items, "grid", "stop")
        count = _take_int(items, "grid", "count")
        if start is None or stop is None or count is None:
            raise ParseError(f"{origin}: grid needs start, stop and count")
        if count < 3:
            raise ParseError(f"{origin}: grid count >= 3 required, got {count}")
        if not start < stop:
            raise ParseError(f"{origin}: grid start must be below stop")
        if name == "m" and start <= 0:
            raise ParseError(f"{origin}: m grids must start above 0")
        if name == "alpha" and (start < 0 or stop > 1):
            raise ParseError(f"{origin}: alpha grids must stay inside [0, 1]")
        grid_name, grid = name, _linspace(origin, start, stop, count)
        if not is_uniform(grid):  # the second differences of `check` need even steps
            raise ParseError(f"{origin}: {count} points from {start!r} to {stop!r} are unevenly spaced")

    m_lo = _take_float(items, "threshold", "m_lo")
    m_hi = _take_float(items, "threshold", "m_hi")
    if (m_lo is None) != (m_hi is None):
        raise ParseError(f"{origin}: threshold needs both m_lo and m_hi")
    if m_lo is not None:
        if not 0 < m_lo < m_hi:
            raise ParseError(f"{origin}: threshold bracket needs 0 < m_lo < m_hi")
        _linspace(origin, m_lo, m_hi, THRESHOLD_PRESWEEP)  # the points of find_threshold's pre-sweep
        bracket = (m_lo, m_hi)

    for (section, key), (_, line) in items.leftovers().items():
        raise ParseError(f"{origin}: unknown key {key!r} in section [{section}]", line=line)

    try:
        family = constructor(*args)
    except ValueError as exc:
        raise InvariantViolation(f"{origin}: {exc}")
    except (NonPositiveDiffusion, NegativeKernel) as exc:
        raise type(exc)(f"{origin}: {exc}")
    return Scenario(kind, family, grid_name, grid, bracket, origin)
