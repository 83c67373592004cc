"""Scenario files: flat `key = value` lines with bracketed section headers, as in
README's "Scenario format", which shows a complete file and each kind's keys.

Matrices may be given inline (rows separated by `;`), as `<name>_file = path`
references in the shared matrix text format, or as `<name>_diag = d1 d2 ...`
diagonal shorthand. Coefficient functions for the discretized operators use
the named built-ins `constant:<value>`, `gaussian:<sigma>`, and
`linear:<slope>,<intercept>`.

A scenario chooses a family, its grids and a threshold bracket, never how
strictly a check is judged; any other key is a ParseError.
"""

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .checks import FAMILY_KINDS, THRESHOLD_PRESWEEP, is_uniform
from .errors import InvariantViolation, NegativeKernel, NonPositiveDiffusion, ParseError
from .gallery import Grid1D, KarlinFamily, KingmanFamily, LinearFamily, elliptic_1d, laplacian_1d, nonlocal_operator
from .matrixio import load_matrix, read_text


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
        return np.linspace(*FAMILY_KINDS[self.family_kind][1][name].default)


# coefficient built-in -> number of parameters
BUILTIN_ARITY = {"constant": 1, "gaussian": 1, "linear": 2}


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
    if len(params) != BUILTIN_ARITY.get(name):
        raise ParseError(f"{prefix}unknown coefficient builtin {spec!r}", line=line)
    if name == "gaussian":
        if params[0] <= 0:
            raise ParseError(f"{prefix}gaussian width must be positive", line=line)
        if 2.0 * params[0] * params[0] == 0.0:
            raise ParseError(f"{prefix}gaussian width {params[0]!r} squares to 0 in double precision", line=line)
    return (name, params)


def profile(builtin: tuple, d: np.ndarray, center: float) -> np.ndarray:
    """Sample a parsed built-in f at d: the constant, the gaussian exp(-(d - center)^2/(2 sigma^2)),
    or slope*d + intercept. A coefficient is sampled at the grid points x with center = L/2, a
    kernel K(x_i, x_j) at the distances |x_i - x_j| with center = 0."""
    name, params = builtin
    if name == "constant":
        return np.full(d.shape, params[0])
    if name == "gaussian":
        sigma = params[0]
        with np.errstate(over="ignore"):  # a tiny width gives -inf exponents, and exp(-inf) = 0
            return np.exp(-((d - center) ** 2) / (2.0 * sigma * sigma))
    slope, intercept = params
    return slope * d + intercept


def _at_points(builtin: tuple, grid: Grid1D) -> np.ndarray:
    return profile(builtin, grid.points, grid.length / 2)


def _laplacian(grid: Grid1D) -> LinearFamily:
    return LinearFamily(laplacian_1d(grid), np.zeros((grid.n, grid.n)))


def _elliptic(grid: Grid1D, a, b, c) -> LinearFamily:
    return LinearFamily(elliptic_1d(_at_points(a, grid), _at_points(b, grid), grid), np.diag(_at_points(c, grid)))


def _nonlocal(grid: Grid1D, kernel, b) -> LinearFamily:
    x = grid.points
    K = profile(kernel, np.abs(x[:, None] - x[None, :]), 0.0)
    return LinearFamily(nonlocal_operator(K, grid), np.diag(_at_points(b, grid)))


def _matrices(items, constructor, keys):
    """The call that builds a matrix kind: `constructor` of its [family] matrices `keys`, in order."""
    return functools.partial(constructor, *[_require_matrix(items, key) for key in keys])


def _operator(items, split, coefficients):
    """The call that builds an operator kind: `split(grid, **coefficients)` of its [operator]
    grid and coefficient built-ins {key: default, None when required}, which returns the
    LinearFamily(A, V) of mixing and growth whose operator is A + V."""
    n = items.number("operator", "n", int)
    length = items.number("operator", "length", float, 1.0)
    boundary, _ = items.take("operator", "boundary")
    if n is None:
        raise ParseError(f"{items.origin}: operator families need [operator] n")
    try:
        grid = Grid1D(n=n, length=length, boundary=(boundary or "dirichlet").lower())
    except ValueError as exc:
        raise InvariantViolation(f"{items.origin}: {exc}")
    builtins = {}
    for key, default in coefficients.items():
        if default is None:
            value, line = items.require("operator", key)
        else:
            value, line = items.take("operator", key)
            value = value or default
        builtins[key] = parse_builtin(value, line, items.origin)
    return functools.partial(split, grid, **builtins)


# family kind -> (reader, constructor, keys) of how a scenario writes it: the [family] matrices
# of a matrix kind, the [operator] coefficients of an operator kind; kinds as in checks.FAMILY_KINDS
SCENARIO_KINDS = {
    "linear": (_matrices, LinearFamily, ("a", "v")),
    "karlin": (_matrices, KarlinFamily, ("p", "d")),
    "kingman": (_matrices, KingmanFamily, ("c", "g")),
    "laplacian": (_operator, _laplacian, {}),
    "elliptic": (_operator, _elliptic, {"a": "constant:1", "b": "constant:0", "c": "constant:0"}),
    "nonlocal": (_operator, _nonlocal, {"kernel": None, "b": "constant:0"}),
}


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
    def __init__(self, items, origin):
        self.remaining = items
        self.origin = origin

    def take(self, section, key):
        """(value, line) of the key, or (None, None) when it is absent."""
        return self.remaining.pop((section, key), (None, None))

    def require(self, section, key):
        value, line = self.take(section, key)
        if value is None:
            raise ParseError(f"{self.origin}: missing [{section}] {key}")
        return value, line

    def number(self, section, key, read, default=None, finite=False):
        """`read(value)` of the key, `read` being float or int, or `default` when it is absent;
        with `finite`, a non-finite value is an error."""
        value, line = self.take(section, key)
        if value is None:
            return default
        try:
            number = read(value)
        except ValueError:
            noun = "an integer" if read is int else "a number"
            raise ParseError(f"{self.origin}: {key} must be {noun}, got {value!r}", line=line)
        if finite and not math.isfinite(number):  # linspace would warn, then repeat points
            raise ParseError(f"{self.origin}: {key} must be finite, got {value!r}", line=line)
        return number


def _floats(text, line, origin):
    try:
        return [float(p) for p in text.split()]
    except ValueError as exc:
        raise ParseError(f"{origin}: {exc}", line=line)


def _parse_inline_matrix(value, line, origin):
    rows = [r.strip() for r in value.split(";") if r.strip()]
    if not rows:
        raise ParseError(f"{origin}: empty inline matrix", line=line)
    data = [_floats(r, line, origin) for r in rows]
    widths = {len(r) for r in data}
    if widths != {len(data)}:
        raise ParseError(f"{origin}: inline matrix must be square", line=line)
    return np.asarray(data)


def _require_matrix(items: _Items, name):
    """The [family] matrix `name`, given inline, as `<name>_diag` or as `<name>_file`."""
    inline, line = items.take("family", name)
    if inline is not None:
        return _parse_inline_matrix(inline, line, items.origin)
    diag, line = items.take("family", f"{name}_diag")
    if diag is not None:
        entries = _floats(diag, line, items.origin)
        if not entries:
            raise ParseError(f"{items.origin}: empty diagonal", line=line)
        return np.diag(entries)
    path, line = items.take("family", f"{name}_file")
    if path is None:
        raise ParseError(f"{items.origin}: family needs matrix {name!r} in section [family]")
    full = os.path.join(os.path.dirname(os.path.abspath(items.origin)), path)  # an absolute path stays as it is
    if not os.path.exists(full):
        raise ParseError(f"{items.origin}: referenced file {path!r} does not exist", line=line)
    return load_matrix(full)


def _linspace(origin, start, stop, count):
    """np.linspace(start, stop, count); a ParseError if stop - start overflows or rounding repeats a point."""
    if not math.isfinite(stop - start):
        raise ParseError(f"{origin}: the span from {start!r} to {stop!r} overflows double precision")
    points = np.linspace(start, stop, count)
    if not (np.diff(points) > 0.0).all():
        raise ParseError(f"{origin}: {count} points from {start!r} to {stop!r} repeat a value in double precision")
    return points


def parse_scenario(path) -> Scenario:
    origin = str(path)
    items = _Items(_read_items(read_text(path), origin), origin)

    kind, kind_line = items.require("family", "kind")
    kind = kind.lower()
    if kind not in SCENARIO_KINDS:
        raise ParseError(f"{origin}: unknown family kind {kind!r}", line=kind_line)
    read, constructor, keys = SCENARIO_KINDS[kind]
    build = read(items, constructor, keys)

    grid_name = grid = bracket = None
    grids = FAMILY_KINDS[kind][1]
    name, name_line = items.take("grid", "name")
    if name is not None:
        name = name.lower()
        if name not in grids:
            raise ParseError(f"{origin}: {kind} families sweep {' or '.join(grids)}, not {name!r}", line=name_line)
        start = items.number("grid", "start", float, finite=True)
        stop = items.number("grid", "stop", float, finite=True)
        count = items.number("grid", "count", int)
        if start is None or stop is None or count is None:
            raise ParseError(f"{origin}: grid needs start, stop and count")
        if count < 3:
            raise ParseError(f"{origin}: grid count >= 3 required, got {count}")
        if not start < stop:
            raise ParseError(f"{origin}: grid start must be below stop")
        spec = grids[name]
        if start < spec.lo or stop > spec.hi:
            raise ParseError(f"{origin}: {name} grids must {spec.domain}")
        grid_name, grid = name, _linspace(origin, start, stop, count)
        if not is_uniform(grid):  # the second differences of `check` need even steps
            raise ParseError(f"{origin}: {count} points from {start!r} to {stop!r} are unevenly spaced")

    m_lo = items.number("threshold", "m_lo", float, finite=True)
    m_hi = items.number("threshold", "m_hi", float, finite=True)
    if (m_lo is None) != (m_hi is None):
        raise ParseError(f"{origin}: threshold needs both m_lo and m_hi")
    if m_lo is not None:
        if not 0 < m_lo < m_hi:
            raise ParseError(f"{origin}: threshold bracket needs 0 < m_lo < m_hi")
        _linspace(origin, m_lo, m_hi, THRESHOLD_PRESWEEP)  # the points of find_threshold's pre-sweep
        bracket = (m_lo, m_hi)

    for (section, key), (_, line) in items.remaining.items():
        raise ParseError(f"{origin}: unknown key {key!r} in section [{section}]", line=line)

    try:
        family = build()
    except ValueError as exc:
        raise InvariantViolation(f"{origin}: {exc}")
    except (NonPositiveDiffusion, NegativeKernel) as exc:
        raise type(exc)(f"{origin}: {exc}")
    return Scenario(kind, family, grid_name, grid, bracket, origin)
