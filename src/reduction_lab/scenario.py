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
"""

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolation, ParseError
from .gallery import Grid1D, KarlinFamily, KingmanFamily, LinearFamily
from .matrixio import load_matrix

# family kind -> the grid names it can sweep
FAMILY_GRIDS = {
    "linear": ("m", "beta"),
    "karlin": ("alpha",),
    "kingman": ("theta",),
    "laplacian": ("m",),
    "elliptic": ("m",),
    "nonlocal": ("m",),
}
TOLERANCE_NAMES = ("convexity_beta", "convexity_m", "growth_bound")


@dataclass
class Scenario:
    family_kind: str
    matrices: dict[str, np.ndarray] = field(default_factory=dict)
    grid_name: str | None = None
    grid: np.ndarray | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    grid1d: Grid1D | None = None
    coefficients: dict[str, tuple] = field(default_factory=dict)
    bracket: tuple[float, float] | None = None
    source: str = "<memory>"


def parse_builtin(spec: str, line=None):
    """Parse `constant:<v>`, `gaussian:<sigma>`, `linear:<slope>,<intercept>`."""
    name, sep, rest = spec.partition(":")
    name = name.strip().lower()
    if not sep:
        raise ParseError(f"coefficient {spec!r} needs the form name:params", line=line)
    try:
        params = tuple(float(p) for p in rest.split(","))
    except ValueError:
        raise ParseError(f"bad numeric parameters in {spec!r}", line=line)
    if name == "constant" and len(params) == 1:
        return (name, params)
    if name == "gaussian" and len(params) == 1:
        if params[0] <= 0:
            raise ParseError("gaussian width must be positive", line=line)
        return (name, params)
    if name == "linear" and len(params) == 2:
        return (name, params)
    raise ParseError(f"unknown coefficient builtin {spec!r}", line=line)


def coefficient_values(builtin: tuple, x: np.ndarray, length: float) -> np.ndarray:
    """Sample a named coefficient on grid points; gaussian bumps sit at mid-domain."""
    name, params = builtin
    if name == "constant":
        return np.full(x.shape, params[0])
    if name == "gaussian":
        sigma = params[0]
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
        return np.exp(-(diff**2) / (2.0 * sigma * sigma))
    slope, intercept = params
    return slope * np.abs(diff) + intercept


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


def _validate_family(sc: Scenario):
    """Build the family objects once so constructor invariants run."""
    try:
        if sc.family_kind == "linear":
            LinearFamily(sc.matrices["A"], sc.matrices["V"])
        elif sc.family_kind == "karlin":
            KarlinFamily(sc.matrices["P"], sc.matrices["D"])
        elif sc.family_kind == "kingman":
            KingmanFamily(sc.matrices["c"], sc.matrices["g"])
    except ValueError as exc:
        raise InvariantViolation(f"{sc.source}: {exc}")


def parse_scenario(path) -> Scenario:
    origin = str(path)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    items = _Items(_read_items(text, origin), origin, os.path.dirname(os.path.abspath(origin)))

    kind, kind_line = items.require("family", "kind")
    kind = kind.lower()
    if kind not in FAMILY_GRIDS:
        raise ParseError(f"{origin}: unknown family kind {kind!r}", line=kind_line)
    sc = Scenario(family_kind=kind, source=origin)

    if kind == "linear":
        sc.matrices["A"] = _require_matrix(items, "family", "a")
        sc.matrices["V"] = _require_matrix(items, "family", "v")
    elif kind == "karlin":
        sc.matrices["P"] = _require_matrix(items, "family", "p")
        sc.matrices["D"] = _require_matrix(items, "family", "d")
    elif kind == "kingman":
        sc.matrices["c"] = _require_matrix(items, "family", "c")
        sc.matrices["g"] = _require_matrix(items, "family", "g")
    else:
        n = _take_int(items, "operator", "n")
        length = _take_float(items, "operator", "length", 1.0)
        boundary, bline = items.take("operator", "boundary")
        boundary = (boundary or "dirichlet").lower()
        if n is None:
            raise ParseError(f"{origin}: operator families need [operator] n")
        try:
            sc.grid1d = Grid1D(n=n, length=length, boundary=boundary)
        except ValueError as exc:
            raise InvariantViolation(f"{origin}: {exc}")
        if kind == "elliptic":
            for coef, default in (("a", "constant:1"), ("b", "constant:0"), ("c", "constant:0")):
                value, line = items.take("operator", coef)
                sc.coefficients[coef] = parse_builtin(value or default, line)
        elif kind == "nonlocal":
            kernel, kline = items.require("operator", "kernel")
            sc.coefficients["kernel"] = parse_builtin(kernel, kline)
            value, line = items.take("operator", "b")
            sc.coefficients["b"] = parse_builtin(value or "constant:0", line)

    name, name_line = items.take("grid", "name")
    if name is not None:
        name = name.lower()
        if name not in FAMILY_GRIDS[kind]:
            names = " or ".join(FAMILY_GRIDS[kind])
            raise ParseError(f"{origin}: {kind} families sweep {names}, not {name!r}", line=name_line)
        start = _take_float(items, "grid", "start")
        stop = _take_float(items, "grid", "stop")
        count = _take_int(items, "grid", "count")
        spacing, sp_line = items.take("grid", "spacing")
        if spacing is not None and spacing.lower() != "linear":
            raise ParseError(f"{origin}: only linear spacing is supported", line=sp_line)
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
        sc.grid_name = name
        sc.grid = np.linspace(start, stop, count)

    m_lo = _take_float(items, "threshold", "m_lo")
    m_hi = _take_float(items, "threshold", "m_hi")
    if (m_lo is None) != (m_hi is None):
        raise ParseError(f"{origin}: threshold needs both m_lo and m_hi")
    if m_lo is not None:
        if not 0 < m_lo < m_hi:
            raise ParseError(f"{origin}: threshold bracket needs 0 < m_lo < m_hi")
        sc.bracket = (m_lo, m_hi)

    for (section, key), (value, line) in list(items.leftovers().items()):
        if section == "tolerances" and key in TOLERANCE_NAMES:
            try:
                tol = float(value)
            except ValueError:
                raise ParseError(f"{origin}: tolerance {key} must be a number", line=line)
            if not (math.isfinite(tol) and tol >= 0.0):
                raise ParseError(f"{origin}: tolerance {key} must be finite and >= 0, got {value!r}", line=line)
            sc.tolerances[key] = tol
        else:
            raise ParseError(f"{origin}: unknown key {key!r} in section [{section}]", line=line)

    _validate_family(sc)
    return sc
