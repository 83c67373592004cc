"""Layer spans recorded from outside the library.

`Tracer.install` replaces each public function listed in LAYERS by a wrapper
in every `reduction_lab` module namespace that binds it (modules import
functions by name, so patching only the defining module would miss calls such
as `checks.spectral_bound`). A wrapper records a span (name, duration, time
covered by child spans) and, for `spectral_bound`, the input matrix and the
returned data so that accuracy can be checked against LAPACK after the pass.
Spans stay in memory; `layer_metrics` turns one pass into per-layer numbers.
"""

import hashlib
import statistics
import sys
import time

import numpy as np

from verify import norm_inf, reference_spb

# layer -> public names wrapped in it; "Class.method" wraps a method
LAYERS = {
    "perron": ["spectral_bound", "perron_vectors", "scc_decomposition", "resolvent"],
    "oracle": ["eigenvalues_oracle"],
    "semigroup": ["expm", "growth_bound_estimate"],
    "checks": [
        "sweep_spb_in_m",
        "sweep_spb_in_beta",
        "karlin_monotonicity_check",
        "kingman_superconvexity_check",
        "find_threshold",
        "check_midpoint_convexity",
        "check_monotone_reduction",
        "derivative_bound_check",
        "perron_derivative",
        "lindqvist_check",
        "kirkland_check",
        "homogeneity_check",
        "strict_convexity_probe",
    ],
    "gallery": [
        "laplacian_1d",
        "elliptic_1d",
        "nonlocal_operator",
        "karlin_matrix",
        "karlin_to_linear",
        "kingman_family_eval",
        "random_stochastic",
        "random_ess_nonneg",
        "random_diagonal",
        "LinearFamily.matrix_at",
    ],
    "scenario": ["parse_scenario"],
    "matrixio": ["load_matrix"],
    "battery": ["seed_battery"],
    "cli": ["main"],
}
# functions that evaluate spb along a parameter grid; the grid is their second argument
SWEEPS = {
    "checks.sweep_spb_in_m",
    "checks.sweep_spb_in_beta",
    "checks.karlin_monotonicity_check",
    "checks.kingman_superconvexity_check",
}
SMALL_N = 8  # dense sizes up to the oracle's limit count as "small" solves
EPS = np.finfo(float).eps


class Span:
    __slots__ = ("name", "layer", "start", "duration", "child", "outer_layer", "outer_sweep", "size")

    def __init__(self, name, layer, outer_layer, outer_sweep, size):
        self.name = name
        self.layer = layer
        self.outer_layer = outer_layer  # no enclosing span of the same layer
        self.outer_sweep = outer_sweep  # a sweep with no enclosing sweep
        self.size = size
        self.child = 0.0
        self.start = time.perf_counter()
        self.duration = 0.0

    @property
    def self_time(self):
        return self.duration - self.child


class Solve:
    """One spectral_bound call: input key, size, duration and iterations."""

    __slots__ = ("key", "n", "duration", "iterations", "converged")

    def __init__(self, key, n, duration, iterations, converged):
        self.key = key
        self.n = n
        self.duration = duration
        self.iterations = iterations
        self.converged = converged


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans = []
        self.solves = []
        self.matrices = {}  # key -> (M, spb, v) for each distinct converged input
        self._accuracy = None
        self._stack = []
        self._patches = []

    # -- installation ---------------------------------------------------
    def install(self):
        modules = [m for k, m in sys.modules.items() if k == self.package or k.startswith(self.package + ".")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"{self.package}.{layer}"]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(f"{layer}.{name}", layer, original))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", layer, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.solves.clear()
        self.matrices.clear()
        self._accuracy = None

    # -- spans ----------------------------------------------------------
    def _wrap(self, name, layer, original):
        sweep = name in SWEEPS
        solver = name == "perron.spectral_bound"
        stack = self._stack

        def wrapper(*args, **kwargs):
            outer_layer = all(s.layer != layer for s in stack)
            outer_sweep = sweep and not any(s.name in SWEEPS for s in stack)
            span = Span(name, layer, outer_layer, outer_sweep, len(args[1]) if sweep else 0)
            stack.append(span)
            result = error = None
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span.duration = time.perf_counter() - span.start
                stack.pop()
                self.spans.append(span)
                if solver:
                    self._record_solve(args[0], span, result, error)
                if stack:
                    # bookkeeping after the call is covered time, not the caller's self time
                    stack[-1].child += time.perf_counter() - span.start
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", name)
        return wrapper

    def _record_solve(self, M, span, data, error):
        M = np.array(M, dtype=float)
        key = hashlib.blake2b(M.tobytes() + repr(M.shape).encode(), digest_size=16).digest()
        if error is None:
            self.solves.append(Solve(key, M.shape[0], span.duration, data.iterations, True))
            self.matrices.setdefault(key, (M, data.spb, data.v))
        else:
            iterations = getattr(error, "iterations", None) or 0
            self.solves.append(Solve(key, M.shape[0], span.duration, iterations, False))

    # -- results --------------------------------------------------------
    def accuracy(self):
        """(min digits, max relative CW width) over distinct converged inputs.

        digits = -log10(max(|spb - max Re eig_LAPACK(M)| / ||M||_inf, eps)); the
        Collatz-Wielandt width is (max - min of (Mv)_i / v_i) / ||M||_inf at the
        returned v, for inputs that returned one.
        """
        if self._accuracy is not None:
            return self._accuracy
        digits, width = [], [0.0]
        for M, spb, v in self.matrices.values():
            norm = norm_inf(M)
            digits.append(-np.log10(max(abs(spb - reference_spb(M)) / norm, EPS)))
            if v is not None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    q = (M @ v) / v
                w = float(q.max() - q.min()) / norm if (v > 0).all() else np.inf
                width.append(min(w, 1e300))  # JSON has no infinity
        self._accuracy = (min(digits) if digits else -np.log10(EPS)), max(width)
        return self._accuracy

    def counts(self):
        """Exact work counts of the pass; they must repeat between passes."""
        calls = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
        return {
            "calls": calls,
            "iters": sum(s.iterations for s in self.solves),
            "sweep_points": sum(s.size for s in self.spans if s.outer_sweep),
        }

    def layer_metrics(self):
        spans = self.spans

        def total(pred):
            return sum(s.duration for s in spans if pred(s))

        def calls(name):
            return sum(1 for s in spans if s.name == name)

        solves = self.solves
        seeds = [s.duration for s in spans if s.name == "battery.seed_battery"]
        m = {
            "perron.spectral_bound.calls": (len(solves), "count"),
            "perron.spectral_bound.s": (sum(s.duration for s in solves), "s"),
            "perron.spectral_bound.small_s": (sum(s.duration for s in solves if s.n <= SMALL_N), "s"),
            "perron.spectral_bound.large_s": (sum(s.duration for s in solves if s.n > SMALL_N), "s"),
            "perron.spectral_bound.iters": (sum(s.iterations for s in solves), "count"),
            "perron.spectral_bound.iters_max": (max((s.iterations for s in solves), default=0), "count"),
            "perron.spectral_bound.distinct_share": (len({s.key for s in solves}) / max(len(solves), 1), "ratio"),
            "perron.no_convergence": (sum(1 for s in solves if not s.converged), "count"),
            "perron.cw_width_max": (self.accuracy()[1], "ratio"),
        }
        for name in ("perron_vectors", "scc_decomposition", "resolvent"):
            m[f"perron.{name}.calls"] = (calls(f"perron.{name}"), "count")
            m[f"perron.{name}.s"] = (total(lambda s, n=f"perron.{name}": s.name == n), "s")
        for name in ("oracle.eigenvalues_oracle", "semigroup.expm", "semigroup.growth_bound_estimate"):
            m[f"{name}.calls"] = (calls(name), "count")
            m[f"{name}.s"] = (total(lambda s, n=name: s.name == n), "s")
        m["checks.sweep.points"] = (sum(s.size for s in spans if s.outer_sweep), "count")
        m["checks.sweep.s"] = (total(lambda s: s.outer_sweep), "s")
        m["checks.find_threshold.s"] = (total(lambda s: s.name == "checks.find_threshold"), "s")
        m["checks.self_s"] = (sum(s.self_time for s in spans if s.layer == "checks"), "s")
        m["gallery.calls"] = (sum(1 for s in spans if s.layer == "gallery"), "count")
        m["gallery.s"] = (total(lambda s: s.layer == "gallery" and s.outer_layer), "s")
        m["scenario.parse_scenario.s"] = (total(lambda s: s.name == "scenario.parse_scenario"), "s")
        m["matrixio.load_matrix.s"] = (total(lambda s: s.name == "matrixio.load_matrix"), "s")
        m["battery.seed_battery.p50_s"] = (statistics.median(seeds) if seeds else 0.0, "s")
        m["battery.seed_battery.max_s"] = (max(seeds, default=0.0), "s")
        m["cli.self_s"] = (sum(s.self_time for s in spans if s.layer == "cli"), "s")
        return m
