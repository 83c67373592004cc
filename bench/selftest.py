"""Self-test of the benchmark's tracer and accuracy reference.

Run from the root of a checkout (takes a few seconds):

    python3 bench/selftest.py

It checks that
- every `reduction_lab` namespace that binds a traced function gets the wrapper;
- one battery seed makes exactly 77 spectral_bound calls and 1 perron_vectors call;
- `suite` and `check` reports are byte-identical with tracing on and off;
- the LAPACK reference reproduces the solver figures on record for the Neumann
  n = 160 `laplacian_1d + diag` case: error 7.3e-9 and Collatz-Wielandt width
  3.3e-3 (diag drawn by `numpy.random.default_rng(0).uniform(0, 1, 160)`).
Exit status 1 means a check failed.
"""

import contextlib
import io
import os
import sys
import tempfile

import numpy as np
import scipy.linalg

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH_DIR, os.path.abspath("src")]

import reduction_lab  # noqa: E402
import reduction_lab.cli  # noqa: E402
import tracing  # noqa: E402

failures = []


def expect(ok, what):
    print(("ok: " if ok else "FAIL: ") + what)
    if not ok:
        failures.append(what)


def traced(tracer, call):
    """Run call() with the tracer installed; call must look functions up when it runs."""
    tracer.reset()
    tracer.install()
    try:
        return call()
    finally:
        tracer.uninstall()


def check_installation(tracer):
    originals = {name: getattr(reduction_lab.perron, name) for name in tracing.LAYERS["perron"]}
    tracer.install()
    try:
        stale = [
            f"{mod_name}.{attr}"
            for mod_name, module in sys.modules.items()
            if mod_name.startswith("reduction_lab")
            for attr, value in vars(module).items()
            if any(value is original for original in originals.values())
        ]
    finally:
        tracer.uninstall()
    expect(not stale, f"perron functions wrapped in every namespace (unwrapped: {stale})")
    restored = all(getattr(reduction_lab.checks, n, o) is o for n, o in originals.items())
    expect(restored, "uninstall restores the original functions")


def check_battery_counts(tracer):
    traced(tracer, lambda: reduction_lab.battery.seed_battery(0))
    calls = tracer.counts()["calls"]
    got = (calls.get("perron.spectral_bound", 0), calls.get("perron.perron_vectors", 0))
    expect(got == (77, 1), f"battery seed 0 makes 77 spectral_bound / 1 perron_vectors calls (got {got})")


def check_report_bytes(tracer, tmp):
    scenario = os.path.join(tmp, "linear.ini")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write("[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\n")
    commands = {
        "suite": ["suite", "--seed-count", "2", "--out"],
        "check": ["check", scenario, "--out"],
    }
    for name, argv in commands.items():
        plain, traced_out = os.path.join(tmp, f"{name}.plain"), os.path.join(tmp, f"{name}.traced")
        with contextlib.redirect_stdout(io.StringIO()):
            reduction_lab.cli.main(argv + [plain])
            traced(tracer, lambda: reduction_lab.cli.main(argv + [traced_out]))
        with open(plain, "rb") as a, open(traced_out, "rb") as b:
            expect(a.read() == b.read(), f"{name} report identical with tracing on and off")


def check_reference_figures(tracer):
    grid = reduction_lab.Grid1D(160, 1.0, "neumann")
    M = reduction_lab.laplacian_1d(grid) + np.diag(np.random.default_rng(0).uniform(0.0, 1.0, 160))
    data = traced(tracer, lambda: reduction_lab.spectral_bound(M))
    error = abs(data.spb - float(np.max(scipy.linalg.eigvals(M).real)))
    q = (M @ data.v) / data.v
    width = float(q.max() - q.min())
    expect(f"{error:.1e}" == "7.3e-09", f"Neumann n=160 error against LAPACK {error:.3g} (on record: 7.3e-9)")
    expect(f"{width:.1e}" == "3.3e-03", f"Neumann n=160 Collatz-Wielandt width {width:.3g} (on record: 3.3e-3)")
    digits, rel_width = tracer.accuracy()
    norm = float(np.max(np.abs(M).sum(axis=1)))
    expect(
        np.isclose(digits, -np.log10(error / norm)) and np.isclose(rel_width, width / norm),
        f"tracer accuracy agrees: {digits:.3f} digits, relative width {rel_width:.3g}",
    )


def main():
    tracer = tracing.Tracer("reduction_lab")
    check_installation(tracer)
    check_battery_counts(tracer)
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        check_report_bytes(tracer, tmp)
    check_reference_figures(tracer)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
