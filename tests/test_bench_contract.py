"""What the benchmark relies on: traced names, call counts and LAPACK agreement.

`bench/selftest.py` checks that every traced function is wrapped in each
`reduction_lab` namespace that binds it, and that one battery seed makes 77
`spectral_bound` calls and 1 `perron_vectors` call. Running those two checks
here makes a refactor that renames a traced function or moves a solve fail
the test suite, not only the benchmark. One pass each of the `sweeps` and
`operators` workloads, judged by `bench/verify.py` against LAPACK, does the
same for a solver error.
"""

import importlib.util
import json
import os
import sys

import pytest

import reduction_lab
import reduction_lab.cli

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_bench(monkeypatch, name):
    # bench scripts put bench/ (and selftest ./src) on sys.path when imported; monkeypatch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH_DIR, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def selftest(monkeypatch):
    return _load_bench(monkeypatch, "selftest")


def test_tracer_wraps_every_namespace_and_battery_counts(selftest):
    tracer = selftest.tracing.Tracer("reduction_lab")
    selftest.check_installation(tracer)
    selftest.check_battery_counts(tracer)
    assert selftest.failures == []


def _pass_errors(monkeypatch, tmp_path, workload):
    """(exceptions raised, bench/verify.check_outputs findings) of one pass of `workload` at seed 1."""
    inputs = _load_bench(monkeypatch, "inputs")
    run = _load_bench(monkeypatch, "run")
    work = str(tmp_path)
    inputs.write_inputs(workload, 1, work)
    with open(os.path.join(work, "manifest.json"), encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    _, _, _, outputs = run.run_pass(reduction_lab, ops, work)
    errors = [error for _rc, _out, _err, error, _data in outputs if error is not None]
    return errors, run.verify.check_outputs(ops, outputs, work)


def test_sweeps_pass_agrees_with_lapack(monkeypatch, tmp_path):
    assert _pass_errors(monkeypatch, tmp_path, "sweeps") == ([], [])


def test_operators_pass_agrees_with_lapack(monkeypatch, tmp_path):
    # the elliptic Dirichlet and Neumann operators and the Neumann Laplacian take the tridiagonal solve
    assert _pass_errors(monkeypatch, tmp_path, "operators") == ([], [])
