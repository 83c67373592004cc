"""The names and call counts the benchmark's tracer relies on.

`bench/selftest.py` checks that every traced function is wrapped in each
`reduction_lab` namespace that binds it, and that one battery seed makes 77
`spectral_bound` calls and 1 `perron_vectors` call. Running those two checks
here makes a refactor that renames a traced function or moves a solve fail
the test suite, not only the benchmark.
"""

import importlib.util
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


@pytest.fixture
def selftest(monkeypatch):
    # selftest puts bench/ and ./src on sys.path when imported; monkeypatch restores it
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("bench_selftest", os.path.join(BENCH_DIR, "selftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_namespace_and_battery_counts(selftest):
    tracer = selftest.tracing.Tracer("reduction_lab")
    selftest.check_installation(tracer)
    selftest.check_battery_counts(tracer)
    assert selftest.failures == []
