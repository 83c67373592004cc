"""Each mandatory line can fail: a fault of 10x its tolerance in the quantity it reads fails it, and a
fault of 0.1x leaves it passing.

Every fault is injected with monkeypatch into the name the certifier calls in `checks`, on the golden
Neumann Laplacian, whose operator solves take the tridiagonal path.
"""

import dataclasses

import numpy as np
import pytest

from reduction_lab import checks
from reduction_lab.checks import RESOLVENT_POSITIVITY_TOL, scale_of
from reduction_lab.scenario import parse_scenario
from test_golden import GOLDEN

FAULTS = [(10.0, False), (0.1, True)]  # (multiple of the line's tolerance, whether the line passes)


def _laplacian_lines(grid=np.linspace(0.5, 2.0, 4)):
    """The operator `check` lines of the golden Neumann Laplacian, by name."""
    F = parse_scenario(str(GOLDEN / "laplacian.ini")).family
    return {line.name: line for line in checks.operator_family_lines(F, grid)}


def test_the_faultless_lines_pass():
    lines = _laplacian_lines()
    assert lines["resolvent_positive"].passed and lines["spb_zero"].passed


@pytest.mark.parametrize(("multiple", "passes"), FAULTS)
def test_resolvent_positive_reads_each_entry(monkeypatch, multiple, passes):
    # one entry of each resolvent the line probes lies below zero by the multiple of its tolerance
    resolvent = checks.resolvent

    def faulty(M, xi):
        R = resolvent(M, xi)
        R[0, -1] = -multiple * RESOLVENT_POSITIVITY_TOL * scale_of(R)
        return R

    monkeypatch.setattr(checks, "resolvent", faulty)
    assert _laplacian_lines()["resolvent_positive"].passed is passes


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize(("multiple", "passes"), FAULTS)
def test_spb_zero_reads_the_operators_spb(monkeypatch, multiple, passes, sign):
    # the operator's rows sum to exactly 0, so spb = 0 within 1e-10 of its scale; its solve is moved
    # off 0 by the multiple of that tolerance
    A = parse_scenario(str(GOLDEN / "laplacian.ini")).family.matrix_at(1.0)
    delta = sign * multiple * 1e-10 * scale_of(A)
    spectral_bound = checks.spectral_bound

    def faulty(M, start=None):
        data = spectral_bound(M, start)
        return dataclasses.replace(data, spb=data.spb + delta) if np.array_equal(M, A) else data

    monkeypatch.setattr(checks, "spectral_bound", faulty)
    assert _laplacian_lines()["spb_zero"].passed is passes
