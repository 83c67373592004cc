"""Verdicts do not depend on the units of the entries.

Every matrix a certifier reads is scaled by s, for each golden scenario's `check`
builder and for battery seeds 0-4. spb(sM) = s*spb(M), so every line must keep its
pass/fail and `verdict=` words and report only finite numbers. Under s = 2^k the
solver, the oracle and expm at the probe times are exact in s, so a margin in the
units of the entries is 2^k times its s = 1 value bit for bit, and a margin of a
sign claim on e^{tM} or the resolvent is unchanged. Claims on logs are dimensionless
and only keep their words.
"""

import math

import numpy as np
import pytest

from reduction_lab import battery
from reduction_lab.checks import FAMILY_KINDS
from reduction_lab.gallery import KarlinFamily, KingmanFamily, LinearFamily, random_ess_nonneg
from reduction_lab.scenario import parse_scenario
from test_golden import GOLDEN

DECIMAL = [-10, -8, -4, 4, 8, 10]
BINARY = [-600, -60, 60, 600]
UNCHANGED = {"semigroup_positivity", "semigroup_counterexample", "resolvent_positive"}
LOGS = {"kingman_superconvexity", "kingman_logconvexity", "log_affine_entries"}


def _scaled(F, s):
    if isinstance(F, KarlinFamily):
        return KarlinFamily(F.P, s * F.D)
    if isinstance(F, KingmanFamily):
        return KingmanFamily(s * F.c, F.g)
    return LinearFamily(s * F.A, s * F.V)


def _words(line):
    return line.name, line.passed, line.witness.get("verdict")


def _numbers(line):
    return [line.margin] + [v for v in line.witness.values() if not isinstance(v, str)]


def _assert_scale_free(run):
    base = run(1.0)
    assert all(math.isfinite(x) for line in base for x in _numbers(line))
    for s, k in [(10.0**k, None) for k in DECIMAL] + [(math.ldexp(1.0, k), k) for k in BINARY]:
        lines = run(s)
        assert [_words(line) for line in lines] == [_words(line) for line in base], s
        assert all(math.isfinite(x) for line in lines for x in _numbers(line)), s
        if k is None:
            continue
        for line, ref in zip(lines, base):
            name = line.name.split(".")[-1]
            if name in UNCHANGED:
                assert line.margin == ref.margin, (k, line.name)
            elif name not in LOGS:
                assert line.margin == math.ldexp(ref.margin, k), (k, line.name, line.margin, ref.margin)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.ini")))
def test_check_report_words_do_not_depend_on_units(name):
    sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
    builder, grids = FAMILY_KINDS[sc.family_kind]
    grid_values = [sc.grid_for(g) for g in grids]
    _assert_scale_free(lambda s: builder(_scaled(sc.family, s), *grid_values))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(5))
def test_battery_words_do_not_depend_on_units(monkeypatch, seed):
    def run(s):
        # A and G, V, both Karlin D and Kingman's c; P stays stochastic and g is a rate in theta
        monkeypatch.setattr(battery, "random_ess_nonneg", lambda n, seed: s * random_ess_nonneg(n, seed))
        monkeypatch.setattr(battery, "LinearFamily", lambda A, V: LinearFamily(A, s * V))
        monkeypatch.setattr(battery, "KarlinFamily", lambda P, D: KarlinFamily(P, s * D))
        monkeypatch.setattr(battery, "KingmanFamily", lambda c, g: KingmanFamily(s * c, g))
        return battery.seed_battery(seed)

    _assert_scale_free(run)
