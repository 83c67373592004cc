"""Byte-for-byte regression of the CLI reports against recorded golden files.

`tests/golden/<name>.ini` holds one small scenario per family kind (plus a
linear family with reducible A, whose `monotone_reduction` judges the
inequality without the dichotomy). Next to each are the recorded
`check` report (`<name>.check`) and `curve` CSV (`<name>.csv`), and for a
scenario with a `[threshold]` section its `threshold` stdout
(`<name>.threshold`); `suite20.txt`/`suite20.stdout` are the report file and
stdout line of `suite --seed-count 20`. They are the outputs of the matching CLI
commands, e.g.

    python -m reduction_lab check tests/golden/linear.ini --out tests/golden/linear.check

Regenerate them all with

    PYTHONPATH=src python scripts/regen_goldens.py

only when a change to the reported numbers is intended and explained. The
script runs every such command and writes nothing if a line's name, number of
comma-separated fields, pass/fail word or `verdict=` word, or an exit code,
would change, except the pass/fail flips named with `--flip <file>:<line name>`.
"""

import dataclasses
import json
import numbers
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from reduction_lab.battery import run_suite
from reduction_lab.checks import FAMILY_KINDS, strict_convexity_probe
from reduction_lab.cli import main
from reduction_lab.scenario import parse_scenario

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = sorted(p.stem for p in GOLDEN.glob("*.ini"))
CHECK_EXIT = {}  # scenario -> exit code of a `check` with a failing line; none fails (exit 1: test_cli)


@pytest.mark.parametrize("name", SCENARIOS)
def test_check_and_curve_match_golden(name, tmp_path):
    scenario = str(GOLDEN / f"{name}.ini")
    report = tmp_path / "report"
    assert main(["check", scenario, "--out", str(report)]) == CHECK_EXIT.get(name, 0)
    assert report.read_bytes() == (GOLDEN / f"{name}.check").read_bytes()
    curve = tmp_path / "curve.csv"
    assert main(["curve", scenario, "--out", str(curve)]) == 0
    assert curve.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.threshold")))
def test_threshold_matches_golden(name, capsys):
    assert main(["threshold", str(GOLDEN / f"{name}.ini")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.threshold").read_text(encoding="utf-8")


def test_suite_matches_golden(tmp_path, capsys):
    report = tmp_path / "suite.txt"
    assert main(["suite", "--seed-count", "20", "--out", str(report)]) == 0
    assert report.read_bytes() == (GOLDEN / "suite20.txt").read_bytes()
    assert capsys.readouterr().out == (GOLDEN / "suite20.stdout").read_text(encoding="utf-8")


def test_linear_check_ends_with_the_probe_of_its_beta_sweep():
    # `check` builds the advisory line from its own beta sweep, as strict_convexity_probe does from a fresh one
    family = parse_scenario(str(GOLDEN / "linear.ini")).family
    last = (GOLDEN / "linear.check").read_text(encoding="utf-8").splitlines()[-1]
    assert last == strict_convexity_probe(family, np.linspace(-3.0, 3.0, 21)).format()


def test_report_lines_are_data():
    # every `check` line of the golden scenarios and every `suite` line: a witness of
    # numbers (the advisory verdict is the one word), and a record that round-trips as JSON
    lines = list(run_suite(2))
    for name in SCENARIOS:
        sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
        builder, grids = FAMILY_KINDS[sc.family_kind]
        lines += builder(sc.family, *map(sc.grid_for, grids))
    for line in lines:
        assert isinstance(line.witness, dict) and line.witness, line
        for key, value in line.witness.items():
            assert isinstance(key, str)
            if key == "verdict":
                assert isinstance(value, str)
            else:
                assert isinstance(value, numbers.Real) and not isinstance(value, bool), line
        record = dataclasses.asdict(line)
        assert json.loads(json.dumps(record)) == record


def test_every_mandatory_line_is_decided_by_judge(monkeypatch):
    # lines built by checks.judge come back as Judged, and renaming keeps the class
    from reduction_lab import battery, checks

    class Judged(checks.CheckLine):
        pass

    def judge(*args):
        return Judged(**vars(real(*args)))

    real = checks.judge
    monkeypatch.setattr(checks, "judge", judge)
    monkeypatch.setattr(battery, "judge", judge)
    lines = battery.seed_battery(0)
    for name in SCENARIOS:
        sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
        builder, grids = FAMILY_KINDS[sc.family_kind]
        lines += builder(sc.family, *map(sc.grid_for, grids))
    mandatory = [line for line in lines if not line.advisory]
    assert len(mandatory) > len(SCENARIOS) and len(lines) > len(mandatory)
    assert [line.name for line in mandatory if not isinstance(line, Judged)] == []


def _family_matrix(sc, p):
    """The swept matrix of a golden scenario at parameter p, built from its definition."""
    kind, fam = sc.family_kind, sc.family
    if kind == "karlin":
        P, D = fam.P, fam.D
        return ((1.0 - p) * np.eye(P.shape[0]) + p * P) @ D
    if kind == "kingman":
        c, g = fam.c, fam.g
        return np.where(c != 0.0, c * np.exp(g * p), 0.0)
    # linear, and the operator kinds, which parse to their mixing/growth split (A, V)
    A, V = fam.A, fam.V
    return p * A + V if sc.grid_name == "m" else A + p * V


@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_curve_agrees_with_lapack(name):
    sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
    rows = np.loadtxt(GOLDEN / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
    for p, spb in rows[:, :2]:
        M = _family_matrix(sc, p)
        reference = float(np.max(scipy.linalg.eigvals(M).real))
        assert abs(spb - reference) <= 1e-13 * np.max(np.abs(M).sum(axis=1)), (p, spb, reference)


DERIVATIVE_CURVES = sorted(
    name for name in SCENARIOS if "analytic_derivative" in (GOLDEN / f"{name}.csv").read_text().splitlines()[0]
)


@pytest.mark.parametrize("name", DERIVATIVE_CURVES)
def test_golden_derivative_agrees_with_lapack(name):
    # d spb/dp = u^T (dM/dp) v / (u^T v) at LAPACK's Perron pair
    sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
    direction = sc.family.A if sc.grid_name == "m" else sc.family.V
    rows = np.loadtxt(GOLDEN / f"{name}.csv", delimiter=",", skiprows=1, ndmin=2)
    for p, _, d in rows:
        w, vl, vr = scipy.linalg.eig(_family_matrix(sc, p), left=True, right=True)
        k = np.argmax(w.real)
        u, v = vl[:, k].real, vr[:, k].real
        reference = float(u @ (direction @ v)) / float(u @ v)
        assert abs(d - reference) <= 1e-12 * max(1.0, abs(d)), (p, d, reference)
