"""Smoke runs of the demo scripts, which exercise the public API end to end."""

import argparse
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, args)], env=env, capture_output=True, text=True, timeout=120)


def test_fixture_curves(tmp_path):
    run = _run(ROOT / "scripts" / "fixture_curves.py", "--points", 5, "--out-dir", tmp_path)
    assert run.returncode == 0, run.stderr
    assert "convex: True" in run.stdout
    rows = (tmp_path / "mixing_family.csv").read_text().splitlines()
    assert rows[0] == "m,spb,closed_form,analytic_derivative" and len(rows) == 6
    for row in rows[1:]:
        _, spb, closed, _ = (float(x) for x in row.split(","))
        assert abs(spb - closed) <= 1e-12
    assert len((tmp_path / "dispersal_family.csv").read_text().splitlines()) == 6


def test_mixing_reduction_1d():
    run = _run(ROOT / "scripts" / "mixing_reduction_1d.py", "--n", 8, "--points", 3)
    assert run.returncode == 0, run.stderr
    assert "reduction check: pass" in run.stdout


@pytest.fixture
def regen():
    spec = importlib.util.spec_from_file_location("regen_goldens", ROOT / "scripts" / "regen_goldens.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_regen_goldens_measures_the_largest_relative_change(regen):
    pairs = [("s001.spb,pass,margin=1.0e-3,x=2", "s001.spb,pass,margin=1.1e-3,x=2"), ("a,-0,4", "a,0,4.000000004")]
    assert regen.largest_relative_change(pairs) == (pytest.approx(1.0 / 11.0, rel=1e-12), "s001.spb: 1.0e-3 -> 1.1e-3")
    assert regen.largest_relative_change(pairs[1:]) == (pytest.approx(1e-9, rel=1e-6), "a: 4 -> 4.000000004")
    assert regen.largest_relative_change([("a,1,2", "a,1")]) == (float("inf"), "a: 2 -> 1 numbers")


def test_regen_goldens_lets_a_threshold_root_move_but_not_its_error_name(regen):
    assert regen.line_key("1.9719712637306657") == regen.line_key("1.9719712633846849")
    assert regen.line_key("1.9719712637306657") != regen.line_key("NoSignChange")
    assert regen.line_key("0.2,-0.5") != regen.line_key("0.3,-0.5")  # a curve row keeps its parameter


def test_regen_goldens_accepts_only_named_flips(regen):
    old = ["convexity_m,pass,1e-3,m=1", "monotone_reduction,fail,0,m=1;d=2"]
    new = ["convexity_m,pass,2e-3,m=1", "monotone_reduction,pass,0,m=1;d=2"]
    named = {("x.check", "monotone_reduction")}
    assert regen.key_differences("x.check", old, new, named) == []
    refused = [f"x.check:2: {old[1]!r} -> {new[1]!r}"]
    assert regen.key_differences("x.check", old, new, set()) == refused  # unnamed
    assert regen.key_differences("x.check", old, new, {("y.check", "monotone_reduction")}) == refused
    assert regen.key_differences("y.check", old, new, named) == [f"y.check:2: {old[1]!r} -> {new[1]!r}"]
    # a named flip does not let another line flip, and a named flip that does not happen is refused
    other = ["convexity_m,fail,2e-3,m=1", new[1]]
    assert regen.key_differences("x.check", old, other, named) == [f"x.check:1: {old[0]!r} -> {other[0]!r}"]
    assert regen.key_differences("x.check", old, old, named) == [f"x.check:2: {old[1]!r} -> {old[1]!r}"]
    # the exit code a report must have follows its named flips alone
    assert [regen.expected_key("x.check", line, named)[2] for line in old] == ["pass", "pass"]
    assert [regen.expected_key("x.check", line, set())[2] for line in old] == ["pass", "fail"]


def test_regen_goldens_refuses_a_flip_argument_naming_no_golden_file(regen):
    assert regen.flip_arg("linear.check:kirkland") == ("linear.check", "kirkland")
    for text in ["nosuch.check:monotone_reduction", "linear.check", "linear.check:"]:
        with pytest.raises(argparse.ArgumentTypeError):
            regen.flip_arg(text)


def test_battery_failures_prints_the_failing_lines():
    run = _run(ROOT / "scripts" / "battery_failures.py", "--seeds", "1039-1040")
    assert run.returncode == 0, run.stderr
    assert [line.split(",")[:2] for line in run.stdout.splitlines()] == [["s1040.karlin_monotonicity", "fail"]]
    assert run.stderr == "1 failing lines over seeds 1039-1040\n"
    assert _run(ROOT / "scripts" / "battery_failures.py", "--seeds", "5-4").returncode == 2
