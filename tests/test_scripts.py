"""Smoke runs of the demo scripts, which exercise the public API end to end."""

import argparse
import importlib.util
import os
import re
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


def test_output_digest_repeats():
    # the same tree gives the same digests; a traced pass writes the bytes of an untraced one
    args = [ROOT / "scripts" / "output_digest.py", "--workloads", "operators", "--seeds", "0", "--suite", "0"]
    runs = [_run(*args) for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    untraced, traced = [line.split() for line in runs[0].stdout.splitlines()]
    assert untraced[:3] == ["operators", "0", "untraced"] and traced[:3] == ["operators", "0", "traced"]
    assert re.fullmatch("[0-9a-f]{64}", untraced[3]) and untraced[3] == traced[3]


def test_output_digest_verdicts_list_exit_codes_and_words_without_margins():
    # one exit line per operation, then a name and its pass/fail word per report line, the suite's too
    args = [ROOT / "scripts" / "output_digest.py", "--verdicts", "--workloads", "operators", "--seeds", "0"]
    run = _run(*args, "--suite", "2")
    assert run.returncode == 0, run.stderr
    lines = [line.split() for line in run.stdout.splitlines()]
    exits = [line for line in lines if line[3] == "exit"]
    reports = [line for line in lines if line[0] == "operators" and line[3] != "exit"]
    suite = [line for line in lines if line[0] == "suite"]
    assert len(exits) >= 10 and all(line[:2] == ["operators", "0"] and len(line) == 5 for line in exits)
    assert {line[4] for line in exits} <= {"0", "1"}
    assert reports and suite and len(exits) + len(reports) + len(suite) == len(lines)
    assert all(len(line) == 5 and line[4] in ("pass", "fail") for line in reports)
    assert all(line[:2] == ["suite", "2"] and len(line) == 4 and line[3] in ("pass", "fail") for line in suite)


def test_readme_quickstart_runs_as_printed(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert printed[:2] == ["True", "True"]
    assert abs(float(printed[2]) - (-1.0 + 1.0 / 2.0**0.5)) <= 1e-9


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


def test_regen_goldens_names_a_flip_instead_of_a_zero_change(regen):
    flip = ("monotone_reduction,fail,0,m=1.08;d=0.245", "monotone_reduction,pass,0,m=1.08;d=0.245")
    moved = ("convexity_m,pass,1e-3,m=1", "convexity_m,pass,2e-3,m=1")
    named = "flipped monotone_reduction: fail -> pass"
    assert regen.change_summary([flip]) == [named]  # not `largest relative change 0 ()`
    largest = "largest relative change 0.5 (convexity_m: 1e-3 -> 2e-3)"
    assert regen.change_summary([flip, moved]) == [named, largest]
    assert regen.change_summary([moved]) == [largest]


def test_regen_goldens_names_the_ini_relative_to_the_repository(regen, monkeypatch, tmp_path):
    ini = regen.GOLDEN / "linear.ini"
    monkeypatch.setattr(regen, "commands", lambda: iter([(["check", str(ini)], "linear.check", None)]))
    # a named flip that does not happen: the committed lines, so flipped, imply exit code 1
    _, problems = regen.regenerate(tmp_path, {("linear.check", "kirkland")})
    assert problems[0] == "check tests/golden/linear.ini: exit code 0, committed files imply 1"
    assert problems[1].startswith("linear.check:8: 'kirkland,pass,")


def test_battery_failures_prints_the_failing_lines():
    run = _run(ROOT / "scripts" / "battery_failures.py", "--seeds", "1039-1040")
    assert run.returncode == 0, run.stderr
    assert [line.split(",")[:2] for line in run.stdout.splitlines()] == [["s1040.karlin_monotonicity", "fail"]]
    assert run.stderr == "1 failing lines over seeds 1039-1040\n"
    assert _run(ROOT / "scripts" / "battery_failures.py", "--seeds", "5-4").returncode == 2
