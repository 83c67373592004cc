import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import reduction_lab
from reduction_lab import KingmanFamily, perron, random_diagonal, random_ess_nonneg, save_matrix
from reduction_lab.checks import kingman_family_lines
from reduction_lab.cli import main
from reduction_lab.scenario import parse_scenario

SRC = Path(reduction_lab.__file__).resolve().parents[1]
MATRIX_SYM = "2\n-1 1\n1 -1\n"

KARLIN_SCENARIO = """
[family]
kind = karlin
P = 0 1 ; 1 0
D_diag = 2 0.5

[grid]
name = alpha
start = 0
stop = 1
count = 3
"""

LINEAR_SCENARIO = """
[family]
kind = linear
A = -1 1 ; 1 -1
V_diag = 1 -1

[grid]
name = m
start = 0.5
stop = 2.5
count = 5
"""

THRESHOLD_SCENARIO = """
[family]
kind = linear
A = -1 1 ; 1 -1
V_diag = 1 -2

[threshold]
m_lo = 0.1
m_hi = 10
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_spb_prints_bound_and_vectors(tmp_path, capsys):
    path = write(tmp_path, "m.txt", MATRIX_SYM)
    assert main(["spb", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert abs(float(out[0].split()[1])) <= 1e-10
    assert out[1].startswith("u ") and out[2].startswith("v ")
    np.testing.assert_allclose([float(x) for x in out[2].split()[1:]], [0.5, 0.5], atol=1e-12)


def test_spb_reducible_omits_vectors(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "2\n-1 0\n0 -2\n")
    assert main(["spb", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert abs(float(out[0].split()[1]) + 1.0) <= 1e-12


def test_spb_missing_file_is_io_error(tmp_path):
    assert main(["spb", str(tmp_path / "absent.txt")]) == 2


def test_spb_non_metzler_is_numerical_error(tmp_path, capsys):
    path = write(tmp_path, "m.txt", "2\n0 -1\n1 0\n")
    assert main(["spb", path]) == 3
    assert "NotEssentiallyNonnegative" in capsys.readouterr().err


def test_spb_near_the_underflow_range_exits_0_under_warnings_as_errors(tmp_path):
    # a fresh interpreter, so that -W error::RuntimeWarning governs every step of the solve
    path = tmp_path / "m.txt"
    save_matrix(path, 1e-295 * random_ess_nonneg(3, 3))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    command = [sys.executable, "-W", "error::RuntimeWarning", "-m", "reduction_lab", "spb", str(path)]
    run = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("spb ")


def test_no_convergence_reports_residual_and_iterations(tmp_path, capsys, monkeypatch):
    # any bracket is too wide under a negative tolerance
    monkeypatch.setattr(perron, "WIDTH_TOL", -1.0)
    scn = write(tmp_path, "l.scn", LINEAR_SCENARIO)
    report = tmp_path / "r.txt"
    assert main(["check", scn, "--out", str(report)]) == 3
    assert not report.exists()
    err = capsys.readouterr().err
    assert re.fullmatch(r"NoConvergence: .* \(residual=\S+, iterations=\d+\)\n", err), err


def test_curve_karlin_fixture(tmp_path):
    scn = write(tmp_path, "k.scn", KARLIN_SCENARIO)
    out = tmp_path / "curve.csv"
    assert main(["curve", scn, "--out", str(out)]) == 0
    raw = out.read_bytes().decode()
    assert "\r" not in raw
    lines = raw.strip().split("\n")
    assert lines[0] == "param,spb"
    values = [float(row.split(",")[1]) for row in lines[1:]]
    np.testing.assert_allclose(values, [2.0, 1.25, 1.0], atol=1e-10)


def test_curve_linear_family_has_derivative_column(tmp_path):
    scn = write(tmp_path, "l.scn", LINEAR_SCENARIO)
    out = tmp_path / "curve.csv"
    assert main(["curve", scn, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "param,spb,analytic_derivative"
    for row in lines[1:]:
        m, spb, deriv = (float(x) for x in row.split(","))
        assert abs(spb - (-m + np.sqrt(m * m + 1.0))) <= 1e-10
        assert abs(deriv - (-1.0 + m / np.sqrt(m * m + 1.0))) <= 1e-6


@pytest.mark.parametrize("seed", range(3))
def test_curve_beta_derivative_column_is_u_v_v(tmp_path, seed):
    # d spb(A + beta*V)/d beta = u^T V v/(u^T v) at the Perron pair of A + beta*V, from LAPACK
    from scipy.linalg import eig

    n = 3 + seed
    A, V = random_ess_nonneg(n, 40 + seed), random_diagonal(n, -2.0, 2.0, 50 + seed)
    save_matrix(tmp_path / "a.txt", A)
    save_matrix(tmp_path / "v.txt", V)
    grid = "[grid]\nname = beta\nstart = -2\nstop = 2\ncount = 9\n"
    scn = write(tmp_path, "b.scn", f"[family]\nkind = linear\nA_file = a.txt\nV_file = v.txt\n{grid}")
    out = tmp_path / "curve.csv"
    assert main(["curve", scn, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "param,spb,analytic_derivative"
    for row in lines[1:]:
        beta, _, deriv = (float(x) for x in row.split(","))
        w, vl, vr = eig(A + beta * V, left=True, right=True)
        k = int(np.argmax(w.real))
        u, v = vl[:, k].real, vr[:, k].real
        expected = float(u @ V @ v) / float(u @ v)
        assert abs(deriv - expected) <= 1e-12 * max(1.0, abs(expected)), (beta, deriv, expected)


def test_curve_operator_scenario(tmp_path):
    scn = write(
        tmp_path,
        "lap.scn",
        """
[family]
kind = laplacian

[operator]
n = 8
length = 1
boundary = dirichlet

[grid]
name = m
start = 0.5
stop = 2
count = 4
""",
    )
    out = tmp_path / "curve.csv"
    assert main(["curve", scn, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "param,spb,analytic_derivative"
    values = [float(r.split(",")[1]) for r in lines[1:]]
    # spb(m L) scales linearly in m and is negative for absorbing boundaries
    assert all(v < 0 for v in values)
    assert abs(values[-1] - 4.0 * values[0]) <= 1e-8 * abs(values[0])


@pytest.mark.parametrize(
    "operator",
    [
        "kind = elliptic\n[operator]\nn = 12\nb = linear:1,-0.5\nc = gaussian:0.1",
        "kind = nonlocal\n[operator]\nn = 12\nboundary = periodic\nkernel = gaussian:0.2\nb = gaussian:0.15",
    ],
    ids=["elliptic", "nonlocal"],
)
def test_operator_curve_sweeps_its_linear_split(tmp_path, operator):
    # an operator kind parses to LinearFamily(A, V), and curve sweeps m*A + V as for a linear family
    grid = "[grid]\nname = m\nstart = 0.5\nstop = 2\ncount = 4\n"
    op = write(tmp_path, "op.scn", f"[family]\n{operator}\n{grid}")
    fam = parse_scenario(op).family
    save_matrix(tmp_path / "A.txt", fam.A)
    save_matrix(tmp_path / "V.txt", fam.V)
    lin = write(tmp_path, "lin.scn", f"[family]\nkind = linear\nA_file = A.txt\nV_file = V.txt\n{grid}")
    assert main(["curve", op, "--out", str(tmp_path / "op.csv")]) == 0
    assert main(["curve", lin, "--out", str(tmp_path / "lin.csv")]) == 0
    assert (tmp_path / "op.csv").read_bytes() == (tmp_path / "lin.csv").read_bytes()


def test_curve_requires_grid(tmp_path):
    scn = write(tmp_path, "l.scn", "[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\n")
    assert main(["curve", scn, "--out", str(tmp_path / "c.csv")]) == 2


def test_curve_byte_identical_across_runs(tmp_path):
    scn = write(tmp_path, "l.scn", LINEAR_SCENARIO)
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    assert main(["curve", scn, "--out", str(out1)]) == 0
    assert main(["curve", scn, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_threshold_fixture(tmp_path, capsys):
    scn = write(tmp_path, "t.scn", THRESHOLD_SCENARIO)
    assert main(["threshold", scn]) == 0
    assert abs(float(capsys.readouterr().out.strip()) - 2.0) <= 1e-8


def test_threshold_no_sign_change_prints_error_name(tmp_path, capsys):
    scn = write(
        tmp_path,
        "t.scn",
        THRESHOLD_SCENARIO.replace("V_diag = 1 -2", "V_diag = 1 -1"),
    )
    assert main(["threshold", scn]) == 3
    assert capsys.readouterr().out.strip() == "NoSignChange"


def test_threshold_prints_the_same_root_when_the_family_is_scaled_by_a_power_of_two(tmp_path, capsys):
    from test_checks import falling_family

    for seed, n in enumerate(range(4, 10)):
        fam = falling_family(n, seed)
        printed = set()
        for k in (0, -600, -60, 60, 600):
            A = " ; ".join(" ".join(repr(float(x)) for x in row) for row in 2.0**k * fam.A)
            V = " ".join(repr(float(x)) for x in 2.0**k * np.diagonal(fam.V))
            text = f"[family]\nkind = linear\nA = {A}\nV_diag = {V}\n\n[threshold]\nm_lo = 0.05\nm_hi = 20\n"
            assert main(["threshold", write(tmp_path, "t.scn", text)]) == 0, (n, k)
            printed.add(capsys.readouterr().out)
        assert len(printed) == 1, (n, printed)


OPERATOR_THRESHOLD_SCENARIO = """
[family]
kind = elliptic

[operator]
n = 20
length = 1
boundary = neumann
c = linear:1,-0.75

[threshold]
m_lo = 0.001
m_hi = 1
"""

KINGMAN_SCENARIO = """
[family]
kind = kingman
c = 1 1 ; 1 1
g = 0 1 ; 1 0
"""


def test_threshold_on_an_operator_kind(tmp_path, capsys):
    # A is the Neumann Laplacian (zero row sums, spb 0) and V = diag(x - 0.75) on [0, 1],
    # so spb(m*A + V) falls from near max V > 0 at small m to near mean V < 0 at large m
    scn = write(tmp_path, "t.scn", OPERATOR_THRESHOLD_SCENARIO)
    assert main(["threshold", scn]) == 0
    m_star = float(capsys.readouterr().out)
    F = parse_scenario(scn).family

    def spb(m):
        return float(np.max(np.linalg.eigvals(F.matrix_at(m)).real))

    assert 0.001 < m_star < 1 and abs(spb(m_star)) <= 1e-9
    assert spb(0.99 * m_star) > 0.0 > spb(1.01 * m_star)


@pytest.mark.parametrize("family", [KARLIN_SCENARIO, KINGMAN_SCENARIO], ids=["karlin", "kingman"])
def test_threshold_needs_a_linear_split(tmp_path, capsys, family):
    scn = write(tmp_path, "t.scn", family + "\n[threshold]\nm_lo = 0.1\nm_hi = 10\n")
    assert main(["threshold", scn]) == 2
    assert capsys.readouterr().err == f"ParseError: {scn}: threshold needs a linear family\n"


def test_check_linear_scenario(tmp_path):
    scn = write(tmp_path, "l.scn", LINEAR_SCENARIO)
    out = tmp_path / "report.txt"
    assert main(["check", scn, "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    names = [row.split(",")[0] for row in lines]
    assert "convexity_beta" in names and "monotone_reduction" in names and "lindqvist" in names
    for row in lines:
        name, status, margin, witness = row.split(",", 3)
        assert status in ("pass", "fail")
        float(margin)


def test_check_karlin_scenario(tmp_path):
    scn = write(tmp_path, "k.scn", KARLIN_SCENARIO)
    out = tmp_path / "report.txt"
    assert main(["check", scn, "--out", str(out)]) == 0
    names = [row.split(",")[0] for row in out.read_text().strip().split("\n")]
    assert names[0] == "karlin_monotonicity"
    assert "left_null_identity" in names and "karlin_consistency" in names


@pytest.mark.parametrize(
    "kind, boundary", [("laplacian", "dirichlet"), ("laplacian", "neumann"), ("laplacian", "periodic"), ("elliptic", "neumann")]
)
def test_check_operator_scenario(tmp_path, kind, boundary):
    scn = write(
        tmp_path,
        "op.scn",
        f"""
[family]
kind = {kind}

[operator]
n = 12
length = 1
boundary = {boundary}
""",
    )
    out = tmp_path / "report.txt"
    assert main(["check", scn, "--out", str(out)]) == 0
    text = out.read_text()
    # with default coefficients every operator here is the Laplacian; its Neumann and
    # periodic boundary rows give zero row sums, so spb = 0
    zero_rows = boundary != "dirichlet"
    assert [l.startswith("spb_zero,") for l in text.splitlines()].count(True) == int(zero_rows)
    if zero_rows:
        assert "spb_zero,pass" in text
    assert "essential_nonnegativity,pass" in text
    assert "growth_bound,pass" in text


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
def test_default_elliptic_check_matches_laplacian(tmp_path, boundary):
    # a = 1, b = 0, c = 0 discretize to the Laplacian bit for bit, so the reports agree byte for byte
    reports = []
    for kind in ("laplacian", "elliptic"):
        scn = write(tmp_path, f"{kind}.scn", f"[family]\nkind = {kind}\n[operator]\nn = 12\nboundary = {boundary}\n")
        out = tmp_path / f"{kind}.txt"
        assert main(["check", scn, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert b"\nspb_zero,pass," in reports[0]


@pytest.mark.parametrize("command", ["check", "curve"])
def test_overflowing_kingman_entry_exits_3(tmp_path, capsys, command):
    # exp(1000*0.8) overflows double precision
    scn = write(
        tmp_path,
        "k.scn",
        "[family]\nkind = kingman\nc = 1 1 ; 1 1\ng = 1000 0 ; 0 0\n[grid]\nname = theta\nstart = 0.7\nstop = 0.9\ncount = 3\n",
    )
    assert main([command, scn, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("OverflowRisk: ") and "theta = 0.8" in err
    assert not (tmp_path / "out").exists()


# the first point where m*A overflows: 1.815*1e308 on the default m grid of check and on
# the curve's grid, and 25.0075*1e307 on the 9-point pre-sweep of [0.01, 100]
OVERFLOWING_LINEAR = {
    "check": ("1e308", "[grid]\nname = m\nstart = 0.1\nstop = 5\ncount = 21\n", "1.8150000000000002"),
    "curve": ("1e308", "[grid]\nname = m\nstart = 0.1\nstop = 5\ncount = 21\n", "1.8150000000000002"),
    "threshold": ("1e307", "[threshold]\nm_lo = 0.01\nm_hi = 100\n", "25.0075"),
}


@pytest.mark.parametrize("command", ["check", "curve", "threshold"])
def test_overflowing_linear_member_exits_3(tmp_path, capsys, command):
    entry, section, point = OVERFLOWING_LINEAR[command]
    family = f"[family]\nkind = linear\nA = -{entry} {entry} ; {entry} -{entry}\nV_diag = 1 -1\n"
    scn = write(tmp_path, "l.scn", family + section)
    assert main(_argv(command, scn, tmp_path / "out")) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("OverflowRisk: ") and captured.err.endswith(f" at m = {point}, beta = 1.0\n")
    assert captured.err.count(point) == 1  # named once, by LinearFamily.matrices_at
    assert captured.out == "" and not (tmp_path / "out").exists()


def test_overflowing_homogeneity_scaling_exits_3(tmp_path, capsys):
    # every member of the m grid is finite, but 10*M at the probe m = 2.55 is not
    scn = write(tmp_path, "l.scn", "[family]\nkind = linear\nA = -1e307 1e307 ; 1e307 -1e307\nV_diag = 1 -1\n")
    assert main(["check", scn, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("OverflowRisk: ") and "alpha = 10.0, m = 2.5500000000000003" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["check", "curve"])
def test_kingman_zero_coefficient_with_overflowing_rate_exits_0(tmp_path, command):
    # c_02 = 0, so exp(1000*theta) is never taken and every grid point is solved
    scn = write(
        tmp_path,
        "k.scn",
        "[family]\nkind = kingman\nc = 1 0.5 0 ; 0.5 1 0.5 ; 0 0.5 1\ng = 0 0.3 1000 ; 0.3 0 0.3 ; 0 0.3 0\n"
        "[grid]\nname = theta\nstart = 0\nstop = 0.8\ncount = 5\n",
    )
    out = tmp_path / "out"
    assert main([command, scn, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    if command == "curve":
        assert len(lines) == 6 and lines[-1].startswith("0.80000000000000004,")
    else:
        assert [l.split(",")[:2] for l in lines] == [["kingman_superconvexity", "pass"], ["log_affine_entries", "pass"]]


@pytest.mark.parametrize("length", ["inf", "1e200"])
@pytest.mark.parametrize("command", ["check", "curve"])
def test_operator_length_without_finite_spacing_is_rejected(tmp_path, capsys, length, command):
    # 1/h^2 is 0 at these lengths, which would make the Laplacian the zero matrix
    scn = write(
        tmp_path, "op.scn", f"[family]\nkind = laplacian\n[operator]\nn = 8\nlength = {length}\n[grid]\nname = m\nstart = 0.5\nstop = 2\ncount = 3\n"
    )
    assert main([command, scn, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"InvariantViolation: {scn}: grid length ")
    assert not (tmp_path / "out").exists()


def test_check_failure_sets_exit_code(tmp_path, monkeypatch):
    # scalar V makes the beta curve affine; a zero tolerance then trips on
    # solver noise, exercising the check-failure exit path
    monkeypatch.setattr("reduction_lab.checks.CHECK_TOL", 0.0)
    scn = write(tmp_path, "flat.scn", "[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 1\n")
    assert main(["check", scn, "--out", str(tmp_path / "r.txt")]) == 1
    assert (tmp_path / "r.txt").read_text().startswith("convexity_beta,fail,")


def test_nan_tolerance_is_parse_error(tmp_path, capsys):
    # tolerances are constants of the library, so a scenario cannot set one
    scn = write(tmp_path, "nan.scn", "[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\n[tolerances]\nconvexity_m = nan\n")
    assert main(["check", scn, "--out", str(tmp_path / "r.txt")]) == 2
    assert "ParseError" in capsys.readouterr().err
    assert not (tmp_path / "r.txt").exists()


def test_check_derivative_probe_near_zero_m(tmp_path):
    # the probe sits at m = 1.05e-6, where the default step 1e-5 would reach m - h < 0
    scn = write(tmp_path, "small.scn", LINEAR_SCENARIO.replace("start = 0.5\nstop = 2.5", "start = 1e-7\nstop = 2e-6"))
    out = tmp_path / "r.txt"
    assert main(["check", scn, "--out", str(out)]) == 0
    (line,) = [l for l in out.read_text().splitlines() if l.startswith("derivative_bound,")]
    fd = float(re.search(r"fd=(\S+)", line).group(1))
    m = 1.05e-6
    assert fd == pytest.approx(-1.0 + m / np.sqrt(m * m + 1.0), abs=1e-8)


UNEVEN_GRID = "[grid]\nname = beta\nstart = 1\nstop = 1.0000000000000009\ncount = 4"


@pytest.mark.parametrize(
    "command, section, problem",
    [
        ("check", "[grid]\nname = beta\nstart = 1\nstop = 1.0000000000000002\ncount = 5", "repeat a value in double precision"),
        ("curve", "[grid]\nname = beta\nstart = 1\nstop = 1.0000000000000002\ncount = 5", "repeat a value in double precision"),
        ("threshold", "[threshold]\nm_lo = 1\nm_hi = 1.0000000000000002", "repeat a value in double precision"),
        ("check", UNEVEN_GRID, "are unevenly spaced"),
        ("curve", UNEVEN_GRID, "are unevenly spaced"),
    ],
    ids=["check", "curve", "threshold", "check-uneven", "curve-uneven"],
)
def test_repeating_grid_points_are_a_parse_error(tmp_path, capsys, command, section, problem):
    # 5 (grid) or 9 (threshold pre-sweep) points between adjacent doubles must repeat;
    # 4 points across 3 ulp round to steps of 1, 2 and 1 ulp
    scn = write(tmp_path, "dup.scn", f"[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\n{section}\n")
    assert main(_argv(command, scn, tmp_path / "out")) == 2
    assert re.fullmatch(rf"ParseError: {re.escape(scn)}: \d points from .* {problem}\n", capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, section, problem",
    [
        ("check", "[grid]\nname = beta\nstart = -inf\nstop = 1\ncount = 5", "line 7: {}: start must be finite, got '-inf'"),
        ("curve", "[grid]\nname = beta\nstart = -1\nstop = inf\ncount = 5", "line 8: {}: stop must be finite, got 'inf'"),
        ("threshold", "[threshold]\nm_lo = nan\nm_hi = 10", "line 6: {}: m_lo must be finite, got 'nan'"),
        ("threshold", "[threshold]\nm_lo = 0.1\nm_hi = inf", "line 7: {}: m_hi must be finite, got 'inf'"),
    ],
    ids=["start", "stop", "m_lo", "m_hi"],
)
def test_non_finite_bounds_are_a_parse_error(tmp_path, capsys, command, section, problem):
    # linspace over an infinite bound warns and then repeats points, and a NaN fails every comparison
    scn = write(tmp_path, "inf.scn", f"[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\n{section}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_argv(command, scn, tmp_path / "out")) == 2
    assert capsys.readouterr().err == "ParseError: " + problem.format(scn) + "\n"
    assert not (tmp_path / "out").exists()


def test_check_numerical_failure_exit_code(tmp_path):
    # nilpotent entry pattern has zero spectral radius, so log(rho) blows up
    scn = write(
        tmp_path,
        "z.scn",
        """
[family]
kind = kingman
c = 0 1 ; 0 0
g = 0 0 ; 0 0
""",
    )
    assert main(["check", scn, "--out", str(tmp_path / "r.txt")]) == 3


def test_suite_deterministic_and_green(tmp_path):
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    assert main(["suite", "--seed-count", "3", "--out", str(out1)]) == 0
    assert main(["suite", "--seed-count", "3", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 3 * 16
    assert all(",pass," in row or ",fail," in row for row in lines)


@pytest.mark.parametrize("count", ["0", "-3"])
def test_suite_seed_count_below_one_is_usage_error(tmp_path, capsys, count):
    with pytest.raises(SystemExit) as exit_info:
        main(["suite", "--seed-count", count, "--out", str(tmp_path / "s.txt")])
    assert exit_info.value.code == 2
    assert "usage:" in capsys.readouterr().err
    assert not (tmp_path / "s.txt").exists()


@pytest.mark.parametrize(
    "family, grid_name",
    [("kind = karlin\nP = 0 1 ; 1 0\nD_diag = 2 0.5", "theta"), ("kind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1", "alpha")],
    ids=["karlin-theta", "linear-alpha"],
)
@pytest.mark.parametrize("command", ["check", "curve"])
def test_grid_name_outside_family_is_parse_error(tmp_path, capsys, family, grid_name, command):
    text = f"[family]\n{family}\n[grid]\nname = {grid_name}\nstart = 0\nstop = 1\ncount = 3\n"
    scn = write(tmp_path, "g.scn", text)
    assert main([command, scn, "--out", str(tmp_path / "out")]) == 2
    assert "ParseError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_kingman_log_affine_line_matches_entry_loop():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5):
        c = rng.uniform(0.2, 2.0, (n, n)) * (rng.uniform(size=(n, n)) > 0.4) + np.eye(n)
        g = rng.normal(size=(n, n))
        # uneven probes: the middle one is replaced, also when the grid is narrower than 1e-8
        for grid in (np.linspace(-1.0, 0.7, 6), np.linspace(0, 3e-9, 4)):
            probes = [grid[0], 0.5 * (grid[0] + grid[-1]), grid[-1]]
            worst = 0.0
            for i in range(n):
                for j in range(n):
                    if c[i, j] != 0.0:
                        logs = [np.log(c[i, j]) + g[i, j] * t for t in probes]
                        worst = max(worst, abs(logs[0] - 2.0 * logs[1] + logs[2]))
            (line,) = [l for l in kingman_family_lines(KingmanFamily(c, g), grid) if l.name == "log_affine_entries"]
            assert line.margin == 1e-12 - worst
            assert line.format().endswith(f",second_difference={worst:.9g}")


def test_scenario_parse_error_exit_code(tmp_path):
    scn = write(tmp_path, "bad.scn", "[family]\nkind = linear\nA = -1 1 ; 1 -1\nV_diag = 1 -1\n[grid]\nname = m\nstart = 0.1\nstop = 5\ncount = 2\n")
    assert main(["curve", scn, "--out", str(tmp_path / "c.csv")]) == 2


@pytest.mark.parametrize(
    "operator, error, code",
    [
        ("kind = elliptic\n[operator]\nn = 8\nc = constant:nan", "InvariantViolation", 2),
        ("kind = nonlocal\n[operator]\nn = 8\nkernel = constant:nan", "InvariantViolation", 2),
        ("kind = elliptic\n[operator]\nn = 8\na = linear:-1,0.5", "NonPositiveDiffusion", 3),
        ("kind = nonlocal\n[operator]\nn = 8\nkernel = constant:-1", "NegativeKernel", 3),
    ],
    ids=["elliptic-nan-growth", "nonlocal-nan-kernel", "elliptic-negative-diffusion", "nonlocal-negative-kernel"],
)
@pytest.mark.parametrize("command", ["check", "curve"])
def test_invalid_operator_fails_before_any_output(tmp_path, capsys, operator, error, code, command):
    scn = write(tmp_path, "op.scn", f"[family]\n{operator}\n[grid]\nname = m\nstart = 0.5\nstop = 2\ncount = 3\n")
    with np.errstate(divide="ignore", invalid="ignore"):
        assert main([command, scn, "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err.startswith(f"{error}: ")
    assert not (tmp_path / "out").exists()


def _argv(command, scenario, out):
    return [command, scenario] if command == "threshold" else [command, scenario, "--out", str(out)]


@pytest.mark.parametrize("command", ["check", "curve", "threshold"])
def test_underflowing_gaussian_width_is_a_parse_error(tmp_path, capsys, command):
    # 2*sigma^2 is 0 for sigma = 1e-200: the kernel would be 0/0 on its diagonal
    scn = write(tmp_path, "op.scn", "[family]\nkind = nonlocal\n[operator]\nn = 8\nkernel = gaussian:1e-200\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(_argv(command, scn, tmp_path / "out")) == 2
    err = capsys.readouterr().err
    assert err == f"ParseError: line 5: {scn}: gaussian width 1e-200 squares to 0 in double precision\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "operator",
    ["kind = nonlocal\n[operator]\nn = 8\nkernel = gaussian:1e-158", "kind = elliptic\n[operator]\nn = 8\nc = gaussian:1e-158"],
    ids=["kernel", "coefficient"],
)
def test_tiny_gaussian_width_checks_without_warnings(tmp_path, capsys, operator):
    # 2*sigma^2 is a subnormal 2e-316: the exponents overflow to -inf, and exp(-inf) = 0 is the limit
    scn = write(tmp_path, "op.scn", f"[family]\n{operator}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", scn, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "operator, error",
    [
        ("kind = elliptic\n[operator]\nn = 8\na = constant:-1", "NonPositiveDiffusion"),
        ("kind = nonlocal\n[operator]\nn = 8\nkernel = constant:-1", "NegativeKernel"),
    ],
)
@pytest.mark.parametrize("command", ["check", "curve", "threshold"])
def test_operator_errors_name_the_scenario(tmp_path, capsys, operator, error, command):
    scn = write(tmp_path, "op.scn", f"[family]\n{operator}\n")
    assert main(_argv(command, scn, tmp_path / "out")) == 3
    assert capsys.readouterr().err.startswith(f"{error}: {scn}: ")


@pytest.mark.parametrize(
    "family, grid",
    [
        ("kind = linear\nA = -1 2 ; 0.5 -1\nV_diag = 1 -2", "m 0.1 5 21"),
        ("kind = linear\nA = -1 2 ; 0.5 -1\nV_diag = 1 -2", "beta -3 3 21"),
        ("kind = karlin\nP = 0.2 0.8 ; 0.6 0.4\nD_diag = 2 0.5", "alpha 0 1 11"),
        ("kind = kingman\nc = 1 2 ; 0.5 1\ng = 0.3 -1 ; 1 0.2", "theta -1 1 9"),
        ("kind = elliptic\n[operator]\nn = 10\nb = linear:1,-0.5\nc = gaussian:0.2", "m 0.5 2 7"),
    ],
    ids=["linear-m", "linear-beta", "karlin", "kingman", "elliptic"],
)
def test_check_default_grid_matches_explicit_grid(tmp_path, family, grid):
    # without a [grid] section, check sweeps the kind's default grid of each name
    name, start, stop, count = grid.split()
    default = write(tmp_path, "default.scn", f"[family]\n{family}\n")
    explicit = write(
        tmp_path, "explicit.scn", f"[family]\n{family}\n[grid]\nname = {name}\nstart = {start}\nstop = {stop}\ncount = {count}\n"
    )
    assert main(["check", default, "--out", str(tmp_path / "default.txt")]) == 0
    assert main(["check", explicit, "--out", str(tmp_path / "explicit.txt")]) == 0
    assert (tmp_path / "default.txt").read_bytes() == (tmp_path / "explicit.txt").read_bytes()
