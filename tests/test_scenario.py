import math
import re
from pathlib import Path

import numpy as np
import pytest

from reduction_lab import InvariantViolation, LinearFamily, ParseError, save_matrix
from reduction_lab.checks import FAMILY_KINDS
from reduction_lab.gallery import Grid1D, elliptic_1d
from reduction_lab.scenario import parse_builtin, parse_scenario, profile


def write(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


MINIMAL_LINEAR = """
# minimal linear scenario
[family]
kind = linear
A = -1 1 ; 1 -1
V_diag = 1 -1
"""


def test_minimal_linear_scenario(tmp_path):
    sc = parse_scenario(write(tmp_path, MINIMAL_LINEAR))
    assert sc.family_kind == "linear"
    assert isinstance(sc.family, LinearFamily)
    np.testing.assert_array_equal(sc.family.A, [[-1.0, 1.0], [1.0, -1.0]])
    np.testing.assert_array_equal(sc.family.V, np.diag([1.0, -1.0]))
    assert sc.grid is None


def test_linear_scenario_with_grid_and_extras(tmp_path):
    sc = parse_scenario(
        write(
            tmp_path,
            MINIMAL_LINEAR
            + """
[grid]
name = m
start = 0.1
stop = 5
count = 21
""",
        )
    )
    assert sc.grid_name == "m"
    assert len(sc.grid) == 21


def test_matrix_file_reference(tmp_path):
    save_matrix(tmp_path / "a.mat", np.array([[-2.0, 0.5], [2.0, -0.5]]))
    sc = parse_scenario(
        write(
            tmp_path,
            """
[family]
kind = linear
A_file = a.mat
V_diag = 2 0.5
""",
        )
    )
    np.testing.assert_array_equal(sc.family.A, [[-2.0, 0.5], [2.0, -0.5]])


def test_missing_file_reference(tmp_path):
    with pytest.raises(ParseError, match="does not exist"):
        parse_scenario(
            write(
                tmp_path,
                """
[family]
kind = linear
A_file = nope.mat
V_diag = 1 1
""",
            )
        )


def test_karlin_scenario_row_sum_violation(tmp_path):
    with pytest.raises(InvariantViolation, match="row-stochastic"):
        parse_scenario(
            write(
                tmp_path,
                """
[family]
kind = karlin
P = 0.4 0.5 ; 0.5 0.5
D_diag = 2 0.5
""",
            )
        )


def test_grid_count_too_small(tmp_path):
    with pytest.raises(ParseError, match="grid count >= 3"):
        parse_scenario(
            write(
                tmp_path,
                MINIMAL_LINEAR
                + """
[grid]
name = m
start = 0.1
stop = 5
count = 2
""",
            )
        )


def test_grid_requires_start_below_stop(tmp_path):
    with pytest.raises(ParseError, match="below stop"):
        parse_scenario(
            write(tmp_path, MINIMAL_LINEAR + "[grid]\nname = beta\nstart = 2\nstop = 1\ncount = 5\n")
        )


def test_grid_whose_span_overflows_is_rejected(tmp_path):
    # stop - start = 2e308 overflows, where np.linspace would warn and then repeat points
    with pytest.raises(ParseError, match=r"span from -1e\+308 to 1e\+308 overflows double precision"):
        parse_scenario(
            write(tmp_path, MINIMAL_LINEAR + "[grid]\nname = beta\nstart = -1e308\nstop = 1e308\ncount = 3\n")
        )


def test_m_grid_must_be_positive(tmp_path):
    with pytest.raises(ParseError, match="above 0"):
        parse_scenario(
            write(tmp_path, MINIMAL_LINEAR + "[grid]\nname = m\nstart = 0\nstop = 1\ncount = 5\n")
        )


# each family kind's smallest [family] body; operator kinds at n = 8
MINIMAL_BODIES = {
    "linear": "A = -1 1 ; 1 -1\nV_diag = 1 -1",
    "karlin": "P = 0.2 0.8 ; 0.6 0.4\nD_diag = 2 0.5",
    "kingman": "c = 1 2 ; 0.5 1\ng = 0.3 -1 ; 1 0.2",
    "laplacian": "[operator]\nn = 8",
    "elliptic": "[operator]\nn = 8",
    "nonlocal": "[operator]\nn = 8\nkernel = gaussian:0.2",
}

# each bounded grid: (start, stop) pairs just outside its domain, and the message that rejects them
OUTSIDE_DOMAIN = {
    "m": ([(0.0, 1.0)], "m grids must start above 0"),
    "alpha": ([(-5e-324, 1.0), (0.0, 1.0000000000000002)], "alpha grids must stay inside [0, 1]"),
}


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_every_family_kind_parses_from_its_table_rows(tmp_path, kind):
    text = f"[family]\nkind = {kind}\n{MINIMAL_BODIES[kind]}\n"
    sc = parse_scenario(write(tmp_path, text))
    assert sc.family_kind == kind and sc.grid is None
    for name, spec in FAMILY_KINDS[kind][1].items():
        grid = sc.grid_for(name)
        assert (grid[0], grid[-1], len(grid)) == spec.default
        assert (math.isfinite(spec.lo) or math.isfinite(spec.hi)) == (name in OUTSIDE_DOMAIN)
        outside, message = OUTSIDE_DOMAIN.get(name, ([], None))
        for start, stop in outside:
            path = write(tmp_path, text + f"[grid]\nname = {name}\nstart = {start!r}\nstop = {stop!r}\ncount = 5\n", "out.scn")
            with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}$"):
                parse_scenario(path)


def test_operator_kinds_need_n_and_nonlocal_a_kernel(tmp_path):
    with pytest.raises(ParseError, match=r"operator families need \[operator\] n$"):
        parse_scenario(write(tmp_path, "[family]\nkind = laplacian\n"))
    with pytest.raises(ParseError, match=r"missing \[operator\] kernel$"):
        parse_scenario(write(tmp_path, "[family]\nkind = nonlocal\n[operator]\nn = 8\nb = constant:1\n"))


def test_duplicate_key_rejected(tmp_path):
    with pytest.raises(ParseError, match="duplicate"):
        parse_scenario(write(tmp_path, "[family]\nkind = linear\nkind = karlin\n"))


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown family kind"):
        parse_scenario(write(tmp_path, "[family]\nkind = mystery\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ParseError, match="unknown key"):
        parse_scenario(write(tmp_path, MINIMAL_LINEAR + "[family2]\nwat = 1\n"))
    with pytest.raises(ParseError, match=r"line 8: .*unknown key 'convexity_m' in section \[tolerances\]"):
        parse_scenario(write(tmp_path, MINIMAL_LINEAR + "[tolerances]\nconvexity_m = 1e-8\n"))
    grid = "[grid]\nname = m\nstart = 0.1\nstop = 5\ncount = 21\n"
    with pytest.raises(ParseError, match=r"line 12: .*unknown key 'spacing' in section \[grid\]"):
        parse_scenario(write(tmp_path, MINIMAL_LINEAR + grid + "spacing = linear\n"))
    with pytest.raises(ParseError, match=r"unknown key 'seeds' in section \[suite\]"):
        parse_scenario(write(tmp_path, MINIMAL_LINEAR + "[suite]\nseeds = 0 1 2\n"))


def test_readme_scenario_example_parses(tmp_path):
    # the README's scenario block documents every key a linear scenario takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    sc = parse_scenario(write(tmp_path, block))
    assert sc.family_kind == "linear"
    assert sc.grid_name == "m" and len(sc.grid) == 21
    assert sc.bracket == (0.1, 10.0)


def test_parse_error_carries_line_number(tmp_path):
    with pytest.raises(ParseError, match="line 3"):
        parse_scenario(write(tmp_path, "[family]\nkind = linear\nnot a key value\n"))


def test_operator_scenario(tmp_path):
    sc = parse_scenario(
        write(
            tmp_path,
            """
[family]
kind = elliptic

[operator]
n = 8
length = 2
boundary = neumann
a = constant:1
b = linear:2,0
c = gaussian:0.5
""",
        )
    )
    grid = Grid1D(n=8, length=2.0, boundary="neumann")
    # a = 1 and b(x) = 2x go into the mixing part; c, a gaussian bump at mid-domain, is the growth part
    x = grid.points
    np.testing.assert_array_equal(sc.family.A, elliptic_1d(1.0, lambda x: 2.0 * x, grid))
    np.testing.assert_allclose(sc.family.V, np.diag(np.exp(-((x - 1.0) ** 2) / 0.5)), rtol=1e-15, atol=0.0)


def test_threshold_bracket(tmp_path):
    sc = parse_scenario(
        write(tmp_path, MINIMAL_LINEAR + "[threshold]\nm_lo = 0.1\nm_hi = 10\n")
    )
    assert sc.bracket == (0.1, 10.0)
    with pytest.raises(ParseError, match="both m_lo and m_hi"):
        parse_scenario(write(tmp_path, MINIMAL_LINEAR + "[threshold]\nm_lo = 0.1\n", "b.scn"))


def test_builtin_coefficients():
    x = np.array([0.0, 0.5, 1.0])
    np.testing.assert_array_equal(profile(parse_builtin("constant:2"), x, 0.5), [2.0, 2.0, 2.0])
    np.testing.assert_array_equal(profile(parse_builtin("linear:2,1"), x, 0.5), [1.0, 2.0, 3.0])
    bump = profile(parse_builtin("gaussian:0.2"), x, 0.5)
    assert bump[1] == 1.0 and bump[0] < 1.0
    K = profile(parse_builtin("gaussian:0.5"), np.abs(x[:, None] - x[None, :]), 0.0)
    assert K.shape == (3, 3) and np.array_equal(np.diagonal(K), np.ones(3))
    with pytest.raises(ParseError):
        parse_builtin("spline:1")
    with pytest.raises(ParseError):
        parse_builtin("gaussian:-1")


def test_gaussian_width_whose_square_underflows_is_rejected():
    with pytest.raises(ParseError, match="^line 3: gaussian width 1e-200 squares to 0"):
        parse_builtin("gaussian:1e-200", line=3)
    assert parse_builtin("gaussian:1e-150") == ("gaussian", (1e-150,))  # 2*sigma^2 = 2e-300 is a normal number
