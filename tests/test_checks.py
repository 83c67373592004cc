import re

import numpy as np
import pytest

from reduction_lab import (
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    NonUniformGrid,
    NoSignChange,
    NotIrreducible,
    SweepResult,
    check_midpoint_convexity,
    check_monotone_reduction,
    derivative_bound_check,
    find_threshold,
    homogeneity_check,
    kingman_superconvexity_check,
    kirkland_check,
    karlin_monotonicity_check,
    lindqvist_check,
    perron_derivative,
    positivity_of_semigroup_check,
    spectral_bound,
    strict_convexity_probe,
    sweep_spb_in_beta,
    sweep_spb_in_m,
)
from reduction_lab.checks import CHECK_TOL
from reduction_lab.gallery import karlin_to_linear, random_diagonal, random_ess_nonneg, random_stochastic

A_SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
V_PM = np.diag([1.0, -1.0])
FAM = LinearFamily(A_SYM, V_PM)


def _points(values):
    """Solved 1x1 points, whose spb = spb_lo = spb_hi is exactly the entry: a sweep of given values."""
    return [spectral_bound(np.array([[v]])) for v in values]


def test_sweep_in_m_closed_form():
    sweep = sweep_spb_in_m(FAM, [0.5, 1.0, 2.0])
    expected = [-m + np.sqrt(m * m + 1.0) for m in (0.5, 1.0, 2.0)]
    np.testing.assert_allclose(sweep.values, expected, atol=1e-10)
    assert sweep.parameter_name == "m"
    assert not sweep.uniform


def test_sweep_constant_when_mixing_vanishes():
    fam = LinearFamily(np.zeros((2, 2)), V_PM)
    sweep = sweep_spb_in_m(fam, [0.5, 1.0, 2.0])
    np.testing.assert_allclose(sweep.values, [1.0, 1.0, 1.0], atol=1e-12)


def test_sweep_scales_linearly_without_growth():
    fam = LinearFamily(A_SYM + np.diag([0.5, 0.5]), np.zeros((2, 2)))
    spb_A = 0.5
    sweep = sweep_spb_in_m(fam, [1.0, 2.0, 4.0])
    np.testing.assert_allclose(sweep.values, spb_A * np.array([1.0, 2.0, 4.0]), atol=1e-10)


def test_sweep_in_beta_closed_form():
    sweep = sweep_spb_in_beta(FAM, [-1.0, 0.0, 1.0])
    expected = [-1.0 + np.sqrt(1.0 + b * b) for b in (-1.0, 0.0, 1.0)]
    np.testing.assert_allclose(sweep.values, expected, atol=1e-10)


def test_sweep_in_beta_diagonal_family_piecewise_linear():
    # A = 0 reduces the sweep to max_i(beta * d_i), a convex piecewise-linear curve
    fam = LinearFamily(np.zeros((2, 2)), np.diag([1.0, -2.0]))
    grid = np.linspace(-2.0, 2.0, 9)
    sweep = sweep_spb_in_beta(fam, grid)
    np.testing.assert_allclose(sweep.values, np.maximum(grid, -2.0 * grid), atol=1e-12)
    assert check_midpoint_convexity(sweep).passed


def test_sweep_requires_positive_m():
    with pytest.raises(ValueError):
        sweep_spb_in_m(FAM, [-1.0, 1.0, 2.0])


def test_sweep_annotates_solver_errors(monkeypatch):
    import reduction_lab.checks as checks_mod
    from reduction_lab import NoConvergence

    def explode(M, start=None):
        raise NoConvergence("iteration cap reached", residual=0.5, iterations=7)

    monkeypatch.setattr(checks_mod, "spectral_bound", explode)
    with pytest.raises(NoConvergence, match=r"at m = 1") as info:
        sweep_spb_in_m(FAM, [1.0, 2.0, 3.0])
    assert (info.value.residual, info.value.iterations) == (0.5, 7)
    with pytest.raises(NoConvergence, match=r"at beta = -1"):
        sweep_spb_in_beta(FAM, [-1.0, 0.0, 1.0])


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult("m", [1.0, 2.0], _points([0.0, 0.0]))
    with pytest.raises(ValueError):
        SweepResult("m", [1.0, 1.0, 2.0], _points([0.0, 0.0, 0.0]))


def test_midpoint_convexity_on_closed_form_curve():
    sweep = sweep_spb_in_m(FAM, [0.5, 1.0, 1.5, 2.0])
    report = check_midpoint_convexity(sweep)
    assert report.passed
    assert report.margin > 0


def test_midpoint_convexity_affine_curve():
    sweep = SweepResult("m", [1.0, 2.0, 3.0, 4.0], _points([0.5, 1.0, 1.5, 2.0]))
    report = check_midpoint_convexity(sweep)
    assert report.passed
    assert abs(report.margin) <= 1e-12


def test_midpoint_convexity_concave_spike():
    sweep = SweepResult("m", [1.0, 2.0, 3.0], _points([0.0, 1.0, 0.0]))
    report = check_midpoint_convexity(sweep)
    assert not report.passed
    assert report.margin == -2.0
    assert report.witness == {"m": 2.0}


def test_each_certifier_returns_the_line_it_reports():
    grid = np.linspace(0.5, 2.0, 5)
    karlin = KarlinFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 0.5]))
    lines = [
        check_midpoint_convexity(sweep_spb_in_beta(FAM, grid)),
        check_midpoint_convexity(sweep_spb_in_m(FAM, grid)),
        check_monotone_reduction(sweep_spb_in_m(FAM, grid), 0.0),
        derivative_bound_check(FAM, 1.0),
        homogeneity_check(FAM, 1.0, 1.0, [2.0]),
        lindqvist_check(A_SYM, V_PM),
        kirkland_check(A_SYM),
        karlin_monotonicity_check(karlin, np.linspace(0.0, 1.0, 3)),
        kingman_superconvexity_check(KingmanFamily(np.ones((2, 2)), np.eye(2)), grid),
        positivity_of_semigroup_check(A_SYM, [1.0]),
    ]
    assert [line.name for line in lines] == [
        "convexity_beta",
        "convexity_m",
        "monotone_reduction",
        "derivative_bound",
        "homogeneity",
        "lindqvist",
        "kirkland",
        "karlin_monotonicity",
        "kingman_superconvexity",
        "semigroup_positivity",
    ]
    assert lines[-2].witness.keys() == {"theta"}  # the log-convexity sweep keeps its parameter


def test_midpoint_convexity_rejects_nonuniform_grid():
    sweep = sweep_spb_in_m(FAM, [0.5, 1.0, 2.0])
    with pytest.raises(NonUniformGrid):
        check_midpoint_convexity(sweep)


def _reduction_tol(S, spb_A):
    """The tolerance t of check_monotone_reduction: strict pairs have slack > t, equal ones |slack| <= t."""
    return CHECK_TOL * max(1.0, float(np.max(np.abs(S.values))), abs(spb_A) * float(S.grid[-1] - S.grid[0]))


def test_monotone_reduction_strict_branch():
    sweep = sweep_spb_in_m(FAM, np.linspace(0.5, 3.0, 9))
    out = check_monotone_reduction(sweep, 0.0)
    assert out.name == "monotone_reduction"
    assert out.passed and out.margin > _reduction_tol(sweep, 0.0)
    assert out.margin > 0


def test_monotone_reduction_equality_branch_scalar_family():
    fam = LinearFamily(-np.eye(2), np.zeros((2, 2)))
    sweep = sweep_spb_in_m(fam, np.linspace(0.5, 2.5, 5))
    out = check_monotone_reduction(sweep, -1.0)
    assert out.passed and abs(out.margin) <= _reduction_tol(sweep, -1.0)
    assert abs(out.margin) <= 1e-12


def test_monotone_reduction_identity_pattern():
    lin = karlin_to_linear(KarlinFamily(np.eye(2), np.diag([2.0, 0.5])))
    sweep = sweep_spb_in_m(lin, np.linspace(0.5, 2.0, 4))
    out = check_monotone_reduction(sweep, 0.0)
    assert out.passed and abs(out.margin) <= _reduction_tol(sweep, 0.0)


def test_monotone_reduction_flags_violation():
    sweep = SweepResult("m", [1.0, 2.0, 3.0], _points([0.0, 0.5, 0.1]))
    out = check_monotone_reduction(sweep, 0.0)
    assert not out.passed


def _monotone_reduction_by_pairs(S, spb_A):
    """Reference: the pair loop of check_monotone_reduction, first worst pair kept."""
    grid, v = S.grid, S.values
    t = _reduction_tol(S, spb_A)
    worst, witness, strict, equal, violations = np.inf, None, 0, 0, 0
    for i in range(len(grid) - 1):
        for j in range(i + 1, len(grid)):
            d = float(grid[j] - grid[i])
            slack = float(v[i] + d * spb_A - v[j])
            if slack < worst:
                worst, witness = slack, {"m": float(grid[i]), "d": d}
            if slack > t:
                strict += 1
            elif slack >= -t:
                equal += 1
            else:
                violations += 1
    return violations == 0 and not (strict and equal), worst, witness


@pytest.mark.parametrize("shape", ["affine", "concave", "noise", "steps"])
def test_monotone_reduction_matches_pair_loop(shape):
    rng = np.random.default_rng(17)
    for _ in range(10):
        k = int(rng.integers(3, 41))
        grid = np.linspace(0.1, 5.0, k) if shape != "noise" else np.sort(rng.uniform(0.1, 5.0, k))
        spb_A = float(rng.uniform(-1.0, 1.0))
        if shape == "affine":
            values = spb_A * grid + rng.normal(0.0, 1e-12, k)
        elif shape == "concave":
            values = spb_A * grid - rng.uniform(0.1, 2.0) * np.sqrt(grid)
        elif shape == "steps":
            values = spb_A * np.round(grid)  # exact ties: equal and strict pairs mixed
        else:
            values = rng.normal(size=k)
        sweep = SweepResult("m", grid, _points(values))
        out = check_monotone_reduction(sweep, spb_A)
        assert (out.passed, out.margin, out.witness) == _monotone_reduction_by_pairs(sweep, spb_A)


def test_derivative_bound_fixture():
    out = derivative_bound_check(FAM, 1.0)
    assert out.passed
    assert abs(out.witness["fd"] - (-1.0 + 1.0 / np.sqrt(2.0))) <= 1e-6


def test_derivative_bound_equality_when_growth_vanishes():
    fam = LinearFamily(A_SYM + np.diag([0.2, 0.2]), np.zeros((2, 2)))
    out = derivative_bound_check(fam, 1.0)
    assert out.passed
    assert abs(out.margin) <= 1e-6  # homogeneous family sits exactly on the bound


def test_derivative_bound_karlin_family():
    lin = karlin_to_linear(KarlinFamily(random_stochastic(4, 2), random_diagonal(4, 0.3, 2.0, 5)))
    out = derivative_bound_check(lin, 1.0)
    assert out.passed
    assert out.witness["fd"] <= 1e-6  # spb(A) = 0 for these families


def test_perron_derivative_fixture():
    d = perron_derivative(FAM, 1.0)
    assert abs(d - (-1.0 + 1.0 / np.sqrt(2.0))) <= 1e-9


def test_perron_derivative_equals_spb_when_growth_vanishes():
    A = random_ess_nonneg(4, 12)
    fam = LinearFamily(A, np.zeros((4, 4)))
    from reduction_lab import spectral_bound

    assert abs(perron_derivative(fam, 1.0) - spectral_bound(A).spb) <= 1e-10


def test_perron_derivative_scaling_relation():
    A = random_ess_nonneg(3, 3)
    V = random_diagonal(3, -1.0, 1.0, 4)
    c, m = 2.5, 0.8
    left = perron_derivative(LinearFamily(c * A, V), m)
    right = c * perron_derivative(LinearFamily(A, V), c * m)
    assert abs(left - right) <= 1e-9 * max(1.0, abs(left))


def test_perron_derivative_requires_irreducible():
    fam = LinearFamily(np.zeros((2, 2)), V_PM)
    with pytest.raises(NotIrreducible):
        perron_derivative(fam, 1.0)


def test_lindqvist_fixture():
    out = lindqvist_check(A_SYM, V_PM)
    assert out.passed
    assert abs(out.margin - (np.sqrt(2.0) - 1.0)) <= 1e-9


def test_lindqvist_equality_for_scalar_shift():
    out = lindqvist_check(A_SYM, 3.0 * np.eye(2))
    assert out.passed
    assert abs(out.margin) <= 1e-10


def test_lindqvist_rejects_mismatched_or_nondiagonal_D():
    A = random_ess_nonneg(3, 4)
    with pytest.raises(ValueError):
        lindqvist_check(A, [[2.0]])
    with pytest.raises(ValueError):
        lindqvist_check(A, np.eye(4))
    with pytest.raises(ValueError):
        lindqvist_check(A_SYM, [[1.0, 0.5], [0.0, 1.0]])


def test_lindqvist_randomized():
    for seed in range(60):
        n = 2 + seed % 4
        out = lindqvist_check(random_ess_nonneg(n, seed), random_diagonal(n, -2.0, 2.0, seed + 1))
        assert out.passed
        assert out.margin >= -1e-9


def _kirkland_tol(out):
    """The tolerance t of kirkland_check: the equality branch is |margin| <= t, the strict one margin > t."""
    return CHECK_TOL * max(1.0, abs(out.witness["lhs"]), abs(out.witness["spb"]))


def test_kirkland_fixture():
    out = kirkland_check(np.array([[0.0, 1.0], [1.0, -2.0]]))
    assert out.passed
    assert abs(out.witness["lhs"] - 1.0 / np.sqrt(2.0)) <= 1e-9
    assert out.margin > _kirkland_tol(out)


def test_kirkland_equality_branch():
    # column-stochastic mixing makes e^T A = 0 = spb(A) e^T exactly
    C = random_stochastic(3, 1).T
    A = (C - np.eye(3)) * np.diagonal(random_diagonal(3, 0.5, 1.5, 2))[None, :]
    out = kirkland_check(A)
    assert out.passed
    assert abs(out.margin) <= _kirkland_tol(out)


def test_kirkland_randomized():
    for seed in range(60):
        out = kirkland_check(random_ess_nonneg(2 + seed % 4, seed))
        assert out.passed


def test_kingman_fixture_log_cosh():
    fam = KingmanFamily(np.ones((2, 2)), np.diag([1.0, -1.0]))
    report = kingman_superconvexity_check(fam, np.linspace(-2.0, 2.0, 9))
    assert report.passed
    assert report.margin > 0


def test_kingman_constant_family_weakly_convex():
    fam = KingmanFamily(np.full((2, 2), 0.7), np.zeros((2, 2)))
    report = kingman_superconvexity_check(fam, np.linspace(-1.0, 1.0, 5))
    assert report.passed
    assert abs(report.margin) <= 1e-11


def test_kingman_diagonal_family_log_affine():
    fam = KingmanFamily(np.eye(2), np.diag([1.0, 2.0]))
    report = kingman_superconvexity_check(fam, np.linspace(0.5, 1.5, 5))
    assert report.passed
    assert abs(report.margin) <= 1e-10  # log rho = 2 theta is affine


def test_kingman_zero_radius_rejected():
    from reduction_lab import ZeroSpectralRadius

    nilpotent = KingmanFamily(np.array([[0.0, 1.0], [0.0, 0.0]]), np.zeros((2, 2)))
    with pytest.raises(ZeroSpectralRadius):
        kingman_superconvexity_check(nilpotent, np.linspace(-1.0, 1.0, 5))


def test_karlin_monotonicity_fixture():
    fam = KarlinFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 0.5]))
    out = karlin_monotonicity_check(fam, [0.0, 0.5, 1.0])
    assert out.passed
    assert out.margin > 0


def test_karlin_monotonicity_scalar_growth():
    fam = KarlinFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), 3.0 * np.eye(2))
    out = karlin_monotonicity_check(fam, np.linspace(0.0, 1.0, 5))
    assert out.passed
    assert abs(out.margin) <= 1e-10


def test_karlin_monotonicity_requires_irreducible_pattern():
    fam = KarlinFamily(np.eye(2), np.diag([2.0, 0.5]))
    with pytest.raises(NotIrreducible):
        karlin_monotonicity_check(fam, [0.0, 0.5, 1.0])


def test_homogeneity_fixture():
    out = homogeneity_check(FAM, 1.0, 1.0, [0.1, 1.0, 2.0, 10.0])
    assert out.passed
    from reduction_lab import spectral_bound

    scaled = spectral_bound(2.0 * FAM.matrix_at(1.0, 1.0)).spb
    assert abs(scaled - 2.0 * (np.sqrt(2.0) - 1.0)) <= 1e-9


def test_homogeneity_rejects_an_empty_factor_list():
    # with no factor the check would pass with margin inf and witness alpha = 0
    with pytest.raises(ValueError, match="at least one scaling factor"):
        homogeneity_check(FAM, 1.0, 1.0, [])


def test_homogeneity_randomized():
    for seed in range(20):
        n = 2 + seed % 4
        fam = LinearFamily(random_ess_nonneg(n, seed), random_diagonal(n, -1.0, 1.0, seed + 50))
        assert homogeneity_check(fam, 1.0, 1.0, [0.1, 1.0, 10.0]).passed


def test_find_threshold_fixture():
    fam = LinearFamily(A_SYM, np.diag([1.0, -2.0]))
    assert abs(find_threshold(fam, 0.1, 10.0) - 2.0) <= 1e-8


def test_find_threshold_no_sign_change():
    with pytest.raises(NoSignChange):
        find_threshold(FAM, 0.1, 10.0)  # spb = -m + sqrt(m^2+1) > 0 everywhere


def test_find_threshold_scalar_family():
    fam = LinearFamily(-np.eye(2), np.eye(2))
    assert abs(find_threshold(fam, 0.2, 5.0) - 1.0) <= 1e-8


def test_find_threshold_rejects_non_monotone_bracket():
    from reduction_lab import NotMonotoneOnBracket

    # spb here is -m - 1 + sqrt(9 + 4 m^2) - 2: convex with an interior
    # minimum near m = 0.87, so the bracket certification must refuse it
    fam = LinearFamily([[-1.0, 2.0], [2.0, -1.0]], np.diag([0.0, -6.0]))
    with pytest.raises(NotMonotoneOnBracket):
        find_threshold(fam, 0.1, 5.0)


def _counted_threshold(monkeypatch, fam, m_lo, m_hi):
    """(find_threshold(fam, m_lo, m_hi), its spectral_bound calls, pre-sweep included)."""
    from reduction_lab import checks

    calls = []
    original = checks.spectral_bound

    def counted(M, start=None):
        calls.append(M)
        return original(M, start=start)

    with monkeypatch.context() as patch:
        patch.setattr(checks, "spectral_bound", counted)
        m_star = find_threshold(fam, m_lo, m_hi)
    return m_star, len(calls)


def _lapack_spb(M):
    return float(np.max(np.linalg.eigvals(M).real))


@pytest.mark.parametrize("direction", ["decreasing", "increasing"])
@pytest.mark.parametrize("seed", range(4))
def test_find_threshold_newton_meets_the_tolerance(monkeypatch, direction, seed):
    from reduction_lab.checks import THRESHOLD_PRESWEEP, THRESHOLD_VALUE_TOL

    n = 3 + 2 * seed
    if direction == "decreasing":
        # A = P - I: spb falls from max V at m = 0 to pi @ V < 0 as m grows
        P = random_stochastic(n, seed)
        d = np.diagonal(random_diagonal(n, -1.0, 1.0, seed + 10)).copy()
        d[0] = 1.0
        w, vecs = np.linalg.eig(P.T)
        pi = np.abs(np.real(vecs[:, np.argmax(w.real)]))
        fam = LinearFamily(P - np.eye(n), np.diag(d - float(pi @ d / pi.sum()) - 0.25))
    else:
        # a positive A makes d spb/dm = u^T A v > 0, and spb(V) < 0
        fam = LinearFamily(np.abs(random_ess_nonneg(n, seed)) + 0.1, random_diagonal(n, -3.0, -1.0, seed + 20))
    values = [_lapack_spb(fam.matrix_at(m)) for m in (0.01, 100.0)]
    assert (values[0] > values[1]) == (direction == "decreasing") and values[0] * values[1] < 0.0
    m_star, calls = _counted_threshold(monkeypatch, fam, 0.01, 100.0)
    assert abs(_lapack_spb(fam.matrix_at(m_star))) <= THRESHOLD_VALUE_TOL
    assert calls <= THRESHOLD_PRESWEEP + 7  # bisection from the pre-sweep's cell takes about 40


def test_find_threshold_takes_at_most_16_solves_on_the_golden_and_sweeps_families(monkeypatch, tmp_path):
    from reduction_lab.checks import THRESHOLD_VALUE_TOL
    from reduction_lab.scenario import parse_scenario
    from test_bench_contract import _load_bench
    from test_golden import GOLDEN

    _load_bench(monkeypatch, "inputs").write_inputs("sweeps", 1, str(tmp_path))
    scenarios = [GOLDEN / "linear_threshold.ini", *sorted(tmp_path.glob("threshold*.ini"))]
    assert len(scenarios) == 6
    for path in scenarios:
        sc = parse_scenario(str(path))
        m_star, calls = _counted_threshold(monkeypatch, sc.family, *sc.bracket)
        assert calls <= 16, path.name
        assert abs(_lapack_spb(sc.family.matrix_at(m_star))) <= THRESHOLD_VALUE_TOL, path.name


def test_find_threshold_bisects_where_the_cell_is_reducible(monkeypatch):
    from reduction_lab import spectral_bound
    from reduction_lab.checks import THRESHOLD_VALUE_TOL

    # A = [[P1 - I, C], [0, P2 - I]] is reducible at every m > 0, so no point has
    # Perron vectors for a Newton step; spb is the larger of the blocks' curves
    P1, P2 = random_stochastic(3, 1), random_stochastic(4, 2)
    A = np.zeros((7, 7))
    A[:3, :3], A[3:, 3:], A[:3, 3:] = P1 - np.eye(3), P2 - np.eye(4), 0.5
    fam = LinearFamily(A, np.diag([0.8, -1.0, -0.5, 0.6, -0.9, -0.7, -0.4]))
    assert spectral_bound(fam.matrix_at(1.0)).u is None
    m_star, calls = _counted_threshold(monkeypatch, fam, 0.01, 100.0)
    assert abs(_lapack_spb(fam.matrix_at(m_star))) <= THRESHOLD_VALUE_TOL
    assert calls > 16  # bisection


def test_find_threshold_names_the_point_of_a_failed_newton_solve(monkeypatch):
    from reduction_lab import NoConvergence, checks
    from reduction_lab.checks import THRESHOLD_PRESWEEP

    fam = LinearFamily(A_SYM, np.diag([1.0, -2.0]))  # root at m = 2, in the pre-sweep cell [1.3375, 2.575]
    original, calls = checks.spectral_bound, []

    def failing(M, start=None):
        calls.append(M)
        if len(calls) > THRESHOLD_PRESWEEP:
            raise NoConvergence("bracket did not close", residual=0.5, iterations=7)
        return original(M, start=start)

    monkeypatch.setattr(checks, "spectral_bound", failing)
    with pytest.raises(NoConvergence, match=r"^bracket did not close \(at m = (\S+)\)$") as info:
        find_threshold(fam, 0.1, 10.0)
    assert (info.value.residual, info.value.iterations) == (0.5, 7)
    m = float(re.search(r"at m = (\S+)\)$", str(info.value)).group(1))
    # the tangent step from the positive end stops short of the root, not at the cell's midpoint
    assert 1.3375 < m < 2.0 and m != 0.5 * (1.3375 + 2.575)
    np.testing.assert_array_equal(calls[-1], fam.matrix_at(m))


def test_strict_convexity_probe_flat_for_scalar_growth():
    fam = LinearFamily(A_SYM, 2.0 * np.eye(2))
    report = strict_convexity_probe(fam, np.linspace(-2.0, 2.0, 9))
    assert report.passed
    assert abs(report.margin) <= 1e-10


def test_strict_convexity_probe_strict_for_heterogeneous_growth():
    report = strict_convexity_probe(FAM, np.linspace(-2.0, 2.0, 9))
    assert report.passed
    assert report.margin > 1e-6


def test_convexity_in_beta_randomized():
    for seed in range(40):
        n = 2 + seed % 5
        fam = LinearFamily(random_ess_nonneg(n, seed), random_diagonal(n, -1.5, 1.5, seed + 100))
        report = check_midpoint_convexity(sweep_spb_in_beta(fam, np.linspace(-3.0, 3.0, 11)))
        assert report.passed


def test_convexity_in_m_randomized():
    for seed in range(40):
        n = 2 + seed % 5
        fam = LinearFamily(random_ess_nonneg(n, seed), random_diagonal(n, -1.5, 1.5, seed + 100))
        report = check_midpoint_convexity(sweep_spb_in_m(fam, np.linspace(0.1, 5.0, 11)))
        assert report.passed


def test_reduction_dichotomy_uniform_across_random_sweeps():
    from reduction_lab import spectral_bound

    for seed in range(25):
        n = 2 + seed % 5
        fam = LinearFamily(random_ess_nonneg(n, seed), random_diagonal(n, -1.5, 1.5, seed + 100))
        sweep = sweep_spb_in_m(fam, np.linspace(0.1, 5.0, 11))
        spb_A = spectral_bound(fam.A).spb
        out = check_monotone_reduction(sweep, spb_A)
        assert out.passed
        t = _reduction_tol(sweep, spb_A)
        assert out.margin > t or abs(out.margin) <= t


def test_operator_lines_solve_spb_and_each_resolvent_once(monkeypatch):
    # the semigroup_positivity line reuses the operator's spb and its resolvent at
    # spb + 1, and reads the same as positivity_of_semigroup_check
    from reduction_lab import checks
    from reduction_lab.scenario import parse_scenario
    from test_golden import GOLDEN

    F = parse_scenario(str(GOLDEN / "laplacian.ini")).family
    grid = np.linspace(0.5, 2.0, 4)
    expected = checks.positivity_of_semigroup_check(F.matrix_at(1.0), [0.1, 1.0, 5.0])
    counts = {"spectral_bound": 0, "resolvent": 0}
    for name in counts:
        original = getattr(checks, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    lines = {line.name: line for line in checks.operator_family_lines(F, grid)}
    # spb(A + V), the sweep's points and spb(A); the resolvent at spb + 0.1, 1 and 10
    assert counts == {"spectral_bound": 2 + len(grid), "resolvent": 3}
    assert lines["semigroup_positivity"] == expected


def _recorded_sweeps(monkeypatch):
    """(spectral_bound calls, SweepResult records) of the checks module from here on."""
    from reduction_lab import checks

    calls, records = [], []
    original = checks.spectral_bound

    def recorded(M, start=None):
        calls.append(original(M, start=start))
        return calls[-1]

    class Recorded(checks.SweepResult):
        def __post_init__(self):
            super().__post_init__()
            records.append(self)

    monkeypatch.setattr(checks, "spectral_bound", recorded)
    monkeypatch.setattr(checks, "SweepResult", Recorded)
    return calls, records


def test_every_sweep_carries_the_certified_result_of_each_of_its_points(monkeypatch):
    from reduction_lab.checks import FAMILY_KINDS, THRESHOLD_PRESWEEP, curve_table
    from reduction_lab.scenario import parse_scenario
    from test_golden import GOLDEN

    linear, karlin, kingman, threshold = (
        parse_scenario(str(GOLDEN / f"{name}.ini")) for name in ("linear", "karlin", "kingman", "linear_threshold")
    )

    def curve(sc):
        return lambda: curve_table(sc.family, sc.grid_name, FAMILY_KINDS[sc.family_kind][1][sc.grid_name], sc.grid)

    # (sweep, its grid, whether it judges log spb); find_threshold's Newton steps follow its pre-sweep
    sweeps = {
        "m": (lambda: sweep_spb_in_m(linear.family, linear.grid_for("m")), linear.grid_for("m"), False),
        "beta": (lambda: sweep_spb_in_beta(linear.family, linear.grid_for("beta")), linear.grid_for("beta"), False),
        "alpha": (lambda: karlin_monotonicity_check(karlin.family, karlin.grid), karlin.grid, False),
        "theta": (lambda: kingman_superconvexity_check(kingman.family, kingman.grid), kingman.grid, True),
        **{f"curve {sc.grid_name}": (curve(sc), sc.grid, False) for sc in (linear, karlin, kingman)},
        "threshold": (
            lambda: find_threshold(threshold.family, *threshold.bracket),
            np.linspace(*threshold.bracket, THRESHOLD_PRESWEEP),
            False,
        ),
    }
    calls, records = _recorded_sweeps(monkeypatch)
    for name, (run, grid, log) in sweeps.items():
        calls.clear()
        records.clear()
        run()
        (S,) = records
        np.testing.assert_array_equal(S.grid, grid)
        assert len(S.points) == len(grid) and len(calls) >= len(grid), name
        assert len(calls) == len(grid) or name == "threshold", name
        solved = calls[: len(grid)]
        if log:
            for d, r in zip(S.points, solved):
                assert (d.spb, d.spb_hi) == (np.log(r.spb), np.log(r.spb_hi))
                assert d.spb_lo == (np.log(r.spb_lo) if r.spb_lo > 0.0 else -np.inf)
        else:
            assert all(d is r for d, r in zip(S.points, solved)), name
        assert all(d.spb_lo <= d.spb <= d.spb_hi for d in S.points), name
        np.testing.assert_array_equal(S.values, [d.spb for d in S.points])
