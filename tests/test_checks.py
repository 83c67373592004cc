import re

import numpy as np
import pytest
import scipy.linalg

from reduction_lab import (
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    NonUniformGrid,
    NoSignChange,
    NotEssentiallyNonnegative,
    NotIrreducible,
    NotMonotoneOnBracket,
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
from reduction_lab.checks import CHECK_TOL, SEMIGROUP_POSITIVITY_TOL, judge, scale_of, semigroup_positivity_outcome
from reduction_lab.gallery import karlin_to_linear, random_diagonal, random_ess_nonneg, random_stochastic
from helpers import ladder_probes, lapack_spb

A_SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
V_PM = np.diag([1.0, -1.0])
FAM = LinearFamily(A_SYM, V_PM)


def _points(values):
    """Solved 1x1 points, whose spb = spb_lo = spb_hi is exactly the entry: a sweep of given values."""
    return [spectral_bound(np.array([[v]])) for v in values]


def _sweep(grid, values):
    """The m sweep of the 1x1 members [[v]], v in values, whose spb are exactly the values."""
    return SweepResult("m", grid, _points(values), scale_of(np.asarray(values, dtype=float)))


def _data_A(s, irreducible=True):
    """The spectral_bound of an A with spb exactly s: [[s]], irreducible, or diag(s, s - 1), reducible."""
    return spectral_bound(np.array([[s]]) if irreducible else np.diag([s, s - 1.0]))


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
        _sweep([1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        _sweep([1.0, 1.0, 2.0], [0.0, 0.0, 0.0])


def test_midpoint_convexity_on_closed_form_curve():
    sweep = sweep_spb_in_m(FAM, [0.5, 1.0, 1.5, 2.0])
    report = check_midpoint_convexity(sweep)
    assert report.passed
    assert report.margin > 0


def test_midpoint_convexity_affine_curve():
    sweep = _sweep([1.0, 2.0, 3.0, 4.0], [0.5, 1.0, 1.5, 2.0])
    report = check_midpoint_convexity(sweep)
    assert report.passed
    assert abs(report.margin) <= 1e-12


def test_midpoint_convexity_concave_spike():
    sweep = _sweep([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    report = check_midpoint_convexity(sweep)
    assert not report.passed
    assert report.margin == -2.0
    assert report.witness == {"m": 2.0}


def test_each_certifier_returns_the_line_it_reports():
    grid = np.linspace(0.5, 2.0, 5)
    karlin = KarlinFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 0.5]))
    lines = [
        check_midpoint_convexity(sweep_spb_in_beta(FAM, grid)),
        strict_convexity_probe(FAM, grid),
        check_midpoint_convexity(sweep_spb_in_m(FAM, grid)),
        check_monotone_reduction(sweep_spb_in_m(FAM, grid), _data_A(0.0)),
        derivative_bound_check(FAM, 1.0),
        homogeneity_check(FAM, 1.0, 1.0, [2.0]),
        lindqvist_check(A_SYM, V_PM),
        kirkland_check(A_SYM),
        karlin_monotonicity_check(karlin, np.linspace(0.0, 1.0, 3)),
        kingman_superconvexity_check(KingmanFamily(np.ones((2, 2)), np.eye(2)), grid),
        positivity_of_semigroup_check(A_SYM),
    ]
    assert [line.name for line in lines] == [
        "convexity_beta",
        "strict_convexity_probe",
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


def _reduction_tol(S):
    """The tolerance t of check_monotone_reduction: strict pairs have slack > t, equal ones |slack| <= t."""
    return CHECK_TOL * S.scale


def test_monotone_reduction_strict_branch():
    sweep = sweep_spb_in_m(FAM, np.linspace(0.5, 3.0, 9))
    out = check_monotone_reduction(sweep, _data_A(0.0))
    assert out.name == "monotone_reduction"
    assert out.passed and out.margin > _reduction_tol(sweep)
    assert out.margin > 0


def test_monotone_reduction_equality_branch_scalar_family():
    fam = LinearFamily(-np.eye(2), np.zeros((2, 2)))
    sweep = sweep_spb_in_m(fam, np.linspace(0.5, 2.5, 5))
    out = check_monotone_reduction(sweep, _data_A(-1.0))
    assert out.passed and abs(out.margin) <= _reduction_tol(sweep)
    assert abs(out.margin) <= 1e-12


def test_monotone_reduction_identity_pattern():
    # P = I makes A = (P - I)D zero, so A is reducible and the line judges the inequality alone
    lin = karlin_to_linear(KarlinFamily(np.eye(2), np.diag([2.0, 0.5])))
    sweep = sweep_spb_in_m(lin, np.linspace(0.5, 2.0, 4))
    data_A = spectral_bound(lin.A)
    assert data_A.u is None and data_A.spb == 0.0
    out = check_monotone_reduction(sweep, data_A)
    assert out.passed and abs(out.margin) <= _reduction_tol(sweep)


def test_monotone_reduction_flags_violation():
    sweep = _sweep([1.0, 2.0, 3.0], [0.0, 0.5, 0.1])
    out = check_monotone_reduction(sweep, _data_A(0.0))
    assert not out.passed


def _monotone_reduction_by_pairs(S, spb_A):
    """Reference: the pair loop of check_monotone_reduction, first worst pair kept."""
    grid, v = S.grid, S.values
    t = _reduction_tol(S)
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
        sweep = _sweep(grid, values)
        out = check_monotone_reduction(sweep, _data_A(spb_A))
        assert (out.passed, out.margin, out.witness) == _monotone_reduction_by_pairs(sweep, spb_A)


def test_judge_boundaries():
    tol = 1e-9
    assert judge("x", [-tol, 1.0], {}, tol, ("le",)).passed  # -tol itself meets le
    assert not judge("x", [-2.0 * tol], {}, tol, ("le",)).passed
    assert not judge("x", [tol, 1.0], {}, tol, ("strict",)).passed  # tol itself is not strict
    assert judge("x", [np.nextafter(tol, 1.0)], {}, tol, ("strict",)).passed
    assert judge("x", [tol, -tol], {}, tol, ("eq",)).passed
    assert not judge("x", [np.nextafter(tol, 1.0)], {}, tol, ("eq",)).passed
    for kinds in [("le",), ("strict",), ("eq",), ("strict", "eq")]:
        line = judge("x", [1.0, np.nan, 2.0], lambda k: {"k": k}, tol, kinds)
        assert not line.passed and np.isnan(line.margin) and line.witness == {"k": 1}


def test_judge_dichotomy_margin_and_witness():
    strict, equal = [1.0, 0.5], [0.0, 1e-12]
    assert judge("x", strict, {}, 1e-9, ("strict", "eq")).passed
    assert judge("x", equal, {}, 1e-9, ("strict", "eq")).passed
    assert not judge("x", strict + equal, {}, 1e-9, ("strict", "eq")).passed  # a mixture meets neither
    assert judge("x", strict + equal, {}, 1e-9, ("le",)).passed
    assert not judge("x", 1.0, {}, 0.0, ()).passed  # no kind: refuted outright
    line = judge("name", [3.0, -1.0, 2.0, -1.0], lambda k: {"k": float(k)}, 0.0, ("le",))
    assert (line.name, line.margin, line.witness, line.advisory) == ("name", -1.0, {"k": 1.0}, False)
    assert type(line.margin) is float and line.passed is False  # plain values, as the JSON record needs
    assert judge("name", 0.25, {"a": 1.0}, 0.0, ("le",)).witness == {"a": 1.0}


def test_semigroup_positivity_fails_a_metzler_matrix_whose_resolvent_is_not_positive():
    ok = semigroup_positivity_outcome(A_SYM, ladder_probes(A_SYM), True)
    refuted = semigroup_positivity_outcome(A_SYM, ladder_probes(A_SYM), False)
    assert ok.passed and not refuted.passed
    assert (refuted.margin, refuted.witness) == (ok.margin, ok.witness)


def test_semigroup_positivity_judges_a_non_metzler_matrix_strict():
    # a negative off-diagonal entry makes the claim a negative entry of e^{tM}, whatever the resolvent
    # ||N||_inf = 2, so the probes are where ||tN||_inf is 0.5, 1 and 4
    N = np.array([[-1.0, -1.0], [1.0, -1.0]])
    propagators = [scipy.linalg.expm(t * N) for t in (0.25, 0.5, 2.0)]
    slack = min(float(E.min()) + SEMIGROUP_POSITIVITY_TOL * float(np.abs(E).max()) for E in propagators)
    for resolvent_ok in (True, False):
        line = semigroup_positivity_outcome(N, ladder_probes(N), resolvent_ok)
        assert line.passed and line.margin == pytest.approx(-slack, abs=1e-15)
    # e^{tM} = [[1, -1e-12 (e^t - 1)], [0, e^t]]: a negative entry within the tolerance times
    # the largest entry, which the Metzler claim would pass
    M = np.array([[0.0, -1e-12], [0.0, 1.0]])
    assert not semigroup_positivity_outcome(M, ladder_probes(M), True).passed


def _pair_slacks(S, spb_A):
    i, j = np.triu_indices(len(S.grid), 1)
    return S.values[i] + (S.grid[j] - S.grid[i]) * spb_A - S.values[j]


def test_monotone_reduction_judges_no_dichotomy_for_reducible_a():
    # spb(mA + V) = max(1 - m, 0.5 - 0.5m): pairs starting below m = 1 are strict, the rest equal
    fam = LinearFamily(np.diag([-1.0, -0.5]), np.diag([1.0, 0.5]))
    sweep = sweep_spb_in_m(fam, np.linspace(0.25, 3.0, 12))
    t = _reduction_tol(sweep)
    slack = _pair_slacks(sweep, -0.5)
    assert (slack > t).any() and (np.abs(slack) <= t).any() and (slack >= -t).all()
    assert check_monotone_reduction(sweep, _data_A(-0.5, irreducible=False)).passed
    assert not check_monotone_reduction(sweep, _data_A(-0.5)).passed  # a mixture breaks the dichotomy

    # raise m = 1.25 above the line through m = 1: that one pair is violated
    values = sweep.values.copy()
    values[4] += 1e-6
    pushed = SweepResult("m", sweep.grid, _points(values), sweep.scale)
    assert (_pair_slacks(pushed, -0.5) < -t).sum() == 1
    out = check_monotone_reduction(pushed, _data_A(-0.5, irreducible=False))
    assert not out.passed and out.witness == {"m": 1.0, "d": 0.25}
    assert abs(out.margin + 1e-6) <= 1e-12


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


def test_lindqvist_and_kirkland_reject_a_reducible_a_from_its_solve():
    # both read A's irreducibility from their own spectral_bound(A), so a reducible
    # Metzler A raises NotIrreducible and a non-Metzler one NotEssentiallyNonnegative first
    reducible = np.array([[-1.0, 1.0], [0.0, -2.0]])
    assert spectral_bound(reducible).u is None
    for check in (lambda A: lindqvist_check(A, V_PM), kirkland_check):
        with pytest.raises(NotIrreducible, match="requires an irreducible matrix"):
            check(reducible)
        with pytest.raises(NotIrreducible):
            check(np.zeros((2, 2)))
        with pytest.raises(NotEssentiallyNonnegative):
            check(-reducible)


def _kirkland_tol(A):
    """The tolerance t of kirkland_check: the equality branch is |margin| <= t, the strict one margin > t."""
    return CHECK_TOL * scale_of(A)


def test_kirkland_fixture():
    A = np.array([[0.0, 1.0], [1.0, -2.0]])
    out = kirkland_check(A)
    assert out.passed
    assert abs(out.witness["lhs"] - 1.0 / np.sqrt(2.0)) <= 1e-9
    assert out.margin > _kirkland_tol(A)


def test_kirkland_equality_branch():
    # column-stochastic mixing makes e^T A = 0 = spb(A) e^T exactly
    C = random_stochastic(3, 1).T
    A = (C - np.eye(3)) * np.diagonal(random_diagonal(3, 0.5, 1.5, 2))[None, :]
    out = kirkland_check(A)
    assert out.passed
    assert abs(out.margin) <= _kirkland_tol(A)


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


def _lapack_root_residual(fam, m_star):
    """|spb(m* A + V)| by LAPACK, relative to ||m* A + V||_inf."""
    M = fam.matrix_at(m_star)
    return abs(lapack_spb(M)) / np.linalg.norm(M, np.inf)


def falling_family(n, seed):
    """A = P - I with a mixed-sign diagonal V: spb falls from max V at m = 0 to pi @ V < 0 as m grows."""
    P = random_stochastic(n, seed)
    d = np.diagonal(random_diagonal(n, -1.0, 1.0, seed + 10)).copy()
    d[0] = 1.0
    w, vecs = np.linalg.eig(P.T)
    pi = np.abs(np.real(vecs[:, np.argmax(w.real)]))
    return LinearFamily(P - np.eye(n), np.diag(d - float(pi @ d / pi.sum()) - 0.25))


@pytest.mark.parametrize("direction", ["decreasing", "increasing"])
@pytest.mark.parametrize("seed", range(4))
def test_find_threshold_newton_meets_the_tolerance(monkeypatch, direction, seed):
    from reduction_lab.checks import THRESHOLD_PRESWEEP

    n = 3 + 2 * seed
    if direction == "decreasing":
        fam = falling_family(n, seed)
    else:
        # a positive A makes d spb/dm = u^T A v > 0, and spb(V) < 0
        fam = LinearFamily(np.abs(random_ess_nonneg(n, seed)) + 0.1, random_diagonal(n, -3.0, -1.0, seed + 20))
    values = [lapack_spb(fam.matrix_at(m)) for m in (0.01, 100.0)]
    assert (values[0] > values[1]) == (direction == "decreasing") and values[0] * values[1] < 0.0
    m_star, calls = _counted_threshold(monkeypatch, fam, 0.01, 100.0)
    assert _lapack_root_residual(fam, m_star) <= 1e-13
    assert calls <= THRESHOLD_PRESWEEP + 7  # bisecting the pre-sweep's cell to 4*eps takes about 50


def test_find_threshold_takes_at_most_16_solves_on_the_golden_and_sweeps_families(monkeypatch, tmp_path):
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
        assert _lapack_root_residual(sc.family, m_star) <= 1e-13, path.name


def test_find_threshold_does_not_depend_on_the_scale_of_the_family(monkeypatch):
    # scaling A and V together by s scales spb(mA + V) by s and leaves its root where it is
    for seed, n in enumerate(range(4, 10)):
        fam = falling_family(n, seed)
        roots = {}
        for k in (-8, -4, 0, 4, 8):
            scaled = LinearFamily(10.0**k * fam.A, 10.0**k * fam.V)
            roots[k], calls = _counted_threshold(monkeypatch, scaled, 0.05, 20.0)
            assert calls <= 17, (n, k)
        for k, root in roots.items():
            assert abs(root - roots[0]) <= 1e-14 * roots[0], (n, k)


@pytest.mark.parametrize("k", [-60, -600])
def test_find_threshold_error_names_do_not_depend_on_scale(k):
    s = 2.0**k
    # the fixtures of the non-monotone and no-sign-change tests, scaled exactly
    with pytest.raises(NotMonotoneOnBracket):
        find_threshold(LinearFamily(s * np.array([[-1.0, 2.0], [2.0, -1.0]]), s * np.diag([0.0, -6.0])), 0.1, 5.0)
    with pytest.raises(NoSignChange):
        find_threshold(LinearFamily(s * A_SYM, s * V_PM), 0.1, 10.0)


def test_find_threshold_bisects_where_the_cell_is_reducible(monkeypatch):
    from reduction_lab import spectral_bound

    # A = [[P1 - I, C], [0, P2 - I]] is reducible at every m > 0, so no point has
    # Perron vectors for a Newton step; spb is the larger of the blocks' curves
    P1, P2 = random_stochastic(3, 1), random_stochastic(4, 2)
    A = np.zeros((7, 7))
    A[:3, :3], A[3:, 3:], A[:3, 3:] = P1 - np.eye(3), P2 - np.eye(4), 0.5
    fam = LinearFamily(A, np.diag([0.8, -1.0, -0.5, 0.6, -0.9, -0.7, -0.4]))
    assert spectral_bound(fam.matrix_at(1.0)).u is None
    m_star, calls = _counted_threshold(monkeypatch, fam, 0.01, 100.0)
    assert _lapack_root_residual(fam, m_star) <= 1e-13
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
    assert report.advisory and report.witness == {"verdict": "flat"}
    assert abs(report.margin) <= 1e-10


def test_strict_convexity_probe_strict_for_heterogeneous_growth():
    report = strict_convexity_probe(FAM, np.linspace(-2.0, 2.0, 9))
    assert report.advisory and report.witness == {"verdict": "strict"}
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
        data_A = spectral_bound(fam.A)
        assert data_A.u is not None  # a dense A: the dichotomy is judged
        spb_A = data_A.spb
        out = check_monotone_reduction(sweep, data_A)
        assert out.passed
        t = _reduction_tol(sweep)
        assert out.margin > t or abs(out.margin) <= t


def test_operator_lines_solve_spb_and_each_resolvent_once(monkeypatch):
    # the semigroup_positivity line reuses the operator's spb and its resolvent at
    # spb + scale, and reads the same as positivity_of_semigroup_check
    from reduction_lab import checks
    from reduction_lab.scenario import parse_scenario
    from test_golden import GOLDEN

    F = parse_scenario(str(GOLDEN / "laplacian.ini")).family
    grid = np.linspace(0.5, 2.0, 4)
    expected = checks.positivity_of_semigroup_check(F.matrix_at(1.0))
    counts = {"spectral_bound": 0, "resolvent": 0}
    for name in counts:
        original = getattr(checks, name)

        def counted(*args, name=name, original=original, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(checks, name, counted)
    lines = {line.name: line for line in checks.operator_family_lines(F, grid)}
    # spb(A + V), the sweep's points and spb(A); the resolvent at spb + 0.1, 1 and 10 times the scale
    assert counts == {"spectral_bound": 2 + len(grid), "resolvent": 3}
    assert lines["semigroup_positivity"] == expected


def test_operator_essential_nonnegativity_is_advisory():
    # a LinearFamily refuses a non-Metzler A + V, so the line cannot fail: it reports the least
    # off-diagonal entry as evidence, and the line's text carries no advisory flag
    from reduction_lab import checks

    A = np.array([[-2.0, 0.5, 0.0], [1.0, -1.0, 0.25], [0.0, 3.0, -4.0]])
    lines = checks.operator_family_lines(LinearFamily(A, np.diag([1.0, 0.0, -1.0])), np.linspace(0.5, 2.0, 4))
    (line,) = [line for line in lines if line.name == "essential_nonnegativity"]
    assert line.advisory and line.passed
    assert line.format() == "essential_nonnegativity,pass,0,n=3"


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


@pytest.mark.parametrize("name", ["linear", "karlin", "kingman"])
@pytest.mark.parametrize("command", ["check", "curve"])
def test_each_sweep_evaluates_its_grid_once(monkeypatch, tmp_path, name, command):
    # solve_along calls its stacked evaluator once per grid and no family's matrix_at per point
    from reduction_lab import checks
    from reduction_lab.cli import main
    from test_golden import GOLDEN

    evaluations, per_point, inside = [], [], []
    solve_along = checks.solve_along

    def counted_solve_along(grid, evaluate, parameter_name, previous=None):
        evaluations.append(0)

        def once(points):
            evaluations[-1] += 1
            return evaluate(points)

        inside.append(parameter_name)
        try:
            return solve_along(grid, once, parameter_name, previous)
        finally:
            inside.pop()

    for cls in (LinearFamily, KarlinFamily, KingmanFamily):

        def recorded(self, *args, _matrix_at=cls.matrix_at, **kwargs):
            per_point.extend(inside[-1:])
            return _matrix_at(self, *args, **kwargs)

        monkeypatch.setattr(cls, "matrix_at", recorded)
    monkeypatch.setattr(checks, "solve_along", counted_solve_along)
    assert main([command, str(GOLDEN / f"{name}.ini"), "--out", str(tmp_path / "out")]) == 0
    assert evaluations and evaluations == [1] * len(evaluations)
    assert per_point == []


def test_kingman_log_record_maps_every_block(monkeypatch):
    # c's lower-left entries are 0, so every theta point is reducible, and its last diagonal block is 0
    c = np.array([[1.0, 2.0, 0.5], [3.0, 1.0, 0.5], [0.0, 0.0, 0.0]])
    g = np.array([[0.5, -1.0, 2.0], [1.0, 0.3, 0.0], [0.0, 0.0, 0.0]])
    calls, records = _recorded_sweeps(monkeypatch)
    kingman_superconvexity_check(KingmanFamily(c, g), np.linspace(-1.0, 1.0, 5))
    (S,) = records
    with np.errstate(divide="ignore"):
        for d, r in zip(S.points, calls, strict=True):
            assert len(d.blocks) == len(r.blocks) == 2
            for b, rb in zip(d.blocks, r.blocks):
                assert (b.spb, b.spb_hi) == (np.log(rb.spb), np.log(rb.spb_hi))
                assert b.spb_lo == (np.log(rb.spb_lo) if rb.spb_lo > 0.0 else -np.inf)
    assert {b.spb for d in S.points for b in d.blocks} >= {-np.inf}  # the zero block's log 0


def test_homogeneity_probes_no_power_of_two(monkeypatch):
    # the solver is exactly homogeneous under 2^k, so the gap of such a sample is 0 and cannot fail
    from reduction_lab import checks

    alphas = []
    original = checks.homogeneity_check

    def recorded(F, m, beta, samples):
        alphas.extend(samples)
        return original(F, m, beta, samples)

    monkeypatch.setattr(checks, "homogeneity_check", recorded)
    checks.linear_family_lines(FAM, spectral_bound(FAM.A), np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 2.0, 5), 1.0)
    assert alphas and all(np.frexp(a)[0] != 0.5 for a in alphas)
