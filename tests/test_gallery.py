import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import (
    Grid1D,
    InvalidAlpha,
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    NegativeKernel,
    NonPositiveDiffusion,
    OverflowRisk,
    derivative_bound_check,
    elliptic_1d,
    eigenvalues_oracle,
    is_essentially_nonnegative,
    is_irreducible,
    karlin_matrix,
    karlin_to_linear,
    kingman_family_eval,
    laplacian_1d,
    nonlocal_operator,
    random_diagonal,
    random_ess_nonneg,
    random_stochastic,
    spectral_bound,
)

P_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
D_FIX = np.diag([2.0, 0.5])


def test_linear_family_validation():
    with pytest.raises(ValueError):
        LinearFamily([[0.0, -1.0], [1.0, 0.0]], np.eye(2))
    with pytest.raises(ValueError):
        LinearFamily(np.zeros((2, 2)), [[1.0, 0.5], [0.0, 1.0]])
    fam = LinearFamily(np.zeros((2, 2)), np.diag([1.0, -1.0]))
    with pytest.raises(ValueError):
        fam.matrix_at(-0.5)


def test_karlin_family_validation():
    with pytest.raises(ValueError, match="row-stochastic"):
        KarlinFamily([[0.45, 0.45], [0.5, 0.5]], D_FIX)
    with pytest.raises(ValueError):
        KarlinFamily(P_SWAP, np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        KarlinFamily([[-0.5, 1.5], [0.5, 0.5]], D_FIX)


def test_karlin_matrix_fixture():
    fam = KarlinFamily(P_SWAP, D_FIX)
    np.testing.assert_array_equal(fam.matrix_at(0.0), D_FIX)
    np.testing.assert_array_equal(fam.matrix_at(1.0), [[0.0, 0.5], [2.0, 0.0]])
    np.testing.assert_array_equal(fam.matrix_at(0.5), [[1.0, 0.25], [1.0, 0.25]])
    with pytest.raises(InvalidAlpha):
        fam.matrix_at(1.5)


def test_karlin_to_linear_fixture():
    fam = KarlinFamily(P_SWAP, D_FIX)
    lin = karlin_to_linear(fam)
    np.testing.assert_array_equal(lin.A, [[-2.0, 0.5], [2.0, -0.5]])
    np.testing.assert_array_equal(lin.V, D_FIX)
    assert abs(spectral_bound(lin.A).spb) <= 1e-10
    # the swap pattern is doubly stochastic, so the ones vector also
    # annihilates (P - I) D from the left
    assert np.max(np.abs(lin.A.sum(axis=0))) <= 1e-13


def test_karlin_to_linear_right_null_identity():
    # for any row-stochastic P the reciprocal growth rates are a positive
    # right null vector of (P - I) D, which pins spb at zero
    for seed in range(20):
        n = 2 + seed % 4
        fam = KarlinFamily(random_stochastic(n, seed), random_diagonal(n, 0.3, 2.0, seed + 30))
        lin = karlin_to_linear(fam)
        null = 1.0 / np.diagonal(fam.D)
        assert np.max(np.abs(lin.A @ null)) <= 1e-12
        assert abs(spectral_bound(lin.A).spb) <= 1e-10


def test_karlin_identity_pattern():
    lin = karlin_to_linear(KarlinFamily(np.eye(3), np.diag([1.0, 2.0, 3.0])))
    np.testing.assert_array_equal(lin.A, np.zeros((3, 3)))


def test_karlin_consistency_is_exact():
    fam = KarlinFamily(random_stochastic(4, 7), random_diagonal(4, 0.5, 2.0, 8))
    lin = karlin_to_linear(fam)
    for alpha in (0.0, 1.0 / 3.0, 0.5, 0.77, 1.0):
        np.testing.assert_array_equal(fam.matrix_at(alpha), alpha * lin.A + lin.V)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(1, 1.0)
    with pytest.raises(ValueError):
        Grid1D(4, 0.0)
    with pytest.raises(ValueError):
        Grid1D(4, 1.0, "robin")
    assert Grid1D(3, 1.0).h == 0.25
    assert Grid1D(4, 1.0, "periodic").h == 0.25


def test_laplacian_dirichlet_stencil():
    L = laplacian_1d(Grid1D(3, 1.0, "dirichlet"))
    np.testing.assert_array_equal(L, 16.0 * np.array([[-2, 1, 0], [1, -2, 1], [0, 1, -2]], dtype=float))


@pytest.mark.parametrize("boundary", ["neumann", "periodic"])
@pytest.mark.parametrize("n", [2, 5, 17])
def test_laplacian_conservative_rows(boundary, n):
    L = laplacian_1d(Grid1D(n, 1.0, boundary))
    assert np.max(np.abs(L.sum(axis=1))) == 0.0
    assert abs(spectral_bound(L).spb) <= 1e-10


def test_laplacian_dirichlet_spb_closed_form():
    grid = Grid1D(19, 1.0, "dirichlet")
    expected = -(4.0 / grid.h**2) * np.sin(np.pi * grid.h / 2.0) ** 2
    assert abs(spectral_bound(laplacian_1d(grid)).spb - expected) <= 1e-8


def test_elliptic_degenerate_equals_laplacian():
    grid = Grid1D(5, 2.0, "dirichlet")
    np.testing.assert_array_equal(elliptic_1d(1.0, 0.0, grid), laplacian_1d(grid))


def test_elliptic_upwind_keeps_metzler_structure():
    grid = Grid1D(4, 1.0, "dirichlet")
    M = elliptic_1d(1.0, 10.0, grid)
    assert is_essentially_nonnegative(M)
    M = elliptic_1d(1.0, -10.0, grid)
    assert is_essentially_nonnegative(M)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(0.1, 5.0), min_size=5, max_size=5),
    st.lists(st.floats(-50.0, 50.0), min_size=5, max_size=5),
    st.sampled_from(["dirichlet", "neumann", "periodic"]),
)
def test_elliptic_upwind_metzler_property(a, b, boundary):
    grid = Grid1D(5, 1.0, boundary)
    M = elliptic_1d(np.array(a), np.array(b), grid)
    assert is_essentially_nonnegative(M)


def test_elliptic_rejects_nonpositive_diffusion():
    with pytest.raises(NonPositiveDiffusion):
        elliptic_1d(0.0, 0.0, Grid1D(4, 1.0))


def test_nonlocal_rank_one_kernel():
    grid = Grid1D(3, 1.0)
    M = nonlocal_operator(np.ones((3, 3)), grid)
    np.testing.assert_array_equal(M, grid.h * np.ones((3, 3)))


def test_nonlocal_constant_kernel_spb():
    grid = Grid1D(3, 1.0)
    M = nonlocal_operator(np.ones((3, 3)), grid) - np.eye(3)
    spb = spectral_bound(M).spb
    oracle = float(np.max(eigenvalues_oracle(M).real))
    assert abs(spb - (3 * grid.h - 1.0)) <= 1e-10
    assert abs(spb - oracle) <= 1e-8


def test_nonlocal_rejects_negative_kernel():
    K = np.ones((3, 3))
    K[0, 2] = -0.1
    with pytest.raises(NegativeKernel):
        nonlocal_operator(K, Grid1D(3, 1.0))


def test_kingman_eval():
    fam = KingmanFamily(np.eye(2), [[5.0, 1.0], [1.0, -5.0]])
    np.testing.assert_array_equal(fam.matrix_at(0.0), np.eye(2))
    fam = KingmanFamily(np.ones((2, 2)), [[1.0, 0.0], [0.0, -1.0]])
    A = fam.matrix_at(0.7)
    np.testing.assert_allclose(A, [[np.exp(0.7), 1.0], [1.0, np.exp(-0.7)]], atol=1e-15)
    assert abs(spectral_bound(A).spb - 2.0 * np.cosh(0.7)) <= 1e-12


def test_kingman_log_entries_are_affine():
    fam = KingmanFamily([[0.5, 0.0], [2.0, 1.0]], [[1.0, 3.0], [-2.0, 0.3]])
    thetas = (-1.0, 0.0, 1.0)
    for i in range(2):
        for j in range(2):
            if fam.c[i, j] == 0.0:
                assert all(fam.matrix_at(t)[i, j] == 0.0 for t in thetas)
                continue
            logs = [np.log(fam.matrix_at(t)[i, j]) for t in thetas]
            assert abs(logs[0] - 2.0 * logs[1] + logs[2]) <= 1e-12


def test_kingman_zero_coefficient_never_overflows():
    # exp(1000*0.8) overflows, but c = 0 makes that entry 0 at every theta
    fam = KingmanFamily([[1.0, 0.0], [0.0, 1.0]], [[0.0, 1000.0], [0.0, 0.0]])
    A = fam.matrix_at(0.8)
    np.testing.assert_array_equal(A, np.eye(2))
    assert not np.signbit(A).any()
    with pytest.raises(OverflowRisk):
        KingmanFamily([[1.0, 2.0], [0.0, 1.0]], [[0.0, 1000.0], [0.0, 0.0]]).matrix_at(0.8)


def test_kingman_entry_whose_exp_overflows_is_representable():
    # exp(1000*0.8) overflows, but 1e-300*exp(800) = 2.7e47
    A = KingmanFamily([[1.0, 1e-300], [0.0, 1.0]], [[0.0, 1000.0], [0.0, 0.0]]).matrix_at(0.8)
    assert A[0, 1] == pytest.approx(math.exp(800.0 - 300.0 * math.log(10.0)), rel=1e-12)
    assert A[0, 0] == A[1, 1] == 1.0 and A[1, 0] == 0.0


def test_kingman_entry_whose_exp_underflows_stays_positive():
    # exp(-800) underflows to 0, but 1e300*exp(-800) = 3.7e-48 keeps the matrix irreducible
    A = KingmanFamily([[1.0, 1e300], [1.0, 1.0]], [[0.0, -800.0], [0.0, 0.0]]).matrix_at(1.0)
    assert A[0, 1] == pytest.approx(math.exp(300.0 * math.log(10.0) - 800.0), rel=1e-12)
    assert is_irreducible(A)


@pytest.mark.parametrize(
    "m, beta", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)]
)
def test_non_finite_linear_parameter_is_a_value_error_that_names_it(m, beta):
    # the member of such a point is not finite, but no overflow happened: the input is not a number
    fam = LinearFamily([[-1.0, 1.0], [1.0, -1.0]], np.diag([1.0, -1.0]))
    name = "beta" if math.isfinite(m) else "m"
    with pytest.raises(ValueError, match=f"^{name} must be finite") as raised:
        fam.matrix_at(m, beta)
    assert "overflows" not in str(raised.value)
    S, error = fam.matrices_at([0.5, m], [1.0, beta])
    assert S.shape == (1, 2, 2) and isinstance(error, ValueError) and str(error) == str(raised.value)
    if name == "m":
        with pytest.raises(ValueError, match="^m must be finite"):
            derivative_bound_check(fam, m)


def test_wrappers_return_their_methods_result():
    karlin = KarlinFamily(P_SWAP, D_FIX)
    np.testing.assert_array_equal(karlin_matrix(karlin, 0.3), karlin.matrix_at(0.3))
    kingman = KingmanFamily([[0.5, 0.0], [2.0, 1.0]], [[1.0, 3.0], [-2.0, 0.3]])
    np.testing.assert_array_equal(kingman_family_eval(kingman, 0.7), kingman.matrix_at(0.7))


def _kingman_member(F, theta):
    """c*exp(g*theta) at one theta, on its nonzero entries alone: exp only where c != 0, and
    exp(log(c) + g*theta) where exp(g*theta) is not a normal finite number."""
    A = np.zeros_like(F.c)
    nonzero = F.c != 0.0
    c, exponent = F.c[nonzero], F.g[nonzero] * theta
    with np.errstate(over="ignore"):
        growth = np.exp(exponent)
        entries = c * growth
        outside = (growth < np.finfo(float).tiny) | (growth == math.inf)
        entries[outside] = np.exp(np.log(c[outside]) + exponent[outside])
    A[nonzero] = entries
    return A


def _members(F):
    """(family, {grid name: (stacked evaluator, grid, point -> member from its definition)})."""
    if isinstance(F, KarlinFamily):
        A, V = F.linear.A, F.linear.V
        return {"alpha": (F.matrices_at, np.linspace(0.0, 1.0, 11), lambda a: a * A + 1.0 * V)}
    if isinstance(F, KingmanFamily):
        return {"theta": (F.matrices_at, np.linspace(0.0, 1.0, 41), lambda t: _kingman_member(F, t))}
    return {
        "m": (F.matrices_at, np.linspace(0.1, 5.0, 21), lambda m: m * F.A + 1.0 * F.V),
        "beta": (lambda b: F.matrices_at(1.0, b), np.linspace(-3.0, 3.0, 21), lambda b: 1.0 * F.A + b * F.V),
    }


def _kingman_with_fallbacks():
    # zero c entries, and entries whose exp(g*theta) underflows (g*theta < -745) or overflows
    # (g*theta > 709.8) near theta = 1 while c*exp(g*theta) stays representable
    c = np.abs(random_ess_nonneg(5, 3))
    c[3:, :2] = 0.0
    g = random_ess_nonneg(5, 4)
    c[0, 1], g[0, 1] = 1e300, -800.0
    c[1, 0], g[1, 0] = 1e-300, 750.0
    return KingmanFamily(c, g)


FAMILIES = {
    "linear": LinearFamily(random_ess_nonneg(6, 1), random_diagonal(6, -1.5, 1.5, 2)),
    "karlin": KarlinFamily(random_stochastic(5, 7), random_diagonal(5, 0.3, 2.0, 8)),
    "kingman": _kingman_with_fallbacks(),
}


@pytest.mark.parametrize("kind", FAMILIES)
def test_stacked_members_equal_scalar_members_byte_for_byte(kind):
    F = FAMILIES[kind]
    for name, (stacked, grid, member) in _members(F).items():
        S, error = stacked(grid)
        assert error is None and S.shape == (len(grid), F.n, F.n), name
        for p, M in zip(grid, S):
            assert M.tobytes() == member(p).tobytes(), (name, p)
            one = F.matrix_at(p) if name != "beta" else F.matrix_at(1.0, p)
            assert one.tobytes() == M.tobytes(), (name, p)
    if kind == "kingman":  # both fallbacks were taken, and a zero c stays a zero entry
        assert F.g[0, 1] * grid[-1] < -745.0 and F.g[1, 0] * grid[-1] > 709.8
        assert (S[:, 3:, :2] == 0.0).all() and (S[:, 0, 1] > 0.0).all() and np.isfinite(S).all()


def test_linear_members_add_the_growth_term_on_the_diagonal_alone_bit_for_bit():
    # V is diagonal, so beta*V adds beta*0 off the diagonal, which matrices_at skips: each stack equals
    # m*A + beta*V byte for byte, with negative beta, zero entries in A and V, and an empty grid
    rng = np.random.default_rng(7)
    for seed in range(20):
        n = int(rng.integers(1, 9))
        A = random_ess_nonneg(n, seed) * (rng.uniform(size=(n, n)) < 0.6)
        np.fill_diagonal(A, rng.uniform(-2.0, 0.0, n))
        V = np.diag(rng.uniform(-1.5, 1.5, n) * (rng.uniform(size=n) < 0.7))
        m, beta = rng.uniform(0.0, 5.0, 7), rng.uniform(-3.0, 3.0, 7)
        m[0] = 0.0
        S, error = LinearFamily(A, V).matrices_at(m, beta)
        assert error is None and S.tobytes() == (m[:, None, None] * A + beta[:, None, None] * V).tobytes()
        S, error = LinearFamily(A, V).matrices_at(np.array([]))
        assert error is None and S.shape == (0, n, n)


@pytest.mark.parametrize(
    "F, grid, failing",
    [
        (FAMILIES["linear"], [0.5, 1.0, -1.0, 2.0, -2.0], 2),
        (LinearFamily(1e308 * np.array([[-1.0, 1.0], [1.0, -1.0]]), np.diag([1.0, -1.0])), [0.5, 1.0, 1.9, 2.0], 2),
        (FAMILIES["karlin"], [0.0, 0.5, 1.0, 1.5, -0.5], 3),
        (FAMILIES["karlin"], [0.0, math.nan, 1.0], 1),
        (KingmanFamily(np.ones((2, 2)), [[0.0, 0.0], [0.0, 1000.0]]), [-1.0, 0.0, 0.8, 0.5, 2.0], 2),
    ],
)
def test_stacked_members_stop_at_the_first_failing_point_with_its_error(F, grid, failing):
    S, error = F.matrices_at(np.array(grid))
    assert len(S) == failing
    for p, M in zip(grid, S):
        assert M.tobytes() == F.matrix_at(p).tobytes()
    with pytest.raises(type(error)) as info:
        F.matrix_at(grid[failing])
    assert str(info.value) == str(error) and type(info.value) is type(error)


def test_random_stochastic_properties():
    for seed in (0, 1, 99):
        P = random_stochastic(5, seed)
        assert (P > 0).all()
        assert np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-14
    np.testing.assert_array_equal(random_stochastic(4, 3), random_stochastic(4, 3))
    np.testing.assert_array_equal(random_stochastic(1, 11), [[1.0]])


def test_random_ess_nonneg_properties():
    for seed in range(20):
        M = random_ess_nonneg(4, seed)
        assert is_essentially_nonnegative(M)
        assert (np.diagonal(M) <= 0).all() and (np.diagonal(M) >= -2).all()
    np.testing.assert_array_equal(random_ess_nonneg(3, 5), random_ess_nonneg(3, 5))
    assert not np.array_equal(random_ess_nonneg(3, 5), random_ess_nonneg(3, 6))


def test_random_diagonal_degenerate_range():
    np.testing.assert_array_equal(random_diagonal(4, 1.0, 1.0, 9), np.eye(4))
    D = random_diagonal(6, -1.0, 2.0, 4)
    assert (np.diagonal(D) >= -1.0).all() and (np.diagonal(D) < 2.0).all()
