import contextlib
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.csgraph
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reduction_lab import (
    NoConvergence,
    NotEssentiallyNonnegative,
    NotIrreducible,
    ReductionLabError,
    SingularResolvent,
    is_essentially_nonnegative,
    is_irreducible,
    is_resolvent_positive_at,
    perron,
    perron_vectors,
    resolvent,
    scc_decomposition,
    spectral_bound,
    square_matrix,
)
from reduction_lab.checks import kingman_family_lines
from reduction_lab.gallery import (
    Grid1D,
    KarlinFamily,
    KingmanFamily,
    laplacian_1d,
    random_diagonal,
    random_ess_nonneg,
    random_stochastic,
)
from helpers import lapack_spb

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
ASYM = np.array([[0.0, 1.0], [1.0, -2.0]])
SQRT2 = np.sqrt(2.0)


@st.composite
def metzler(draw, max_n=4):
    # off-diagonals bounded away from zero keep every drawn instance irreducible
    n = draw(st.integers(1, max_n))
    vals = draw(
        st.lists(st.floats(0.1, 3.0), min_size=n * n, max_size=n * n).map(np.array)
    )
    M = vals.reshape(n, n)
    diag = draw(st.lists(st.floats(-3.0, 1.0), min_size=n, max_size=n))
    np.fill_diagonal(M, diag)
    return M


def test_square_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        square_matrix([[1.0, 2.0]])
    with pytest.raises(ValueError):
        square_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        square_matrix(np.zeros((0, 0)))


def test_essential_nonnegativity_examples():
    assert is_essentially_nonnegative(SYM)
    assert not is_essentially_nonnegative([[5.0, -0.1], [0.0, 5.0]])
    assert is_essentially_nonnegative(np.eye(4))


def test_irreducibility_examples():
    assert is_irreducible([[0.0, 1.0], [1.0, 0.0]])
    assert not is_irreducible(np.eye(2))
    assert is_irreducible([[7.0]])


def _metzler_draws(seed):
    """Seeded Metzler matrices, n = 1..12: dense, 50% sparse, block upper-triangular, diagonal, zero and 1x1."""
    rng = np.random.default_rng(seed)
    for _ in range(40):
        n = int(rng.integers(1, 13))
        dense = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(dense, rng.uniform(-2.0, 0.0, n))
        k = int(rng.integers(0, n + 1))
        triangular = dense.copy()
        triangular[k:, :k] = 0.0  # rows k.. never reach rows ..k
        yield dense
        yield np.where(rng.uniform(size=(n, n)) < 0.5, dense, 0.0)
        yield triangular
        yield np.diag(np.diagonal(dense))
        yield np.zeros((n, n))
        yield np.array([[rng.uniform(-2.0, 2.0)]])


@pytest.mark.parametrize("seed", [0, 1])
def test_spectral_bound_has_perron_vectors_iff_irreducible(seed):
    # certifiers that solve A anyway read its irreducibility as spectral_bound(A).u is not None
    for M in _metzler_draws(seed):
        data = spectral_bound(M)
        irreducible = is_irreducible(M)
        assert (data.u is not None) == (data.v is not None) == irreducible, M
        assert (data.blocks is None) == irreducible, M


def test_scc_partition():
    # 0 -> 1 -> 2 with a 1<->2 cycle: two components
    M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    dec = scc_decomposition(M)
    assert dec.component_count == 2
    assert sorted(dec.component_id.tolist()) == [0, 0, 1]
    assert dec.component_id[1] == dec.component_id[2]


def test_spectral_bound_symmetric_fixture():
    data = spectral_bound(SYM)
    assert abs(data.spb) <= 1e-10
    np.testing.assert_allclose(data.v, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(data.u, [1.0, 1.0], atol=1e-12)


def test_spectral_bound_asymmetric_fixture():
    data = spectral_bound(ASYM)
    assert abs(data.spb - (SQRT2 - 1.0)) <= 1e-10
    np.testing.assert_allclose(data.v, [1 / SQRT2, 1 - 1 / SQRT2], atol=1e-9)
    np.testing.assert_allclose(data.u, [0.5 + 1 / SQRT2, 0.5], atol=1e-9)


def test_spectral_bound_reducible_blocks():
    M = np.zeros((3, 3))
    M[0, 0] = -3.0
    M[1:, 1:] = SYM
    data = spectral_bound(M)
    assert abs(data.spb) <= 1e-10
    assert data.u is None and data.v is None


def test_spectral_bound_rejects_non_metzler():
    with pytest.raises(NotEssentiallyNonnegative):
        spectral_bound([[0.0, -1.0], [1.0, 0.0]])


def test_perron_vectors_fixture():
    u, v = perron_vectors([[0.0, 2.0], [0.5, 0.0]])
    np.testing.assert_allclose(v, [2 / 3, 1 / 3], atol=1e-11)
    np.testing.assert_allclose(u, [0.75, 1.5], atol=1e-11)


def test_perron_vectors_normalization_and_positivity():
    for seed in range(25):
        M = random_ess_nonneg(4, seed)
        u, v = perron_vectors(M)
        assert abs(u @ v - 1.0) <= 1e-12
        assert abs(v.sum() - 1.0) <= 1e-12
        assert (u > 0).all() and (v > 0).all()


def test_perron_vectors_require_irreducible():
    with pytest.raises(NotIrreducible):
        perron_vectors(np.eye(2))


def test_residual_bound():
    for seed in range(30):
        M = random_ess_nonneg(5, seed)
        data = spectral_bound(M)
        norm = np.max(np.abs(M).sum(axis=1))
        assert data.spb_lo <= data.spb <= data.spb_hi
        assert data.spb_hi - data.spb_lo <= 1e-11 * norm
        assert np.max(np.abs(M @ data.v - data.spb * data.v)) <= 1e-10 * (1.0 + norm)


def test_resolvent_fixture():
    R = resolvent(SYM, 1.0)
    np.testing.assert_allclose(R, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)
    np.testing.assert_allclose(resolvent(np.zeros((2, 2)), 2.0), 0.5 * np.eye(2), atol=1e-15)


def test_resolvent_singular_at_eigenvalue():
    # the zero matrix at 0 has exactly zero pivots, which dgesv reports as info > 0 without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (SYM, np.zeros((3, 3))):
            with pytest.raises(SingularResolvent):
                resolvent(M, 0.0)


@pytest.mark.parametrize("n", [2, 8, 32, 160])
def test_resolvent_is_lu_solve_of_lu_factor_bit_for_bit(n):
    rng = np.random.default_rng(n)
    eye = np.eye(n)
    for sparse in (False, True):
        M = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < (0.5 if sparse else 1.0))
        np.fill_diagonal(M, rng.uniform(-2.0, 0.0, size=n))
        spb = spectral_bound(M).spb
        for offset in (0.1, 1.0, 10.0):
            shifted = (spb + offset) * eye - M
            expected = scipy.linalg.lu_solve(scipy.linalg.lu_factor(shifted), eye)
            assert np.array_equal(resolvent(M, spb + offset), expected)


def test_resolvent_positivity_examples():
    assert is_resolvent_positive_at(SYM, 1.0)
    assert not is_resolvent_positive_at(SYM, -0.5)
    assert not is_resolvent_positive_at(SYM, 0.0)  # singular maps to False


def test_resolvent_positive_beyond_spb_seeded():
    for seed in range(40):
        M = random_ess_nonneg(2 + seed % 5, seed)
        spb = spectral_bound(M).spb
        for offset in (0.1, 1.0, 10.0):
            assert is_resolvent_positive_at(M, spb + offset)


def test_resolvent_positivity_fails_for_sign_flipped_seeded():
    from reduction_lab import eigenvalues_oracle
    from reduction_lab.rng import XorShift64Star

    for seed in range(40):
        M = random_ess_nonneg(2 + seed % 5, seed)
        M[0, 1] = -(1.5 + XorShift64Star(seed).uniform())
        spb = float(np.max(eigenvalues_oracle(M).real))
        assert not all(is_resolvent_positive_at(M, spb + d) for d in (0.1, 1.0, 10.0))


@settings(max_examples=40, deadline=None)
@given(metzler(), st.floats(-2.0, 2.0))
def test_shift_invariance(M, c):
    base = spectral_bound(M).spb
    shifted = spectral_bound(M + c * np.eye(M.shape[0])).spb
    assert abs(shifted - (base + c)) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(metzler(), st.floats(0.05, 20.0))
def test_homogeneity_of_spectral_bound(M, alpha):
    base = spectral_bound(M).spb
    scaled = spectral_bound(alpha * M).spb
    assert abs(scaled - alpha * base) <= 1e-10 * max(1.0, abs(alpha * base))


def test_no_convergence_reports_residual():
    err = NoConvergence("boom", residual=0.5, iterations=7)
    assert err.residual == 0.5 and err.iterations == 7


def _scc_blocks(M):
    """The diagonal blocks of M's strongly connected components, found with csgraph."""
    adjacency = M != 0.0
    np.fill_diagonal(adjacency, False)
    count, labels = scipy.sparse.csgraph.connected_components(adjacency, directed=True, connection="strong")
    return [M[np.ix_(labels == c, labels == c)] for c in range(count)]


def _lapack_block_spb(M):
    """The largest LAPACK spb over the SCC diagonal blocks of M.

    On a reducible M, LAPACK's error on the full matrix grows with the
    non-normality of the coupling between blocks, beyond the rounding floor
    when eigenvalues of different blocks lie close together; the spectrum is
    the union of the blocks' spectra, and each block alone is accurate.
    """
    return max(lapack_spb(B) for B in _scc_blocks(M))


def _norm(M):
    return float(np.max(np.abs(M).sum(axis=1)))


@pytest.mark.parametrize(
    "M",
    [
        [[-1e-8, 1e-9], [1e-9, -2e-8]],
        [[0.0, 1e-12], [1e-12, -1e-6]],
    ],
)
def test_tiny_scale_converges_to_lapack(M):
    # entries far below 1: every shift and tolerance must scale with ||M||
    M = np.array(M)
    data = spectral_bound(M)
    assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)
    assert data.spb_lo <= data.spb <= data.spb_hi


@pytest.mark.parametrize("n, seed", [(3, 3), (6, 129)])
def test_left_vector_start_near_the_underflow_range_is_silent(n, seed):
    # |w|/v of the left-vector start overflows on these draws: u starts cold, with no RuntimeWarning
    M = 1e-295 * random_ess_nonneg(n, seed)
    data = spectral_bound(M)
    assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)
    assert data.u is not None and (data.u > 0.0).all()


@pytest.mark.filterwarnings("error")
def test_left_vector_start_overflows_where_neither_v_nor_the_scale_is_extreme():
    # |w|/v of the transposed solve overflows on this 2x2 although max|M| = 1.1e-117 lies far above
    # the underflow range and min(v) = 1.1e-103 is far from extreme: w grows as the inverse of the
    # smallest pivot of a nearly singular system, which neither bounds, so the left-vector start is
    # judged by its values (perron._unit_vector), not by its operands
    M = np.array([[-2.5575423411936634e-255, 1.0708686465895889e-117], [8.5414068853034703e-320, -7.6664355109349182e-217]])
    data = spectral_bound(M)
    F = _frame(M)
    assert F.abs_M.max() > 2.0**-400
    w = perron._scaled_solve(F, data.v, data.spb_hi, 2.0 * F.floor * (abs(data.spb_hi) + F.reach), data.v, trans=True)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        np.abs(w) / data.v
    assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)
    assert data.u is not None and np.isfinite(data.u).all() and (data.u > 0.0).all()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-1000, -902, -898, -800])
@pytest.mark.parametrize("seed", range(3))
def test_draws_scaled_near_the_underflow_range_solve_or_raise_without_warning(k, seed):
    # 2^k times a draw, on both sides of 2^-900, below which max|M| is near the underflow range
    M = 2.0**k * random_ess_nonneg(5, seed)
    try:
        data = spectral_bound(M)
    except ReductionLabError:
        return
    assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)
    assert data.u is not None and (data.u > 0.0).all()


@pytest.mark.filterwarnings("error")
def test_wide_range_kingman_members_solve_or_raise_without_warning():
    # entries c*e^{g*theta} with |g| up to 600 span some 500 decades: a ratio of iterate entries
    # overflows, and a normalised iterate underflows, unless each such step is tested; these
    # draws are the first 50 of a stream of 400 whose 3600 solves leaked 163 RuntimeWarnings
    # (18 here, from the quotients, the scaled system and the floor test)
    rng = np.random.default_rng(1)
    theta = np.linspace(-1.0, 1.0, 9)
    returned = 0
    for _ in range(50):
        F = KingmanFamily(rng.uniform(0.2, 1.2, (4, 4)), rng.uniform(-600.0, 600.0, (4, 4)))
        members, failure = F.matrices_at(theta)
        assert failure is None
        for M in members:
            try:
                spb = spectral_bound(M).spb
            except ReductionLabError:
                continue
            returned += 1
            assert abs(spb - lapack_spb(M)) <= 1e-8 * _norm(M)
        with contextlib.suppress(ReductionLabError):
            kingman_family_lines(F, theta)
    assert returned >= 341  # as many solves as returned before the steps were tested


def test_neumann_160_error_below_1e10():
    n = 160
    M = laplacian_1d(Grid1D(n, 1.0, "neumann")) + np.diag(np.random.default_rng(0).uniform(0.0, 1.0, n))
    data = spectral_bound(M)
    assert abs(data.spb - lapack_spb(M)) <= 1e-10
    assert data.spb_hi - data.spb_lo <= 1e-11 * _norm(M)


@pytest.mark.parametrize("seed", range(5))
def test_spectral_bound_scales_exactly(seed):
    M = random_ess_nonneg(4, seed)
    base = spectral_bound(M).spb
    for k in range(-8, 9):
        s = 10.0**k
        assert spectral_bound(s * M).spb == pytest.approx(s * base, rel=1e-12, abs=0.0)


@st.composite
def scaled_metzler(draw, max_n=5):
    # zero off-diagonals make some draws reducible; the scale spans 1e-8 to 1e8.
    # Nonzero entries stay at magnitudes of 1e-3 and above before scaling:
    # scipy.linalg.eigvals returns 6.7e-139 for diag(0, t) at any t below 1e-139.
    n = draw(st.integers(2, max_n))
    off = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
    diag = st.one_of(st.just(0.0), st.floats(-3.0, -1e-3), st.floats(1e-3, 1.0))
    M = np.array(draw(st.lists(off, min_size=n * n, max_size=n * n))).reshape(n, n)
    np.fill_diagonal(M, draw(st.lists(diag, min_size=n, max_size=n)))
    return M * 10.0 ** draw(st.integers(-8, 8))


@settings(max_examples=60, deadline=None)
@given(scaled_metzler())
# blocks {0, 3} and {1, 2}: LAPACK gives 1.0125965409485756e-04 on block {1, 2} but
# 1.012596540948634e-04 on the full matrix, 5.8e-18 above the bracket
# [1.0125965409485754e-04, 1.0125965409485761e-04], where the floor is 4.6e-18
@example(
    np.array(
        [
            [3.010340298387992e-06, 0.0, 0.0, 1.0000000000000001e-07],
            [2.5302712487472473e-04, -1.2014114432025761e-04, 1.2683739997274476e-04, 1.5261262126244253e-04],
            [2.4620500880851001e-04, 2.8746594068742134e-04, -6.342553565386436e-05, 0.0],
            [3.0000000000000003e-04, 0.0, 0.0, 1.0e-04],
        ]
    )
)
def test_collatz_wielandt_bracket_encloses_lapack(M):
    data = spectral_bound(M)
    norm = _norm(M)
    floor = 8 * M.shape[0] * np.finfo(float).eps * norm  # rounding of the quotients and of LAPACK
    reference = _lapack_block_spb(M)
    assert data.spb_lo - floor <= reference <= data.spb_hi + floor
    assert data.spb_lo <= data.spb <= data.spb_hi
    assert data.spb_hi - data.spb_lo <= 1e-11 * norm


@pytest.mark.parametrize("n", [8, 16, 32])
def test_near_decoupled_points_converge(n):
    # almost diagonal matrices: the shifted solve turns nearly singular before
    # the lower end of the bracket has closed, and its rounded solution may
    # carry entries of the wrong sign
    for seed in range(n + 1, n + 4):
        P = random_stochastic(n, seed)
        points = [
            KarlinFamily(P, np.diag(np.linspace(0.2, 1.6, n))).matrix_at(1e-6),
            1e-6 * (P - np.eye(n)) + random_diagonal(n, -1.0, 1.0, seed + 1),
        ]
        for M in points:
            data = spectral_bound(M)
            assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)
            assert data.spb_hi - data.spb_lo <= 1e-11 * _norm(M)


def _widely_spread(rng, n):
    """A sparse Metzler draw (60% zeros) whose entries span 12 decades."""
    M = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, n))
    M[rng.uniform(size=(n, n)) < 0.6] = 0.0
    np.fill_diagonal(M, -rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 6.0, n))
    return M


def test_widely_spread_perron_vectors_converge():
    # sparse entries spanning 12 decades give Perron vectors whose entries
    # spread over many decades; an unscaled shifted solve leaves the small
    # entries too inaccurate for the bracket to close
    rng = np.random.default_rng(0)
    n = 12
    solved = 0
    for _ in range(100):
        M = _widely_spread(rng, n)
        if not is_irreducible(M):
            continue
        data = spectral_bound(M)
        assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)
        solved += 1
    assert solved >= 80


# (seed, n) -> indices of _widely_spread draws on which a Noda shift hit the
# Perron root exactly (a singular solve) while the bracket was still open
SINGULAR_SHIFT_DRAWS = {
    (7, 4): (688, 737, 1672),
    (7, 12): (962, 2928),
    (8, 4): (556, 1091, 1140, 2468, 2768, 2889),
}


@pytest.mark.parametrize(("seed", "n"), sorted(SINGULAR_SHIFT_DRAWS))
def test_singular_shift_steps_past_the_root(seed, n):
    rng = np.random.default_rng(seed)
    draws = [_widely_spread(rng, n) for _ in range(max(SINGULAR_SHIFT_DRAWS[seed, n]) + 1)]
    for k in SINGULAR_SHIFT_DRAWS[seed, n]:
        M = draws[k]
        data = spectral_bound(M)
        assert abs(data.spb - _lapack_block_spb(M)) <= 1e-13 * _norm(M), k
        assert data.spb_hi - data.spb_lo <= perron.WIDTH_TOL * _norm(M), k


def test_wide_bracket_raises_no_convergence(monkeypatch):
    monkeypatch.setattr(perron, "WIDTH_TOL", -1.0)
    with pytest.raises(NoConvergence) as info:
        spectral_bound(ASYM)
    assert info.value.residual >= 0.0 and info.value.iterations >= 1


def _lapack_left_perron(M):
    w, vl = scipy.linalg.eig(M, left=True, right=False)
    u = np.abs(vl[:, np.argmax(w.real)].real)
    return u / u.max()


@st.composite
def irreducible_nonsymmetric_metzler(draw, max_n=32):
    # a random cycle through every vertex keeps each draw irreducible; entries are
    # drawn from a seeded generator so that n = 32 stays cheap for hypothesis.
    # Nonzero entries stay at 1e-3 and above before scaling, as in scaled_metzler.
    n = draw(st.integers(2, max_n))
    density = draw(st.sampled_from([1.0, 0.5, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = rng.uniform(1e-3, 3.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
    cycle = rng.permutation(n)
    M[cycle, np.roll(cycle, 1)] = rng.uniform(1e-3, 3.0, n)
    kind = rng.integers(0, 3, n)
    np.fill_diagonal(M, np.select([kind == 1, kind == 2], [-rng.uniform(1e-3, 3.0, n), rng.uniform(1e-3, 1.0, n)]))
    return M * 10.0 ** draw(st.integers(-8, 8))


@settings(max_examples=60, deadline=None)
@given(irreducible_nonsymmetric_metzler())
def test_left_perron_vector_matches_lapack(M):
    # the worst error measured over 3000 draws of this distribution is 1.9e-14 of
    # max(u), whether the left iteration starts from the constant vector or not
    data = spectral_bound(M)
    assert not np.array_equal(M, M.T)
    assert np.abs(data.u / data.u.max() - _lapack_left_perron(M)).max() <= 1e-13
    assert abs(data.u @ data.v - 1.0) <= 4 * M.shape[0] * np.finfo(float).eps


@settings(max_examples=60, deadline=None)
@given(irreducible_nonsymmetric_metzler(), st.integers(0, 2**32 - 1))
def test_rounding_floor_bound_holds(M, seed):
    # _noda skips |M|x/x while hi - lo exceeds 2*4*n*eps*(|hi| + reach): sound only if
    # max(|M|x/x) <= |hi| + reach up to rounding, at any positive x and for M or M^T
    x = 10.0 ** np.random.default_rng(seed).uniform(-6.0, 6.0, M.shape[0])
    reach = 2.0 * max(0.0, -float(np.min(np.diagonal(M))))
    for P in (M, M.T):
        hi = float(np.max(P @ x / x))
        bound = abs(hi) + reach
        assert float(np.max(np.abs(P) @ x / x)) <= bound * (1.0 + 8 * M.shape[0] * np.finfo(float).eps)


def test_floor_pretest_premise_holds_bit_for_bit():
    # _noda breaks on hi - lo <= floor*max(-lo, hi) before it computes |M|x/x, and batched_starts
    # likewise: that changes no decision only if the computed max(|M|x/x) is at least
    # max(-lo, hi) = max|q|, computed as they compute them, for M and for the transposed views
    # (M.T, |M|.T) of the u run, at a positive x over many decades
    rng = np.random.default_rng(38)
    for draw in range(400):
        n = int(rng.integers(2, 41))
        kind = draw % 4  # dense, half sparse, generator rows summing to 0, block upper-triangular
        M = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (n, n))
        if kind == 1:
            M *= rng.uniform(size=(n, n)) < 0.5
        elif kind == 3:
            cut = int(rng.integers(1, n))
            M[cut:, :cut] = 0.0
        np.fill_diagonal(M, 0.0)
        if kind == 2:
            np.fill_diagonal(M, -M.sum(axis=1))
            assert 2.0 * max(0.0, -float(np.min(np.diagonal(M)))) > 0.0
        else:
            np.fill_diagonal(M, rng.uniform(-3.0, 1.0, n) * 10.0 ** rng.uniform(-6.0, 6.0, n))
        abs_M = np.abs(M)
        x = 10.0 ** rng.uniform(-100.0, 100.0, n)
        x /= x.sum()
        for P, abs_P in ((M, abs_M), (M.T, abs_M.T)):
            q = P @ x
            q /= x
            assert float(np.max(abs_P @ x / x)) >= max(-float(np.min(q)), float(np.max(q)))
        S = np.stack([M, M.T, 2.0 * M])
        xs = np.stack([x, x[::-1], x])[..., None]
        q = (S @ xs)[..., 0] / xs[..., 0]
        bound = np.max((np.abs(S) @ xs)[..., 0] / xs[..., 0], axis=1)
        assert (bound >= np.maximum(-np.min(q, axis=1), np.max(q, axis=1))).all()


def _frame(M):
    """The one perron._Frame of an irreducible M, as every solve of M builds it."""
    (frame,) = perron._frames(M)
    return frame


def _noda(M, **kwargs):
    """perron._noda on the frame of an irreducible M, run in the floating-point scope of a solve."""
    return perron._FLOAT_SCOPE(perron._noda)(_frame(M), **kwargs)


@pytest.mark.parametrize("n", [3, 8, 12, 32])
def test_left_vector_without_right_solve_matches_lapack(n):
    # zero row sums make the constant vector exact for v, so the right iteration
    # makes no solve; the transposed solve at the exact root hi moves past it,
    # and its u needs no further solve (5 solves at n = 12 when u started from
    # the constant vector)
    M = random_stochastic(n, n) - np.eye(n)
    assert _noda(M)[3] == 0
    data = spectral_bound(M)
    assert data.iterations <= 1
    assert np.abs(data.u / data.u.max() - _lapack_left_perron(M)).max() <= 1e-13
    assert abs(data.u @ data.v - 1.0) <= 4 * n * np.finfo(float).eps


def test_left_start_steps_past_an_exact_root():
    # spb = 1 with v = (2, 1)/3 exactly, so S^T at hi = 1 is exactly singular
    M = np.array([[0.0, 2.0], [0.5, 0.0]])
    data = spectral_bound(M)
    assert data.spb_lo == data.spb_hi == 1.0
    v = np.array([2.0, 1.0]) / 3.0
    assert perron._scaled_solve(_frame(M), v, 1.0, 0.0, v, trans=True) is None
    assert np.abs(data.u / data.u[1] - [0.5, 1.0]).max() <= 1e-15


@pytest.mark.parametrize(("seed", "n"), [(7, 4), (7, 6), (7, 12), (10, 4), (10, 6), (10, 12)])
def test_left_vector_is_certified_by_its_own_bracket(seed, n):
    # judged by the Collatz-Wielandt quotients of M^T at u, not by LAPACK, which
    # is not the truth on such draws; u taken from the transposed start alone,
    # without its own Noda run, leaves widths up to 1.4*||M||_inf here
    rng = np.random.default_rng(seed)
    solved = 0
    for _ in range(300):
        M = _widely_spread(rng, n)
        if not is_irreducible(M):
            continue
        u = spectral_bound(M).u
        q = M.T @ u / u
        assert q.max() - q.min() <= 1e-13 * _norm(M)
        solved += 1
    assert solved >= 30


def test_left_iteration_starts_near_its_answer():
    # the same matrices cost 750 solves in total when the left iteration starts
    # from the constant vector; starting it from one transposed solve at the
    # certified shift costs 451, its 75 transposed solves included
    total = sum(spectral_bound(random_ess_nonneg(n, seed)).iterations for n in range(8, 33) for seed in range(3))
    assert total <= 0.7 * 750


def _mutual_reach(adjacency):
    """i ~ j iff each reaches the other: boolean transitive closure of I | adjacency by repeated squaring."""
    n = adjacency.shape[0]
    reach = adjacency | np.eye(n, dtype=bool)
    for _ in range(math.ceil(math.log2(n))):  # paths of length up to 2^k >= n after k squarings
        reach = reach.astype(float) @ reach > 0.0
    return reach & reach.T


def test_scc_matches_mutual_reachability():
    # a referee independent of csgraph; the second and third matrices of each draw have the first's
    # pattern and other values, the third with random signs as well, so their labels come from the
    # pattern memo. The last 20 draws have a full pattern, which takes no memo lookup at all
    rng = np.random.default_rng(3)
    signs_rng = np.random.default_rng(4)
    counts = set()
    for k in range(220):
        n = 160 if k % 20 == 0 else int(rng.integers(1, 161))
        density = 10.0 ** rng.uniform(-2.5, -0.3) if k < 200 else 1.0
        pattern = rng.uniform(size=(n, n)) < density
        adjacency = pattern.copy()
        np.fill_diagonal(adjacency, False)
        expected = _mutual_reach(adjacency)
        full = adjacency.sum() == n * (n - 1)  # n = 1 included
        signed = signs_rng.choice([-1.0, 1.0], (n, n)) * signs_rng.uniform(0.5, 1.0, (n, n)) * pattern
        for i, M in enumerate(
            (rng.uniform(0.5, 1.0, size=(n, n)) * pattern, rng.uniform(2.0, 3.0, size=(n, n)) * pattern, signed)
        ):
            before = perron._scc_blocks.cache_info()
            dec = scc_decomposition(M)
            after = perron._scc_blocks.cache_info()
            if full:
                assert (after.hits, after.misses) == (before.hits, before.misses)
            elif i > 0:
                assert after.hits == before.hits + 1
            assert np.array_equal(dec.component_id[:, None] == dec.component_id, expected)
            assert dec.component_count == len({tuple(row) for row in expected})
            assert is_irreducible(M) == (dec.component_count == 1)
            assert is_essentially_nonnegative(M) == bool((M[~np.eye(n, dtype=bool)] >= 0.0).all())
        counts.add((n == 160, min(dec.component_count, 3), full))
    # the draws reach one, two and three or more components, at n = 160 as well, and full patterns
    assert counts >= {(True, 1, False), (True, 3, False), (False, 1, False), (False, 2, False), (False, 3, False)}
    assert counts >= {(True, 1, True), (False, 1, True)}


def test_quotient_near_the_top_of_the_range_is_finite_and_the_solve_silent():
    # |hi| + reach is 2^1000 * (1 - 2^-20) here: |M|x/x at the solved v stays finite, and the solve
    # closes its bracket without a RuntimeWarning (an error in this suite)
    d = 2.0**999 * (1.0 - 2.0**-20)
    M = np.array([[-d, d], [d, -d]])
    reach = 2.0 * d
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = spectral_bound(M)
        v, lo, hi, _ = _noda(M)
        q = np.abs(M) @ v / v
    assert np.isfinite(q).all() and float(np.max(q)) <= (abs(hi) + reach) * (1.0 + 16 * np.finfo(float).eps)
    assert data.spb_lo <= 0.0 <= data.spb_hi and data.spb_hi - data.spb_lo <= perron.WIDTH_TOL * 2.0 * d
    # a non-symmetric input near the top also takes its left-vector pass silently
    N = 2.0**998 * np.array([[-1.0, 1.0], [0.5, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = spectral_bound(N)
    assert data.spb == pytest.approx(2.0**998 * (np.sqrt(0.5) - 1.0), rel=1e-14)
    assert np.isfinite(np.abs(N) @ data.u / data.u).all()


def test_symmetry_shortcut_reads_the_first_pair_before_the_whole_matrix():
    # M[0, 1] == M[1, 0] but M is not symmetric: its left vector is solved, not copied from v
    M = np.array([[-1.0, 2.0, 1.0], [2.0, -1.0, 3.0], [0.5, 1.0, -2.0]])
    data = spectral_bound(M)
    u = _lapack_left_perron(M)
    np.testing.assert_allclose(data.u / data.u.max(), u, rtol=1e-12)
    assert not np.allclose(data.u / data.u.sum(), data.v)
    # n = 1 counts as symmetric: u = v = [1]
    one = spectral_bound(np.array([[-3.0]]))
    assert one.spb == -3.0 and np.array_equal(one.u, [1.0]) and np.array_equal(one.v, [1.0])
    # a symmetric input takes u = v
    sym = spectral_bound(SYM)
    np.testing.assert_array_equal(sym.u, sym.v / (sym.v @ sym.v))


def _tridiagonal_metzler(rng, n, decades, kind, cuts=0):
    """A seeded tridiagonal Metzler draw whose entries span `decades` decades: `symmetric`
    (M_{i,i+1} = M_{i+1,i}) or `drift` (the two sides of each pair drawn apart, as an upwind
    discretization makes them). Each of `cuts` random pairs loses one or both of its entries."""
    off = 10.0 ** rng.uniform(-decades / 2, decades / 2, (2, n - 1))
    if kind == "symmetric":
        off[1] = off[0]
    for i in rng.integers(0, n - 1, cuts):
        off[slice(None) if rng.uniform() < 0.5 else rng.integers(0, 2), i] = 0.0
    M = np.diag(off[0], 1) + np.diag(off[1], -1)
    np.fill_diagonal(M, rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-decades / 2, decades / 2, n))
    return M


def _tridiagonal(M):
    """The tridiagonal fact that the pattern memo records for M, as every frame of a solve of M carries it."""
    facts = {F.tridiagonal for F in perron._frames(M)}
    assert len(facts) == 1
    return facts.pop()


@pytest.mark.parametrize("kind", ["symmetric", "drift"])
def test_tridiagonal_scaled_solve_matches_the_explicit_system(kind):
    # the three diagonals of S = shift*I - D^-1 M D, in both orientations, against numpy's dense solve of
    # S built entry by entry; a shift past max (Mx)/x makes S an M-matrix with S 1 > 0
    rng = np.random.default_rng(40)
    for _ in range(60):
        n = int(rng.integers(3, 201))
        M = _tridiagonal_metzler(rng, n, 100, kind)
        assert _tridiagonal(M)
        x = 10.0 ** rng.uniform(-50.0, 50.0, n)
        q = M @ x / x
        shift = q.max() + np.abs(q).max()
        S = shift * np.eye(n) - (x[None, :] / x[:, None]) * M
        rhs = rng.uniform(0.5, 2.0, n)
        for trans, system in ((False, S), (True, S.T)):
            z = perron._scaled_solve(_frame(M), x, shift, 0.0, rhs, trans)
            expected = np.linalg.solve(system, rhs)
            assert (np.abs(z - expected) <= 1e-14 * np.abs(expected)).all()


def test_tridiagonal_scaled_solve_steps_past_an_exact_root():
    # the Neumann stencil at shift 0 and the constant x is exactly singular: dgtsv's last pivot is 0
    M = np.array([[-1.0, 1.0, 0.0], [1.0, -2.0, 1.0], [0.0, 1.0, -1.0]])
    x = np.full(3, 1.0 / 3.0)
    F = _frame(M)
    assert F.tridiagonal and perron._scaled_solve(F, x, 0.0, 0.0, np.ones(3), False) is None
    z = perron._scaled_solve(F, x, 0.0, 0.5, np.ones(3), False)
    np.testing.assert_allclose(z, np.linalg.solve(0.5 * np.eye(3) - M, np.ones(3)), rtol=1e-15)


@pytest.mark.parametrize("kind", ["symmetric", "drift"])
@pytest.mark.parametrize(("decades", "max_n"), [(2, 60), (12, 7), (3, 60), (4, 60), (3, 200)])
def test_tridiagonal_spectral_bound_and_perron_vectors_match_lapack(kind, decades, max_n):
    # irreducible and reducible draws: a cut pair splits the pattern into intervals of neighbours,
    # each a tridiagonal diagonal block. Longer chains of wider entries spread the Perron vector over
    # 50 decades and more, where a shift rounded below the root stalls the bracket of v or of u, with
    # the dense solve as with the tridiagonal one, unless the stalled Noda run steps once more past it
    rng = np.random.default_rng(41)
    reducible = 0
    for k in range(80):
        n = int(rng.integers(3, max_n + 1))
        M = _tridiagonal_metzler(rng, n, decades, kind, cuts=k % 3)
        assert _tridiagonal(M)
        data = spectral_bound(M)
        norm = _norm(M)
        assert abs(data.spb - _lapack_block_spb(M)) <= 1e-13 * norm
        assert data.spb_lo <= data.spb <= data.spb_hi and data.spb_hi - data.spb_lo <= perron.WIDTH_TOL * norm
        if data.blocks is not None:
            reducible += 1
            for idx in perron._pattern(M)[1]:
                assert np.array_equal(idx, np.arange(idx[0], idx[-1] + 1))
            continue
        u, v = perron_vectors(M)
        np.testing.assert_array_equal(v, data.v)
        q = M.T @ u / u  # the left vector's own Collatz-Wielandt bracket, at ||M^T||_inf
        assert q.max() - q.min() <= perron.WIDTH_TOL * float(np.abs(M).sum(axis=0).max())
        # on the wider draws the vectors agree with LAPACK's to 2e-12 of their largest entry, with the
        # dense solve as with the tridiagonal one
        if decades == 2:
            assert np.abs(u / u.max() - _lapack_left_perron(M)).max() <= 1e-13
            assert np.abs(v / v.max() - _lapack_left_perron(M.T)).max() <= 1e-13
    assert 20 <= reducible <= 60


def test_tridiagonal_resolvent_matches_the_inverse():
    # xi above ||M||_inf >= spb makes xi*I - M an M-matrix, whatever the spread of the entries; with the
    # off-diagonal signs flipped at random M is not Metzler, and xi*I - M stays strictly diagonally dominant
    rng = np.random.default_rng(42)
    signs_rng = np.random.default_rng(43)
    for k in range(40):
        n = int(rng.integers(3, 161))
        M = _tridiagonal_metzler(rng, n, 12, ("symmetric", "drift")[k % 2], cuts=k % 3)
        flipped = np.where(np.eye(n, dtype=bool), M, signs_rng.choice([-1.0, 1.0], (n, n)) * M)
        flipped[0, 1] = -abs(flipped[0, 1]) if flipped[0, 1] else -1.0  # at least one negative entry
        assert perron._pattern(flipped)[::2] == (False, True)
        for N in (M, flipped):
            for xi in _norm(N) * np.array([1.1, 2.0, 11.0]):
                expected = np.linalg.inv(xi * np.eye(n) - N)
                assert np.abs(resolvent(N, xi) - expected).max() <= 1e-13 * np.abs(expected).max()


def test_tridiagonal_resolvent_at_the_neumann_spectral_bound_is_singular():
    # the Neumann rows sum to exactly 0, so spb = 0 and -L is singular: dgtsv returns an exact zero pivot
    L = laplacian_1d(Grid1D(40, 1.0, "neumann"))
    assert _tridiagonal(L) and spectral_bound(L).spb == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularResolvent):
            resolvent(L, 0.0)
    assert resolvent(L, 1.0).min() > 0.0


def _count_lapack_solvers(monkeypatch):
    """Counts of the dgesv and dgtsv calls made through perron's LAPACK module from here on."""
    lapack = perron._lapack()
    counts = {"dgesv": 0, "dgtsv": 0}

    def counting(name):
        routine = getattr(lapack, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return routine(*args, **kwargs)

        return counted

    for name in counts:
        monkeypatch.setattr(lapack, name, counting(name))
    return counts


@pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "periodic"])
def test_only_a_tridiagonal_pattern_calls_dgtsv(monkeypatch, boundary):
    L = laplacian_1d(Grid1D(12, 1.0, boundary)) + np.diag(np.linspace(0.0, 1.0, 12))
    L[0, 1] *= 2.0  # not symmetric, so the left vector takes solves of its own
    dense = random_ess_nonneg(12, 3)
    tridiagonal = boundary != "periodic"  # the corner couplings of a periodic grid make it dense
    assert _tridiagonal(L) == tridiagonal and not _tridiagonal(dense)
    counts = _count_lapack_solvers(monkeypatch)
    spectral_bound(L)
    perron_vectors(L)
    resolvent(L, spectral_bound(L).spb + 1.0)
    assert counts[("dgesv", "dgtsv")[tridiagonal]] > 0 and counts[("dgtsv", "dgesv")[tridiagonal]] == 0
    counts.update(dgesv=0, dgtsv=0)
    spectral_bound(dense)
    resolvent(dense, spectral_bound(dense).spb + 1.0)
    assert counts["dgesv"] > 0 and counts["dgtsv"] == 0
