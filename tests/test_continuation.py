"""Warm starts along sweeps (block by block on reducible inputs), certified early exit of blocks, the SCC memo."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import KingmanFamily, LinearFamily, checks, perron, scc_decomposition, spectral_bound
from reduction_lab.checks import solve_along
from reduction_lab.errors import NotEssentiallyNonnegative, OverflowRisk
from reduction_lab.gallery import random_ess_nonneg, random_stochastic
from reduction_lab.scenario import parse_scenario
from helpers import lapack_spb
from test_golden import GOLDEN, SCENARIOS, _family_matrix
from test_perron import _lapack_block_spb, _lapack_left_perron, _noda, _norm, _scc_blocks

EPS = np.finfo(float).eps


def _stacked(point):
    """The stacked evaluator (grid -> members, no error) of a point evaluator that does not raise."""
    return lambda grid: (np.array([point(p) for p in grid]), None)


def _assert_warm_matches_cold(matrices, warm):
    for M, w in zip(matrices, warm):
        n, norm = M.shape[0], _norm(M)
        cold = spectral_bound(M)
        assert abs(w.spb - cold.spb) <= 4 * n * EPS * norm, (w.spb, cold.spb)
        floor = 8 * n * EPS * norm  # rounding of the quotients and of LAPACK
        assert w.spb_lo - floor <= _lapack_block_spb(M) <= w.spb_hi + floor
        assert w.spb_lo <= w.spb <= w.spb_hi


@pytest.mark.parametrize("name", SCENARIOS)
def test_warm_sweep_matches_cold_solves_on_golden_families(name):
    sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
    matrices = [_family_matrix(sc, p) for p in sc.grid]
    _assert_warm_matches_cold(matrices, solve_along(sc.grid, _stacked(lambda p: _family_matrix(sc, p)), sc.grid_name))


@st.composite
def metzler_family(draw):
    # zero off-diagonals make some draws reducible; the scale spans 1e-8 to 1e8
    n = draw(st.integers(2, 12))
    density = draw(st.sampled_from([1.0, 0.5, 0.2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.uniform(1e-3, 3.0, (n, n)) * (rng.uniform(size=(n, n)) < density)
    np.fill_diagonal(A, -rng.uniform(0.0, 3.0, n))
    V = np.diag(rng.uniform(-2.0, 2.0, n))
    scale = 10.0 ** draw(st.integers(-8, 8))
    return LinearFamily(scale * A, scale * V)


@settings(max_examples=40, deadline=None)
@given(metzler_family())
def test_warm_sweep_matches_cold_solves_on_random_families(F):
    grid = np.linspace(0.1, 5.0, 21)
    _assert_warm_matches_cold([F.matrix_at(m) for m in grid], solve_along(grid, F.matrices_at, "m"))


def _chained(matrices):
    """spectral_bound along the matrices, each point started from the previous result."""
    results, previous = [], None
    for M in matrices:
        previous = spectral_bound(M, start=previous)
        results.append(previous)
    return results


def test_warm_sweep_saves_solves(monkeypatch):
    # batched starts: still one certified spectral_bound call per point, with fewer
    # shifted solves than starting each point from the previous point's result
    for name in ("linear", "karlin"):
        sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
        matrices = [_family_matrix(sc, p) for p in sc.grid]
        solved = []

        def counted(M, start=None):
            solved.append(M)
            return spectral_bound(M, start=start)

        with monkeypatch.context() as patch:
            patch.setattr(checks, "spectral_bound", counted)
            warm = solve_along(sc.grid, _stacked(lambda p: _family_matrix(sc, p)), sc.grid_name)
        assert len(solved) == len(sc.grid)
        cold = sum(spectral_bound(M).iterations for M in matrices)
        batched = sum(d.iterations for d in warm)
        assert batched < sum(d.iterations for d in _chained(matrices)) and batched < cold, name
        _assert_warm_matches_cold(matrices, warm)


def test_solve_along_raises_the_first_failing_point_in_grid_order(monkeypatch):
    # c_11*exp(1000*theta) overflows at theta = 1 and 2, which are evaluated before any solve
    F = KingmanFamily(np.ones((2, 2)), np.array([[0.0, 0.0], [0.0, 1000.0]]))
    grid = np.array([-1.0, 0.0, 1.0, 2.0])
    solved = []

    def recorded(M, start=None):
        solved.append(M)
        return spectral_bound(M, start=start)

    monkeypatch.setattr(checks, "spectral_bound", recorded)
    message = r"^c\*exp\(g\*theta\) overflows double precision at theta = 1\.0$"
    with pytest.raises(OverflowRisk, match=message) as info:
        solve_along(grid, F.matrices_at, "theta")
    assert str(info.value).count("theta = ") == 1  # the evaluator names its point, and nothing names it again
    # the points before the interior overflowing one are solved first
    assert [M.tobytes() for M in solved] == [F.matrix_at(theta).tobytes() for theta in grid[:2]]
    # a point before it whose solve fails is raised first, as point by point
    not_metzler = np.array([[1.0, -1.0], [1.0, 1.0]])

    def with_a_failing_solve(thetas):
        members, error = F.matrices_at(thetas)
        members[1] = not_metzler  # theta = 0
        return members, error

    with pytest.raises(NotEssentiallyNonnegative, match=r"^matrix has a negative off-diagonal entry \(at theta = 0\.0\)$"):
        solve_along(grid, with_a_failing_solve, "theta")


def test_batch_never_raises_on_a_diagonal_point_or_a_singular_shift(monkeypatch):
    # Karlin alpha = 0 is the diagonal D: a reducible point inside a batched grid
    sc = parse_scenario(str(GOLDEN / "karlin.ini"))
    grid = np.linspace(0.0, 1.0, 11)
    matrices = [sc.family.matrix_at(a) for a in grid]
    _assert_warm_matches_cold(matrices, solve_along(grid, sc.family.matrices_at, "alpha"))
    # at the last point the batch shifts by exactly M_00 = 1 + 16 eps (max q = 1 plus
    # the slack 2*floor*1, floor = 8 eps), so shift*I - M has a zero first column
    last = np.array([[1.0 + 16 * EPS, -1.0], [0.0, 1.0]])
    stack = np.array([[[-1.0, 1.0], [1.0, -1.0]], [[-2.0, 1.0], [0.5, -1.0]], last])
    assert perron.batched_starts(stack) == [None] * 3
    # 2*|S_00| overflows in the reach of the shift: the point gets no start, and no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        starts = perron.batched_starts(np.array([[[-1e308, 1.0], [1.0, -1.0]], [[-2.0, 1.0], [0.5, -1.0]]]))
    assert starts[0] is None and starts[1] is not None
    solved = []

    def recorded(M, start=None):
        solved.append(spectral_bound(M, start=start))
        return solved[-1]

    monkeypatch.setattr(checks, "spectral_bound", recorded)
    with pytest.raises(NotEssentiallyNonnegative, match=r"\(at p = 2\.0\)$"):
        solve_along(np.array([0.0, 1.0, 2.0]), lambda grid: (stack[grid.astype(int)], None), "p")
    # the points before it start as without a batch, each from the previous result
    first = spectral_bound(stack[0])
    _assert_identical(solved[0], first)
    _assert_identical(solved[1], spectral_bound(stack[1], start=first))


def _assert_identical(a, b):
    assert (a.spb, a.spb_lo, a.spb_hi, a.iterations) == (b.spb, b.spb_lo, b.spb_hi, b.iterations)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.v, b.v)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_invalid_start_gives_the_cold_result(seed):
    n = 6
    # zero row sums make the constant vector exact, so the right iteration makes no
    # solve there
    for M in (random_ess_nonneg(n, seed), random_stochastic(n, seed) - np.eye(n)):
        cold = spectral_bound(M)
        reducible = spectral_bound(np.diag(np.arange(1.0, n + 1.0)))
        assert reducible.v is None
        zero_v = cold.v.copy()
        zero_v[seed] = 0.0
        nan_v = cold.v.copy()
        nan_v[seed] = np.nan
        starts = [
            reducible,
            spectral_bound(random_ess_nonneg(n - 1, seed)),
            dataclasses.replace(cold, v=zero_v),
            dataclasses.replace(cold, v=np.zeros(n), u=np.zeros(n)),
            dataclasses.replace(cold, v=nan_v),
        ]
        for start in starts:
            _assert_identical(spectral_bound(M, start=start), cold)


@pytest.mark.parametrize("n", [3, 8, 16])
def test_unrelated_start_still_certifies(n):
    rng = np.random.default_rng(n)
    for seed in range(5):
        M = random_ess_nonneg(n, seed)
        # a start whose Perron vectors spread over several decades
        other = rng.uniform(0.0, 1.0, (n, n)) * 10.0 ** rng.uniform(-4.0, 4.0, (n, n)) + 1e-3
        start = spectral_bound(other)
        data = spectral_bound(M, start=start)
        norm = _norm(M)
        floor = 8 * n * EPS * norm
        assert data.spb_lo - floor <= _lapack_block_spb(M) <= data.spb_hi + floor
        assert data.spb_hi - data.spb_lo <= perron.WIDTH_TOL * norm
        assert np.abs(data.v / data.v.max() - _lapack_left_perron(M.T)).max() <= 1e-13
        assert np.abs(data.u / data.u.max() - _lapack_left_perron(M)).max() <= 1e-13


def test_start_whose_solve_overflows_falls_back_to_the_cold_solve():
    # from the Perron pair of a, the first scaled solve of b overflows and leaves the
    # bracket [3.7e108, 1.4e217] open; the cold solve closes it
    a = np.array([[np.exp(250.0), 1.0], [1.0, 1.0]])
    b = np.array([[np.exp(500.0), 1.0], [1.0, 1.0]])
    cold = spectral_bound(b)
    warm = spectral_bound(b, start=spectral_bound(a))
    assert warm.spb == cold.spb == 1.4035922178528375e217
    assert (warm.spb_lo, warm.spb_hi) == (cold.spb_lo, cold.spb_hi)
    np.testing.assert_array_equal(warm.v, cold.v)
    np.testing.assert_array_equal(warm.u, cold.u)


def _midpoint(d):
    """The midpoint of d's bracket, which a solved diagonal block reports as its spb."""
    return d.spb_lo + 0.5 * (d.spb_hi - d.spb_lo)


def _assert_v_pass(data, B):
    """data is the v pass of B from the constant vector: spectral_bound(B)'s bracket and v, its midpoint, no u."""
    full = spectral_bound(B)
    assert (data.spb_lo, data.spb_hi, data.iterations) == (full.spb_lo, full.spb_hi, _noda(B)[3])
    assert data.spb == _midpoint(full)
    assert data.u is None and np.array_equal(data.v, full.v)


def _every_block_solved(M):
    """(max spb, max spb_lo, max spb_hi, total solves) with every diagonal block solved in full by its v pass.

    A block's bracket is spectral_bound(B)'s, its spb that bracket's midpoint, and its
    solves those of the v iteration from the constant vector.
    """
    blocks = _scc_blocks(M)
    solved = [spectral_bound(B) for B in blocks]
    return (
        max(_midpoint(b) for b in solved),
        max(b.spb_lo for b in solved),
        max(b.spb_hi for b in solved),
        sum(_noda(B)[3] for B in blocks),
    )


def _block_triangular(rng, sizes, identical=False):
    """A positive block upper-triangular (c, g) pair: irreducible diagonal blocks, random coupling."""
    n = sum(sizes)
    c = np.triu(rng.uniform(0.1, 2.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.5))
    g = rng.normal(size=(n, n))
    start = 0
    for k in sizes:
        block = slice(start, start + k)
        c[block, block] = rng.uniform(0.1, 2.0, (k, k))
        start += k
    if identical:
        k = sizes[0]
        c[k:, k:], g[k:, k:] = c[:k, :k], g[:k, :k]
    return KingmanFamily(c, g)


@pytest.mark.parametrize("seed", range(6))
def test_early_exit_keeps_the_maxima_of_full_block_solves(seed):
    rng = np.random.default_rng(seed)
    sizes = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(2, 5)))]
    F = _block_triangular(rng, sizes)
    saved = 0
    for theta in np.linspace(-1.0, 1.0, 9):
        M = F.matrix_at(theta)
        data = spectral_bound(M)
        spb, lo, hi, solves = _every_block_solved(M)
        assert (data.spb, data.spb_lo, data.spb_hi) == (spb, lo, hi)
        assert data.u is None and data.v is None
        assert data.iterations <= solves
        saved += solves - data.iterations
    assert saved > 0  # some block stopped early


@pytest.mark.parametrize("k", [2, 3, 5])
def test_identical_blocks_are_both_solved_in_full(k):
    rng = np.random.default_rng(k)
    F = _block_triangular(rng, [k, k], identical=True)
    for theta in np.linspace(-1.0, 1.0, 5):
        M = F.matrix_at(theta)
        data = spectral_bound(M)
        block = spectral_bound(M[:k, :k])
        assert (data.spb, data.spb_lo, data.spb_hi) == (_midpoint(block), block.spb_lo, block.spb_hi)
        assert (data.spb, data.spb_lo, data.spb_hi) == _every_block_solved(M)[:3]
        assert data.iterations == 2 * _noda(M[:k, :k])[3]


def test_noda_stops_below_the_bound():
    M = random_ess_nonneg(6, 4)
    x, lo, hi, steps = _noda(M, below=np.inf)
    row_sums = M.sum(axis=1)
    assert steps == 0
    assert (lo, hi) == pytest.approx((row_sums.min(), row_sums.max()), rel=1e-15)


def test_dominant_block_is_solved_first():
    # the other block is the sink of the condensation, which csgraph labels 0;
    # solved first, the dominant block certifies it below the maximum at the
    # constant vector, so that block makes no solve
    small = random_ess_nonneg(4, 1) - 10.0 * np.eye(4)
    large = random_ess_nonneg(4, 2)
    M = np.block([[large, np.ones((4, 4))], [np.zeros((4, 4)), small]])
    assert small.sum(axis=1).max() < spectral_bound(large).spb_lo
    data = spectral_bound(M)
    solved = data.blocks[scc_decomposition(M).component_id[0]]
    _assert_v_pass(solved, large)
    assert (data.spb, data.spb_lo, data.spb_hi) == (solved.spb, solved.spb_lo, solved.spb_hi)
    assert data.iterations == solved.iterations  # the other block stops at the constant vector


@pytest.mark.parametrize("seed", range(4))
def test_blocks_of_a_reducible_input_compute_no_left_vector(seed):
    rng = np.random.default_rng(400 + seed)
    sizes = [int(k) for k in rng.integers(1, 9, size=int(rng.integers(2, 5)))]
    F = _block_triangular(rng, sizes)
    for theta in np.linspace(-1.0, 1.0, 9):
        M = F.matrix_at(theta)
        data = spectral_bound(M)
        dec = scc_decomposition(M)
        assert data.u is None and data.v is None and all(b.u is None for b in data.blocks)
        for c, block in enumerate(data.blocks):
            if block.spb_hi < data.spb_lo and block.spb == block.spb_hi:
                continue  # certified below another block, where it may have stopped
            idx = np.flatnonzero(dec.component_id == c)
            _assert_v_pass(block, M[np.ix_(idx, idx)])


def test_block_midpoint_stays_finite_near_the_top_of_the_range():
    # spb_lo + spb_hi of the 2 x 2 block overflows; its midpoint lies inside its bracket
    M = np.array([[9e307, 1.0, 1.0], [1.0, 9e307, 0.0], [0.0, 0.0, 0.0]])
    data = spectral_bound(M)
    assert len(data.blocks) == 2 and data.spb_lo <= data.spb <= data.spb_hi < np.inf


def test_block_indices_are_memoised_read_only():
    M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    blocks = perron._pattern(M)[1]
    assert perron._pattern(2.0 * M)[1] is blocks  # same off-diagonal pattern
    assert [idx.tolist() for idx in blocks] == [[1, 2], [0]]
    for idx in blocks:
        with pytest.raises(ValueError):
            idx[0] = 7


def test_scc_memo_returns_independent_labels():
    M = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    first = scc_decomposition(M)
    expected = first.component_id.copy()
    first.component_id[:] = 7
    again = scc_decomposition(2.0 * M)  # same off-diagonal pattern
    assert again.component_count == 2
    assert np.array_equal(again.component_id, expected)
    assert again.component_id.flags.writeable


def _kingman_sweep(F, grid):
    """(matrices, warm results) of a kingman family along a theta grid."""
    return [F.matrix_at(theta) for theta in grid], solve_along(grid, F.matrices_at, "theta")


@pytest.mark.parametrize("seed", range(6))
def test_warm_block_sweep_matches_cold_solves(seed):
    rng = np.random.default_rng(100 + seed)
    sizes = [int(k) for k in rng.integers(1, 7, size=int(rng.integers(2, 5)))]
    matrices, warm = _kingman_sweep(_block_triangular(rng, sizes), np.linspace(-1.0, 1.0, 41))
    _assert_warm_matches_cold(matrices, warm)
    for data in warm:
        assert data.u is None and data.v is None
        assert sorted(b.v.size for b in data.blocks) == sorted(sizes)  # a stopped block keeps its iterate


def _reducible_kingman(n):
    """A kingman family whose c has a zero lower-left quarter: two dense diagonal blocks of n/2."""
    c = np.abs(random_ess_nonneg(n, n + 4))
    c[n // 2 :, : n // 2] = 0.0
    return KingmanFamily(c, random_ess_nonneg(n, n + 5))


@pytest.mark.parametrize("n", [8, 16])
def test_warm_sweep_of_a_reducible_kingman_family_matches_cold_solves(n):
    matrices, warm = _kingman_sweep(_reducible_kingman(n), np.linspace(-1.0, 1.0, 51))
    _assert_warm_matches_cold(matrices, warm)
    assert all(len(data.blocks) == 2 for data in warm)


@pytest.mark.parametrize("n", [8, 16])
def test_reducible_kingman_sweep_makes_no_left_vector_solve(monkeypatch, n):
    transposed = []
    scaled_solve = perron._scaled_solve

    def recorded(*args, trans=False):
        transposed.append(trans)
        return scaled_solve(*args, trans=trans)

    monkeypatch.setattr(perron, "_scaled_solve", recorded)
    grid = np.linspace(-1.0, 1.0, 41)
    matrices, warm = _kingman_sweep(_reducible_kingman(n), grid)
    assert not any(transposed)
    # a left vector of the dominant block would take at least its transposed solve at every point
    assert sum(data.iterations for data in warm) < len(grid)
    for M, data in zip(matrices, warm):
        assert abs(data.spb - lapack_spb(M)) <= 1e-13 * _norm(M)


def test_start_with_another_block_count_gives_the_cold_result():
    rng = np.random.default_rng(5)
    M = _block_triangular(rng, [3, 2, 4]).matrix_at(0.3)
    cold = spectral_bound(M)
    assert len(cold.blocks) == 3
    starts = [
        spectral_bound(_block_triangular(rng, [4, 5]).matrix_at(0.3)),
        spectral_bound(_block_triangular(rng, [2, 2, 2, 3]).matrix_at(0.3)),
        spectral_bound(random_ess_nonneg(9, 1)),
    ]
    for start in starts:
        warm = spectral_bound(M, start=start)
        _assert_identical(warm, cold)
        assert len(warm.blocks) == len(cold.blocks)
        for a, b in zip(warm.blocks, cold.blocks):
            _assert_identical(a, b)


def _assert_identical_with_blocks(a, b):
    _assert_identical(a, b)
    assert (a.blocks is None) == (b.blocks is None)
    for x, y in zip(a.blocks or [], b.blocks or []):
        _assert_identical(x, y)


@pytest.mark.parametrize("seed", range(3))
def test_reducible_grid_batches_per_block(monkeypatch, seed):
    # blocks of cap/2 + 2, 5, cap/2 - 1 and 1 rows at cap = BATCH_MAX_N (12, 5, 9 and 1 at 20):
    # each at most the cap, n = cap + 7 above it
    rng = np.random.default_rng(300 + seed)
    cap = perron.BATCH_MAX_N
    sizes = [cap // 2 + 2, 5, cap // 2 - 1, 1]
    assert sum(sizes) > perron.BATCH_MAX_N >= max(sizes)
    F = _block_triangular(rng, sizes)
    grid = np.linspace(-1.0, 1.0, 21)
    matrices = [F.matrix_at(theta) for theta in grid]
    starts = perron.grid_starts(matrices)
    assert all(start is not None and len(start.blocks) == len(sizes) for start in starts)
    solved = []

    def counted(M, start=None):
        solved.append(M)
        return spectral_bound(M, start=start)

    monkeypatch.setattr(checks, "spectral_bound", counted)
    warm = solve_along(grid, F.matrices_at, "theta")
    assert len(solved) == len(grid)
    assert sum(d.iterations for d in warm) < sum(d.iterations for d in _chained(matrices))
    _assert_warm_matches_cold(matrices, warm)
    for M, data in zip(matrices, warm):
        dec = scc_decomposition(M)
        for c, block in enumerate(data.blocks):
            idx = np.flatnonzero(dec.component_id == c)
            B = M[np.ix_(idx, idx)]
            floor = 8 * idx.size * EPS * _norm(B)
            assert block.spb_lo - floor <= _lapack_block_spb(B) <= block.spb_hi + floor


def test_grid_whose_points_differ_in_pattern_chains_as_before():
    # the coupling entry c[0, 6] * exp(-800 theta) underflows to 0 at theta = 1 only
    F = _block_triangular(np.random.default_rng(7), [3, 4])
    F.c[0, 6], F.g[0, 6] = 1.0, -800.0
    grid = np.linspace(0.0, 1.0, 11)
    matrices = [F.matrix_at(theta) for theta in grid]
    assert matrices[-1][0, 6] == 0.0 and (np.array(matrices[:-1])[:, 0, 6] > 0.0).all()
    assert perron.grid_starts(matrices) == [None] * len(grid)
    for a, b in zip(solve_along(grid, F.matrices_at, "theta"), _chained(matrices)):
        _assert_identical_with_blocks(a, b)


def test_grid_with_a_block_above_the_cutoff_chains_as_before():
    F = _block_triangular(np.random.default_rng(8), [perron.BATCH_MAX_N + 1, 3])
    grid = np.linspace(-1.0, 1.0, 11)
    matrices = [F.matrix_at(theta) for theta in grid]
    assert perron.grid_starts(matrices) == [None] * len(grid)
    for a, b in zip(solve_along(grid, F.matrices_at, "theta"), _chained(matrices)):
        _assert_identical_with_blocks(a, b)


def test_point_with_an_unusable_block_start_starts_from_the_previous_point(monkeypatch):
    F = _block_triangular(np.random.default_rng(9), [3, 4])
    matrices = [F.matrix_at(theta) for theta in np.linspace(-1.0, 1.0, 5)]
    batched = perron.batched_starts

    def second_point_unusable(S):
        starts = batched(S)
        return [None if i == 1 and S.shape[1] == 4 else start for i, start in enumerate(starts)]

    monkeypatch.setattr(perron, "batched_starts", second_point_unusable)
    starts = perron.grid_starts(matrices)
    assert starts[1] is None and all(start is not None for i, start in enumerate(starts) if i != 1)


@pytest.mark.parametrize("seed", range(4))
def test_block_continuation_saves_solves(seed):
    rng = np.random.default_rng(200 + seed)
    matrices, warm = _kingman_sweep(_block_triangular(rng, [5, 4, 6]), np.linspace(-1.0, 1.0, 41))
    cold = sum(spectral_bound(M).iterations for M in matrices)
    assert sum(data.iterations for data in warm) <= 0.8 * cold


def test_stopped_block_keeps_its_iterate():
    # the block of `small` is certified below the dominant one at its first
    # bracket and keeps that iterate, the constant vector, as its v
    small = random_ess_nonneg(4, 1) - 10.0 * np.eye(4)
    large = random_ess_nonneg(4, 2)
    M = np.block([[large, np.ones((4, 4))], [np.zeros((4, 4)), small]])
    data = spectral_bound(M)
    dec = scc_decomposition(M)
    stopped = data.blocks[dec.component_id[4]]
    solved = data.blocks[dec.component_id[0]]
    assert stopped.iterations == 0 and stopped.u is None and np.array_equal(stopped.v, np.full(4, 0.25))
    assert stopped.spb == stopped.spb_hi < solved.spb_lo
    _assert_v_pass(solved, large)


def test_warm_start_solves_the_previously_dominant_block_first():
    # the first block has the larger row sum (9) but the smaller spb (-1 + sqrt(0.1));
    # a cold solve takes it first by row sum and solves both blocks in full by their
    # v passes, a warm one takes the second block first by its spb_hi and stops the
    # first at once
    M = np.zeros((4, 4))
    M[:2, :2] = [[-1.0, 10.0], [0.01, -1.0]]
    M[2:, 2:] = [[0.0, 1.0], [1.0, 0.0]]
    M[0, 2] = 0.5
    dec = scc_decomposition(M)
    first, second = dec.component_id[0], dec.component_id[2]
    cold = spectral_bound(M)
    _assert_v_pass(cold.blocks[first], M[:2, :2])
    _assert_v_pass(cold.blocks[second], M[2:, 2:])
    warm = spectral_bound(M, start=cold)
    stopped = warm.blocks[first]
    assert stopped.u is None and stopped.iterations == 0
    assert stopped.spb == stopped.spb_hi < warm.blocks[second].spb_lo
    assert (warm.spb, warm.spb_lo, warm.spb_hi) == (cold.spb, cold.spb_lo, cold.spb_hi)
