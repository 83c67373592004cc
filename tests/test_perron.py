import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import (
    NoConvergence,
    NotEssentiallyNonnegative,
    NotIrreducible,
    SingularResolvent,
    is_essentially_nonnegative,
    is_irreducible,
    is_resolvent_positive_at,
    perron_vectors,
    resolvent,
    scc_decomposition,
    spectral_bound,
    square_matrix,
)
from reduction_lab.gallery import random_ess_nonneg

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])
ASYM = np.array([[0.0, 1.0], [1.0, -2.0]])
SQRT2 = np.sqrt(2.0)


@st.composite
def metzler(draw, max_n=4):
    # off-diagonals bounded away from zero keep the shifted iteration matrix
    # strongly contracting, so the solver converges for every drawn instance
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
        assert data.residual <= 1e-10 * (1.0 + norm)
        assert np.max(np.abs(M @ data.v - data.spb * data.v)) <= 1e-10 * (1.0 + norm)


def test_resolvent_fixture():
    R = resolvent(SYM, 1.0)
    np.testing.assert_allclose(R, np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0, atol=1e-14)
    np.testing.assert_allclose(resolvent(np.zeros((2, 2)), 2.0), 0.5 * np.eye(2), atol=1e-15)


def test_resolvent_singular_at_eigenvalue():
    with pytest.raises(SingularResolvent):
        resolvent(SYM, 0.0)


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
