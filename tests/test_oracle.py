import numpy as np
import pytest

from reduction_lab import DimensionTooLarge, characteristic_polynomial, eigenvalues_oracle, spectral_bound
from reduction_lab.gallery import random_ess_nonneg


def _sorted_real(values):
    return sorted(np.asarray(values).real.tolist())


def test_characteristic_polynomial_known_coefficients():
    # lambda^2 + 2 lambda - 1 for [[0,1],[1,-2]]
    np.testing.assert_allclose(characteristic_polynomial([[0.0, 1.0], [1.0, -2.0]]), [1.0, 2.0, -1.0], atol=1e-14)
    # companion of lambda^2 + 5 lambda + 6
    np.testing.assert_allclose(characteristic_polynomial([[0.0, 1.0], [-6.0, -5.0]]), [1.0, 5.0, 6.0], atol=1e-13)


def test_oracle_diagonal():
    ev = eigenvalues_oracle(np.diag([3.0, -1.0, 2.0]))
    np.testing.assert_allclose(_sorted_real(ev), [-1.0, 2.0, 3.0], atol=1e-10)
    assert np.max(np.abs(ev.imag)) <= 1e-10


def test_oracle_quadratic_fixture():
    ev = eigenvalues_oracle([[0.0, 1.0], [1.0, -2.0]])
    expected = [-1.0 - np.sqrt(2.0), -1.0 + np.sqrt(2.0)]
    np.testing.assert_allclose(_sorted_real(ev), expected, atol=1e-12)


def test_oracle_rotation_matrix():
    ev = eigenvalues_oracle([[0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_allclose(sorted(ev.imag.tolist()), [-1.0, 1.0], atol=1e-12)
    assert np.max(np.abs(ev.real)) <= 1e-12


def test_oracle_repeated_eigenvalue():
    ev = eigenvalues_oracle(np.diag([2.0, 2.0]))
    np.testing.assert_allclose(ev.real, [2.0, 2.0], atol=1e-6)


def test_oracle_dimension_limit():
    with pytest.raises(DimensionTooLarge):
        eigenvalues_oracle(np.eye(9))
    eigenvalues_oracle(np.eye(8))  # boundary dimension is allowed


def test_oracle_agrees_with_power_solver():
    for seed in range(60):
        M = random_ess_nonneg(2 + seed % 5, seed)
        spb = spectral_bound(M).spb
        ev = eigenvalues_oracle(M)
        assert abs(spb - float(np.max(ev.real))) <= 1e-8


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-10, 1.0, 1e10, 1e300, 2.0**-600])
def test_oracle_is_scale_free(scale):
    # M is normalised by an exact power of two, so the oracle of 2^k*M is 2^k times that of M
    for seed in range(40):
        A = random_ess_nonneg(2 + seed % 5, 1000 + seed)
        ev = eigenvalues_oracle(scale * A)
        gap = abs(spectral_bound(scale * A).spb - float(np.max(ev.real)))
        assert gap <= 1e-14 * scale * np.max(np.abs(A)), (seed, gap)
    ev = eigenvalues_oracle(A)
    np.testing.assert_array_equal(eigenvalues_oracle(2.0**-600 * A), 2.0**-600 * ev)
    np.testing.assert_array_equal(eigenvalues_oracle(2.0**600 * A), 2.0**600 * ev)
