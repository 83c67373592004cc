"""Characteristic-polynomial eigenvalue oracle.

Deliberately independent of the Noda inverse-iteration solver: coefficients
come from the Faddeev-LeVerrier recurrence and roots from a simultaneous
Durand-Kerner iteration. Restricted to n <= 8, where the coefficient route is
still well conditioned for the test matrices this backs.
"""

import numpy as np

from .errors import DimensionTooLarge, NoConvergence
from .perron import square_matrix

MAX_ORACLE_DIM = 8
DK_MAX_ITERATIONS = 10_000
DK_TOL = 1e-12


def characteristic_polynomial(M) -> np.ndarray:
    """Monic coefficients [1, c1, ..., cn] of det(lambda*I - M)."""
    M = square_matrix(M)
    n = M.shape[0]
    eye = np.eye(n)
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    Mk = np.zeros((n, n))
    for k in range(1, n + 1):
        Mk = M @ Mk + coeffs[k - 1] * eye
        coeffs[k] = -np.trace(M @ Mk) / k
    return coeffs


def _durand_kerner(coeffs: np.ndarray) -> np.ndarray:
    n = len(coeffs) - 1
    if n == 1:
        return np.array([-coeffs[1]], dtype=complex)
    # perturbed unit-circle starts, the classical (0.4 + 0.9i)^j pattern
    z = (0.4 + 0.9j) ** np.arange(n)
    abs_coeffs = np.abs(coeffs)
    eps = np.finfo(float).eps
    for _ in range(DK_MAX_ITERATIONS):
        p = np.polyval(coeffs, z)
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, 1.0)
        den = diff.prod(axis=1)
        bad = den == 0.0
        if bad.any():
            z = z + 1e-8 * (0.6 + 0.8j) * np.where(bad, 1.0, 0.0)
            continue
        step = p / den
        z = z - step
        if float(np.max(np.abs(step))) <= DK_TOL * (1.0 + float(np.max(np.abs(z)))):
            return z
        # clustered roots stall above DK_TOL; accept once every residual sits
        # at the evaluation noise floor
        floor = 16.0 * n * eps * np.polyval(abs_coeffs, np.abs(z))
        if (np.abs(np.polyval(coeffs, z)) <= floor).all():
            return z
    raise NoConvergence(f"Durand-Kerner did not settle within {DK_MAX_ITERATIONS} iterations")


def eigenvalues_oracle(M) -> np.ndarray:
    """All eigenvalues of M (complex array), for n <= 8.

    M is divided by 2^e, e the binary exponent of max|M|, before its polynomial is
    formed, and the roots are multiplied back by 2^e. Both steps are exact, so the
    coefficients neither overflow nor underflow and the oracle of 2^k*M is 2^k times
    the oracle of M.
    """
    M = square_matrix(M)
    n = M.shape[0]
    if n > MAX_ORACLE_DIM:
        raise DimensionTooLarge(f"oracle supports n <= {MAX_ORACLE_DIM}, got n = {n}")
    if n == 1:
        return np.array([complex(M[0, 0])])
    _, e = np.frexp(np.max(np.abs(M)))
    z = _durand_kerner(characteristic_polynomial(np.ldexp(M, -e)))
    return np.ldexp(z.real, e) + 1j * np.ldexp(z.imag, e)
