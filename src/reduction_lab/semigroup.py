"""Matrix exponentials and semigroup growth estimation.

In finite dimension the growth bound omega(M) = lim (1/t) log ||e^{tM}||
coincides with the spectral bound, and the semigroup e^{tM} is entrywise
nonnegative for all t >= 0 exactly when M is essentially nonnegative. This
module only computes; `checks.py` certifies both facts with these numbers.
"""

import math

import numpy as np

from .errors import NoConvergence, OverflowRisk
from .perron import EPS, square_matrix

SCALE_TARGET = 0.5
MAX_DOUBLINGS = 64


def expm(M, t: float) -> np.ndarray:
    """e^{tM}, by scipy's scaling and squaring with Pade approximants (Al-Mohy & Higham 2009)."""
    from scipy.linalg import expm as scipy_expm  # imported on first use, like the solver's LAPACK

    M = square_matrix(M)
    if t < 0:
        raise ValueError("time must be nonnegative")
    return scipy_expm(t * M)


def _renormalized(E):
    """(E/c, log c) for c = ||E||_inf; OverflowRisk unless c is positive and finite."""
    c = float(np.max(np.abs(E).sum(axis=1)))
    if not (math.isfinite(c) and c > 0.0):
        raise OverflowRisk("propagator norm left the representable range")
    return E / c, math.log(c)


def growth_bound_estimate(M) -> float:
    """omega(M) = lim (1/t) log ||e^{tM}||_inf by renormalized repeated squaring.

    Starting at t = SCALE_TARGET/||M||_inf, where ||tM||_inf = 0.5, the
    propagator is kept as E = e^{tM}/||e^{tM}||_inf with L(t) = log ||e^{tM}||_inf
    beside it. Squaring E and dividing by the norm c of the square doubles t
    with L(2t) = 2 L(t) + log c, so nothing overflows, and gives the slope
    omega_j = (L(2t) - L(t))/t. Its bias decays like e^{-gap*t}/t, or like 1/t
    for a defective top eigenvalue. The slope is returned once two successive
    values agree to 4*n*eps*||M||_inf; NoConvergence is raised after
    MAX_DOUBLINGS doublings. Only expm is used, so the estimate is independent
    of the Perron solver.
    """
    M = square_matrix(M)
    norm = float(np.max(np.abs(M).sum(axis=1)))
    if norm == 0.0:
        return 0.0
    if not math.isfinite(norm):
        raise OverflowRisk("||M||_inf is not representable")
    tol = 4.0 * M.shape[0] * EPS * norm
    t = SCALE_TARGET / norm
    E, log_norm = _renormalized(expm(M, t))
    omega = prev = math.nan
    for _ in range(MAX_DOUBLINGS):
        E, log_c = _renormalized(E @ E)
        step = log_norm + log_c  # L(2t) - L(t)
        prev, omega = omega, step / t
        if abs(omega - prev) <= tol:
            return omega
        log_norm += step
        t *= 2.0
    raise NoConvergence(
        f"growth-rate slopes did not settle to {tol:.3e} within {MAX_DOUBLINGS} doublings",
        residual=abs(omega - prev),
        iterations=MAX_DOUBLINGS,
    )
