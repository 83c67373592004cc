"""Matrix exponentials and semigroup growth estimation.

In finite dimension the growth bound omega(M) = lim (1/t) log ||e^{tM}||
coincides with the spectral bound, and the semigroup e^{tM} is entrywise
nonnegative for all t >= 0 exactly when M is essentially nonnegative. This
module only computes; `checks.py` certifies both facts with these numbers.
"""

import itertools
import math
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .errors import NoConvergence, OverflowRisk
from .perron import EPS, square_matrix

SCALE_TARGET = 0.5
MAX_DOUBLINGS = 64
PROBE_RUNGS = (0, 1, 3)  # the rungs t0, 2*t0 and 8*t0 at which semigroup_positivity reads e^{tM}


def expm(M, t: float) -> np.ndarray:
    """e^{tM}, by scipy's scaling and squaring with Pade approximants (Al-Mohy & Higham 2009)."""
    from scipy.linalg import expm as scipy_expm  # imported on first use, like the solver's LAPACK

    M = square_matrix(M)
    if not 0.0 <= t < math.inf:
        raise ValueError(f"time must be nonnegative and finite, got {t}")
    return scipy_expm(t * M)


def _renormalized(E):
    """(E/c, log c) for c = ||E||_inf, dividing E, a fresh product, in place; OverflowRisk unless c is
    positive and finite."""
    c = float(np.max(np.abs(E).sum(axis=1)))
    if not (math.isfinite(c) and c > 0.0):
        raise OverflowRisk("propagator norm left the representable range")
    E /= c
    return E, math.log(c)


def _norm_inf(M) -> float:
    """||M||_inf of a validated square M; OverflowRisk, with no warning, where it is not finite."""
    with np.errstate(over="ignore"):
        norm = float(np.max(np.abs(M).sum(axis=1)))
    if not math.isfinite(norm):
        raise OverflowRisk("||M||_inf is not representable")
    return norm


class Rung(NamedTuple):
    """One rung t = t0*2^k of a propagator ladder: E = e^{tM}/||e^{tM}||_inf and L = log ||e^{tM}||_inf.

    `slope` is the growth slope (L(t) - L(t/2))/(t/2) that the squaring onto this rung measured,
    NaN on the first rung; e^{tM} itself is exp(L)*E, and E has the signs of e^{tM}.
    """

    t: float
    E: np.ndarray
    L: float
    slope: float


def propagators(M) -> Iterator[Rung]:
    """The propagator ladder of a validated square M: its Rungs along t = t0*2^k, t0 = SCALE_TARGET/||M||_inf,
    without end.

    Only the first rung calls expm, at ||t0 M||_inf = 0.5, so that e^{t0 M} neither overflows
    nor depends on the units of M; each later rung squares the one before and renormalizes,
    E <- E@E/c, since e^{2tM} = (e^{tM})^2, with L(2t) = L(t) + (L(t) + log c) (Al-Mohy &
    Higham 2009, the squaring phase). The zero matrix, whose e^{tM} is I, starts from
    t0 = SCALE_TARGET. OverflowRisk where ||M||_inf or a propagator norm is not finite.
    """
    t = SCALE_TARGET / (_norm_inf(M) or 1.0)
    E, L = _renormalized(expm(M, t))
    slope = math.nan
    while True:
        yield Rung(t, E, L, slope)
        E, log_c = _renormalized(E @ E)
        step = L + log_c  # L(2t) - L(t)
        slope = step / t
        L += step
        t *= 2.0


def probes(rungs) -> list[tuple[float, np.ndarray]]:
    """(t, e^{tM}) at the PROBE_RUNGS of a ladder, where ||tM||_inf is 0.5, 1 and 4, read from `rungs`,
    the ladder or a list of its first rungs; e^{tM} = exp(L)*E has the signs of E."""
    first = list(itertools.islice(rungs, PROBE_RUNGS[-1] + 1))
    return [(first[k].t, math.exp(first[k].L) * first[k].E) for k in PROBE_RUNGS]


def growth_slope(M, rungs) -> float:
    """The growth rate of a validated square M read off `rungs`, its ladder from the first rung on: the
    first slope within 4*n*eps*||M||_inf of the one before, NoConvergence after MAX_DOUBLINGS squarings."""
    tol = 4.0 * M.shape[0] * EPS * _norm_inf(M)
    omega = prev = math.nan
    for rung in itertools.islice(rungs, 1, MAX_DOUBLINGS + 1):
        prev, omega = omega, rung.slope
        if abs(omega - prev) <= tol:
            return omega
    raise NoConvergence(
        f"growth-rate slopes did not settle to {tol:.3e} within {MAX_DOUBLINGS} doublings",
        residual=abs(omega - prev),
        iterations=MAX_DOUBLINGS,
    )


def growth_bound_estimate(M) -> float:
    """omega(M) = lim (1/t) log ||e^{tM}||_inf, read off the propagator ladder of M.

    The ladder squares e^{tM} from ||tM||_inf = 0.5 on, so nothing overflows, and
    each squaring gives the slope omega_j = (L(2t) - L(t))/t of L(t) = log ||e^{tM}||_inf.
    Its bias decays like e^{-gap*t}/t, or like 1/t for a defective top eigenvalue. The
    slope is returned once two successive values agree to 4*n*eps*||M||_inf;
    NoConvergence is raised after MAX_DOUBLINGS doublings. Only expm is used, so the
    estimate is independent of the Perron solver.
    """
    M = square_matrix(M)
    return growth_slope(M, propagators(M))
