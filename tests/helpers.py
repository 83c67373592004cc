"""Helpers shared by the test modules: the LAPACK reference spb and the semigroup probes."""

import numpy as np

from reduction_lab import semigroup


def lapack_spb(M):
    """LAPACK's spb of M: numpy.linalg.eigvals of M/2^e, scaled back by 2^e, e the frexp exponent of max|M|.

    The scaling is exact, and keeps geev clear of both ends of the double range. Unscaled,
    scipy.linalg.eigvals gives 6.7e-139 for diag(0, t) at any t below about 1e-139, and geev does not
    converge on some wide-range members that it solves once scaled.
    """
    e = int(np.frexp(np.max(np.abs(M)))[1])
    return float(np.ldexp(np.max(np.linalg.eigvals(np.ldexp(M, -e)).real), e))


def ladder_probes(M):
    """The (t, expm(t*M)) probes that the semigroup checks read off M's propagator ladder."""
    return semigroup.probes(semigroup.propagators(M))
