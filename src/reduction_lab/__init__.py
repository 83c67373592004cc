"""Spectral bounds of Metzler matrix families m*A + beta*V.

The library computes spectral bounds and Perron vectors of essentially
nonnegative matrices, builds the classical operator families that combine
mixing with spatially heterogeneous growth (stochastic dispersal patterns,
log-affine entry families, discretized diffusion and nonlocal operators), and
numerically certifies the convexity, monotone-reduction, and derivative
inequalities those families satisfy.
"""

from .checks import (
    CheckLine,
    SweepResult,
    check_midpoint_convexity,
    check_monotone_reduction,
    derivative_bound_check,
    find_threshold,
    homogeneity_check,
    is_resolvent_positive_at,
    kingman_superconvexity_check,
    kirkland_check,
    karlin_monotonicity_check,
    lindqvist_check,
    perron_derivative,
    positivity_of_semigroup_check,
    strict_convexity_probe,
    sweep_spb_in_beta,
    sweep_spb_in_m,
)
from .errors import (
    DimensionTooLarge,
    InvalidAlpha,
    InvariantViolation,
    NegativeKernel,
    NoConvergence,
    NonPositiveDiffusion,
    NonUniformGrid,
    NoSignChange,
    NotEssentiallyNonnegative,
    NotIrreducible,
    NotMonotoneOnBracket,
    OverflowRisk,
    ParseError,
    ReductionLabError,
    SingularResolvent,
    ZeroSpectralRadius,
)
from .gallery import (
    Grid1D,
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    elliptic_1d,
    karlin_matrix,
    karlin_to_linear,
    kingman_family_eval,
    laplacian_1d,
    nonlocal_operator,
    random_diagonal,
    random_ess_nonneg,
    random_stochastic,
)
from .matrixio import format_matrix, load_matrix, parse_matrix, save_matrix
from .oracle import characteristic_polynomial, eigenvalues_oracle
from .perron import (
    SccDecomposition,
    SpectralData,
    is_essentially_nonnegative,
    is_irreducible,
    perron_vectors,
    resolvent,
    scc_decomposition,
    spectral_bound,
    square_matrix,
)
from .semigroup import expm, growth_bound_estimate

__version__ = "0.1.0"
