"""Seeded randomized check battery behind the CLI `suite` subcommand.

Every line is a pure function of its seed, so reports are byte-identical
across runs; seeds run in order.
"""

from dataclasses import replace

import numpy as np

from .checks import (
    GROWTH_TOL,
    CheckLine,
    judge,
    kingman_superconvexity_check,
    karlin_monotonicity_check,
    linear_family_lines,
    positivity_of_semigroup_check,
    strict_convexity_probe,
)
from .gallery import (
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    random_diagonal,
    random_ess_nonneg,
    random_stochastic,
)
from .oracle import eigenvalues_oracle
from .perron import spectral_bound
from .rng import XorShift64Star
from .semigroup import growth_bound_estimate

ORACLE_TOL = 1e-8


def seed_battery(seed: int) -> list[CheckLine]:
    """All checks for one seed, in a fixed order, named `s<seed>.<check>`."""
    n = 2 + seed % 5
    A = random_ess_nonneg(n, 1000 + seed)
    V = random_diagonal(n, -1.5, 1.5, 2000 + seed)
    fam = LinearFamily(A, V)
    data_A = spectral_bound(A)

    ev = eigenvalues_oracle(A)
    diff = abs(data_A.spb - float(np.max(ev.real)))
    out = [judge("oracle_agreement", ORACLE_TOL - diff, {"n": n}, 0.0, ("le",))]

    beta_grid = np.linspace(-3.0, 3.0, 11)
    m_grid = np.linspace(0.1, 5.0, 11)
    out += linear_family_lines(fam, data_A, beta_grid, m_grid, 1.0)[0]

    P = random_stochastic(n, 3000 + seed)
    D = random_diagonal(n, 0.2, 2.0, 4000 + seed)
    alpha_grid = np.linspace(0.0, 1.0, 11)
    out.append(karlin_monotonicity_check(KarlinFamily(P, D), alpha_grid))
    scalar_D = np.diag(np.full(n, 1.0 + seed % 3))
    scalar = karlin_monotonicity_check(KarlinFamily(P, scalar_D), alpha_grid)
    out.append(replace(scalar, name="karlin_scalar_invariance"))

    rng = XorShift64Star(6000 + seed)
    c = np.array([[0.2 + rng.uniform() for _ in range(n)] for _ in range(n)])
    g = np.array([[-1.0 + 2.0 * rng.uniform() for _ in range(n)] for _ in range(n)])
    theta_grid = np.linspace(-1.0, 1.0, 9)
    kingman = kingman_superconvexity_check(KingmanFamily(c, g), theta_grid)
    out.append(replace(kingman, name="kingman_logconvexity"))

    t_grid = [0.01, 0.1, 1.0, 5.0]
    out.append(positivity_of_semigroup_check(A, t_grid))
    N = A.copy()
    N[0, 1] = -(1.5 + XorShift64Star(7000 + seed).uniform())
    out.append(replace(positivity_of_semigroup_check(N, t_grid), name="semigroup_counterexample"))

    G = random_ess_nonneg(5, 8000 + seed)
    spb_G = spectral_bound(G).spb
    omega = growth_bound_estimate(G)
    gtol = GROWTH_TOL * max(1.0, abs(spb_G))
    out.append(judge("growth_bound", gtol - abs(omega - spb_G), {"omega": omega}, 0.0, ("le",)))

    out.append(strict_convexity_probe(fam, beta_grid))
    tag = f"s{seed:03d}"
    return [replace(line, name=f"{tag}.{line.name}") for line in out]


def run_suite(seed_count: int) -> list[CheckLine]:
    """The battery over seeds 0..seed_count-1, in seed order."""
    if seed_count < 1:
        raise ValueError("seed count must be >= 1")
    return [line for seed in range(seed_count) for line in seed_battery(seed)]
