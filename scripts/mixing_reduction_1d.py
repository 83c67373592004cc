#!/usr/bin/env python3
"""Greater mixing reduces growth: 1-D diffusion with a heterogeneous rate.

Builds a reflecting (Neumann) diffusion operator A on n interior points plus a
random bounded growth profile V, sweeps the mixing strength m, and certifies
that spb(m*A + V) never increases. With reflecting boundaries spb(A) = 0, so
the non-increase is exactly what the reduction inequality predicts.
"""

import argparse

import numpy as np

from reduction_lab import (
    Grid1D,
    LinearFamily,
    check_monotone_reduction,
    growth_bound_estimate,
    is_irreducible,
    laplacian_1d,
    spectral_bound,
    sweep_spb_in_m,
)
from reduction_lab.rng import XorShift64Star


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=40)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--m-lo", type=float, default=0.5)
    parser.add_argument("--m-hi", type=float, default=4.0)
    parser.add_argument("--points", type=int, default=8)
    args = parser.parse_args()

    grid = Grid1D(args.n, 1.0, "neumann")
    A = laplacian_1d(grid)
    rng = XorShift64Star(args.seed)
    v = np.array([rng.uniform() for _ in range(args.n)])
    fam = LinearFamily(A, np.diag(v))

    spb_A = spectral_bound(A).spb
    print(f"n={args.n} reflecting diffusion, spb(A) = {spb_A:.3e}, growth in [0, 1)")
    sweep = sweep_spb_in_m(fam, np.linspace(args.m_lo, args.m_hi, args.points))
    print(f"{'m':>8}  {'spb(mA+V)':>14}  {'omega estimate':>14}")
    for m, s in zip(sweep.grid, sweep.values):
        omega = growth_bound_estimate(fam.matrix_at(float(m)))
        print(f"{m:8.3f}  {s:14.8f}  {omega:14.8f}")
    outcome = check_monotone_reduction(sweep, spb_A, is_irreducible(A))
    print(f"reduction check: {'pass' if outcome.passed else 'fail'} (worst margin {outcome.margin:.3e})")


if __name__ == "__main__":
    main()
