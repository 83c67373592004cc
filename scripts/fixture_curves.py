#!/usr/bin/env python3
"""Sweep the two closed-form demo families and write their curves as CSV.

The 2x2 mixing family has spb(m*A + V) = -m + sqrt(m^2 + 1), so the output is
easy to eyeball; the dispersal family reproduces the alpha -> rho curve
{2, 1.25, 1} at alpha in {0, 0.5, 1}.
"""

import argparse
import os

import numpy as np

from reduction_lab import (
    KarlinFamily,
    LinearFamily,
    check_midpoint_convexity,
    check_monotone_reduction,
    is_irreducible,
    perron_derivative,
    spectral_bound,
    sweep_spb_in_m,
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--points", type=int, default=41)
    args = parser.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    fam = LinearFamily([[-1.0, 1.0], [1.0, -1.0]], np.diag([1.0, -1.0]))
    m_grid = np.linspace(0.1, 5.0, args.points)
    sweep = sweep_spb_in_m(fam, m_grid)
    path = os.path.join(args.out_dir, "mixing_family.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("m,spb,closed_form,analytic_derivative\n")
        for m, s in zip(sweep.grid, sweep.values):
            closed = -m + np.sqrt(m * m + 1.0)
            fh.write(f"{m:.17g},{s:.17g},{closed:.17g},{perron_derivative(fam, float(m)):.17g}\n")
    report = check_midpoint_convexity(sweep)
    mono = check_monotone_reduction(sweep, spectral_bound(fam.A).spb, is_irreducible(fam.A))
    print(f"wrote {path}")
    print(f"  convex: {report.passed} (min second difference {report.margin:.3e})")
    print(f"  reduction: {'pass' if mono.passed else 'fail'} (worst margin {mono.margin:.3e})")

    karlin = KarlinFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 0.5]))
    alpha_grid = np.linspace(0.0, 1.0, args.points)
    path = os.path.join(args.out_dir, "dispersal_family.csv")
    with open(path, "w", newline="\n") as fh:
        fh.write("alpha,rho\n")
        for a in alpha_grid:
            rho = spectral_bound(karlin.matrix_at(float(a))).spb
            fh.write(f"{a:.17g},{rho:.17g}\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
