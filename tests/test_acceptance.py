"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. All tolerances are fixed here; seeds are fixed so every run checks the
same instances.
"""

import subprocess
import sys
import time

import numpy as np

from reduction_lab import (
    Grid1D,
    KarlinFamily,
    KingmanFamily,
    LinearFamily,
    check_midpoint_convexity,
    derivative_bound_check,
    eigenvalues_oracle,
    find_threshold,
    growth_bound_estimate,
    karlin_monotonicity_check,
    kingman_superconvexity_check,
    kirkland_check,
    laplacian_1d,
    lindqvist_check,
    perron_derivative,
    positivity_of_semigroup_check,
    spectral_bound,
    sweep_spb_in_beta,
    sweep_spb_in_m,
)
from reduction_lab.checks import CHECK_TOL, scale_of
from reduction_lab.gallery import random_diagonal, random_ess_nonneg, random_stochastic
from reduction_lab.rng import XorShift64Star

A_SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:02d}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} {name}: {detail}"


def _family(seed):
    n = 2 + seed % 5
    A = random_ess_nonneg(n, 1000 + seed)
    V = random_diagonal(n, -1.5, 1.5, 2000 + seed)
    return LinearFamily(A, V)


def test_c01_oracle_agreement():
    t0 = time.monotonic()
    worst = 0.0
    for seed in range(500):
        M = random_ess_nonneg(2 + seed % 5, seed)
        spb = spectral_bound(M).spb
        ev = eigenvalues_oracle(M)
        worst = max(worst, abs(spb - float(np.max(ev.real))))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(1, "oracle agreement", ok, f"worst diff {worst:.2e}, {elapsed:.1f}s of 10s")


def test_c02_convexity_in_beta():
    beta_grid = np.linspace(-3.0, 3.0, 21)
    worst_scaled = np.inf
    for seed in range(200):
        fam = _family(seed)
        sweep = sweep_spb_in_beta(fam, beta_grid)
        report = check_midpoint_convexity(sweep)
        worst_scaled = min(worst_scaled, report.margin / sweep.scale)
        if not report.passed:
            break
    ok = worst_scaled >= -1e-9
    _report(2, "convexity in beta", ok, f"worst scaled second difference {worst_scaled:.2e}")


def test_c03_convexity_and_derivative_in_m():
    m_grid = np.linspace(0.1, 5.0, 21)
    worst_conv = np.inf
    worst_bound = np.inf
    worst_match = 0.0
    for seed in range(200):
        fam = _family(seed)
        sweep = sweep_spb_in_m(fam, m_grid)
        report = check_midpoint_convexity(sweep)
        worst_conv = min(worst_conv, report.margin / sweep.scale)
        scale_A = scale_of(fam.A)
        for m in m_grid[1:-1]:
            out = derivative_bound_check(fam, float(m))
            worst_bound = min(worst_bound, out.margin / scale_A)
            fd = out.witness["fd"]
            analytic = perron_derivative(fam, float(m))
            worst_match = max(worst_match, abs(analytic - fd) / scale_A)
    ok = worst_conv >= -1e-9 and worst_bound >= -1e-6 and worst_match <= 1e-6
    _report(
        3,
        "convexity and derivative bound in m",
        ok,
        f"convexity {worst_conv:.2e}, bound margin {worst_bound:.2e}, fd match {worst_match:.2e}",
    )


def test_c04_closed_form_fixture():
    fam = LinearFamily(A_SYM, np.diag([1.0, -1.0]))
    worst = 0.0
    for m in (0.5, 1.0, 2.0):
        spb = spectral_bound(fam.matrix_at(m)).spb
        worst = max(worst, abs(spb - (-m + np.sqrt(m * m + 1.0))))
    threshold_fam = LinearFamily(A_SYM, np.diag([1.0, -2.0]))
    m_star = find_threshold(threshold_fam, 0.1, 10.0)
    ok = worst <= 1e-10 and abs(m_star - 2.0) <= 1e-8
    _report(4, "closed-form fixture", ok, f"spb err {worst:.2e}, threshold err {abs(m_star - 2.0):.2e}")


def test_c05_karlin_monotonicity():
    fixture = KarlinFamily(np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([2.0, 0.5]))
    values = [spectral_bound(fixture.matrix_at(a)).spb for a in (0.0, 0.5, 1.0)]
    fixture_err = float(np.max(np.abs(np.array(values) - [2.0, 1.25, 1.0])))
    grid = np.linspace(0.0, 1.0, 11)
    strict_ok = True
    const_dev = 0.0
    for seed in range(100):
        n = 2 + seed % 5
        P = random_stochastic(n, 3000 + seed)
        out = karlin_monotonicity_check(KarlinFamily(P, random_diagonal(n, 0.2, 2.0, 4000 + seed)), grid)
        strict_ok = strict_ok and out.passed and out.margin > 0
        c = 0.5 + (seed % 4)
        scalar_vals = [
            spectral_bound(KarlinFamily(P, np.diag(np.full(n, c))).matrix_at(a)).spb for a in grid
        ]
        const_dev = max(const_dev, float(np.ptp(scalar_vals)))
    ok = fixture_err <= 1e-10 and strict_ok and const_dev <= 1e-10
    _report(
        5,
        "dispersal monotonicity",
        ok,
        f"fixture err {fixture_err:.2e}, strict all pass {strict_ok}, scalar deviation {const_dev:.2e}",
    )


def test_c06_discretized_operators():
    t0 = time.monotonic()
    neumann_worst = 0.0
    for n in (10, 100):
        spb = spectral_bound(laplacian_1d(Grid1D(n, 1.0, "neumann"))).spb
        neumann_worst = max(neumann_worst, abs(spb))
    grid = Grid1D(99, 1.0, "dirichlet")
    expected = -(4.0 / grid.h**2) * np.sin(np.pi * grid.h / 2.0) ** 2
    dirichlet_err = abs(spectral_bound(laplacian_1d(grid)).spb - expected)
    gn = Grid1D(100, 1.0, "neumann")
    rng = XorShift64Star(42)
    v = np.array([rng.uniform() for _ in range(100)])
    fam = LinearFamily(laplacian_1d(gn), np.diag(v))
    sweep = sweep_spb_in_m(fam, np.linspace(1.0, 4.0, 7))
    non_increasing = bool((np.diff(sweep.values) <= 1e-10).all())
    elapsed = time.monotonic() - t0
    ok = neumann_worst <= 1e-10 and dirichlet_err <= 1e-10 and non_increasing and elapsed < 20.0
    _report(
        6,
        "discretized operators",
        ok,
        f"neumann |spb| {neumann_worst:.2e}, dirichlet err {dirichlet_err:.2e}, "
        f"reduction non-increasing {non_increasing}, {elapsed:.1f}s of 20s",
    )


def test_c07_lindqvist_and_kirkland():
    worst_l = np.inf
    worst_k = np.inf
    equality_ok = True
    for seed in range(500):
        n = 2 + seed % 5
        A = random_ess_nonneg(n, 10000 + seed)
        D = random_diagonal(n, -2.0, 2.0, 20000 + seed)
        lout = lindqvist_check(A, D)
        kout = kirkland_check(A)
        worst_l = min(worst_l, lout.margin / scale_of(A, D))
        worst_k = min(worst_k, kout.margin / scale_of(A))
    for seed in range(50):
        n = 2 + seed % 5
        # column-stochastic mixing gives e^T A = 0 = spb(A) e^T exactly
        C = random_stochastic(n, seed).T
        A_eq = (C - np.eye(n)) * np.diagonal(random_diagonal(n, 0.3, 2.0, seed + 500))[None, :]
        out = kirkland_check(A_eq)
        t = CHECK_TOL * scale_of(A_eq)
        equality_ok = equality_ok and out.passed and abs(out.margin) <= t
    ok = worst_l >= -1e-9 and worst_k >= -1e-9 and equality_ok
    _report(
        7,
        "lindqvist and kirkland inequalities",
        ok,
        f"margins {worst_l:.2e} / {worst_k:.2e}, equality branch {equality_ok}",
    )


def test_c08_kingman_superconvexity():
    fixture = KingmanFamily(np.ones((2, 2)), np.diag([1.0, -1.0]))
    worst = 0.0
    for theta in np.linspace(-2.0, 2.0, 9):
        rho = spectral_bound(fixture.matrix_at(float(theta))).spb
        worst = max(worst, abs(rho - 2.0 * np.cosh(theta)))
    fixture_report = kingman_superconvexity_check(fixture, np.linspace(-2.0, 2.0, 9))
    seeded_ok = True
    for seed in range(100):
        n = 2 + seed % 4
        rng = XorShift64Star(6000 + seed)
        c = np.array([[0.2 + rng.uniform() for _ in range(n)] for _ in range(n)])
        g = np.array([[-1.0 + 2.0 * rng.uniform() for _ in range(n)] for _ in range(n)])
        report = kingman_superconvexity_check(KingmanFamily(c, g), np.linspace(-1.0, 1.0, 9))
        seeded_ok = seeded_ok and report.passed
    ok = worst <= 1e-9 and fixture_report.passed and seeded_ok
    _report(
        8,
        "superconvexity of the spectral radius",
        ok,
        f"fixture rho err {worst:.2e}, log-convex fixture {fixture_report.passed}, seeded {seeded_ok}",
    )


def test_c09_semigroup():
    worst = 0.0
    for seed in range(50):
        M = random_ess_nonneg(5, 8000 + seed)
        spb = spectral_bound(M).spb
        worst = max(worst, abs(growth_bound_estimate(M) - spb) / scale_of(M))
    equivalence_ok = True
    for seed in range(50):
        n = 2 + seed % 5
        A = random_ess_nonneg(n, seed)
        equivalence_ok = equivalence_ok and positivity_of_semigroup_check(A).passed
        N = A.copy()
        N[0, 1] = -(1.5 + XorShift64Star(7000 + seed).uniform())
        equivalence_ok = equivalence_ok and positivity_of_semigroup_check(N).passed
    ok = worst <= 1e-14 and equivalence_ok
    _report(
        9,
        "growth bound and semigroup positivity",
        ok,
        f"worst scaled omega error {worst:.2e}, equivalence both directions {equivalence_ok}",
    )


def test_c10_cli_determinism(tmp_path):
    outs = []
    runtimes = []
    for k in (1, 2):
        out = tmp_path / f"suite{k}.txt"
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "reduction_lab", "suite", "--seed-count", "20", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        runtimes.append(time.monotonic() - t0)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    ok = identical and max(runtimes) < 60.0
    _report(
        10,
        "CLI suite determinism",
        ok,
        f"byte-identical {identical}, runtimes {runtimes[0]:.1f}s/{runtimes[1]:.1f}s of 60s",
    )
