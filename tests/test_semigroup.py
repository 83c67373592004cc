import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from reduction_lab import (
    Grid1D,
    LinearFamily,
    NoConvergence,
    OverflowRisk,
    expm,
    growth_bound_estimate,
    is_essentially_nonnegative,
    laplacian_1d,
    positivity_of_semigroup_check,
    semigroup,
    spectral_bound,
)
from reduction_lab.checks import FAMILY_KINDS, SEMIGROUP_POSITIVITY_TOL
from reduction_lab.gallery import random_diagonal, random_ess_nonneg
from reduction_lab.rng import XorShift64Star
from reduction_lab.scenario import parse_scenario
from helpers import ladder_probes
from test_golden import GOLDEN

SYM = np.array([[-1.0, 1.0], [1.0, -1.0]])


def test_expm_nilpotent():
    np.testing.assert_array_equal(expm([[0.0, 1.0], [0.0, 0.0]], 1.0), [[1.0, 1.0], [0.0, 1.0]])


def test_expm_diagonal():
    E = expm(np.diag([0.3, -1.2]), 2.0)
    np.testing.assert_allclose(E, np.diag([np.exp(0.6), np.exp(-2.4)]), rtol=1e-14)


def test_expm_symmetric_closed_form():
    E = expm(SYM, 1.0)
    q = np.exp(-2.0)
    expected = 0.5 * np.array([[1.0 + q, 1.0 - q], [1.0 - q, 1.0 + q]])
    np.testing.assert_allclose(E, expected, atol=1e-15)


def test_expm_rejects_negative_time():
    with pytest.raises(ValueError):
        expm(SYM, -0.1)


def test_expm_stays_nonnegative_for_metzler():
    for seed in range(20):
        M = random_ess_nonneg(4, seed)
        for t in (0.1, 1.0, 10.0):
            assert expm(M, t).min() >= -1e-12


@pytest.mark.parametrize("t", [0.1, 1.0, 5.0])
def test_expm_of_a_large_norm_operator_matches_eigh(t):
    # ||M||_inf is about 4e4, so t*M needs many squarings
    grid = Grid1D(100, 1.0, "dirichlet")
    M = laplacian_1d(grid) + np.diag(np.linspace(-1.0, 3.0, 100))
    w, Q = np.linalg.eigh(M)
    reference = (Q * np.exp(t * w)) @ Q.T
    E = expm(M, t)
    assert np.max(np.abs(E - reference)) <= 1e-9 * np.max(np.abs(reference))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.integers(0, 50))
def test_semigroup_property(s, t, seed):
    M = random_ess_nonneg(3, seed)
    both = expm(M, s + t)
    split = expm(M, s) @ expm(M, t)
    norm = max(1.0, float(np.max(np.abs(both).sum(axis=1))))
    assert np.max(np.abs(both - split)) <= 1e-9 * norm


def test_positivity_check_metzler_fixture():
    out = positivity_of_semigroup_check(SYM)
    assert out.passed
    assert out.margin >= 0.0


def test_positivity_check_detects_sign_flip():
    out = positivity_of_semigroup_check([[0.0, -1.0], [-1.0, 0.0]])
    assert out.passed  # the equivalence holds: non-Metzler and non-positive semigroup
    E = expm([[0.0, -1.0], [-1.0, 0.0]], out.witness["t"])
    # the non-Metzler margin
    assert out.margin == -SEMIGROUP_POSITIVITY_TOL * np.abs(E).max() - out.witness["min_entry"]


def test_positivity_check_zero_matrix():
    out = positivity_of_semigroup_check(np.zeros((3, 3)))
    assert out.passed


def test_positivity_equivalence_randomized_both_directions():
    for seed in range(30):
        n = 2 + seed % 5
        A = random_ess_nonneg(n, seed)
        assert positivity_of_semigroup_check(A).passed
        N = A.copy()
        N[0, 1] = -(1.5 + XorShift64Star(seed).uniform())
        assert not is_essentially_nonnegative(N)
        assert positivity_of_semigroup_check(N).passed


def test_growth_bound_diagonal():
    assert abs(growth_bound_estimate(np.diag([-1.0, -3.0])) + 1.0) <= 1e-14


def test_growth_bound_symmetric_fixture():
    assert abs(growth_bound_estimate(SYM)) <= 1e-14


def test_growth_bound_zero_matrix():
    assert growth_bound_estimate(np.zeros((3, 3))) == 0.0


def test_growth_bound_overflowing_norm():
    with np.errstate(over="ignore"), pytest.raises(OverflowRisk):
        growth_bound_estimate(np.full((2, 2), 1e308))


@pytest.mark.filterwarnings("error")
def test_probe_times_lie_on_the_growth_ladder():
    # ||tM||_inf = 0.5, 1 and 4 on the ladder t0*2^k, t0 = 0.5/||M||_inf, of growth_bound_estimate
    assert [t for t, _ in ladder_probes(SYM)] == [0.25, 0.5, 2.0]
    assert [t for t, _ in ladder_probes(np.zeros((3, 3)))] == [0.5, 1.0, 4.0]
    for probe in (growth_bound_estimate, ladder_probes):
        with pytest.raises(OverflowRisk):
            probe(np.full((2, 2), 1e308))


def test_growth_bound_matches_spectral_bound_randomized():
    for seed in range(25):
        M = random_ess_nonneg(5, 8000 + seed)
        spb = spectral_bound(M).spb
        assert abs(growth_bound_estimate(M) - spb) <= 1e-14 * max(1.0, abs(spb))


def test_growth_bound_small_gap_nonlocal(tmp_path):
    # spb 0.24077 with the next eigenvalue at 0.21341: a fit over t <= 50 misses by 1.8e-3
    scenario = tmp_path / "nonlocal.ini"
    scenario.write_text("[family]\nkind = nonlocal\n[operator]\nn = 100\nkernel = gaussian:0.1\n", encoding="utf-8")
    fam = parse_scenario(str(scenario)).family
    M = fam.A + fam.V
    assert abs(growth_bound_estimate(M) - spectral_bound(M).spb) <= 1e-12


@pytest.mark.parametrize(
    "M",
    [np.array([[0.0, 1.0], [0.0, 0.0]]), -np.eye(3) + 5.0 * np.eye(3, k=1)],
    ids=["nilpotent", "jordan3"],
)
def test_growth_bound_defective(M):
    # ||e^{tM}|| grows polynomially on top of e^{spb t}, so the slopes converge only like 1/t
    assert abs(growth_bound_estimate(M) - np.max(np.diagonal(M))) <= 1e-12


def test_growth_bound_doubling_cap(monkeypatch):
    monkeypatch.setattr(semigroup, "MAX_DOUBLINGS", 3)
    with pytest.raises(NoConvergence) as info:
        growth_bound_estimate([[0.0, 1.0], [0.0, 0.0]])
    assert info.value.iterations == 3
    assert info.value.residual > 0.0


def test_growth_bound_scale_invariance():
    M = random_ess_nonneg(5, 3)
    omega = growth_bound_estimate(M)
    for k in range(-8, 9):
        scaled = growth_bound_estimate(10.0**k * M)
        assert abs(scaled - 10.0**k * omega) <= 1e-12 * abs(10.0**k * omega), k


def test_reduction_transfers_to_growth_bound():
    # spb(A) = 0 mixing: omega(m A + V) must not increase in m
    grid = Grid1D(6, 1.0, "neumann")
    A = laplacian_1d(grid)
    V = random_diagonal(6, -1.0, 1.0, 17)
    fam = LinearFamily(A, V)
    omegas = [growth_bound_estimate(fam.matrix_at(float(m))) for m in np.linspace(0.5, 3.0, 6)]
    assert (np.diff(omegas) < 0.0).all()


GOLDEN_OPERATORS = ["laplacian", "elliptic_drift", "nonlocal"]


def _counted_expm(monkeypatch):
    times = []
    direct = semigroup.expm

    def counted(M, t):
        times.append(t)
        return direct(M, t)

    monkeypatch.setattr(semigroup, "expm", counted)
    return times


@pytest.mark.parametrize("name", GOLDEN_OPERATORS)
def test_operator_check_reads_both_semigroup_lines_off_one_expm(monkeypatch, name):
    sc = parse_scenario(str(GOLDEN / f"{name}.ini"))
    builder, grids = FAMILY_KINDS[sc.family_kind]
    times = _counted_expm(monkeypatch)
    lines = {line.name: line for line in builder(sc.family, *map(sc.grid_for, grids))}
    assert len(times) == 1
    # the growth slope read on from the probes' rungs is the estimate's, bit for bit
    assert lines["growth_bound"].witness["omega"] == growth_bound_estimate(sc.family.matrix_at(1.0))


def test_positivity_check_makes_one_expm(monkeypatch):
    times = _counted_expm(monkeypatch)
    for M in (SYM, [[0.0, -1.0], [-1.0, 0.0]], np.zeros((3, 3)), random_ess_nonneg(6, 1)):
        times.clear()
        positivity_of_semigroup_check(M)
        assert len(times) == 1


def _probed_matrices():
    for name in GOLDEN_OPERATORS:
        yield parse_scenario(str(GOLDEN / f"{name}.ini")).family.matrix_at(1.0)
    for n in range(2, 33):
        A = random_ess_nonneg(n, 900 + n)
        N = A.copy()
        N[0, 1] = -(1.5 + XorShift64Star(n).uniform()) * np.max(np.abs(A))
        yield A
        yield N


def test_ladder_probes_match_direct_expm():
    # the squared rungs differ from scipy's expm at the same time by rounding alone
    for M in _probed_matrices():
        for t, E in ladder_probes(M):
            direct = scipy.linalg.expm(t * M)
            assert np.max(np.abs(E - direct)) <= 1e-12 * np.max(np.abs(direct)), (M.shape, t)


def test_probes_stay_bit_identical_while_the_ladder_climbs():
    # each squaring renormalizes its fresh product in place, so no rung already drawn shares an array
    # with a later one: the probes read from the first rungs keep their bytes after 10 more are drawn
    ladder = semigroup.propagators(random_ess_nonneg(6, 11))
    rungs = list(itertools.islice(ladder, semigroup.PROBE_RUNGS[-1] + 1))
    before = [(t, E.tobytes()) for t, E in semigroup.probes(rungs)]
    assert len(list(itertools.islice(ladder, 10))) == 10
    assert [(t, E.tobytes()) for t, E in semigroup.probes(rungs)] == before
