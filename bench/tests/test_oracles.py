"""The benchmark's oracles against the repository's naive test oracles and known values."""

import importlib.util
import os
from fractions import Fraction

import numpy as np
import pytest

from bench import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _repo_oracles():
    spec = importlib.util.spec_from_file_location("repo_test_oracles", os.path.join(ROOT, "tests", "oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


naive = _repo_oracles()
PARABOLA = oracles.curve_polys("parabola")
VERONESE3 = oracles.curve_polys("veronese:3")


def test_recount_frozen_values():
    assert oracles.exact_counts(PARABOLA, 10, [0.5, 1e-9], (0.0, 1.0)) == [41, 13]


@pytest.mark.parametrize("psi", [0.23, 0.5, 0.77])
@pytest.mark.parametrize("theta", [(0.0, (0.0,)), (0.25, (0.4,))])
def test_recount_matches_naive_parabola(psi, theta):
    lam, gam = theta
    want, triples = naive.naive_count_R([lambda x: x * x], 37, psi, (0.17, 0.83), lam=lam, gammas=list(gam))
    assert oracles.exact_counts(PARABOLA, 37, [psi], (0.17, 0.83), lam, gam) == [want]
    rows = np.asarray(triples, dtype=np.int64)
    assert oracles.rows_inside(PARABOLA, rows, 37, psi, (0.17, 0.83), lam, gam).all()
    points = oracles.exact_points(PARABOLA, 37, psi, (0.17, 0.83), lam, gam)
    assert sorted(set(points.tolist())) == sorted({(a + lam) / q for q, a, _ in triples})


def test_recount_matches_naive_veronese_and_poly():
    fs = [lambda x: x**2, lambda x: x**3]
    want, triples = naive.naive_count_R(fs, 24, 0.62, (0.05, 0.95), lam=0.1, gammas=[0.3, 0.7])
    assert oracles.exact_counts(VERONESE3, 24, [0.62], (0.05, 0.95), 0.1, (0.3, 0.7)) == [want]
    rows = np.asarray(triples, dtype=np.int64)
    assert oracles.rows_inside(VERONESE3, rows, 24, 0.62, (0.05, 0.95), 0.1, (0.3, 0.7)).all()
    poly = oracles.curve_polys("poly:0,0.5,1;1,0,0,-2")
    fs = [lambda x: 0.5 * x + x * x, lambda x: 1 - 2 * x**3]
    for psi in (0.2, 0.41, 0.9):
        # the naive oracle tests |y - b| < psi - 1e-12 in floats, exact at this small Q
        want, _ = naive.naive_count_R(fs, 30, psi, (0.0, 1.0))
        assert oracles.exact_counts(poly, 30, [psi - 1e-12], (0.0, 1.0)) == [want]
    # the double 0.2 lies above 1/5, so pairs exactly 1/5 from an integer are inside
    assert oracles.exact_counts(poly, 30, [0.2], (0.0, 1.0))[0] > naive.naive_count_R(fs, 30, 0.2, (0.0, 1.0))[0]


def test_recount_of_many_psi_matches_one_at_a_time():
    psis = [0.1, 0.3, 0.5, 0.55, 0.8]
    together = oracles.exact_counts(VERONESE3, 64, psis, (0.0, 1.0))
    assert together == [oracles.exact_counts(VERONESE3, 64, [p], (0.0, 1.0))[0] for p in psis]


def test_recount_decides_exact_ties():
    # a^2 - b q = -0.6 q exactly at (7875, 6720, 5735); 0.6 as a double lies just below 3/5
    row = np.array([[7875, 6720, 5735]])
    assert not oracles.rows_inside(PARABOLA, row, 8192, 0.6, (0.0, 1.0))[0]
    assert oracles.rows_inside(PARABOLA, row, 8192, 0.6000000000000001, (0.0, 1.0))[0]
    # at psi = 0.5 the half-integer pairs of Q = 10 sit exactly on the boundary
    assert oracles.exact_counts(PARABOLA, 10, [0.5, 0.5000000000000001], (0.0, 1.0)) == [41, 49]


def test_rows_inside_rejects_rows_outside():
    rows = np.array([[7, 3, 1], [7, 3, 2], [3, 1, 0], [7, 9, 11]])  # good, wrong b, q <= Q/2, a outside B
    assert oracles.rows_inside(PARABOLA, rows, 10, 0.5, (0.0, 1.0)).tolist() == [True, False, False, False]


def _curve_lattice(polys, x, c, Q, psi):
    """Columns of g^{-1} G(x), written out from the frame matrix of the curve."""
    m = len(polys)
    A = np.zeros((m + 2, m + 2))
    for j, p in enumerate(polys):
        f = float(oracles._poly_exact(p, Fraction(x)))
        fp = float(oracles._poly_exact(tuple(k * c for k, c in enumerate(p))[1:], Fraction(x)))
        A[j, 0], A[j, 1], A[j, 2 + j] = (f - x * fp) / psi, fp / psi, -1.0 / psi
    A[m, 0], A[m, 1] = x * psi**m * Q, -psi**m * Q
    A[m + 1, 0] = 1.0 / (c * Q)
    return A


@pytest.mark.parametrize("polys,box", [(PARABOLA, 20), (VERONESE3, 14)])
def test_delta_scan_matches_brute_force(polys, box):
    c, Q, psi, cap = 0.1, 100.0, 0.3, 1.3
    xs = np.linspace(0.13, 0.87, 12)
    scanned = oracles.delta_scan(polys, xs, c, Q, psi, cap)
    below = 0
    for x, got in zip(xs, scanned):
        brute = naive.brute_svp_sup(_curve_lattice(polys, float(x), c, Q, psi), box=box)
        if brute < cap:
            below += 1
            assert got == pytest.approx(brute, abs=1e-9)
        else:
            assert got >= cap - 1e-9
    assert below >= 3


def test_delta_scan_refuses_unsafe_parameters():
    with pytest.raises(ValueError):
        oracles.delta_scan(PARABOLA, [0.5], 0.1, 100.0, 0.45, 1.3)  # 1/(2 psi) < cap


def test_interval_union():
    assert oracles.interval_union([0, 0.5, 3], [1, 2, 4]) == 3.0
    assert oracles.interval_union([0, 0.2, 5], [1, 0.4, 5]) == 1.0  # nested; empty interval dropped
    assert oracles.coverage([0.1, 0.95], 0.1, (0.0, 1.0)) == pytest.approx(0.2 + 0.15)
    rng = np.random.default_rng(7)
    lo = rng.uniform(0, 10, 300)
    hi = lo + rng.uniform(0, 0.2, 300)
    grid = naive.grid_union_measure(list(zip(lo, hi)), (0.0, 10.0))
    assert oracles.interval_union(np.clip(lo, 0, 10), np.clip(hi, 0, 10)) == pytest.approx(grid, abs=1e-3)


def test_witness_recheck():
    # parabola, Q = 100, psi = 0.5, c = 1, M = 2: 600 < q < 1200, |q x - a| < 0.06, |q f - b| < 3
    args = dict(c=1.0, Q=100.0, psi=0.5, M=2.0)
    assert oracles.witness_ok(PARABOLA, 0.3, 610, 183, [55], **args)
    assert not oracles.witness_ok(PARABOLA, 0.3, 600, 180, [54], **args)
    assert not oracles.witness_ok(PARABOLA, 0.3, 610, 184, [55], **args)
    assert not oracles.witness_ok(PARABOLA, 0.3, 610, 183, [51], **args)


def test_paper_constants_and_slope():
    assert oracles.paper_constants(2, 2.0, 1.0) == pytest.approx((72.0, 432.0))
    assert oracles.lower_bound(2, 2.0, 1.0, 1024, 0.3, (0.0, 1.0)) == (True, pytest.approx(1024**2 * 0.3 / 1728))
    assert oracles.loglog_slope([(1, 3), (2, 12), (4, 48)]) == pytest.approx(2.0)
    assert oracles.pair_count(10, (0.0, 1.0)) == sum(q + 1 for q in range(6, 11))
