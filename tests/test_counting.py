import csv
import io
import math

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import counting, jets, lattice
from nearcurve.counting import (
    count_R_psi_sweep,
    enumerate_R,
    recheck_triples,
    witness_in_R,
    write_triples_csv,
)
from nearcurve.curves import CallableCoordinate, Curve, MonomialCoordinate
from nearcurve.detector import GOOD_SET_GUARD, detect_witnesses
from oracles import (
    grid_union_measure,
    naive_count_R,
    naive_enumerate,
    naive_sweep,
    sweep_union_measure,
)


def test_enumeration_oracle_values(parabola):
    # frozen values, confirmed by the naive double-loop oracle below
    res = enumerate_R(parabola, 10, 0.5, (0.0, 1.0))
    assert res.count == 41
    assert res.boundary == 8  # the four half-integer pairs graze both neighbours
    res2 = enumerate_R(parabola, 10, 1e-9, (0.0, 1.0))
    assert res2.count == 13
    naive41, triples41 = naive_count_R([lambda x: x * x], 10, 0.5, (0.0, 1.0))
    naive13, _ = naive_count_R([lambda x: x * x], 10, 1e-9, (0.0, 1.0))
    assert naive41 == 41 and naive13 == 13
    assert sorted(map(tuple, res.triples.tolist())) == triples41


@pytest.mark.parametrize("psi", [0.23, 0.5, 0.77])
@pytest.mark.parametrize("theta", [(0.0, (0.0,)), (0.25, (0.4,))])
def test_enumeration_matches_naive_oracle(parabola, psi, theta):
    lam, gam = theta
    res = enumerate_R(parabola, 37, psi, (0.17, 0.83), theta)
    count, triples = naive_count_R([lambda x: x * x], 37, psi, (0.17, 0.83),
                                   lam=lam, gammas=list(gam))
    assert res.count == count
    assert sorted(map(tuple, res.triples.tolist())) == triples


def test_enumeration_matches_naive_oracle_veronese(veronese3):
    res = enumerate_R(veronese3, 24, 0.62, (0.05, 0.95), (0.1, (0.3, 0.7)))
    count, triples = naive_count_R([lambda x: x**2, lambda x: x**3], 24, 0.62,
                                   (0.05, 0.95), lam=0.1, gammas=[0.3, 0.7])
    assert res.count == count
    assert sorted(map(tuple, res.triples.tolist())) == triples


def test_enumeration_edge_cases(parabola):
    empty = enumerate_R(parabola, 10, 0.4, (0.7, 0.2))
    assert empty.count == 0 and len(empty.triples) == 0
    with pytest.raises(ValueError):
        enumerate_R(parabola, 10, 0.4, (0.0, 99.0))
    with pytest.raises(ValueError):
        enumerate_R(parabola, 1, 0.4, (0.0, 1.0))
    with pytest.raises(ValueError):
        enumerate_R(parabola, 1 << 17, 0.4, (0.0, 1.0))
    big = enumerate_R(parabola, 16, 0.4, (0.0, 1.0), collect=False)
    assert big.triples is None and big.count > 0


def test_enumeration_collect_matches_count(parabola, veronese3):
    for curve, psi in ((parabola, 0.62), (veronese3, 0.72)):
        res = enumerate_R(curve, 48, psi, (0.1, 0.95))
        assert res.count == len(res.triples)
        assert recheck_triples(curve, res)


def test_triples_are_sorted(parabola):
    res = enumerate_R(parabola, 21, 0.8, (0.0, 1.0))
    rows = list(map(tuple, res.triples.tolist()))
    assert rows == sorted(rows)


def test_count_psi_sweep_consistency(parabola):
    psis = [0.1, 0.3, 0.55]
    sweep = count_R_psi_sweep(parabola, 64, psis, (0.0, 1.0))
    direct = [enumerate_R(parabola, 64, p, (0.0, 1.0), collect=False).count for p in psis]
    assert sweep == direct


def test_count_psi_sweep_validates_like_enumerate(parabola):
    mixed = nc.resolve_curve("mixed")
    bad = [
        (parabola, 16, [1.5, 0.0, -0.2], (0.0, 1.0), None),
        (parabola, 16, [0.3, 1.0], (0.0, 1.0), None),
        (mixed, 16, [0.3], (0.0, 99.0), None),
        (parabola, 1, [0.3], (0.0, 1.0), None),
        (parabola, 1 << 17, [0.3], (0.0, 1.0), None),
        (parabola, 16, [0.3], (0.0, 1.0), (0.0, (0.1, 0.2))),
    ]
    for curve, Q, psis, B, theta in bad:
        with pytest.raises(ValueError):
            count_R_psi_sweep(curve, Q, psis, B, theta)
        raised = 0
        for psi in psis:
            try:
                enumerate_R(curve, Q, psi, B, theta, collect=False)
            except ValueError:
                raised += 1
        assert raised > 0
    psis = [0.1, 0.4]
    assert count_R_psi_sweep(parabola, 16, psis, (0.7, 0.2)) == [0, 0]
    assert count_R_psi_sweep(mixed, 16, psis, (5.0, -5.0)) == [0, 0]
    assert [enumerate_R(parabola, 16, p, (0.7, 0.2)).count for p in psis] == [0, 0]


BLOCK_CURVES = ("parabola", "veronese:3", "mixed")
BLOCK_SHIFTS = (None, (0.25, (0.4,)), (-0.35, (-0.15,)))
BLOCK_WINDOWS = ((0.0, 1.0), (0.1, 0.9), (0.3, 0.7), (0.7, 0.2))
BLOCK_PSIS = (0.1, 0.3, 0.5, 0.62, 0.9)


def _batches(monkeypatch, block):
    # enumerate_R's blocks and the psi sweep's batches, both of `block` pairs
    monkeypatch.setattr(counting, "_BLOCK", block)
    monkeypatch.setattr(counting, "_SWEEP_BATCH", block)


@pytest.mark.parametrize("block", [1, 7, counting._BLOCK])
@pytest.mark.parametrize("name", BLOCK_CURVES)
def test_block_kernel_matches_row_oracle(monkeypatch, name, block):
    # the flat (q, a) blocks against the per-q-row loops they replaced, across block edges
    _batches(monkeypatch, block)
    curve = nc.resolve_curve(name)
    for theta in BLOCK_SHIFTS:
        for B in BLOCK_WINDOWS:
            for Q in (15, 24):
                assert count_R_psi_sweep(curve, Q, BLOCK_PSIS, B, theta) == \
                    naive_sweep(curve, Q, BLOCK_PSIS, B, theta)
                # a guard above psi leaves no window: the clamp at 0 must hold every count there
                with monkeypatch.context() as patch:
                    patch.setattr(counting, "GUARD", 0.4)
                    assert count_R_psi_sweep(curve, Q, BLOCK_PSIS, B, theta) == \
                        naive_sweep(curve, Q, BLOCK_PSIS, B, theta, guard=0.4)
                    res = enumerate_R(curve, Q, 0.3, B, theta)
                    count, boundary, triples = naive_enumerate(curve, Q, 0.3, B, theta, guard=0.4)
                    assert (res.count, res.boundary) == (count, boundary)
                    assert np.array_equal(res.triples, triples)
                for psi in (0.3, 0.5, 0.9):
                    res = enumerate_R(curve, Q, psi, B, theta)
                    count, boundary, triples = naive_enumerate(curve, Q, psi, B, theta)
                    assert (res.count, res.boundary) == (count, boundary)
                    assert res.triples.dtype == triples.dtype
                    assert np.array_equal(res.triples, triples)


@pytest.mark.parametrize("block", [1, 7, 1 << 20])
def test_collected_blocks_fill_one_array(monkeypatch, veronese3, block):
    # cells of no block (an empty B), of blocks without a triple, of one block and of many
    monkeypatch.setattr(counting, "_BLOCK", block)
    theta = (0.25, (0.4, 0.1))
    for B, psi, any_triples in (((0.7, 0.2), 0.3, False), ((0.0, 1.0), 1e-6, False),
                                ((0.0, 1.0), 0.62, True), ((-0.4, 0.9), 0.9, True)):
        res = enumerate_R(veronese3, 30, psi, B, theta)
        count, boundary, triples = naive_enumerate(veronese3, 30, psi, B, theta)
        assert (res.count, res.boundary) == (count, boundary)
        assert (count > 0) == any_triples
        assert res.triples.shape == (count, 4) and res.triples.dtype == np.int64
        assert res.triples.flags.c_contiguous
        assert np.array_equal(res.triples, triples)


EDGE_PSI_LISTS = (
    (0.62, 0.1, 0.5, 0.1, 0.3, 0.62),  # unsorted, with duplicates
    (0.4, 0.6, 0.5),  # psi and 1 - psi both present: the cuts s and 1 - s meet
    (0.3, 0.3 + 2**-17),  # two psi half a cell apart
    (1e-6, 0.999999),
    (),
)


@pytest.mark.parametrize("block", [1, 7, counting._BLOCK])
@pytest.mark.parametrize("name", ["parabola", "veronese:3", "veronese:4", "mixed"])
def test_sweep_histogram_on_edge_psi_lists(monkeypatch, name, block):
    _batches(monkeypatch, block)
    curve = nc.resolve_curve(name)
    for theta in BLOCK_SHIFTS:
        for psis in EDGE_PSI_LISTS:
            for Q in (24, 61):
                counts = count_R_psi_sweep(curve, Q, list(psis), (0.0, 1.0), theta)
                assert counts == naive_sweep(curve, Q, psis, (0.0, 1.0), theta)
    assert count_R_psi_sweep(curve, 24, [], (0.0, 1.0)) == []


def test_sweep_falls_back_to_the_window(monkeypatch):
    # |y| up to 3e11 (3e14) puts the blocks with large x past the cells' float bound
    psis = [0.1, 0.15, 0.3, 0.5, 0.62, 0.9]
    for steep in ("poly:0,0,1e9", "poly:0,0,1e12"):
        steep = nc.resolve_curve(steep)
        for block in (7, counting._BLOCK):
            _batches(monkeypatch, block)
            assert count_R_psi_sweep(steep, 300, psis, (0.0, 1.0)) == \
                naive_sweep(steep, 300, psis, (0.0, 1.0))
    # six coordinates with 8 psi have too many joint states to bin: every pair goes to the flush
    v7 = nc.resolve_curve("veronese:7")
    psis = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    table, S, weights = counting._cell_states([psi - counting.GUARD for psi in psis], 6)
    assert (table, S, weights.shape) == (None, 0, (8, 0))
    for block in (7, counting._BLOCK):
        _batches(monkeypatch, block)
        assert count_R_psi_sweep(v7, 40, psis, (0.0, 1.0)) == naive_sweep(v7, 40, psis, (0.0, 1.0))


def test_sweep_flushes_more_tie_pairs_than_its_buffer_holds(monkeypatch):
    # poly:0,0,1e9 at Q = 300: |y| = 1e9 a^2/q passes 2^30 from a of about 13 on, so nearly every
    # pair lies in the tie cell 0, and one batch holds more tie pairs than the tie buffer
    steep, psis, B = nc.resolve_curve("poly:0,0,1e9"), [0.1, 0.3, 0.5, 0.62], (0.0, 1.0)
    ys = np.concatenate([y[0].copy() for _, _, y in counting._blocks(steep, 300, psis, B, None)[3]])
    for batch, ties in ((counting._SWEEP_BATCH, counting._TIE_BLOCK), (50, 3)):
        assert (np.abs(ys[:batch]) >= counting._Y_LIMIT).sum() > 2 * ties
        monkeypatch.setattr(counting, "_SWEEP_BATCH", batch)
        monkeypatch.setattr(counting, "_TIE_BLOCK", ties)
        assert count_R_psi_sweep(steep, 300, psis, B) == naive_sweep(steep, 300, psis, B)


@pytest.mark.parametrize("block", [1, 7, counting._SWEEP_BATCH])
def test_sweep_joint_states_past_int16_on_veronese4(monkeypatch, block):
    # three coordinates and 7 psi: S = 15 states and BIG = 15^3, so BIG * S = 50,625 does not fit
    # an int16.  Unshifted, y_1 = a is an integer, so every pair has a tie in its first coordinate;
    # with the shift, y_1 = a - 0.15 has none
    monkeypatch.setattr(counting, "_SWEEP_BATCH", block)
    curve, psis = nc.resolve_curve("veronese:4"), (0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.62)
    _, S, _ = counting._cell_states([psi - counting.GUARD for psi in psis], 3)
    assert S == 15 and S**4 > 2**15
    for theta in (None, (0.25, (0.4, 0.1, 0.7))):
        for Q in (24, 61):
            assert count_R_psi_sweep(curve, Q, list(psis), (0.0, 1.0), theta) == \
                naive_sweep(curve, Q, psis, (0.0, 1.0), theta)


PRODUCER_CASES = (
    # x < 0 in B: t = a + lambda < 0 in the power table
    ("parabola", (-0.7, 0.9), BLOCK_PSIS, (24, 61)),
    ("veronese:3", (-0.7, 0.9), BLOCK_PSIS, (24, 61)),
    # six coordinates; t^7 is not exact in doubles at t = a - 0.35, nor at t = a + 1/4 from a = 48.
    # A repeated psi adds no cut: 2 * 3^6 joint states
    ("veronese:7", (0.0, 1.0), (0.62,), (24, 61)),
    ("veronese:7", (0.0, 1.0), (0.3, 0.3), (24, 61)),
    # terms of 1e6 that cancel to |f| <= 1/4 + 1/2, so the bound is far above the values
    ("poly:0.5,-1e6,1e6", (0.0, 1.0), BLOCK_PSIS, (24, 61)),
    # x^2 from the power table and e^x from its canonical y
    ("mixed", (-0.7, 0.9), BLOCK_PSIS, (24, 61)),
)


@pytest.mark.parametrize("block", [1, 7, counting._BLOCK])
@pytest.mark.parametrize("name, B, psis, Qs", PRODUCER_CASES)
def test_sweep_producers_match_the_row_oracle(monkeypatch, name, B, psis, Qs, block):
    # every q-row holds more than 7 pairs, so batches of 7 split rows
    _batches(monkeypatch, block)
    curve = nc.resolve_curve(name)
    assert counting._cell_states([psi - counting.GUARD for psi in psis], curve.n - 1)[1] > 1
    for theta in BLOCK_SHIFTS:
        _, gam = lattice.normalise_theta(theta, curve.n - 1)
        for Q in Qs:
            terms = counting._row_terms(curve, Q, B, gam)  # every polynomial keeps the power table
            assert [ts is not None for ts in terms] == [hasattr(c, "coeffs") for c in curve.coords]
            assert count_R_psi_sweep(curve, Q, list(psis), B, theta) == \
                naive_sweep(curve, Q, psis, B, theta)


def test_sweep_sends_large_non_polynomial_y_to_the_window():
    # 1e11 e^(4x) crosses 2^30 inside every row, and reaches 3e14 at Q = 61, where an ulp of y
    # is far above a cell: those pairs must take the canonical y and _window, pair by pair
    steep = Curve(n=3, domain=(-10.0, 10.0), label="steep",
                  coords=(CallableCoordinate(lambda t: 1e11 * jets.exp(4 * t)), MonomialCoordinate(2)))
    _, gam = lattice.normalise_theta(None, 2)
    assert counting._row_terms(steep, 61, (0.0, 1.0), gam) == [None, [(2, 1.0)]]
    for Q in (24, 61):
        assert count_R_psi_sweep(steep, Q, BLOCK_PSIS, (0.0, 1.0)) == \
            naive_sweep(steep, Q, BLOCK_PSIS, (0.0, 1.0))


@pytest.mark.parametrize("block", [7, counting._BLOCK])
def test_sweep_crosses_the_power_table_bound(monkeypatch, block):
    # terms of 1e6 that cancel: the bound holds up to Q = 536, and from 537 on the
    # coordinate bins its canonical y instead
    _batches(monkeypatch, block)
    curve, B = nc.resolve_curve("poly:0.5,-1e6,1e6"), (0.0, 1.0)
    for Q, table in ((536, True), (537, False), (600, False)):
        terms = counting._row_terms(curve, Q, B, (0.0,))
        assert terms == ([[(0, 0.5), (1, -1e6), (2, 1e6)]] if table else [None])
        assert count_R_psi_sweep(curve, Q, BLOCK_PSIS, B) == naive_sweep(curve, Q, BLOCK_PSIS, B)


def test_row_terms_bound_the_producer_error():
    # parabola and veronese:7 bin up to the cap; poly:0,0,1e9 has |y| up to 3e11 at Q = 300
    for name in ("parabola", "veronese:7"):
        curve = nc.resolve_curve(name)
        assert counting._row_terms(curve, counting.Q_CAP, (0.0, 1.0), (0.5,) * (curve.n - 1))
    assert counting._row_terms(nc.resolve_curve("poly:0,0,1e9"), 300, (0.0, 1.0), (0.0,)) == [None]
    # degree 8: 2^16 g_72 S reaches half a cell at S = 2^36 / 72, about 9.5e8, below 2^30
    steep = nc.resolve_curve("poly:0,0,0,0,0,0,0,0,1e6")
    assert counting._row_terms(steep, 900, (0.0, 1.0), (0.0,)) == [[(8, 1e6)]]
    assert counting._row_terms(steep, 1000, (0.0, 1.0), (0.0,)) == [None]
    psis, B = [0.1, 0.3, 0.5, 0.62], (0.5, 0.55)
    for Q in (900, 1000):
        assert count_R_psi_sweep(steep, Q, psis, B) == naive_sweep(steep, Q, psis, B)


def test_cell_states_agree_with_the_window_off_the_tie_cells(rng):
    # y on every cut, on 0 and on 1, and half a cell, a cell and a few ulp off them, at magnitudes
    # up to the bound, read as the producers give it, v = 2^16 y + e with |e| <= 1/2: wherever the
    # cell of round(v) is not a tie cell, its state must count as _window does
    # 0.25 + 2e-12 puts the cut 1 - s 1e-12 below a cell edge: at y = n + 3/4, the cell
    # above that edge, y + s rounds down to n + 1 and _window finds no b
    ss = [psi - counting.GUARD for psi in (0.1, 0.3, 0.5, 0.62, 1e-6, 0.999999, 0.25 + 2e-12)]
    table, S, rows = counting._cell_states(ss, 1)  # one coordinate: rows = weights
    assert table.max() == S and set(table.tolist()) <= set(range(S + 1))  # S: the one tie state
    marks = np.array([0.0, 1.0] + ss + [1 - s for s in ss])
    whole = np.concatenate(([0.0, 1.0, 4500.0, -4501.0, 2.0**29, -(2.0**29), 2.0**30 - 2, 2.0 - 2.0**30],
                            rng.integers(-2**29, 2**29, size=40).astype(float)))
    cells = np.array([-1.0, -0.5, 0.0, 0.5, 1.0]) / counting._CELLS
    y = (whole[:, None, None] + marks[None, :, None] + cells[None, None, :]).ravel()
    y = np.concatenate([y + k * np.spacing(y) for k in range(-8, 9)]
                       + [rng.uniform(-2.0**30 + 1, 2.0**30 - 1, size=20000)])
    y = y[np.abs(y) < counting._Y_LIMIT]
    count, lo = np.empty((2, len(y)))
    for e in (-0.5, -0.25, 0.0, 0.25, 0.5):
        v = y * counting._CELLS + e  # exact: an ulp of v is at most 2^-6
        cell = (v + counting._ROUND).view(np.int64) & (counting._CELLS - 1)
        assert np.array_equal(cell, np.rint(v).astype(np.int64) % counting._CELLS)
        state = table[cell]
        decided = state < S
        assert 10000 < (~decided).sum() < len(y) - 10000
        for k, s in enumerate(ss):
            counting._window(y, s, count, lo)
            assert np.array_equal(count[decided], rows[k, state[decided]])


def test_sweep_keeps_the_known_float_fault(parabola):
    # scaling.cfg at Q = 8192: psi = 0.6 counts 30,171,993 triples, 7 above the exact
    # 30,171,986, because |y - b| < psi - GUARD is tested in floats (see the module docstring)
    psis = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
    counts = count_R_psi_sweep(parabola, 8192, psis, (0.0, 1.0))
    assert counts == naive_sweep(parabola, 8192, psis, (0.0, 1.0))
    assert counts[5] == 30_171_993


@pytest.mark.parametrize("name", ["parabola", "veronese:3"])
def test_enumeration_at_the_height_cap(name):
    # a narrow window keeps the row oracle cheap at Q = 65536; psi > 1/2 gives pairs with 2 b
    curve, B = nc.resolve_curve(name), (0.5, 0.50001)
    res = enumerate_R(curve, counting.Q_CAP, 0.62, B)
    count, boundary, triples = naive_enumerate(curve, counting.Q_CAP, 0.62, B)
    assert (res.count, res.boundary) == (count, boundary)
    assert np.array_equal(res.triples, triples)
    assert count > len(np.unique(triples[:, :2], axis=0)) > 1000
    assert count_R_psi_sweep(curve, counting.Q_CAP, [0.62], B) == [count]
    with pytest.raises(ValueError):
        enumerate_R(curve, counting.Q_CAP + 1, 0.62, B, collect=False)
    with pytest.raises(ValueError):
        count_R_psi_sweep(curve, counting.Q_CAP + 1, [0.62], B)


def test_a_ranges_match_fractions(rng):
    from fractions import Fraction

    cases = [((0.0, 1.0), 0.0), ((0.1, 0.9), 0.25), ((0.3, 0.3), -0.7), ((0.5, 0.5), 0.5),
             ((-0.9, -0.2), 1.75), ((0.17, 0.83), -3.1)]
    for _ in range(200):
        lo, hi = np.sort(rng.uniform(-10.0, 10.0, size=2))
        lam = float(rng.choice([rng.uniform(-5.0, 5.0), round(rng.uniform(-3.0, 3.0), 2),
                                float(rng.integers(-4, 5))]))
        if rng.random() < 0.5:  # non-dyadic decimals such as 0.1
            lo, hi = round(lo, int(rng.integers(1, 4))), round(hi, int(rng.integers(1, 4)))
        cases.append(((float(lo), float(hi)), lam))
    qs = [1, 2, 3, 32767, 32768, 65535, 65536] + rng.integers(1, 65537, size=40).tolist()
    for B, lam in cases:
        a_lo, a_hi = counting._a_ranges(qs, B, lam)
        assert a_lo.dtype == a_hi.dtype == np.int64
        for q, lo_q, hi_q in zip(qs, a_lo.tolist(), a_hi.tolist()):
            assert lo_q == math.ceil(Fraction(q) * Fraction(B[0]) - Fraction(lam))
            assert hi_q == math.floor(Fraction(q) * Fraction(B[1]) - Fraction(lam))


def test_homogeneous_reflection_symmetry(parabola):
    left = enumerate_R(parabola, 200, 0.3, (-0.9, -0.2), collect=False)
    right = enumerate_R(parabola, 200, 0.3, (0.2, 0.9), collect=False)
    assert left.count == right.count


def test_witnesses_property(parabola):
    res = enumerate_R(parabola, 10, 0.5, (0.0, 1.0))
    ws = res.witnesses
    assert len(ws) == 41
    assert all(witness_in_R(w, parabola, 10, 0.5, (0.0, 1.0)) for w in ws)


def test_membership_decides_ties_exactly(parabola):
    # 6720^2 - 5735 * 7875 = -0.6 * 7875: the exact distance 3/5 exceeds the double 0.6,
    # while the double evaluation of q f(a/q) - b lands inside
    w = nc.RationalWitness(q=7875, a=6720, b=(5735,))
    assert not witness_in_R(w, parabola, 8192, 0.6, (0.0, 1.0))
    tie = counting.CountResult(Q=8192, psi=0.6, B=(0.0, 1.0), theta=(0.0, (0.0,)), count=1,
                               boundary=0, triples=np.array([[7875, 6720, 5735]]))
    assert not recheck_triples(parabola, tie)
    inside = nc.RationalWitness(q=7875, a=6720, b=(5734,))  # distance 2/5
    assert witness_in_R(inside, parabola, 8192, 0.6, (0.0, 1.0))
    assert not witness_in_R(inside, parabola, 8192, 0.3, (0.0, 1.0))


def test_membership_reads_B_exactly(parabola):
    # the point 3/10 lies above the double 0.3; the point 1/4 is a double, and B is closed
    w = nc.RationalWitness(q=10, a=3, b=(1,))
    assert not witness_in_R(w, parabola, 10, 0.6, (0.0, 0.3))
    assert witness_in_R(w, parabola, 10, 0.6, (0.0, 0.30000000000000004))
    assert not witness_in_R(w, parabola, 10, 0.6, (0.30000000000000004, 1.0))
    quarter = nc.RationalWitness(q=8, a=2, b=(0,))
    assert witness_in_R(quarter, parabola, 8, 0.6, (0.25, 0.5))
    assert witness_in_R(quarter, parabola, 8, 0.6, (0.0, 0.25))
    assert not witness_in_R(quarter, parabola, 8, 0.6, (0.0, 0.2499999999999))


def test_delta_coverage_examples():
    w = nc.RationalWitness(q=2, a=1, b=(0,))
    assert nc.delta_coverage([w], 0.1, (0.0, 1.0)) == pytest.approx(0.2)
    assert nc.delta_coverage([w, w], 0.1, (0.0, 1.0)) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        nc.delta_coverage([w], 0.0, (0.0, 1.0))


def test_delta_coverage_monotone(parabola):
    res = enumerate_R(parabola, 64, 0.3, (0.0, 1.0))
    cov1 = nc.delta_coverage(res, 1e-4, (0.0, 1.0))
    cov2 = nc.delta_coverage(res, 2e-4, (0.0, 1.0))
    assert cov2 >= cov1
    half = nc.delta_coverage(res.witnesses[: res.count // 2], 1e-4, (0.0, 1.0))
    assert cov1 >= half


def test_delta_coverage_shifted_points():
    # with lambda = 0.5 the single witness q=2, a=0 sits at x = 0.25
    w = nc.RationalWitness(q=2, a=0, b=(0,))
    cov = nc.delta_coverage([w], 0.1, (0.0, 1.0), lam=0.5)
    assert cov == pytest.approx(0.2)
    res = enumerate_R(nc.parabola(), 32, 0.4, (0.0, 1.0), (0.5, (0.0,)))
    pts = res.points()
    assert np.all((pts >= 0.0) & (pts <= 1.0))
    cov = nc.delta_coverage(res, 1e-3, (0.0, 1.0))
    assert cov > 0
    # the points of the result give the same double, shift included
    assert nc.delta_coverage(pts, 1e-3, (0.0, 1.0)) == cov
    witnesses = [nc.RationalWitness(q=int(q), a=int(a), b=(0,)) for q, a, _ in res.triples]
    assert nc.delta_coverage(witnesses, 1e-3, (0.0, 1.0), lam=0.5) == cov


@pytest.mark.parametrize("block", [1, 7, counting._BLOCK])
@pytest.mark.parametrize("name", BLOCK_CURVES)
def test_kept_points_match_the_collected_points(monkeypatch, name, block):
    # the points of the coverage path come from the kept pairs, with no triples array
    monkeypatch.setattr(counting, "_BLOCK", block)
    curve = nc.resolve_curve(name)
    several = False
    for theta in BLOCK_SHIFTS:
        for B in ((0.0, 1.0), (0.1, 0.9), (0.7, 0.2)):
            for psi in (0.3, 0.7):
                res = enumerate_R(curve, 40, psi, B, theta)
                pts = counting._kept_points(curve, 40, psi, B, theta)
                assert len(pts) == res.count and pts.dtype == np.float64
                assert np.array_equal(pts, res.points())
                several |= len(np.unique(res.triples[:, :2], axis=0)) < res.count
    assert several  # psi = 0.7 gives pairs with more than one triple


def _balls_oracle(pts, rho, B):
    """The union of the clipped balls in the input order of the points, by the reference sweep."""
    return sweep_union_measure([(x - rho, x + rho) for x in pts.tolist()], clip=B)


COVERAGE_CELLS = (
    # (curve, M, Q, psi, B, theta, rho scale, runs of equal lo whose hi differ,
    #  whether the sorted points alone give another double)
    # veronese:3 on (0.1, 0.9): about 49,000 balls reach below B_0 and share lo = 0.1
    ("veronese:3", 6, 1024, 0.3, (0.1, 0.9), None, 1.0, 1, True),
    ("veronese:3", 6, 1024, 0.3, (0.1, 0.9), (0.1, (0.3,)), 1.0, 1, True),
    # a decimal shift and wide balls give a run of equal lo inside B as well
    ("parabola", 2, 512, 0.7, (0.0, 1.0), (0.1, (0.3,)), 10.0, 2, False),
    ("parabola", 2, 512, 0.3, (0.0, 1.0), None, 1e6, 0, False),  # every ball covers B
)


@pytest.mark.parametrize("name, M, Q, psi, B, theta, scale, runs, reordered", COVERAGE_CELLS)
def test_delta_coverage_keeps_the_input_order_of_equal_lo(name, M, Q, psi, B, theta, scale, runs,
                                                          reordered):
    curve = nc.resolve_curve(name)
    rho = nc.derive_constants(curve.n, M, 1.0).rho(Q, psi) * scale
    pts = counting._kept_points(curve, Q, psi, B, theta)
    given = pts.copy()
    cov = nc.delta_coverage(pts, rho, B)
    assert cov == _balls_oracle(pts, rho, B)
    assert np.array_equal(pts, given)
    assert (_balls_oracle(np.sort(pts), rho, B) != cov) == reordered
    x = np.sort(pts)
    lo, hi = np.maximum(x - rho, B[0]), np.minimum(x + rho, B[1])
    assert len(np.unique(lo[1:][(lo[1:] == lo[:-1]) & (hi[1:] != hi[:-1])])) == runs


def test_delta_coverage_edge_points():
    assert nc.delta_coverage(np.empty(0), 0.1, (0.0, 1.0)) == 0.0
    pts = counting._kept_points(nc.parabola(), 64, 0.3, (0.0, 1.0))
    assert nc.delta_coverage(pts, math.inf, (0.0, 1.0)) == _balls_oracle(pts, math.inf, (0.0, 1.0)) == 1.0
    for rho in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="rho must be positive"):
            nc.delta_coverage(pts, rho, (0.0, 1.0))
    # distinct x with one fl(x - rho) but two fl(x + rho): their input order sets the last bit
    x1, x2 = -0.4184473826364872, -0.4184473826364871
    assert x1 < x2 and x1 - 0.6 == x2 - 0.6 and x1 + 0.6 != x2 + 0.6
    for pair, expected in (([x1, x2], 1.1999999999999997), ([x2, x1], 1.2)):
        pair = np.array(pair)
        assert nc.delta_coverage(pair, 0.6, (-1.5, 1.5)) == _balls_oracle(pair, 0.6, (-1.5, 1.5)) == expected


def test_interval_union_examples():
    assert nc.interval_union_measure([(0, 1), (0.5, 2)], clip=(0, 1.5)) == pytest.approx(1.5)
    assert nc.interval_union_measure([]) == 0.0
    assert nc.interval_union_measure([(3, 4), (0, 1)]) == pytest.approx(2.0)
    union = [(0, 1), (0.5, 2), (3, 4)]
    assert nc.interval_union_measure(union) == pytest.approx(3.0)
    assert nc.interval_union_measure(union, clip=(0.5, 3.5)) == pytest.approx(2.0)


def test_interval_union_array_matches_tuples(rng):
    lo = rng.uniform(0, 10, size=500)
    arr = np.stack((lo, lo + rng.uniform(0, 0.3, size=500)), axis=1)
    tuples = [(float(a), float(b)) for a, b in arr]
    for clip in (None, (1.0, 9.0)):
        assert nc.interval_union_measure(arr, clip=clip) == nc.interval_union_measure(tuples, clip=clip)
    assert nc.interval_union_measure(np.empty((0, 2))) == 0.0
    with pytest.raises(ValueError):
        nc.interval_union_measure(np.ones((4, 3)))


def test_interval_union_matches_sweep_oracle(rng):
    # the in-place sweep must give the very doubles of the sweep it replaced
    lo = rng.uniform(0, 10, size=2000)
    cases = [np.stack((lo, lo + rng.uniform(0, 0.3, size=2000)), axis=1),
             np.stack((lo, lo + rng.uniform(-0.1, 0.3, size=2000)), axis=1),  # some empty
             np.array([[0.0, 10.0], [1.0, 2.0], [1.5, 9.0], [3.0, 3.5], [0.1, 0.2], [9.5, 10.0]]),
             np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0], [1.0, 1.5], [2.0, 3.0], [0.5, 1.0]]),
             np.round(rng.uniform(0, 5, size=(500, 2)), 1),  # many shared endpoints
             np.array([[0.0, np.inf], [1.0, 2.0], [-np.inf, 0.5], [3.0, 4.0]])]
    for arr in cases:
        given = arr.copy()
        for clip in (None, (1.0, 9.0), (0.25, 0.75), (-5.0, 20.0), (20.0, 30.0), (4.0, 4.0)):
            assert nc.interval_union_measure(arr, clip=clip) == sweep_union_measure(arr, clip=clip)
        assert np.array_equal(arr, given)  # the sweep works in place on copies only
    assert nc.interval_union_measure(cases[2], clip=(20.0, 30.0)) == 0.0  # the clip drops them all


def test_interval_union_grid_oracle(rng):
    intervals = [(float(a), float(a + w)) for a, w in
                 zip(rng.uniform(0, 10, size=1000), rng.uniform(0, 0.3, size=1000))]
    exact = nc.interval_union_measure(intervals, clip=(0.0, 10.0))
    approx = grid_union_measure(intervals, (0.0, 10.0), cells=1_000_000)
    assert abs(exact - approx) < 1e-3  # grid oracle resolution 1e-5 * count scale


def test_scaling_fit_examples():
    xs = [1.0, 2.0, 4.0, 8.0]
    fit = nc.scaling_fit([(x, x * x) for x in xs])
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    fit7 = nc.scaling_fit([(x, 7 * x) for x in xs])
    assert fit7.slope == pytest.approx(1.0, abs=1e-12)
    assert fit7.intercept == pytest.approx(math.log(7.0), abs=1e-12)
    with pytest.raises(ValueError):
        nc.scaling_fit([(1.0, 1.0), (2.0, 4.0)])
    with pytest.raises(ValueError):
        nc.scaling_fit([(1.0, 1.0), (2.0, 4.0), (3.0, -1.0)])


def test_lower_bound_check_examples():
    res = nc.lower_bound_check(10**6, (0.0, 1.0), 432.0, 0.3, 8192.0, 2, 72.0)
    assert res.in_regime and res.ok
    assert res.bound == pytest.approx(0.3 * 8192.0**2 / 1728.0)
    low = nc.lower_bound_check(10, (0.0, 1.0), 432.0, 0.3, 8192.0, 2, 72.0)
    assert low.in_regime and low.ok is False
    out = nc.lower_bound_check(10**6, (0.0, 1.0), 432.0, 0.05, 1024.0, 2, 72.0)
    assert not out.in_regime and out.ok is None


def test_detector_counter_consistency(parabola):
    # witnesses extracted at the inner scale are members of the outer set
    consts = nc.derive_constants(2, 2.0, 0.5)
    pt = nc.ApproxParams.for_curve(parabola, c=0.5, Q=1200.0, psi=0.9, B=(0.1, 0.9))
    Q, psi, rho = nc.corollary_map(pt, consts)
    inner = nc.ApproxParams.for_curve(parabola, c=0.5, Q=Q, psi=psi, B=(0.1, 0.9))
    outer = enumerate_R(parabola, 1200, 0.9, (0.1, 0.9))
    triple_set = {tuple(r) for r in outer.triples.tolist()}
    xs = 0.1 + (np.arange(400) + 0.5) * 0.8 / 400
    # the good set from one stacked reduction (in_good_set's deltas bit for
    # bit), and a witness at every good point from one kernel call
    delta = lattice.shortest_sups(lattice.curve_lattice_bases(parabola, xs, inner))
    goods = xs[delta >= 1.0 - GOOD_SET_GUARD].tolist()
    checked = 0
    for x, w in zip(goods, detect_witnesses(parabola, goods, inner)[1]):
        assert isinstance(w, nc.RationalWitness), (x, w)
        assert witness_in_R(w, parabola, 1200.0, 0.9, (0.1, 0.9))
        assert (w.q, w.a, w.b[0]) in triple_set
        assert 0.5 * 1200 < w.q <= 1200
        assert abs(w.a / w.q - x) <= rho
        checked += 1
    assert checked >= 10


def test_write_triples_csv(tmp_path, parabola):
    res = enumerate_R(parabola, 10, 0.5, (0.0, 1.0))
    path = tmp_path / "triples.csv"
    write_triples_csv(path, parabola, res)
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "q,a,b1,x_point,slack_f1"
    assert len([ln for ln in lines if ln]) == 42
    assert "\r" not in text
    for ln in lines[1:4]:
        q, a, b, x_point, slack = ln.split(",")
        assert float(slack) > 0
        assert float(x_point) == pytest.approx(int(a) / int(q))


def test_write_triples_csv_matches_row_loop(tmp_path, veronese3, monkeypatch):
    # reference: the per-row repr formatting, across several write blocks
    monkeypatch.setattr(counting, "_CSV_BLOCK", 7)
    res = enumerate_R(veronese3, 40, 0.5, (0.0, 1.0), theta=(0.25, (0.5, 0.75)), collect=True)
    path = tmp_path / "triples.csv"
    write_triples_csv(path, veronese3, res)
    rows, pts = res.triples, res.points()
    slacks = [res.psi - np.abs(rows[:, 0] * np.asarray(veronese3.coord_values(j, pts), dtype=float)
                               - g - rows[:, 1 + j])
              for j, g in ((1, 0.5), (2, 0.75))]
    expected = ["q,a,b1,b2,x_point,slack_f1,slack_f2"]
    for i in range(len(rows)):
        rec = [str(int(v)) for v in rows[i]] + [repr(float(pts[i]))]
        expected.append(",".join(rec + [repr(float(s[i])) for s in slacks]))
    assert len(rows) > 3 * 7
    assert path.read_text(encoding="utf-8") == "\n".join(expected) + "\n"


def _csv_writer_text(header, columns):
    # reference: csv.writer over the rows of the same columns
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header is not None:
        writer.writerow(header)
    writer.writerows(zip(*(col.tolist() for col in columns)))
    return buf.getvalue()


@pytest.mark.parametrize("n_rows", [0, 1, 7, 8])
def test_write_triples_csv_matches_csv_writer_at_block_edges(tmp_path, veronese3, monkeypatch, n_rows):
    # no rows (header only), one row, exactly one block and one block plus a row
    monkeypatch.setattr(counting, "_CSV_BLOCK", 7)
    full = enumerate_R(veronese3, 40, 0.5, (0.0, 1.0), theta=(0.25, (0.5, 0.75)), collect=True)
    res = counting.CountResult(full.Q, full.psi, full.B, full.theta, n_rows, 0,
                               full.triples[:n_rows])
    path = tmp_path / "triples.csv"
    write_triples_csv(path, veronese3, res)
    rows, pts = res.triples, res.points()
    slacks = [res.psi - np.abs(rows[:, 0] * np.asarray(veronese3.coord_values(j, pts), dtype=float)
                               - g - rows[:, 1 + j])
              for j, g in ((1, 0.5), (2, 0.75))]
    columns = [rows[:, k] for k in range(4)] + [pts] + slacks
    header = ["q", "a", "b1", "b2", "x_point", "slack_f1", "slack_f2"]
    assert path.read_text(encoding="utf-8") == _csv_writer_text(header, columns)
    if n_rows == 0:
        assert path.read_text(encoding="utf-8") == ",".join(header) + "\n"


def test_csv_text_matches_csv_writer_on_crafted_values():
    ints = np.array([2**62 - 1, -(2**62), 2**62 + 12345, -(2**62) - 1, 0, -1], dtype=np.int64)
    floats = np.array([0.1, 1e-05, 1.5e+16, -0.0, 5e-324, 1e16], dtype=float)
    columns = [ints, floats, -floats, ints[::-1]]
    text = counting._csv_text(columns)
    assert text == _csv_writer_text(None, columns)
    assert text.splitlines()[4] == "0,5e-324,-5e-324,-4611686018427387904"
    assert counting._csv_text([ints[:0], floats[:0]]) == ""
    assert counting._csv_text([ints[:1], floats[:1]]) == _csv_writer_text(None, [ints[:1], floats[:1]])


def test_a_y_past_the_doubles_is_named():
    # q x^2 1e306 overflows to inf for most pairs at Q = 400; every path stops with the curve and Q
    curve = nc.resolve_curve("poly:0,0,1e306")
    message = r"curve poly:0,0,1e306 at Q=400: q f_j\(x\) - gamma_j is not a finite double"
    with np.errstate(all="ignore"):
        for run in (lambda: enumerate_R(curve, 400, 0.3, (0.0, 1.0)),
                    lambda: enumerate_R(curve, 400, 0.3, (0.0, 1.0), collect=False),
                    lambda: counting._kept_points(curve, 400, 0.3, (0.0, 1.0)),
                    lambda: count_R_psi_sweep(curve, 400, [0.1, 0.3], (0.0, 1.0))):
            with pytest.raises(ValueError, match=message):
                run()
