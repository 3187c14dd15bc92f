import csv
import functools
import io
import math
import tracemalloc

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import counting, jets, lattice, union
from nearcurve.csvtext import csv_text
from nearcurve.counting import (
    count_R_psi_sweep,
    enumerate_R,
    recheck_triples,
    witness_in_R,
    write_triples_csv,
)
from nearcurve.config import parse_config_text
from nearcurve.curves import CallableCoordinate, Curve, MonomialCoordinate
from nearcurve.detector import GOOD_SET_GUARD, detect_witnesses
from nearcurve.harness import run_experiment
from oracles import (
    exact_union_measure,
    grid_union_measure,
    naive_count_R,
    naive_enumerate,
    naive_sweep,
    sweep_union_measure,
)


def _block_walk(curve, Q, psi, B, theta=None):
    """``(count, boundary)`` of a cell from ``_kept``'s blocks and their b-counts at psi + GUARD."""
    Q, B, theta = counting._checked(curve, Q, (psi,), B, theta)
    count = wide = 0
    for _, _, ys, _, reps, *_ in counting._kept(curve, Q, psi, theta, *counting._q_rows(Q, B, theta[0])):
        count += int(reps.sum())
        inside, lo = np.empty((2,) + ys.shape)
        for y, n, floor in zip(ys, inside, lo):
            counting._window(y, psi + counting.GUARD, n, floor)
        wide += int(inside.prod(axis=0).sum())
    return count, wide - count


def test_enumeration_oracle_values(parabola):
    # frozen values, confirmed by the naive double-loop oracle below
    res = enumerate_R(parabola, 10, 0.5, (0.0, 1.0))
    assert res.count == 41
    assert res.boundary == 8  # the four half-integer pairs graze both neighbours
    assert _block_walk(parabola, 10, 0.5, (0.0, 1.0)) == (41, 8)
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
                    assert (res.count, res.boundary) == (count, boundary) == \
                        _block_walk(curve, Q, psi, B, theta)
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
    Q, B, theta = counting._checked(steep, 300, psis, B, None)
    rows = counting._q_rows(Q, B, theta[0])
    ys = np.concatenate([y[0].copy() for _, _, y, *_ in counting._kept(steep, Q, psis[0], theta, *rows)])
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


# ROADMAP item 10's cells, (curve, Q, psi, B, theta), and curves that bin no cell, take cells
# from their canonical y, or flush nearly every pair as a tie
SWEEP_CELLS = (
    ("parabola", 512, 0.3, (0.0, 1.0), None),
    ("parabola", 1024, 0.3, (0.0, 1.0), None),
    ("parabola", 10, 0.1, (0.0, 1.0), None),
    ("parabola", 200, 0.5, (0.0, 1.0), None),
    ("parabola", 8192, 0.6, (0.0, 1.0), None),
    ("veronese:3", 1024, 0.7, (0.1, 0.9), (0.1, (0.3, 0.0))),
    ("veronese:3", 2048, 0.7, (0.0, 1.0), None),
    ("parabola", 4096, 0.25, (0.0, 1.0), (0.1, (0.3,))),
    ("veronese:7", 256, 0.3, (0.0, 1.0), None),
    ("mixed", 512, 0.62, (0.1, 0.9), None),
    ("poly:0,0,1e9", 300, 0.3, (0.0, 1.0), None),
)


@pytest.mark.parametrize("name, Q, psi, B, theta", SWEEP_CELLS)
def test_the_sweep_gives_count_and_boundary(name, Q, psi, B, theta):
    # the two cuts psi -+ GUARD of one sweep give the count and boundary of the block walk
    curve = nc.resolve_curve(name)
    counts = counting._counts(curve, Q, psi, B, theta)[3:]
    assert counts == _block_walk(curve, Q, psi, B, theta)
    if (name, Q, psi) == ("parabola", 8192, 0.6):
        assert counts == (30_171_993, 3_911)  # the known float fault, see the module docstring
    if (name, Q, psi) == ("parabola", 10, 0.1):
        assert counts[1] == 4


@pytest.mark.parametrize("name", ["parabola", "veronese:3"])
@pytest.mark.parametrize("psi", [1 - 1e-13, 5e-13])
def test_the_sweep_gives_count_and_boundary_at_cuts_outside_the_unit(name, psi):
    # psi + GUARD >= 1 leaves up to 3 b in a window, which no cell state holds: every pair
    # goes to the flush; psi - GUARD < 0 leaves none
    curve = nc.resolve_curve(name)
    for theta in (None, (0.1, (0.3,))):
        for Q, B in ((24, (0.0, 1.0)), (256, (0.1, 0.9))):
            res = enumerate_R(curve, Q, psi, B, theta)
            count, boundary, triples = naive_enumerate(curve, Q, psi, B, theta)
            assert (res.count, res.boundary) == (count, boundary) == _block_walk(curve, Q, psi, B, theta)
            assert np.array_equal(res.triples, triples)
            assert count > 0 if psi > 0.5 else count == 0


def test_counts_walk_no_kept_pairs(tmp_path, monkeypatch):
    # enumerate_R(collect=False) and a count run without triples take both numbers from the sweep
    curve = nc.parabola()
    expected = [(res.count, res.boundary) for res in
                (enumerate_R(curve, Q, 0.3, (0.0, 1.0), (0.1, (0.3,))) for Q in (256, 512))]

    def refused(*args, **kwargs):
        raise AssertionError("a count without triples walks no kept pairs")

    monkeypatch.setattr(counting, "_kept", refused)
    assert [(res.count, res.boundary) for res in
            (enumerate_R(curve, Q, 0.3, (0.0, 1.0), (0.1, (0.3,)), collect=False)
             for Q in (256, 512))] == expected
    cfg = parse_config_text(f"curve = parabola\nB = 0,1\npsi_list = 0.3\nQ_list = 256,512\n"
                            f"theta.lambda = 0.1\ntheta.gamma = 0.3\ncount.write_triples = false\n"
                            f"output_dir = {tmp_path}/c\n")
    run_experiment(cfg, mode="count")
    rows = list(csv.DictReader((tmp_path / "c" / "counts.csv").read_text().splitlines()))
    assert [(int(r["count"]), int(r["boundary"])) for r in rows] == expected


def test_collected_triples_are_held_once():
    # Q = 2048, psi = 0.3: the triples array, filled block by block, and little beside it
    result, peak = _traced_peak(lambda: enumerate_R(nc.parabola(), 2048, 0.3, (0.0, 1.0)))
    assert result.count == len(result.triples) == 954_470
    assert peak < result.triples.nbytes + 4 * 2**20


@pytest.mark.parametrize("off", [1, -1])
def test_triples_that_miss_the_sweep_count_raise(tmp_path, monkeypatch, off):
    sweep = counting._sweep

    def miscounted(*args):
        Q, B, theta, counts = sweep(*args)
        return Q, B, theta, [counts[0] + off] + counts[1:]

    monkeypatch.setattr(counting, "_sweep", miscounted)
    with pytest.raises(AssertionError, match="the kept pairs do not make the sweep's"):
        enumerate_R(nc.parabola(), 64, 0.3, (0.0, 1.0))
    cfg = parse_config_text(f"curve = parabola\nB = 0,1\npsi_list = 0.3\nQ_list = 64\n"
                            f"output_dir = {tmp_path}/c\n")
    with pytest.raises(AssertionError, match="the kept pairs do not make the sweep's"):
        run_experiment(cfg, mode="count")
    assert not list(tmp_path.rglob("*.csv"))


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
                Q, B, shift = counting._checked(curve, 40, (psi,), B, theta)
                pts = counting._points(curve, Q, psi, shift, *counting._q_rows(Q, B, shift[0]))
                assert len(pts) == res.count and pts.dtype == np.float64
                assert np.array_equal(pts, res.points())
                several |= len(np.unique(res.triples[:, :2], axis=0)) < res.count
    assert several  # psi = 0.7 gives pairs with more than one triple


def _balls_oracle(pts, rho, B):
    """The exact measure of the union of the clipped balls, rounded once."""
    return exact_union_measure([(x - rho, x + rho) for x in pts.tolist()], clip=B)


@functools.lru_cache(maxsize=None)
def _coverage_cell(name, M, Q, psi, B, theta, scale):
    """A cell of COVERAGE_CELLS: its curve, rho, kept points and their ``_balls_oracle``, made once."""
    curve = nc.resolve_curve(name)
    rho = nc.derive_constants(curve.n, M, 1.0).rho(Q, psi) * scale
    pts = enumerate_R(curve, Q, psi, B, theta).points()
    pts.flags.writeable = False
    return curve, rho, pts, _balls_oracle(pts, rho, B)


def _one_double(measure, orders, expected):
    # the same points or intervals in every order give one bit-identical double
    assert {measure(given).hex() for given in orders} == {expected.hex()}


COVERAGE_CELLS = (
    # (curve, M, Q, psi, B, theta, rho scale, runs of equal lo whose hi differ,
    #  whether a float sweep of the points in input or sorted order gives another double)
    # veronese:3 on (0.1, 0.9): about 49,000 balls reach below B_0 and share lo = 0.1
    ("veronese:3", 6, 1024, 0.3, (0.1, 0.9), None, 1.0, 1, True),
    ("veronese:3", 6, 1024, 0.3, (0.1, 0.9), (0.1, (0.3,)), 1.0, 1, True),
    # a decimal shift and wide balls give a run of equal lo inside B as well
    ("parabola", 2, 512, 0.7, (0.0, 1.0), (0.1, (0.3,)), 10.0, 2, False),
    ("parabola", 2, 512, 0.3, (0.0, 1.0), None, 1e6, 0, False),  # every ball covers B
)


@pytest.mark.parametrize("name, M, Q, psi, B, theta, scale, runs, reordered", COVERAGE_CELLS)
def test_delta_coverage_is_exact_in_every_order(rng, name, M, Q, psi, B, theta, scale, runs,
                                                reordered):
    # cells whose float sweep depends on the order of the balls that share a lo: the union is
    # the exact one, in the input order of the points and in three shuffled ones
    curve, rho, pts, expected = _coverage_cell(name, M, Q, psi, B, theta, scale)
    given = pts.copy()
    cov = nc.delta_coverage(pts, rho, B)
    assert cov == expected
    assert np.array_equal(pts, given)
    _one_double(lambda x: nc.delta_coverage(x, rho, B), [rng.permutation(pts) for _ in range(3)], cov)
    swept = {sweep_union_measure([(x - rho, x + rho) for x in order.tolist()], clip=B)
             for order in (pts, np.sort(pts))}
    assert (swept != {cov}) == reordered
    x = np.sort(pts)
    lo, hi = np.maximum(x - rho, B[0]), np.minimum(x + rho, B[1])
    assert len(np.unique(lo[1:][(lo[1:] == lo[:-1]) & (hi[1:] != hi[:-1])])) == runs


def _slab_coverage(monkeypatch, curve, Q, psi, B, theta, rho, slab, terms=union._TERMS):
    # counting._coverage with slabs of `slab` pairs; also the lower ends of each slab's balls
    chunks, kernel = [], counting._union_length

    def recorded(given):
        for lo, hi in given:
            chunks.append(lo.copy())
            yield lo, hi

    monkeypatch.setattr(counting, "_SLAB", slab)
    monkeypatch.setattr(union, "_TERMS", terms)
    monkeypatch.setattr(counting, "_union_length", lambda given: kernel(recorded(given)))
    count, cov = counting._coverage(curve, Q, psi, B, theta, rho)
    return count, cov, chunks


@pytest.mark.parametrize("name, M, Q, psi, B, theta, scale, runs, reordered", COVERAGE_CELLS)
def test_coverage_is_the_same_in_any_number_of_slabs(monkeypatch, name, M, Q, psi, B, theta, scale,
                                                     runs, reordered):
    # one cell in 1, 2 and 7 slabs, with its union's terms held or folded after every slab: one
    # count and one double, the exact union; the slabs in order give the balls of all the points sorted
    curve, rho, pts, expected = _coverage_cell(name, M, Q, psi, B, theta, scale)
    pts = np.sort(pts)
    Q, B, shift = counting._checked(curve, Q, (psi,), B, theta)
    pairs = int(counting._pair_rows(*counting._q_rows(Q, B, shift[0]))[0][-1])
    for slabs, terms in ((1, union._TERMS), (2, union._TERMS), (7, union._TERMS), (7, 1)):
        count, cov, chunks = _slab_coverage(monkeypatch, curve, Q, psi, B, theta, rho,
                                            -(-pairs // slabs), terms)
        assert (count, cov.hex()) == (len(pts), expected.hex())
        assert len(chunks) == slabs
        assert np.array_equal(np.concatenate(chunks), np.maximum(pts - rho, B[0]))


@pytest.mark.parametrize("name", ["parabola", "veronese:3"])
def test_coverage_in_one_pair_per_slab(monkeypatch, name):
    curve = nc.resolve_curve(name)
    for theta in (None, (0.1, (0.3,))):
        for B in ((0.0, 1.0), (0.1, 0.9), (0.7, 0.2)):
            Q, B, shift = counting._checked(curve, 24, (0.7,), B, theta)
            pairs = int(counting._pair_rows(*counting._q_rows(Q, B, shift[0]))[0][-1])
            pts = np.sort(enumerate_R(curve, Q, 0.7, B, theta).points())
            for rho in (1e-3, 1e6):
                count, cov, chunks = _slab_coverage(monkeypatch, curve, Q, 0.7, B, theta, rho, 1)
                assert len(chunks) == max(pairs, 1)
                assert (count, cov) == (len(pts), _balls_oracle(pts, rho, B))
                if len(pts):
                    assert np.array_equal(np.concatenate(chunks), np.maximum(pts - rho, B[0]))


def test_cut_splits_each_row_where_its_points_reach_s(rng):
    # against a scan of the a-range: s is a point of the row, or a double next to one
    for _ in range(300):
        q = rng.integers(1, 65537, size=8)
        lam = float(rng.choice([0.0, 0.1, -0.35, 0.25, rng.uniform(-5.0, 5.0)]))
        a0 = int(rng.integers(-20, 60))
        s = (a0 + lam) / int(q[0])
        s = float(rng.choice([s, np.nextafter(s, np.inf), np.nextafter(s, -np.inf)]))
        mid = np.ceil(q * s - lam).astype(np.int64)
        a_lo, a_hi = mid - rng.integers(0, 4, size=8), mid + rng.integers(-2, 4, size=8)
        cut = counting._cut(q, s, lam, a_lo, a_hi)
        for qi, lo, hi, c in zip(q.tolist(), a_lo.tolist(), a_hi.tolist(), cut.tolist()):
            assert c == next((a for a in range(lo, hi + 1) if (a + lam) / qi >= s), hi + 1)


def test_coverage_at_the_height_cap():
    # Q = 65536 on a window of width 2^-12 (393,000 pairs, 2 slabs): the count against an exact
    # integer recount of |a^2/q - b| < psi - GUARD, and the union against exact_union_measure
    curve, Q, psi, B = nc.parabola(), counting.Q_CAP, 0.1, (0.5, 0.5 + 2.0**-12)
    rho = nc.derive_constants(2, 2.0, 1.0).rho(Q, psi)
    qs = np.arange(Q // 2 + 1, Q + 1)
    lo, hi = (qs + 1) // 2, qs * (2**12 + 2) // 2**13  # ceil(q B_0) and floor(q B_1)
    sizes = hi - lo + 1
    q = np.repeat(qs, sizes)
    a = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes - lo, sizes)
    r = a * a % q
    s = psi - counting.GUARD
    # r/q and (q - r)/q are correctly rounded, so a strict < s in doubles is the exact one
    below, above = r / q, (q - r) / q
    assert not np.any(below == s) and not np.any(above == s)
    inside = (below < s) | (above < s)
    assert not np.any((below < s) & (above < s))  # psi < 1/2: at most one b
    pts = a[inside] / q[inside]
    assert counting._SLAB < len(a) < 2 * counting._SLAB
    count, cov = counting._coverage(curve, Q, psi, B, None, rho)
    assert count == len(pts) > 100_000
    assert cov == exact_union_measure([(x - rho, x + rho) for x in pts.tolist()], clip=B)


def _traced_peak(run):
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_coverage_holds_one_slab_at_a_time():
    # parabola at Q = 8192 on (0, 1): 15,180,662 points, whose one sort held about 395 MB
    curve = nc.parabola()
    rho = nc.derive_constants(2, 2.0, 1.0).rho(8192, 0.3)
    result, peak = _traced_peak(lambda: counting._coverage(curve, 8192, 0.3, (0.0, 1.0), None, rho))
    assert result == (15_180_662, 0.9984222511682004)
    assert peak < 32 * 2**20


def _stream(path, curve, Q, psi, B, theta):
    """The count mode's cell: count and boundary from the sweep, the triples streamed to ``path``."""
    Q, B, theta, count, boundary = counting._counts(curve, Q, psi, B, theta)
    counting._write_triples(path, curve, psi, theta, counting._triples(curve, Q, psi, B, theta, count))
    return count, boundary


def test_streamed_count_holds_one_run_of_rows(tmp_path):
    # Q = 2048, psi = 0.3: 954,470 triples, 22.9 MB as one array, and 49.6 MB of CSV
    curve, path = nc.parabola(), tmp_path / "count.csv"

    result, peak = _traced_peak(lambda: _stream(path, curve, 2048, 0.3, (0.0, 1.0), None))
    assert result == (954_470, 248)
    assert path.stat().st_size == 49_647_481
    assert peak < 8 * 2**20


@pytest.mark.parametrize("block", [1, 7, counting._BLOCK])
@pytest.mark.parametrize("name", BLOCK_CURVES)
def test_streamed_triples_csv_matches_the_collected_one(tmp_path, monkeypatch, name, block):
    # the count mode writes the triples from the blocks as they come, joined into runs of at
    # least _CSV_BLOCK rows: the same bytes as the collected triples written at the default
    # sizes, and the same count and boundary
    curve = nc.resolve_curve(name)
    cells = [(theta, B, psi) for theta in BLOCK_SHIFTS for B, psi in
             (((0.0, 1.0), 0.5), ((0.1, 0.9), 0.7), ((0.1, 0.9), 0.3), ((0.7, 0.2), 0.3))]
    collected, streamed = tmp_path / "collected.csv", tmp_path / "streamed.csv"
    expected = []
    for theta, B, psi in cells:
        res = enumerate_R(curve, 24, psi, B, theta)
        write_triples_csv(collected, curve, res)
        expected.append((collected.read_bytes(), res.count, res.boundary))
    monkeypatch.setattr(counting, "_BLOCK", block)
    if block < counting._BLOCK:
        monkeypatch.setattr(counting, "_CSV_BLOCK", 7)
    for (theta, B, psi), want in zip(cells, expected):
        count, boundary = _stream(streamed, curve, 24, psi, B, theta)
        assert (streamed.read_bytes(), count, boundary) == want
    assert any(boundary for *_, boundary in expected)


@pytest.mark.parametrize("B, theta, name", [
    ((math.nan, 1.0), None, "B"), ((0.0, math.inf), None, "B"),
    ((0.0, 1.0), (math.inf, 0.0), "lambda"), ((0.0, 1.0), (0.0, math.nan), "gamma"),
])
def test_inputs_that_are_not_finite_are_named(parabola, B, theta, name):
    for run in (lambda: enumerate_R(parabola, 64, 0.3, B, theta),
                lambda: count_R_psi_sweep(parabola, 64, [0.3], B, theta),
                lambda: counting._coverage(parabola, 64, 0.3, B, theta, 1e-3)):
        with pytest.raises(ValueError, match=f"^{name}=.* is not finite$"):
            run()


def test_delta_coverage_edge_points():
    assert nc.delta_coverage(np.empty(0), 0.1, (0.0, 1.0)) == 0.0
    pts = enumerate_R(nc.parabola(), 64, 0.3, (0.0, 1.0)).points()
    assert nc.delta_coverage(pts, math.inf, (0.0, 1.0)) == _balls_oracle(pts, math.inf, (0.0, 1.0)) == 1.0
    for rho in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="rho must be positive"):
            nc.delta_coverage(pts, rho, (0.0, 1.0))
    # distinct x with one fl(x - rho) but two fl(x + rho): a float sweep gives 1.1999999999999997
    # in the first order and 1.2 in the other; the union is the exact 1.2 in both
    x1, x2 = -0.4184473826364872, -0.4184473826364871
    assert x1 < x2 and x1 - 0.6 == x2 - 0.6 and x1 + 0.6 != x2 + 0.6
    for pair in ([x1, x2], [x2, x1]):
        pair = np.array(pair)
        assert nc.delta_coverage(pair, 0.6, (-1.5, 1.5)) == _balls_oracle(pair, 0.6, (-1.5, 1.5)) == 1.2


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
    # every case and clip against the exact union, in the given order and in three shuffled ones
    lo = rng.uniform(0, 10, size=2000)
    ties = np.repeat(np.round(rng.uniform(0, 5, size=100), 1), 5)  # runs of equal lo, hi ulps apart
    ulps = rng.integers(-2, 3, size=500) * np.spacing(ties + 0.3)
    cases = [np.stack((lo, lo + rng.uniform(0, 0.3, size=2000)), axis=1),
             np.stack((lo, lo + rng.uniform(-0.1, 0.3, size=2000)), axis=1),  # some empty
             np.array([[0.0, 10.0], [1.0, 2.0], [1.5, 9.0], [3.0, 3.5], [0.1, 0.2], [9.5, 10.0]]),
             np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 2.0], [1.0, 1.5], [2.0, 3.0], [0.5, 1.0]]),
             np.round(rng.uniform(0, 5, size=(500, 2)), 1),  # many shared endpoints
             np.stack((ties, ties + 0.3 + ulps), axis=1),  # the sum of rounded terms moves with the order
             np.array([[0.0, np.inf], [1.0, 2.0], [-np.inf, 0.5], [3.0, 4.0]]),
             np.array([[-np.inf, 0.5], [1.0, 2.0]])]
    for arr in cases:
        given = arr.copy()
        for clip in (None, (1.0, 9.0), (0.25, 0.75), (-5.0, 20.0), (20.0, 30.0), (4.0, 4.0)):
            expected = exact_union_measure(arr.tolist(), clip=clip)
            assert nc.interval_union_measure(arr, clip=clip) == expected
            _one_double(lambda a: nc.interval_union_measure(a, clip=clip),
                        [rng.permutation(arr) for _ in range(3)], expected)
        assert np.array_equal(arr, given)  # the union works in place on copies only
    assert nc.interval_union_measure(cases[2], clip=(20.0, 30.0)) == 0.0  # the clip drops them all
    assert nc.interval_union_measure(cases[6]) == nc.interval_union_measure(cases[7]) == math.inf


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
    text = csv_text(columns)
    assert text == _csv_writer_text(None, columns)
    assert text.splitlines()[4] == "0,5e-324,-5e-324,-4611686018427387904"
    assert csv_text([ints[:0], floats[:0]]) == ""
    assert csv_text([ints[:1], floats[:1]]) == _csv_writer_text(None, [ints[:1], floats[:1]])


def test_a_y_past_the_doubles_is_named():
    # q x^2 1e306 overflows to inf for most pairs at Q = 400; every path stops with the curve and Q
    curve = nc.resolve_curve("poly:0,0,1e306")
    message = r"curve poly:0,0,1e306 at Q=400: q f_j\(x\) - gamma_j is not a finite double"
    with np.errstate(all="ignore"):
        for run in (lambda: enumerate_R(curve, 400, 0.3, (0.0, 1.0)),
                    lambda: enumerate_R(curve, 400, 0.3, (0.0, 1.0), collect=False),
                    lambda: counting._coverage(curve, 400, 0.3, (0.0, 1.0), None, 1e-3),
                    lambda: count_R_psi_sweep(curve, 400, [0.1, 0.3], (0.0, 1.0))):
            with pytest.raises(ValueError, match=message):
                run()
