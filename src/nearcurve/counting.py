"""Exhaustive enumeration of shifted rational points near a curve (d = 1).

The set under study collects integer triples (q, a, b) with Q/2 < q <= Q,
(a + lambda)/q inside a window B, and every |q f_j((a+lambda)/q) - gamma_j - b_j|
strictly below psi.  Enumeration is O(Q^2) per configuration, for Q up to
``Q_CAP`` = 65536.  The q-range and the a-range of every q are decided in
exact integers.  One psi sweep gives the counts of ``enumerate_R``,
``count_R_psi_sweep`` and the ``count`` mode: it bins each pair by the 2^-16
cell that 2^16 y rounds to, which gives ``_window``'s answer (below) off the
tie cells, within two cells of a cut s, 1 - s, 0 or 1; a pair with a
coordinate in a tie cell gets its canonical y and ``_window`` (``_sweep``).  Its
cuts at psi - 1e-12 and psi + 1e-12 give a cell's ``count`` and ``boundary``
(``_counts``).  The triples and coverage's points come from flat, cache-sized
blocks of the pairs' canonical double y, of which ``_kept`` keeps those with a
b; ``_triples`` checks that its rows add up to the sweep's count.  All take a
pair's (q, a) and y from its flat index (``_pair_ys``).

The b-window is decided in doubles, by one predicate, ``_window``: the
integers b with |y - b| < psi - 1e-12, with y = q f_j(x) - gamma_j, and
triples within the 1e-12 guard band of the boundary are tallied as
``boundary``.  That keeps exact ties out only while the float error of y,
about q 2^-52 on the unit window, stays below the absolute guard, so up to q
of about 4500.  Beyond that an exact tie can be counted as inside:
configs/scaling.cfg reports 30,171,993 triples at Q = 8192, psi = 0.6 against
an exact 30,171,986.  An exact integer test is item 1 of ROADMAP.md.

The collecting paths hold a bounded part of a cell at a time.  ``count`` writes
its triples as ``_triples`` makes them, with slacks from ``_y``, and csvtext
turns them into text ``_CSV_BLOCK`` rows at a time.  Coverage walks B in slabs
of about ``_SLAB`` pairs (``_coverage``), split where the points reach a cut,
so the slabs in order hand their sorted balls to one exact union kernel
(``nearcurve.union``), which carries its running maximum from slab to slab:
the measure is the ``math.fsum`` of the components' ends and starts, the same
double in any order of the balls and any number of slabs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .curves import Curve
from .detector import RationalWitness, _near_curve
from .lattice import Shift, normalise_theta
from .union import _union_length, interval_union_measure

GUARD = 1e-12
Q_CAP = 1 << 16
_CSV_BLOCK = 1 << 13  # rows turned into text at a time; bounds the memory of a write
_BLOCK = 1 << 13  # (q, a) pairs per counting block; 64 KiB per float64 array, so it stays in cache
_SLAB = 1 << 18  # (q, a) pairs per coverage slab, about: the points and balls a coverage cell holds
_SWEEP_BATCH = 1 << 14  # (q, a) pairs a psi sweep bins at a time
_TIE_BLOCK = 1 << 12  # tie pairs a psi sweep holds before it flushes them
_CELLS = 1 << 16  # fractional-part cells of a psi sweep, far wider than the float error of y
_ROUND = 1.5 * 2.0**52  # v + _ROUND rounds v to an integer in the low bits, for |v| < 2^51
_Y_LIMIT = float(1 << 30)  # the |y| below which that error stays under 2^-23
_UNIT = Fraction(1, 1 << 53)  # the unit roundoff of a double


@dataclass
class CountResult:
    """Outcome of one enumeration cell.

    ``triples`` holds rows (q, a, b_1..b_m) in ascending (q, a, b) order when
    the enumeration was asked to collect them; ``boundary`` counts triples
    that graze the strict inequalities within the guard band.
    """

    Q: int
    psi: float
    B: tuple[float, float]
    theta: Shift
    count: int
    boundary: int
    triples: Optional[np.ndarray]

    @property
    def witnesses(self) -> list[RationalWitness]:
        if self.triples is None:
            raise ValueError("enumeration ran with collect=False")
        return [
            RationalWitness(q=int(row[0]), a=int(row[1]), b=tuple(int(v) for v in row[2:]))
            for row in self.triples
        ]

    def points(self) -> np.ndarray:
        if self.triples is None:
            raise ValueError("enumeration ran with collect=False")
        lam = self.theta[0]
        if len(self.triples) == 0:
            return np.empty(0)
        return (self.triples[:, 1] + lam) / self.triples[:, 0]


def _a_ranges(qs: Sequence[int], B: tuple[float, float],
              lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``ceil(q B_0 - lambda)`` and ``floor(q B_1 - lambda)`` for every q in ``qs``, exactly.

    Every double is a rational n/d, so with B_0 = n_0/d_0 and lambda = n/d the
    lower end is ``-((n d_0 - q n_0 d) // (d_0 d))`` in Python integers of any
    size.  They are taken one q at a time into the int64 results, which keeps
    the memory at the results alone.
    """
    (n0, d0), (n1, d1), (n, d) = (float(v).as_integer_ratio() for v in (B[0], B[1], lam))
    lo_step, lo_shift, lo_den = n0 * d, n * d0, d0 * d
    hi_step, hi_shift, hi_den = n1 * d, n * d1, d1 * d
    lo = np.fromiter((-((lo_shift - q * lo_step) // lo_den) for q in qs), np.int64, len(qs))
    hi = np.fromiter(((q * hi_step - hi_shift) // hi_den for q in qs), np.int64, len(qs))
    return lo, hi


def _q_rows(Q: int, B: tuple[float, float], lam: float) -> tuple[np.ndarray, np.ndarray]:
    """The first and last a of every q with 2q > Q, q <= Q (``_a_ranges``); no a at all where B is empty."""
    qs = range(Q // 2 + 1, Q + 1)
    if B[0] > B[1]:
        return np.zeros(len(qs), np.int64), np.full(len(qs), -1, np.int64)
    return _a_ranges(qs, B, lam)


def _pair_rows(a_lo: np.ndarray, a_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where the pairs of each q, a from ``a_lo`` to ``a_hi``, lie in the flat (q, a) order.

    Returns int64 ``ends`` (pairs up to and including each q) and ``offset``: the k-th pair
    overall, in the row of q, has a = k - offset.
    """
    sizes = np.maximum(a_hi - a_lo + 1, 0)
    ends = np.cumsum(sizes)
    return ends, ends - sizes - a_lo


def _window(y: np.ndarray, s: float, count: np.ndarray, lo: np.ndarray) -> None:
    """The integers b with |y - b| < s, per entry of ``y``, in place.

    Writes ``ceil(y + s) - floor(y - s) - 1`` clamped at 0 (their number) into
    ``count`` and ``floor(y - s)`` into ``lo``, so the smallest such b is
    ``lo + 1``.  All float64 buffers of the shape of ``y``; the floor, the
    ceil and their small integer difference are exact doubles.  An ``s <= 0``
    leaves no b.
    """
    np.ceil(np.add(y, s, out=count), out=count)
    np.floor(np.subtract(y, s, out=lo), out=lo)
    np.subtract(count, lo, out=count)
    np.subtract(count, 1.0, out=count)
    np.maximum(count, 0.0, out=count)


def _y(curve: Curve, j: int, q, t: np.ndarray, g: float, out: np.ndarray) -> None:
    """The canonical doubles ``out = q f_j(t/q) - g``, t = a + lambda: the y ``_window`` decides on.

    ``out`` may be ``t`` itself, which is read only before it is written.
    """
    np.divide(t, q, out=out)  # the same doubles as (a + lam) / q
    np.multiply(q, np.asarray(curve.coord_values(j, out), dtype=float), out=out)
    np.subtract(out, g, out=out)


def _checked(curve: Curve, Q: int, psis: Sequence[float], B: tuple[float, float],
             theta) -> tuple[int, tuple[float, float], Shift]:
    """The validated ``(Q, B, theta)`` of a count: ValueError where R has no meaning or no cap."""
    Q = int(Q)
    if Q < 2:
        raise ValueError("Q must be >= 2")
    if Q > Q_CAP:
        raise ValueError(f"Q={Q} above the cap {Q_CAP}")
    if not all(0 < psi < 1 for psi in psis):
        raise ValueError("psi must lie in (0, 1)")
    lo, hi = float(B[0]), float(B[1])
    theta = normalise_theta(theta, curve.n - 1)
    for name, value in (("B", B), ("lambda", theta[0]), ("gamma", theta[1])):
        if not np.isfinite(value).all():
            raise ValueError(f"{name}={value} is not finite")
    if lo <= hi and not (curve.contains(lo) and curve.contains(hi)):
        raise ValueError(f"B={B} not contained in curve domain {curve.domain}")
    return Q, (lo, hi), theta


def _pair_ys(curve: Curve, k: np.ndarray, ends: np.ndarray, offset: np.ndarray, q0: int,
             theta: Shift, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of ascending flat indices ``k`` (``_pair_rows``): int64 q and a, and their y in ``ys``.

    The ends of the rows that ``k`` spans are searched in ``k``: a search per row, not per pair.
    """
    first, last = np.searchsorted(ends, k[[0, -1]], side="right")
    rows = slice(first, last + 1)
    sizes = np.diff(np.searchsorted(k, ends[rows]), prepend=0)  # the pairs of k in each row
    a = k - np.repeat(offset[rows], sizes)
    q = np.repeat(np.arange(q0 + first, q0 + last + 1), sizes)
    lam, gam = theta
    t = np.add(a, lam, out=ys[-1])  # in the last y's buffer, which is written last
    for j, y in enumerate(ys, start=1):
        _y(curve, j, q, t, gam[j - 1], y)
    return q, a


def _counted(total: float, curve: Curve, Q: int) -> int:
    """A float sum of ``_window`` counts as an int; it is nan where a y is not finite."""
    if not np.isfinite(total):
        raise ValueError(f"curve {curve.label} at Q={Q}: q f_j(x) - gamma_j is not a finite double")
    return int(total)


def _kept(curve: Curve, Q: int, psi: float, theta: Shift, a_lo: np.ndarray,
          a_hi: np.ndarray) -> Iterator:
    """The pair kernel of R on ``_checked``'s ``(Q, theta)``: per block of pairs, its kept ones.

    The pairs are every q with 2q > Q, q <= Q and every a from ``a_lo`` to ``a_hi`` of its q
    (``_q_rows`` for a window B), in ascending (q, a) order, ``_BLOCK`` at a time.  A block
    yields ``(q, a, ys, keep, reps, inside, lo)``: int64 q and a, ``ys[j - 1] = q
    f_j((a + lambda)/q) - gamma_j`` (``_pair_ys``), the indices ``keep`` of the pairs with a
    triple and their int64 numbers ``reps`` of triples, and ``_window``'s ``inside[j]`` and
    ``lo[j]`` at psi - GUARD: views of buffers that the next block overwrites.
    """
    q0 = Q // 2 + 1
    ends, offset = _pair_rows(a_lo, a_hi)
    total = int(ends[-1])
    ys_buf, inside_buf, lo_buf = np.empty((3, curve.n - 1, min(_BLOCK, total)))
    for start in range(0, total, _BLOCK):
        k = np.arange(start, min(start + _BLOCK, total), dtype=np.int64)
        ys, inside, lo = ys_buf[:, :len(k)], inside_buf[:, :len(k)], lo_buf[:, :len(k)]
        q, a = _pair_ys(curve, k, ends, offset, q0, theta, ys)
        for y, n, floor in zip(ys, inside, lo):
            _window(y, psi - GUARD, n, floor)
        counts = inside[0] if len(ys) == 1 else inside.prod(axis=0)  # b per pair: the product
        _counted(counts.sum(), curve, Q)
        keep = np.flatnonzero(counts)
        yield q, a, ys, keep, counts[keep].astype(np.int64), inside, lo


def _triples(curve: Curve, Q: int, psi: float, B: tuple[float, float], theta: Shift,
             count: int) -> Iterator[np.ndarray]:
    """The triples of R on ``_checked``'s ``(Q, B, theta)``: int64 rows (q, a, b_1..b_m) per ``_kept`` block.

    A kept pair becomes its triples in one step, the last b varying fastest, so the rows come
    out in ascending (q, a, b) order.  ``count`` is the sweep's count of the cell (``_counts``):
    rows that do not add up to it raise AssertionError, at the latest after the last block.
    """
    m, made = curve.n - 1, 0
    for q, a, _, keep, reps, inside, lo in _kept(curve, Q, psi, theta, *_q_rows(Q, B, theta[0])):
        pair = np.repeat(keep, reps)
        # index of each triple within its pair, split into mixed-radix digits
        digit = np.arange(len(pair), dtype=np.int64)
        digit -= np.repeat(np.cumsum(reps) - reps, reps)
        block = np.empty((len(pair), 2 + m), dtype=np.int64)
        block[:, 0] = q[pair]
        block[:, 1] = a[pair]
        for j in range(m - 1, -1, -1):
            radix = inside[j, pair].astype(np.int64)
            block[:, 2 + j] = lo[j, pair]
            block[:, 2 + j] += 1 + digit % radix
            digit //= radix
        made += len(block)
        if made > count:
            break
        yield block
    if made != count:
        raise AssertionError(f"curve {curve.label} at Q={Q}, psi={psi}: the kept pairs do not make "
                             f"the sweep's {count} triples")


def enumerate_R(curve: Curve, Q: int, psi: float, B: tuple[float, float],
                theta=None, *, collect: bool = True) -> CountResult:
    """All integer triples of the near-curve set at height Q and width psi.

    ``count`` and ``boundary`` come from the psi sweep at the cuts psi - GUARD and psi + GUARD
    (``_counts``): the triples with every |y_j - b_j| < psi - GUARD (``_window``), and those
    within psi + GUARD but not psi - GUARD.  With ``collect=True`` the triples of q with
    2q > Q, q <= Q and a with (a + lambda)/q in B (exact integer predicates) fill one array of
    ``count`` rows in ascending (q, a, b) order (``_triples``); with ``collect=False`` only the
    counts are taken, which keeps Q-sweeps cheap.  Q above ``Q_CAP`` raises ValueError.
    """
    Q, B, theta, count, boundary = _counts(curve, Q, psi, B, theta)
    triples = None
    if collect:
        triples, start = np.empty((count, 1 + curve.n), dtype=np.int64), 0
        for block in _triples(curve, Q, psi, B, theta, count):
            triples[start:start + len(block)] = block
            start += len(block)
    return CountResult(Q=Q, psi=psi, B=B, theta=theta, count=count, boundary=boundary,
                       triples=triples)


def _points(curve: Curve, Q: int, psi: float, theta: Shift, a_lo, a_hi) -> np.ndarray:
    """The doubles (a + lambda)/q of the triples of ``_kept``'s pairs, in its order: no triples."""
    blocks = _kept(curve, Q, psi, theta, a_lo, a_hi)
    return np.concatenate([np.empty(0)] + [np.repeat((a[keep] + theta[0]) / q[keep], reps)
                                           for q, a, _, keep, reps, *_ in blocks])


def _cut(q: np.ndarray, s: float, lam: float, a_lo: np.ndarray, a_hi: np.ndarray) -> np.ndarray:
    """Per q, the first a from ``a_lo`` to ``a_hi`` whose point fl(fl(a + lambda)/q) is >= s, else a_hi + 1.

    The point does not decrease with a, so a ceil in doubles, moved a step at a time while
    the point of the a below reaches s or its own does not, ends on it.
    """
    c = np.clip(np.ceil(q * s - lam), a_lo, a_hi + 1).astype(np.int64)
    while (down := (c > a_lo) & ((c - 1 + lam) / q >= s)).any():
        c -= down
    while (up := (c <= a_hi) & ((c + lam) / q < s)).any():
        c += up
    return c


def _coverage(curve: Curve, Q: int, psi: float, B: tuple[float, float], theta,
              rho: float) -> tuple[int, float]:
    """The count of R and ``delta_coverage`` of its points, from one slab of B at a time.

    B is cut at k - 1 doubles s into slabs of equal width, k the exact number of pairs
    (``_pair_rows``) over ``_SLAB``.  A q's pairs are split where their point first reaches
    s (``_cut``), so every pair lies in one slab and every slab's points lie in [s_i,
    s_(i+1)) as doubles: the slabs in order, each one sorted, are the sort of all the points.
    Their balls go to one ``_union_length``, which carries the running maximum of hi from
    slab to slab, so a cell holds one slab's points and balls.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    Q, B, theta = _checked(curve, Q, (psi,), B, theta)
    lam, count = theta[0], 0
    a_lo, a_hi = _q_rows(Q, B, lam)
    q = np.arange(Q // 2 + 1, Q + 1)
    k = max(1, -(-int(_pair_rows(a_lo, a_hi)[0][-1]) // _SLAB))

    def slabs():
        nonlocal count
        first = a_lo
        for i in range(1, k + 1):
            end = a_hi + 1 if i == k else _cut(q, B[0] + (B[1] - B[0]) * i / k, lam, a_lo, a_hi)
            pts = _points(curve, Q, psi, theta, first, end - 1)
            count += len(pts)
            pts.sort()
            yield _balls(pts, rho, B)
            first = end

    measure = _union_length(slabs())
    return count, measure


def _cell_states(ss: Sequence[float], m: int):
    """The cells' uint16 states, the number S of states that they decide, and per cut s the b-counts.

    Cell n holds the 2^16 y that round to n mod 2^16.  Its state counts the cuts s, 1 - s
    (s > 0) at or below n 2^-16; a tie cell, floor(2^16 c) - 1 ... floor(2^16 c) + 2 for c a
    cut, 0 or 1, holds BIG = S^m.  A d = y - floor(y) in state i has [d < s] + [d > 1 - s] b
    with |y - b| < s (0 if s <= 0), for s < 1.  A joint state is m states in base S; S = 0 once
    the number of cuts times S^m reaches 2^16, or where a cut is 1 or more: no cell decides.
    """
    inner = [s for s in ss if s > 0]
    cuts = np.array(sorted(set(inner + [1 - s for s in inner])), dtype=float)
    S = len(cuts) + 1
    if len(ss) * S**m >= _CELLS or max(ss) >= 1:
        return None, 0, np.zeros((len(ss), 0), np.int64)
    first = np.ceil(cuts * _CELLS).astype(np.int64)  # the first cell at or above each cut
    table = np.repeat(np.arange(S, dtype=np.uint16), np.diff(first, prepend=0, append=_CELLS))
    for u in np.floor(np.concatenate((cuts, (0.0, 1.0))) * _CELLS).astype(np.int64):
        table[max(u - 1, 0):u + 3] = S**m
    state, s = np.arange(S), np.array(ss)[:, None]
    rows = ((state <= np.searchsorted(cuts, s)) * 1 + (state > np.searchsorted(cuts, 1 - s))) * (s > 0)
    weights = np.ones((len(ss), 1), dtype=np.int64)
    for _ in range(m):
        weights = (weights[:, :, None] * rows[:, None, :]).reshape(len(ss), -1)
    return table, S, weights


def _row_terms(curve: Curve, Q: int, B: tuple[float, float], gam: Sequence[float]):
    """Per coordinate, its nonzero terms ``(k, c_k)`` in doubles, or None: no coeffs, no safe bound.

    The producer gives 2^16 y from the power t^k = (a + lambda)^k as a sum of ``c_k
    2^16 q^(1 - k) t^k``, and it and the canonical 2^16 y both round 2^16 (q f(x) -
    gamma) at the exact x = (a + lambda)/q with f's double coefficients: the
    canonical y in at most 4K + 2 roundings per term (x; Horner or x^k; q f; -
    gamma), the producer in at most 3K + 3 (t^k; the row's scalar; its product;
    the sum), K the degree.  So they lie at most 2^16 g_n S apart (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3), with n = 8(K + 1),
    g_n = n u/(1 - n u), u = 2^-53 and S = Q sum_k |c_k| X^k + |gamma| for X the
    larger |B_i|.  That must lie below half a cell, and S with it below
    ``_Y_LIMIT``.  The sizes are summed exactly, in Fractions.
    """
    X = max(abs(Fraction(B[0])), abs(Fraction(B[1])))
    terms = []
    for coord, g in zip(curve.coords, gam):
        cs = [float(c) for c in getattr(coord, "coeffs", ())]
        n = 8 * len(cs) * _UNIT
        size = Q * sum(abs(Fraction(c)) * X**k for k, c in enumerate(cs)) + abs(Fraction(g))
        error = size * n / (1 - n)  # in y; a cell is 1/_CELLS
        safe = cs and 2 * _CELLS * error < 1 and size + error < _Y_LIMIT
        terms.append([(k, c) for k, c in enumerate(cs) if c or (k == 0 and g)] if safe else None)
    return terms


def count_R_psi_sweep(curve: Curve, Q: int, psis: Sequence[float], B: tuple[float, float],
                      theta=None) -> list[int]:
    """Counts of enumerate_R for several psi at one Q, from one histogram of cells (``_sweep``).

    Raises ValueError wherever enumerate_R would for one of the psi.
    """
    return _sweep(curve, Q, psis, [psi - GUARD for psi in psis], B, theta)[3]


def _counts(curve: Curve, Q: int, psi: float, B: tuple[float, float],
            theta) -> tuple[int, tuple[float, float], Shift, int, int]:
    """``_checked``'s ``(Q, B, theta)`` of one cell, its ``count`` and its ``boundary``, from one sweep.

    The sweep counts at psi - GUARD and psi + GUARD; the triples between the two are ``boundary``.
    """
    Q, B, theta, (count, wide) = _sweep(curve, Q, (psi,), (psi - GUARD, psi + GUARD), B, theta)
    return Q, B, theta, count, wide - count


def _sweep(curve: Curve, Q: int, psis: Sequence[float], cuts: Sequence[float], B: tuple[float, float],
           theta) -> tuple[int, tuple[float, float], Shift, list[int]]:
    """``_checked``'s ``(Q, B, theta)`` for ``psis``; per cut s, the triples with every |y_j - b_j| < s.

    The one producer of ``count`` and ``boundary``.  Per q-row segment, a producer writes
    v = 2^16 y per coordinate into a batch of at most ``_SWEEP_BATCH`` pairs: with
    ``_row_terms``' terms, the row's scalars ``c_k 2^16 q^(1 - k)`` times slices of a table of
    t^k, t = a + lambda (one multiply per segment for x^p and no shift), within half a cell of
    V = 2^16 times the canonical y; else V (``_y``), or 0 where |y| >= 2^30 or nan.
    As |v| < 2^47 < 2^51, v + 1.5 2^52 is round(v) + 1.5 2^52 exactly, and the low 16 bits of
    its int64 view are the cell n = round(v) mod 2^16.  So V lies in [n - 1, n + 1] mod 2^16,
    which a cut at c cells, 0 or 2^16 meets only for the tie cells n = floor(c) - 1 ...
    floor(c) + 2 (``_cell_states``); off them V lies a cell from every cut, far above
    ``_window``'s float error (below 2^-23 for |y| < 2^30), so the cell gives its answer.  A
    batch's joint states go into one ``np.bincount``; the pairs with a tie, in BIG, are held
    by flat index and flushed ``_TIE_BLOCK`` at a time through (q, a), the canonical y and
    ``_window``.  Where no cell decides (S = 0), every pair is flushed, unbinned.
    """
    Q, B, (lam, gam) = _checked(curve, Q, psis, B, theta)
    if not cuts:
        return Q, B, (lam, gam), []
    m, ss, totals = curve.n - 1, list(cuts), [0] * len(cuts)
    table, S, weights = _cell_states(ss, m)
    big, q0 = S**m, Q // 2 + 1
    a_lo, a_hi = _q_rows(Q, B, lam)
    ends, offset = _pair_rows(a_lo, a_hi)
    total, width = int(ends[-1]), min(_SWEEP_BATCH, int(ends[-1]))
    cap = _TIE_BLOCK if S else width  # tie pairs per flush, and the tie pairs held at most
    tie_ys, work = np.empty((m, cap)), np.empty((3, cap))

    def flush(pairs: np.ndarray) -> None:  # tie pairs by flat index: canonical y and _window, psi by psi
        for at in (pairs[i:i + cap] for i in range(0, len(pairs), cap)):
            ys, (n, hi, lo) = tie_ys[:, :len(at)], work[:, :len(at)]
            _pair_ys(curve, at, ends, offset, q0, (lam, gam), ys)
            for k, s in enumerate(ss):
                for j, y in enumerate(ys):
                    _window(y, s, hi if j else n, lo)  # the first one starts the product
                    if j:
                        np.multiply(n, hi, out=n)
                totals[k] += _counted(n.sum(), curve, Q)

    if not (S and total):  # no pair, or no cell decides: every pair goes to the flush, unbinned
        for start in range(0, total, _SWEEP_BATCH):
            flush(np.arange(start, min(start + _SWEEP_BATCH, total)))
        return Q, B, (lam, gam), totals
    terms = _row_terms(curve, Q, B, gam)
    a_lo, sizes = a_lo.tolist(), np.diff(ends, prepend=0).tolist()
    rows = [r for r, size in enumerate(sizes) if size]
    a_min = min(a_lo[r] for r in rows)
    t = np.add(np.arange(a_min, max(a_lo[r] + sizes[r] for r in rows), dtype=np.int64), lam)
    powers = [None, t]  # powers[k][a - a_min] = (a + lambda)^k, the doubles of t for k = 1
    for _ in range(max([k for ts in terms if ts for k, _ in ts] + [1]) - 1):
        powers.append(powers[-1] * t)
    qf = np.arange(q0, Q + 1, dtype=float)
    vs, state, hist = np.empty((m, width)), np.empty(width, np.uint16), np.zeros(big + 1, np.int64)

    def producer(j: int, ts):
        """``fill(r, lo, hi, out)``: 2^16 y_j of the pairs of row r with a - a_min in [lo, hi)."""
        if ts is None:
            def fill(r, lo, hi, out):
                _y(curve, j + 1, q0 + r, t[lo:hi], gam[j], out)
                out[~(np.abs(out) < _Y_LIMIT)] = 0.0  # past the bound or nan: cell 0 is a tie
                np.multiply(out, _CELLS, out=out)
            return fill
        # per row, the scalars c_k 2^16 q^(1 - k), and 2^16 (c_0 q - gamma) for k = 0
        const = next((((qf * c - gam[j]) * _CELLS).tolist() for k, c in ts if k == 0), None)
        parts = [(powers[k], ((_CELLS * c) / qf**(k - 1)).tolist()) for k, c in ts if k]
        spare = np.empty(width) if len(parts) > 1 else None  # a term of the sum

        def fill(r, lo, hi, out):
            if not parts:
                out.fill(const[r] if const else 0.0)
                return
            (p, w), *rest = parts
            np.multiply(p[lo:hi], w[r], out=out)
            for p, w in rest:
                np.add(out, np.multiply(p[lo:hi], w[r], out=spare[:hi - lo]), out=out)
            if const:
                np.add(out, const[r], out=out)
        return fill

    fills = [producer(j, ts) for j, ts in enumerate(terms)]

    def bin_batch(start: int, size: int) -> None:  # the pairs start, ..., start + size - 1
        nonlocal held
        cells, st = np.add(vs[:, :size], _ROUND, out=vs[:, :size]).view(np.int64), state[:size]
        np.bitwise_and(cells, _CELLS - 1, out=cells)  # round(2^16 y) mod _CELLS
        joint = cells[0]  # read first, then written: the joint states, by Horner in base S
        for j, cell in enumerate(cells):
            np.take(table, cell, out=st, mode="clip")
            np.add(np.multiply(joint, S, out=joint) if j else 0, st, out=joint)
        if m > 1:
            np.minimum(joint, big, out=joint)  # every joint state with a tie
        counts = np.bincount(joint, minlength=big + 1)
        np.add(hist, counts, out=hist)
        if counts[big]:
            ties = np.flatnonzero(joint == big) + start
            if held + len(ties) > cap:
                flush(np.concatenate((tie_at[:held], ties)))
                held = 0
            else:
                tie_at[held:held + len(ties)] = ties
                held += len(ties)

    tie_at, held, pos = np.empty(cap, np.int64), 0, 0  # the tie pairs held; the pairs in the batch
    for r in rows:
        lo, left = a_lo[r] - a_min, sizes[r]
        while left:
            size = min(left, width - pos)
            for fill, out in zip(fills, vs[:, pos:pos + size]):
                fill(r, lo, lo + size, out)
            pos, lo, left = pos + size, lo + size, left - size
            if pos == width:
                bin_batch(ends[r] - left - pos, pos)
                pos = 0
    if pos:
        bin_batch(ends[-1] - pos, pos)
    flush(tie_at[:held])
    return Q, B, (lam, gam), [n + int(w) for n, w in zip(totals, weights @ hist[:big])]


def _membership(curve: Curve, Q: float, psi: float, B: tuple[float, float], theta: Shift):
    """The defining inequalities of R as a test of one triple ``(q, a, bs)``.

    B is read as the dyadic rationals it holds and compared with the point
    P/D of ``detector._near_curve``, which decides every coordinate at psi.
    """
    near = _near_curve(curve, theta, psi)
    (n0, d0), (n1, d1) = (v.as_integer_ratio() for v in B)

    def member(q: int, a: int, bs: Sequence[int]) -> bool:
        if not (2 * q > Q and q <= Q):
            return False
        P, D, ok, _ = near(q, a, bs)
        return ok and n0 * D <= P * d0 and P * d1 <= n1 * D

    return member


def recheck_triples(curve: Curve, result: CountResult, sample: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None) -> bool:
    """Re-verification of emitted triples by ``_membership``, exact for the polynomial catalog."""
    if result.triples is None:
        raise ValueError("nothing collected to recheck")
    rows = result.triples
    if sample is not None and len(rows) > sample:
        rng = rng or np.random.default_rng(0)
        rows = rows[rng.choice(len(rows), size=sample, replace=False)]
    member = _membership(curve, result.Q, result.psi, result.B, result.theta)
    return all(member(int(row[0]), int(row[1]), [int(v) for v in row[2:]]) for row in rows)


def witness_in_R(w: RationalWitness, curve: Curve, Q: float, psi: float,
                 B: tuple[float, float], theta=None) -> bool:
    """Direct membership test of a witness in the defining inequalities."""
    return _membership(curve, Q, psi, B, normalise_theta(theta, curve.n - 1))(w.q, w.a, w.b)


# ---------------------------------------------------------------------------
# interval unions and coverage


def _balls(x: np.ndarray, rho: float, B: tuple[float, float]) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` of the rho-balls around the sorted points ``x``, clipped to B; hi in ``x`` itself.

    The clipped lo = max(fl(x - rho), B_0) does not decrease with x, so the balls are sorted by lo.
    """
    lo = x - rho
    np.maximum(lo, B[0], out=lo)
    np.minimum(np.add(x, rho, out=x), B[1], out=x)
    return lo, x


def delta_coverage(witnesses, rho: float, B: tuple[float, float],
                   lam: float = 0.0) -> float:
    """Measure of the union of rho-balls around the shifted rational points, inside B.

    ``witnesses`` is a collected ``CountResult``, a float array of the points
    (a + lam)/q, or an iterable of witnesses.  The balls go to ``_union_length``
    in one value sort of the points (``_balls``), which are left as given.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if isinstance(witnesses, CountResult):
        pts = witnesses.points()
    elif isinstance(witnesses, np.ndarray):
        pts = witnesses
    else:
        pts = np.asarray([(w.a + lam) / w.q for w in witnesses], dtype=float)
    return _union_length([_balls(np.sort(pts), rho, B)])


# ---------------------------------------------------------------------------
# CSV emission


def _write_triples(path, curve: Curve, psi: float, theta: Shift, blocks: Iterable[np.ndarray]) -> None:
    """Columns q,a,b1..bm,x_point,slack_f1..fm of the triples in ``blocks``, a header row, LF endings.

    The rows (q, a, b_1..b_m) come in blocks of any size, cut into runs of ``_CSV_BLOCK`` rows.
    A run's x-points (a + lambda)/q and slacks psi - |y_j - b_j|, y_j from ``_y``, become text at
    once in ``nearcurve.csvtext``, imported here and only here, so that no other path pays for
    compiling it.  Blocks that stop with an error leave no file.
    """
    from .csvtext import _runs, csv_text

    m, (lam, gam) = curve.n - 1, theta
    js = range(1, m + 1)
    header = ["q", "a", *(f"b{j}" for j in js), "x_point", *(f"slack_f{j}" for j in js)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        try:
            fh.write(",".join(header) + "\n")
            for rows in _runs(blocks, _CSV_BLOCK):
                q = rows[:, 0]
                columns = [rows[:, k] for k in range(m + 2)] + [(rows[:, 1] + lam) / q]
                for j in js:  # a slack column, in place of its own a + lambda
                    y = np.add(rows[:, 1], lam)
                    _y(curve, j, q, y, gam[j - 1], y)
                    columns.append(np.subtract(psi, np.abs(np.subtract(y, rows[:, 1 + j], out=y), out=y), out=y))
                fh.write(csv_text(columns))
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def write_triples_csv(path, curve: Curve, result: CountResult) -> None:
    """Columns q,a,b1..bm,x_point,slack_f1..fm with LF endings and a header row: ``_write_triples``."""
    if result.triples is None:
        raise ValueError("enumeration ran with collect=False")
    _write_triples(path, curve, result.psi, result.theta, [result.triples])
