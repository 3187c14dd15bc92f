"""Exhaustive enumeration of shifted rational points near a curve (d = 1).

The set under study collects integer triples (q, a, b) with Q/2 < q <= Q,
(a + lambda)/q inside a window B, and every |q f_j((a+lambda)/q) - gamma_j - b_j|
strictly below psi.  Enumeration is O(Q^2) per configuration, for Q up to
``Q_CAP`` = 65536.  The q-range and the a-range of every q are decided in
exact integers.  ``enumerate_R`` runs the (q, a) pairs in flat, cache-sized
blocks of their canonical double y (``_blocks``).  A psi sweep bins each pair
by the 2^-16 cell that 2^16 y rounds to, which gives ``_window``'s answer (below)
off the tie cells, within two cells of a cut s, 1 - s, 0 or 1; a pair with a
coordinate in a tie cell gets its canonical y and ``_window``
(``count_R_psi_sweep``).

The b-window is decided in doubles, by one predicate, ``_window``: the
integers b with |y - b| < psi - 1e-12, with y = q f_j(x) - gamma_j, and
triples within the 1e-12 guard band of the boundary are tallied as
``boundary``.  That keeps exact ties out only while the float error of y,
about q 2^-52 on the unit window, stays below the absolute guard, so up to q
of about 4500.  Beyond that an exact tie can be counted as inside:
configs/scaling.cfg reports 30,171,993 triples at Q = 8192, psi = 0.6 against
an exact 30,171,986.  An exact integer test is item 1 of ROADMAP.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .curves import Curve
from .detector import RationalWitness, _near_curve, psi_floor
from .lattice import Shift, normalise_theta

GUARD = 1e-12
Q_CAP = 1 << 16
_CSV_BLOCK = 1 << 13  # rows turned into text at a time; bounds the memory of a write
_BLOCK = 1 << 13  # (q, a) pairs per counting block; 64 KiB per float64 array, so it stays in cache
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


def _pair_rows(qs: range, B: tuple[float, float], lam: float):
    """Where the pairs of each q lie in the flat (q, a) order.

    Returns int64 ``ends`` (pairs up to and including each q), ``starts`` (the
    pairs before it) and ``offset``: the k-th pair overall, in the row of q,
    has a = k - offset.
    """
    a_lo, a_hi = _a_ranges(qs, B, lam)
    ends = np.cumsum(np.maximum(a_hi - a_lo + 1, 0))
    starts = np.concatenate(([0], ends[:-1]))
    return ends, starts, starts - a_lo


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


def _blocks(curve: Curve, Q: int, psis: Sequence[float], B: tuple[float, float],
            theta) -> tuple[int, tuple[float, float], Shift, Iterator]:
    """The pair kernel of R: validated ``(Q, B, theta)`` and an iterator of (q, a) blocks.

    The pairs are every q with 2q > Q, q <= Q and every a with (a + lambda)/q
    in B, in ascending (q, a) order.  Each block is ``(q, a, ys)`` for the next
    at most ``_BLOCK`` of them: flat int64 arrays ``q`` and ``a``, and
    ``ys[j - 1] = q f_j((a + lambda)/q) - gamma_j``.  The blocks are views of
    buffers that the next block overwrites, so a caller copies what it keeps.
    An empty B (lo > hi) has no blocks.
    """
    Q = int(Q)
    if Q < 2:
        raise ValueError("Q must be >= 2")
    if Q > Q_CAP:
        raise ValueError(f"Q={Q} above the cap {Q_CAP}")
    if not all(0 < psi < 1 for psi in psis):
        raise ValueError("psi must lie in (0, 1)")
    m = curve.n - 1
    lam, gam = normalise_theta(theta, m)
    lo, hi = float(B[0]), float(B[1])
    if lo <= hi and not (curve.contains(lo) and curve.contains(hi)):
        raise ValueError(f"B={B} not contained in curve domain {curve.domain}")

    def blocks():
        if lo > hi:
            return
        q0 = Q // 2 + 1
        ends, starts, offset = _pair_rows(range(q0, Q + 1), (lo, hi), lam)
        total = int(ends[-1])
        width = min(_BLOCK, total)
        q_buf, a_buf = np.empty(width, dtype=np.int64), np.empty(width, dtype=np.int64)
        y_buf = np.empty((m, width))
        for start in range(0, total, _BLOCK):
            stop = min(start + _BLOCK, total)
            size = stop - start
            q, a, ys = q_buf[:size], a_buf[:size], y_buf[:, :size]
            first, last = np.searchsorted(ends, (start, stop - 1), side="right")
            rows = slice(first, last + 1)  # the rows of q this block touches
            repeats = np.minimum(ends[rows], stop) - np.maximum(starts[rows], start)
            q[:] = np.repeat(np.arange(q0 + first, q0 + last + 1, dtype=np.int64), repeats)
            a[:] = np.arange(start, stop, dtype=np.int64)
            a -= np.repeat(offset[rows], repeats)
            t = np.add(a, lam, out=ys[-1])  # in the last y's buffer, which is written last
            for j, y in enumerate(ys, start=1):
                _y(curve, j, q, t, gam[j - 1], y)
            yield q, a, ys

    return Q, (lo, hi), (lam, gam), blocks()


def _counted(total: float, curve: Curve, Q: int) -> int:
    """A float sum of ``_window`` counts as an int; it is nan where a y is not finite."""
    if not np.isfinite(total):
        raise ValueError(f"curve {curve.label} at Q={Q}: q f_j(x) - gamma_j is not a finite double")
    return int(total)


def _kept(curve: Curve, Q: int, blocks: Iterator, psi: float) -> Iterator:
    """Per block of ``_blocks``, its kept pairs: ``(q, a, keep, reps, inside, lo, boundary)``.

    ``keep`` indexes the pairs with a triple and ``reps`` holds their int64 numbers
    of triples; ``inside[j]`` and ``lo[j]`` are ``_window``'s at psi - GUARD, and
    ``boundary`` counts the triples within psi + GUARD but not psi - GUARD.
    """
    # per coordinate, reused by every block: b-counts at psi +- GUARD, floor(y - psi + GUARD)
    wide_buf, inside_buf, lo_buf = np.empty((3, curve.n - 1, _BLOCK))
    for q, a, ys in blocks:
        size = len(a)
        wide, inside, lo = wide_buf[:, :size], inside_buf[:, :size], lo_buf[:, :size]
        for j, y in enumerate(ys):
            _window(y, psi + GUARD, wide[j], lo[j])
            _window(y, psi - GUARD, inside[j], lo[j])
        counts, wide_counts = ((inside[0], wide[0]) if len(ys) == 1
                               else (inside.prod(axis=0), wide.prod(axis=0)))
        wide_total = _counted(wide_counts.sum(), curve, Q)
        keep = np.flatnonzero(counts)
        reps = counts[keep].astype(np.int64)
        yield q, a, keep, reps, inside, lo, wide_total - int(reps.sum())


def enumerate_R(curve: Curve, Q: int, psi: float, B: tuple[float, float],
                theta=None, *, collect: bool = True) -> CountResult:
    """All integer triples of the near-curve set at height Q and width psi.

    Iterates q with 2q > Q, q <= Q and a with (a + lambda)/q in B (exact
    integer predicates) in flat blocks of (q, a) pairs, and per coordinate
    every integer b_j with |y_j - b_j| < psi - GUARD (``_window``); the pairs
    within psi + GUARD but not psi - GUARD add to ``boundary``.  A kept pair
    becomes its triples in one step, the last b varying fastest, so the rows
    come out in ascending (q, a, b) order.  With ``collect=False`` only the
    counts are accumulated, which keeps Q-sweeps cheap.  Q above ``Q_CAP``
    raises ValueError.
    """
    Q, B, theta, blocks = _blocks(curve, Q, (psi,), B, theta)
    m = curve.n - 1
    total = 0
    boundary = 0
    collected: list[np.ndarray] = []
    for q, a, keep, reps, inside, lo, grazing in _kept(curve, Q, blocks, psi):
        total += int(reps.sum())
        boundary += grazing
        if collect and len(keep):
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
            collected.append(block)

    triples = None
    if collect:
        # each block is dropped once it is copied, so the triples are not held twice
        triples, start = np.empty((total, 2 + m), dtype=np.int64), 0
        for i, block in enumerate(collected):
            triples[start:start + len(block)] = block
            start += len(block)
            collected[i] = None
    return CountResult(Q=Q, psi=psi, B=B, theta=theta, count=total,
                       boundary=boundary, triples=triples)


def _kept_points(curve: Curve, Q: int, psi: float, B: tuple[float, float], theta=None) -> np.ndarray:
    """The doubles of ``enumerate_R(...).points()`` in its order, from the kept pairs: no triples."""
    Q, _, (lam, _), blocks = _blocks(curve, Q, (psi,), B, theta)
    return np.concatenate([np.empty(0)] + [np.repeat((a[keep] + lam) / q[keep], reps)
                                           for q, a, keep, reps, *_ in _kept(curve, Q, blocks, psi)])


def _cell_states(ss: Sequence[float], m: int):
    """The cells' uint16 states, the number S of states that they decide, and per psi the b-counts.

    Cell n holds the 2^16 y that round to n mod 2^16.  Its state counts the cuts s, 1 - s
    (s > 0) at or below n 2^-16; a tie cell, floor(2^16 c) - 1 ... floor(2^16 c) + 2 for c a
    cut, 0 or 1, holds BIG = S^m.  A d = y - floor(y) in state i has [d < s] + [d > 1 - s] b
    with |y - b| < s (0 if s <= 0).  A joint state is m states in base S; S = 0 once the
    number of psi times S^m reaches 2^16: no cell decides.
    """
    inner = [s for s in ss if s > 0]
    cuts = np.array(sorted(set(inner + [1 - s for s in inner])), dtype=float)
    S = len(cuts) + 1
    if len(ss) * S**m >= _CELLS:
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
    """Counts of enumerate_R for several psi at one Q, from one histogram of cells.

    Raises ValueError wherever enumerate_R would for one of the psi.  Per q-row segment, a
    producer writes v = 2^16 y per coordinate into a batch of at most ``_SWEEP_BATCH`` pairs:
    with ``_row_terms``' terms, the row's scalars ``c_k 2^16 q^(1 - k)`` times slices of a
    table of t^k, t = a + lambda (one multiply per segment for x^p and no shift), within half
    a cell of V = 2^16 times the canonical y; else V (``_y``), or 0 where |y| >= 2^30 or nan.
    As |v| < 2^47 < 2^51, v + 1.5 2^52 is round(v) + 1.5 2^52 exactly, and the low 16 bits of
    its int64 view are the cell n = round(v) mod 2^16.  So V lies in [n - 1, n + 1] mod 2^16,
    which a cut at c cells, 0 or 2^16 meets only for the tie cells n = floor(c) - 1 ...
    floor(c) + 2 (``_cell_states``); off them V lies a cell from every cut, far above
    ``_window``'s float error (below 2^-23 for |y| < 2^30), so the cell gives its answer.  A
    batch's joint states go into one ``np.bincount``; the pairs with a tie, in BIG, are held
    by flat index and flushed ``_TIE_BLOCK`` at a time through (q, a), the canonical y and
    ``_window``.  Where no cell decides (S = 0), every pair is flushed, unbinned.
    """
    Q, B, (lam, gam), _ = _blocks(curve, Q, psis, B, theta)  # its checks; its pairs go unwalked
    if not psis:
        return []
    m, ss, totals = curve.n - 1, [psi - GUARD for psi in psis], [0] * len(psis)
    table, S, weights = _cell_states(ss, m)
    big, q0 = S**m, Q // 2 + 1
    ends, starts, offset = _pair_rows(range(q0, Q + 1), B, lam)
    total, width = int(ends[-1]), min(_SWEEP_BATCH, int(ends[-1]))
    cap = _TIE_BLOCK if S else width  # tie pairs per flush, and the tie pairs held at most
    tie_ys, work = np.empty((m, cap)), np.empty((3, cap))

    def flush(pairs: np.ndarray) -> None:  # tie pairs by flat index: canonical y and _window, psi by psi
        for at in (pairs[i:i + cap] for i in range(0, len(pairs), cap)):
            row = np.searchsorted(ends, at, side="right")
            ys, (n, hi, lo) = tie_ys[:, :len(at)], work[:, :len(at)]
            shifted = np.add(at - offset[row], lam, out=ys[-1])  # t in the last y's buffer
            for j, y in enumerate(ys, start=1):
                _y(curve, j, row + q0, shifted, gam[j - 1], y)
            for k, s in enumerate(ss):
                for j, y in enumerate(ys):
                    _window(y, s, hi if j else n, lo)  # the first one starts the product
                    if j:
                        np.multiply(n, hi, out=n)
                totals[k] += _counted(n.sum(), curve, Q)

    if not (S and total):  # no pair, or no cell decides: every pair goes to the flush, unbinned
        for start in range(0, total, _SWEEP_BATCH):
            flush(np.arange(start, min(start + _SWEEP_BATCH, total)))
        return totals
    terms = _row_terms(curve, Q, B, gam)
    a_lo, sizes = (starts - offset).tolist(), np.diff(ends, prepend=0).tolist()
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
    return [n + int(w) for n, w in zip(totals, weights @ hist[:big])]


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


def _swept(lo: np.ndarray, hi: np.ndarray) -> float:
    """Length of the union of intervals in sweep order; in place, on the caller's copies."""
    keep = hi > lo
    if not keep.all():
        lo = lo[keep]  # one statement per array: each old copy goes before the next new one
        hi = hi[keep]
    if lo.size == 0:
        return 0.0
    # interval i adds M_i - max(lo_i, M_{i-1}), M_i the running maximum of hi: that is
    # hi_i - max(lo_i, M_{i-1}) > 0 where hi_i > M_{i-1}, and exactly 0 elsewhere
    np.maximum.accumulate(hi, out=hi)
    if hi[-1] == np.inf:  # an unbounded interval; past it the terms would be inf - inf
        return float("inf")
    np.maximum(lo[1:], hi[:-1], out=lo[1:])
    return float(np.sum(np.subtract(hi, lo, out=hi)))


def interval_union_measure(intervals: Iterable[tuple[float, float]],
                           clip: Optional[tuple[float, float]] = None) -> float:
    """Length of the union of intervals, optionally clipped; sweep-line exact.

    Swept in one stable ``argsort`` of clipped lo: ties keep their input order, which sets the last bits.
    """
    if isinstance(intervals, np.ndarray):
        if intervals.size and (intervals.ndim != 2 or intervals.shape[1] != 2):
            raise ValueError("an interval array must have shape (k, 2)")
        arr = np.asarray(intervals, dtype=float).reshape(-1, 2)
    else:
        arr = np.asarray([(lo, hi) for lo, hi in intervals], dtype=float)
    if arr.size == 0:
        return 0.0
    lo, hi = arr[:, 0], arr[:, 1]
    if clip is not None:
        lo = np.maximum(lo, clip[0])
        hi = np.minimum(hi, clip[1])
    order = np.argsort(lo, kind="stable")
    lo = lo[order]
    hi = hi[order]
    return _swept(lo, hi)


def delta_coverage(witnesses, rho: float, B: tuple[float, float],
                   lam: float = 0.0) -> float:
    """Measure of the union of rho-balls around the shifted rational points, inside B.

    ``witnesses`` is a collected ``CountResult``, a float array of the points
    (a + lam)/q, or an iterable of witnesses.  It is ``interval_union_measure``'s
    double on the balls in the given order, from one value sort for its ``argsort``:
    the clipped lo = max(fl(x - rho), B_0) is nondecreasing in x, so sorted points
    keep its order where lo differ, and equal x give equal balls.  A run of equal lo
    whose hi differ (at B_0, rarely inside B) takes back its points in input order.
    """
    if not rho > 0:
        raise ValueError("rho must be positive")
    if isinstance(witnesses, CountResult):
        pts = witnesses.points()
    elif isinstance(witnesses, np.ndarray):
        pts = witnesses
    else:
        pts = np.asarray([(w.a + lam) / w.q for w in witnesses], dtype=float)
    x = np.sort(pts)
    lo, hi = x - rho, x + rho  # clipped in place: no third copy of the points at the peak
    np.maximum(lo, B[0], out=lo)
    np.minimum(hi, B[1], out=hi)
    runs = np.unique(lo[1:][(lo[1:] == lo[:-1]) & (hi[1:] != hi[:-1])])
    if runs.size:
        first, stop = np.searchsorted(lo, runs, "left"), np.searchsorted(lo, runs, "right")
        # run k holds the points with x[first_k] <= x <= x[stop_k - 1], as lo is monotone in x
        held = pts[(pts >= x[first[0]]) & (pts <= x[stop[-1] - 1])]
        k = np.searchsorted(x[first], held, side="right") - 1
        inside = held <= x[stop - 1][k]
        held = held[inside][np.argsort(k[inside], kind="stable")]  # by run, then input order
        at = np.arange(len(held)) + np.repeat(stop - np.cumsum(stop - first), stop - first)
        lo[at] = np.maximum(held - rho, B[0])
        hi[at] = np.minimum(held + rho, B[1])
    del x
    return _swept(lo, hi)


# ---------------------------------------------------------------------------
# scaling fits and the counting lower bound


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log y against log x."""

    slope: float
    intercept: float
    r_squared: float
    samples: tuple[tuple[float, float], ...]


def scaling_fit(samples: Sequence[tuple[float, float]]) -> ScalingFit:
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    xs = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("samples must be positive for a log-log fit")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      r_squared=max(0.0, min(1.0, r2)),
                      samples=tuple((float(a), float(b)) for a, b in samples))


@dataclass(frozen=True)
class LowerBoundCheck:
    """Outcome of the counting lower bound; ok is None when out of regime."""

    in_regime: bool
    ok: Optional[bool]
    bound: float
    psi_floor: float


def lower_bound_check(count: int, B: tuple[float, float], C0: float, psi: float,
                      Q: float, n: int, K0: float) -> LowerBoundCheck:
    """count >= |B|/(4 C0) psi^{n-1} Q^2, guarded by the admissibility window."""
    floor = psi_floor(Q, n - 1, K0)
    in_regime = floor <= psi < 1
    size = max(0.0, B[1] - B[0])
    bound = size / (4.0 * C0) * psi ** (n - 1) * Q**2
    ok = bool(count >= bound) if in_regime else None
    return LowerBoundCheck(in_regime=in_regime, ok=ok, bound=bound, psi_floor=floor)


# ---------------------------------------------------------------------------
# CSV emission


def _csv_text(columns: Sequence[np.ndarray]) -> str:
    """The CSV lines, each ending in LF, of equal-length int64 or float64 columns.

    The bytes are ``csv.writer``'s: each int as ``str`` and each float as its
    ``repr`` writes it, from one numpy text kernel per block
    (``nearcurve.csvtext``).  The kernel is imported here, and only here, so
    that no other path pays for compiling it.
    """
    from .csvtext import csv_text

    return csv_text(columns)


def write_triples_csv(path, curve: Curve, result: CountResult) -> None:
    """Columns q,a,b1..bm,x_point,slack_f1..fm with LF endings and a header row.

    The rows go out ``_CSV_BLOCK`` at a time: each block's x-points and slacks
    are taken from its triples, elementwise as ``CountResult.points`` does, and
    turned into text by ``_csv_text``, so a write holds no more than a block of
    them at once.
    """
    if result.triples is None:
        raise ValueError("enumeration ran with collect=False")
    m = curve.n - 1
    lam, gam = result.theta
    header = ["q", "a"] + [f"b{j}" for j in range(1, m + 1)] + ["x_point"] + [
        f"slack_f{j}" for j in range(1, m + 1)
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(result.triples), _CSV_BLOCK):
            rows = result.triples[start:start + _CSV_BLOCK]
            pts = (rows[:, 1] + lam) / rows[:, 0]
            columns = [rows[:, k] for k in range(m + 2)] + [pts]
            for j in range(1, m + 1):
                y = rows[:, 0] * np.asarray(curve.coord_values(j, pts), dtype=float) - gam[j - 1]
                columns.append(result.psi - np.abs(y - rows[:, 1 + j]))
            fh.write(_csv_text(columns))
