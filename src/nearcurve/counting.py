"""Exhaustive enumeration of shifted rational points near a curve (d = 1).

The set under study collects integer triples (q, a, b) with Q/2 < q <= Q,
(a + lambda)/q inside a window B, and every |q f_j((a+lambda)/q) - gamma_j - b_j|
strictly below psi.  Enumeration is O(Q^2) per configuration, for Q up to
``Q_CAP`` = 65536.  The q-range and the a-range of every q are decided in
exact integers.  ``enumerate_R`` runs the (q, a) pairs in flat, cache-sized
blocks of their canonical double y (``_blocks``).  A psi sweep bins each pair
by the 2^-16 cells of the fractional parts of its y, which give ``_window``'s
answer (below) off the tie cells next to a cut s, 1 - s, 0 or 1.  A polynomial
coordinate takes its cells from a table of the powers (a + lambda)^k and
scalars fixed per row, where an error bound keeps them within half a cell of
the canonical y (``_row_terms``); any other coordinate takes the canonical y.
A pair with a coordinate in a tie cell gets its canonical y and ``_window``
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
from .detector import RationalWitness, psi_floor
from .lattice import Shift, normalise_theta

GUARD = 1e-12
Q_CAP = 1 << 16
_CSV_BLOCK = 1 << 13  # rows turned into text at a time; bounds the memory of a write
_BLOCK = 1 << 13  # (q, a) pairs per counting block; 64 KiB per float64 array, so it stays in cache
_CELLS = 1 << 16  # fractional-part cells of a psi sweep, far wider than the float error of y
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


def _kept(blocks: Iterator, psi: float, m: int) -> Iterator:
    """Per block of ``_blocks``, its kept pairs: ``(q, a, keep, reps, inside, lo, boundary)``.

    ``keep`` indexes the pairs with a triple and ``reps`` holds their int64 numbers
    of triples; ``inside[j]`` and ``lo[j]`` are ``_window``'s at psi - GUARD, and
    ``boundary`` counts the triples within psi + GUARD but not psi - GUARD.
    """
    # per coordinate, reused by every block: b-counts at psi +- GUARD, floor(y - psi + GUARD)
    wide_buf, inside_buf, lo_buf = np.empty((3, m, _BLOCK))
    for q, a, ys in blocks:
        size = len(a)
        wide, inside, lo = wide_buf[:, :size], inside_buf[:, :size], lo_buf[:, :size]
        for j, y in enumerate(ys):
            _window(y, psi + GUARD, wide[j], lo[j])
            _window(y, psi - GUARD, inside[j], lo[j])
        counts, wide_counts = ((inside[0], wide[0]) if m == 1
                               else (inside.prod(axis=0), wide.prod(axis=0)))
        keep = np.flatnonzero(counts)
        reps = counts[keep].astype(np.int64)
        yield q, a, keep, reps, inside, lo, int(wide_counts.sum()) - int(reps.sum())


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
    for q, a, keep, reps, inside, lo, grazing in _kept(blocks, psi, m):
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
    _, _, (lam, _), blocks = _blocks(curve, Q, (psi,), B, theta)
    return np.concatenate([np.empty(0)] + [np.repeat((a[keep] + lam) / q[keep], reps)
                                           for q, a, keep, reps, *_ in _kept(blocks, psi, curve.n - 1)])


def _cell_states(ss: Sequence[float], m: int):
    """The cells' int16 states, their number, and per joint state the b-counts and the ties.

    Cell c holds d = y - floor(y) in [c, c + 1) / ``_CELLS``; its state counts the
    cuts s, 1 - s (every s < 1) below it, or is the last, tie, within a cell of a cut,
    0 or 1.  A d in state i has [d < s] + [d > 1 - s] b with |y - b| < s (0 if tie or
    s <= 0).  Joint states are m states in base ``states``; past 2^16 psi times
    joint states, every cell holds the one state, tie.
    """
    inner = [s for s in ss if s > 0]
    cuts = np.array(sorted(set(inner + [1 - s for s in inner])), dtype=float)
    tie = len(cuts) + 1
    if len(ss) * (tie + 1)**m > _CELLS:
        return np.zeros(_CELLS, np.int16), 1, np.zeros((len(ss), 1), np.int64), np.ones(1, bool)
    first = np.ceil(cuts * _CELLS).astype(np.int64)  # the first cell at or above each cut
    table = np.repeat(np.arange(tie, dtype=np.int16), np.diff(first, prepend=0, append=_CELLS))
    for u in np.floor(np.concatenate((cuts, (0.0, 1.0))) * _CELLS).astype(np.int64):
        table[max(u - 1, 0):u + 2] = tie
    state, s = np.arange(tie + 1), np.array(ss)[:, None]
    rows = (state <= np.searchsorted(cuts, s)) * 1 + (state > np.searchsorted(cuts, 1 - s))
    rows *= (state < tie) & (s > 0)
    weights, tied = np.ones((len(ss), 1), dtype=np.int64), np.zeros(1, dtype=bool)
    for _ in range(m):
        weights = (weights[:, :, None] * rows[:, None, :]).reshape(len(ss), -1)
        tied = (tied[:, None] | (state == tie)).ravel()
    return table, tie + 1, weights, tied


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

    Raises ValueError wherever enumerate_R would for one of the psi.  The pairs
    go in batches of at most ``_BLOCK``, which may split a q-row.  Per row
    segment, a producer writes 2^16 y per coordinate: with ``_row_terms``' terms,
    the row's scalars ``c_k 2^16 q^(1 - k)`` times slices of a table of t^k, t =
    a + lambda, built once per call (one multiply per segment for x^p and no
    shift), which lies within half a cell of 2^16 times the canonical y; without
    them, 2^16 times the canonical y (``_y``), or 0 where |y| >= 2^30 or nan.  A
    batch is binned by the joint ``_cell_states`` of those values in one
    ``np.bincount``.  A cell off the tie cells lies a whole cell from every cut, 0
    and 1, and ``_window``'s own float error is below 2^-23 for |y| < 2^30, so
    there the cell gives ``_window``'s answer.  A pair with a coordinate in a tie
    cell, cell 0 among them, goes by (q, a) into a buffer of ``_BLOCK`` pairs;
    when it fills, and at the end, it is flushed through the canonical y and
    ``_window``.
    """
    Q, B, (lam, gam), _ = _blocks(curve, Q, psis, B, theta)  # its checks; its pairs go unwalked
    if not psis:
        return []
    m, ss = curve.n - 1, [psi - GUARD for psi in psis]
    totals = [0] * len(psis)
    table, states, weights, tied = _cell_states(ss, m)
    terms = _row_terms(curve, Q, B, gam)
    q0 = Q // 2 + 1
    ends, starts, offset = _pair_rows(range(q0, Q + 1), B, lam)
    a_lo, sizes = (starts - offset).tolist(), np.diff(ends, prepend=0).tolist()
    rows = [r for r, size in enumerate(sizes) if size]
    if not rows:
        return totals
    a_min = min(a_lo[r] for r in rows)
    t = np.add(np.arange(a_min, max(a_lo[r] + sizes[r] for r in rows), dtype=np.int64), lam)
    powers = [None, t]  # powers[k][a - a_min] = (a + lambda)^k, the doubles of t for k = 1
    for _ in range(max([k for ts in terms if ts for k, _ in ts] + [1]) - 1):
        powers.append(powers[-1] * t)
    qf = np.arange(q0, Q + 1, dtype=float)

    vs, spare = np.empty((m, _BLOCK)), np.empty(_BLOCK)  # 2^16 y per coordinate, and a term
    cell, index = np.empty((2, _BLOCK), dtype=np.int64)
    hist = np.zeros(len(tied), dtype=np.int64)
    tie_q, tie_a = np.empty((2, _BLOCK), dtype=np.int64)  # the tie pairs not yet counted
    tie_ys, work, held = np.empty((m, _BLOCK)), np.empty((3, _BLOCK)), 0

    def producer(j: int, ts):
        """``fill(r, lo, hi, out)``: 2^16 y_j of the pairs of row r with a - a_min in [lo, hi)."""
        g = gam[j]
        if ts is None:
            def fill(r, lo, hi, out):
                _y(curve, j + 1, q0 + r, t[lo:hi], g, out)
                out[~(np.abs(out) < _Y_LIMIT)] = 0.0  # past the bound or nan: cell 0 is a tie
                np.multiply(out, _CELLS, out=out)
            return fill
        # per row, the scalars c_k 2^16 q^(1 - k), and 2^16 (c_0 q - gamma) for k = 0
        const = next((((qf * c - g) * _CELLS).tolist() for k, c in ts if k == 0), None)
        parts = [(powers[k], ((_CELLS * c) / qf**(k - 1)).tolist()) for k, c in ts if k]

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

    def flush() -> None:  # the held pairs, by their canonical y and _window, psi by psi
        ys, (n, hi, lo) = tie_ys[:, :held], work[:, :held]
        shifted = np.add(tie_a[:held], lam, out=ys[-1])  # t in the last y's buffer, written last
        for j, y in enumerate(ys, start=1):
            _y(curve, j, tie_q[:held], shifted, gam[j - 1], y)
        for k, s in enumerate(ss):
            for j, y in enumerate(ys):
                _window(y, s, hi if j else n, lo)  # the first one starts the product
                if j:
                    np.multiply(n, hi, out=n)
            totals[k] += int(n.sum())

    def bin_batch(start: int, size: int) -> None:  # the pairs start, ..., start + size - 1
        nonlocal hist, held
        idx, cl = index[:size], cell[:size]
        for j, v in enumerate(vs[:, :size]):
            np.floor(v, out=v)
            np.copyto(cl, v, casting="unsafe")
            np.bitwise_and(cl, _CELLS - 1, out=cl)  # floor(2^16 y) mod _CELLS
            np.add(idx * states if j else 0, table[cl], out=idx)
        hist += np.bincount(idx, minlength=len(hist))
        ties = np.flatnonzero(tied[idx])
        if held + len(ties) > _BLOCK:
            flush()
            held = 0
        ties += start
        row = np.searchsorted(ends, ties, side="right")
        tie_q[held:held + len(ties)] = row + q0
        tie_a[held:held + len(ties)] = ties - offset[row]
        held += len(ties)

    pos = 0  # pairs in the batch
    for r in rows:
        a, left = a_lo[r], sizes[r]
        while left:
            size = min(left, _BLOCK - pos)
            lo = a - a_min
            for fill, out in zip(fills, vs[:, pos:pos + size]):
                fill(r, lo, lo + size, out)
            pos, a, left = pos + size, a + size, left - size
            if pos == _BLOCK:
                bin_batch(ends[r] - left - pos, pos)
                pos = 0
    if pos:
        bin_batch(ends[-1] - pos, pos)
    flush()
    return [total + int(w) for total, w in zip(totals, weights @ hist)]


def _membership(curve: Curve, Q: float, psi: float, B: tuple[float, float], theta: Shift):
    """The defining inequalities of R as a test of one triple ``(q, a, bs)``.

    The q-range and the window are decided in exact rationals, and so is
    every coordinate with an exact rational evaluator (the polynomial
    catalog); a coordinate without one is evaluated in double precision.
    """
    lam, gam = theta
    lamF, psiF = Fraction(lam), Fraction(psi)
    loF, hiF = Fraction(B[0]), Fraction(B[1])
    exact = [curve.exact_coord(j) for j in range(1, curve.n)]

    def member(q: int, a: int, bs: Sequence[int]) -> bool:
        if not (2 * q > Q and q <= Q):
            return False
        ptF = (a + lamF) / q
        if not (loF <= ptF <= hiF):
            return False
        for j, (f, g, b) in enumerate(zip(exact, gam, bs), start=1):
            if f is None:
                inside = abs(q * float(curve.coord_values(j, float(ptF))) - g - b) < psi
            else:
                inside = abs(q * f(ptF) - Fraction(g) - b) < psiF
            if not inside:
                return False
        return True

    return member


def recheck_triples(curve: Curve, result: CountResult, sample: Optional[int] = None,
                    rng: Optional[np.random.Generator] = None) -> bool:
    """Independent re-verification of emitted triples via exact arithmetic.

    Uses the exact rational evaluators of the curve coordinates (available for
    the polynomial catalog) as a second evaluation path.
    """
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
    member = _membership(curve, Q, psi, B, normalise_theta(theta, curve.n - 1))
    return member(w.q, w.a, w.b)


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
