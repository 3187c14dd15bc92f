"""Exhaustive enumeration of shifted rational points near a curve (d = 1).

The set under study collects integer triples (q, a, b) with Q/2 < q <= Q,
(a + lambda)/q inside a window B, and every |q f_j((a+lambda)/q) - gamma_j - b_j|
strictly below psi.  Enumeration is O(Q^2) per configuration.  The q-range and
the a-range of every q are decided in exact integers; the (q, a) pairs then
run in flat, cache-sized blocks, and a psi sweep counts every psi of a Q from
the same block of curve values.

The b-window is decided in doubles: |y - b| < psi - 1e-12, with
y = q f_j(x) - gamma_j, and triples within the 1e-12 guard band of the
boundary are tallied as ``boundary``.  That keeps exact ties out only while
the float error of y, about q 2^-52 on the unit window, stays below the
absolute guard, so up to q of about 4500.  Beyond that an exact tie can be
counted as inside: configs/scaling.cfg reports 30,171,993 triples at
Q = 8192, psi = 0.6 against an exact 30,171,986.  An exact integer test is
item 1 of ROADMAP.md.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .curves import Curve
from .detector import RationalWitness, psi_floor
from .lattice import Shift, normalise_theta

GUARD = 1e-12
DEFAULT_Q_CAP = 1 << 16
_CSV_BLOCK = 1 << 16  # rows turned into Python lists at a time; bounds the memory of a write
_BLOCK = 1 << 13  # (q, a) pairs per counting block; 64 KiB per float64 array, so it stays in cache


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
            RationalWitness(q=int(row[0]), a=(int(row[1]),), b=tuple(int(v) for v in row[2:]))
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


def _strict_counts(y: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-entry count of integers b with |y - b| < s, and the smallest such b."""
    if s <= 0:
        return np.zeros(y.shape, dtype=np.int64), np.zeros(y.shape, dtype=np.int64)
    lo = np.floor(y - s).astype(np.int64) + 1  # smallest integer > y - s
    hi = np.ceil(y + s).astype(np.int64) - 1   # largest integer  < y + s
    return np.maximum(hi - lo + 1, 0), lo


def _blocks(curve: Curve, Q: int, psis: Sequence[float], B: tuple[float, float], theta,
            allow_large: bool) -> tuple[int, tuple[float, float], Shift, Iterator]:
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
    if Q > DEFAULT_Q_CAP and not allow_large:
        raise ValueError(f"Q={Q} above the default cap {DEFAULT_Q_CAP}; pass allow_large=True")
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
            x = ys[-1]  # the last coordinate's y overwrites x only once f_m(x) is taken
            first, last = np.searchsorted(ends, (start, stop - 1), side="right")
            rows = slice(first, last + 1)  # the rows of q this block touches
            repeats = np.minimum(ends[rows], stop) - np.maximum(starts[rows], start)
            q[:] = np.repeat(np.arange(q0 + first, q0 + last + 1, dtype=np.int64), repeats)
            a[:] = np.arange(start, stop, dtype=np.int64)
            a -= np.repeat(offset[rows], repeats)
            np.divide(np.add(a, lam, out=x), q, out=x)  # the same doubles as (a + lam) / q
            for j, y in enumerate(ys, start=1):
                np.multiply(q, np.asarray(curve.coord_values(j, x), dtype=float), out=y)
                np.subtract(y, gam[j - 1], out=y)
            yield q, a, ys

    return Q, (lo, hi), (lam, gam), blocks()


def enumerate_R(curve: Curve, Q: int, psi: float, B: tuple[float, float],
                theta=None, *, guard: float = GUARD, collect: bool = True,
                allow_large: bool = False) -> CountResult:
    """All integer triples of the near-curve set at height Q and width psi.

    Iterates q with 2q > Q, q <= Q and a with (a + lambda)/q in B (exact
    integer predicates) in flat blocks of (q, a) pairs, and per coordinate
    every integer b_j strictly inside the psi-window.  With ``collect=False``
    only the counts are accumulated, which keeps Q-sweeps cheap.
    """
    Q, B, theta, blocks = _blocks(curve, Q, (psi,), B, theta, allow_large)
    m = curve.n - 1
    s_in = psi - guard
    s_wide = psi + guard
    total = 0
    boundary = 0
    collected: list[np.ndarray] = []
    for q, a, ys in blocks:
        counts = np.ones(a.shape, dtype=np.int64)
        wide_counts = np.ones(a.shape, dtype=np.int64)
        first_b = np.empty((len(a), m), dtype=np.int64)
        nb = np.empty((len(a), m), dtype=np.int64)
        for j, y in enumerate(ys, start=1):
            nb_j, lo_j = _strict_counts(y, s_in)
            nbw_j, _ = _strict_counts(y, s_wide)
            counts *= nb_j
            wide_counts *= nbw_j
            nb[:, j - 1] = nb_j
            first_b[:, j - 1] = lo_j
        total += int(counts.sum())
        boundary += int((wide_counts - counts).sum())
        if collect and counts.any():
            keep = np.nonzero(counts)[0]
            simple = keep[(nb[keep] == 1).all(axis=1)]
            block = np.empty((len(simple), 2 + m), dtype=np.int64)
            block[:, 0] = q[simple]
            block[:, 1] = a[simple]
            block[:, 2:] = first_b[simple]
            multi = keep[(nb[keep] > 1).any(axis=1)]
            if len(multi):  # pairs with several b: add their triples and sort the block
                parts = [block]
                for idx in multi:
                    choices = [range(first_b[idx, j], first_b[idx, j] + nb[idx, j]) for j in range(m)]
                    for combo in iter_product(*choices):
                        parts.append(np.array([[q[idx], a[idx], *combo]], dtype=np.int64))
                block = np.concatenate(parts, axis=0)
                block = block[np.lexsort(block.T[::-1])]
            collected.append(block)

    triples = None
    if collect:
        triples = (np.concatenate(collected, axis=0) if collected
                   else np.empty((0, 2 + m), dtype=np.int64))
    return CountResult(Q=Q, psi=psi, B=B, theta=theta, count=total,
                       boundary=boundary, triples=triples)


def count_R_psi_sweep(curve: Curve, Q: int, psis: Sequence[float], B: tuple[float, float],
                      theta=None, *, guard: float = GUARD,
                      allow_large: bool = False) -> list[int]:
    """Counts of enumerate_R for several psi at one Q, sharing the curve values.

    Raises ValueError wherever enumerate_R would for one of the psi.  Per
    coordinate, ``ceil(y + s) - floor(y - s) - 1`` clamped at 0 is the number
    of integers b with |y - b| < s, the same integer as ``_strict_counts``
    gives: it takes the same floor and ceil of the same doubles, and float64
    holds their small integer difference, products and block sums exactly.
    """
    _, _, _, blocks = _blocks(curve, Q, psis, B, theta, allow_large)
    totals = [0] * len(psis)
    counts, upper, lower = np.empty((3, _BLOCK))  # reused by every block
    for _, a, ys in blocks:
        size = len(a)
        n, hi, lo = counts[:size], upper[:size], lower[:size]
        for k, psi in enumerate(psis):
            s = psi - guard
            for j, y in enumerate(ys):
                out = n if j == 0 else hi  # the first coordinate starts the product
                np.ceil(np.add(y, s, out=out), out=out)
                np.floor(np.subtract(y, s, out=lo), out=lo)
                np.subtract(out, lo, out=out)
                np.subtract(out, 1.0, out=out)
                np.maximum(out, 0.0, out=out)
                if j:
                    np.multiply(n, hi, out=n)
            totals[k] += int(n.sum())
    return totals


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
    return member(w.q, w.a[0], w.b)


# ---------------------------------------------------------------------------
# interval unions and coverage


def interval_union_measure(intervals: Iterable[tuple[float, float]],
                           clip: Optional[tuple[float, float]] = None) -> float:
    """Length of the union of intervals, optionally clipped; sweep-line exact."""
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
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    run_max = np.maximum.accumulate(hi)
    prev_max = np.concatenate(([lo[0]], run_max[:-1]))
    contrib = np.maximum(0.0, hi - np.maximum(lo, prev_max))
    return float(np.sum(contrib))


def delta_coverage(witnesses, rho: float, B: tuple[float, float],
                   lam: float = 0.0) -> float:
    """Measure of the union of rho-balls around the shifted rational points, inside B."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    if isinstance(witnesses, CountResult):
        pts = witnesses.points()
    else:
        pts = np.asarray([(w.a[0] + lam) / w.q for w in witnesses], dtype=float)
    if pts.size == 0:
        return 0.0
    return interval_union_measure(np.stack((pts - rho, pts + rho), axis=1), clip=B)


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
    floor = psi_floor(Q, 1, n - 1, K0)
    in_regime = floor <= psi < 1
    size = max(0.0, B[1] - B[0])
    bound = size / (4.0 * C0) * psi ** (n - 1) * Q**2
    ok = bool(count >= bound) if in_regime else None
    return LowerBoundCheck(in_regime=in_regime, ok=ok, bound=bound, psi_floor=floor)


# ---------------------------------------------------------------------------
# CSV emission


def write_triples_csv(path, curve: Curve, result: CountResult) -> None:
    """Columns q,a,b1..bm,x_point,slack_f1..fm with LF endings and a header row."""
    if result.triples is None:
        raise ValueError("enumeration ran with collect=False")
    m = curve.n - 1
    lam, gam = result.theta
    header = ["q", "a"] + [f"b{j}" for j in range(1, m + 1)] + ["x_point"] + [
        f"slack_f{j}" for j in range(1, m + 1)
    ]
    rows = result.triples
    pts = result.points() if len(rows) else np.empty(0)
    slacks = []
    for j in range(1, m + 1):
        if len(rows):
            y = rows[:, 0] * np.asarray(curve.coord_values(j, pts), dtype=float) - gam[j - 1]
            slacks.append(result.psi - np.abs(y - rows[:, 1 + j]))
        else:
            slacks.append(np.empty(0))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        # csv writes a Python float as its repr, the shortest round-trip form
        for start in range(0, len(rows), _CSV_BLOCK):
            block = slice(start, start + _CSV_BLOCK)
            columns = [pts[block].tolist()] + [s[block].tolist() for s in slacks]
            writer.writerows(row + list(tail) for row, *tail in zip(rows[block].tolist(), *columns))
