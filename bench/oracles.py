"""Independent oracles for checking nearcurve's outputs.

Nothing here imports nearcurve, and each oracle reaches its answer by a route
the program does not take:

* ``exact_counts``, ``exact_points`` and ``rows_inside`` decide the strict
  inequalities in integers.  For a polynomial coordinate f of degree k and a
  rational shift (lambda, gamma), ``E q^(k-1) (q f((a + lambda)/q) - gamma)``
  is an integer polynomial N(a, q) for a fixed integer E, so
  ``|q f - gamma - b| < psi`` becomes ``|N - b D| < psi D`` with
  ``D = E q^(k-1)``.  Every float psi is taken as the rational it stands for.
* ``delta_scan`` finds the shortest sup-norm vector of the scaled curve
  lattice by scanning the denominators q, with a and b the nearest integers.
* ``interval_union`` merges sorted intervals into maximal runs.
* ``witness_ok`` rechecks the three witness inequality families in Fraction.
* ``paper_constants``, ``lower_bound`` and ``loglog_slope`` restate the
  paper's formulas and an ordinary least-squares fit.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

Poly = tuple[Fraction, ...]  # coefficients, low order first

CHUNK = 1 << 20  # (q, a) pairs handled per numpy pass
BLOCK = 256  # grid points per numpy pass of delta_scan


def curve_polys(name: str) -> list[Poly]:
    """Coordinate polynomials f_1..f_m of a catalog curve: parabola | veronese:N | poly:..."""
    name = name.strip()
    if name == "parabola":
        return [(Fraction(0), Fraction(0), Fraction(1))]
    if name.startswith("veronese:"):
        n = int(name.split(":", 1)[1])
        if n < 2:
            raise ValueError(f"veronese curve needs n >= 2: {name!r}")
        return [tuple([Fraction(0)] * k + [Fraction(1)]) for k in range(2, n + 1)]
    if name.startswith("poly:"):
        polys = []
        for part in name.split(":", 1)[1].split(";"):
            if part:
                cs = [Fraction(c) for c in part.split(",")]
                while len(cs) > 1 and cs[-1] == 0:
                    cs.pop()
                polys.append(tuple(cs))
        if not polys:
            raise ValueError(f"no coefficients in {name!r}")
        return polys
    raise ValueError(f"no exact oracle for curve {name!r}")


def _poly_float(coeffs: Poly, x):
    """(f(x), f'(x)) in double precision by Horner's rule."""
    f = np.zeros_like(x, dtype=float)
    fp = np.zeros_like(x, dtype=float)
    for c in reversed(coeffs):
        fp = fp * x + f
        f = f * x + float(c)
    return f, fp


def _poly_exact(coeffs: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# exact integer recount


class _Coordinate:
    """q f((a + lambda)/q) - gamma written as N(a, q) / D(q) with integer N and D."""

    def __init__(self, coeffs: Poly, lam: Fraction, gam: Fraction):
        self.k = max(len(coeffs) - 1, 1)
        self.lp, self.lr = lam.numerator, lam.denominator
        scaled = [Fraction(c) / self.lr**i for i, c in enumerate(coeffs)]
        self.E = math.lcm(*(s.denominator for s in scaled), gam.denominator)
        # N = sum_i t_i (lr a + lp)^i q^(k-i) - g q^(k-1)
        self.terms = [(i, int(s * self.E)) for i, s in enumerate(scaled) if s]
        self.g = int(gam * self.E)

    def fits_int64(self, a_max: int, Q: int) -> bool:
        u = self.lr * a_max + abs(self.lp)
        big = sum(abs(t) * u**i * Q ** (self.k - i) for i, t in self.terms)
        big += abs(self.g) * Q ** (self.k - 1)
        D = self.E * Q ** (self.k - 1)
        return big + D < 2**62 and D < 2**53

    def numer(self, a, q):
        u = self.lr * a + self.lp
        total = -self.g * q ** (self.k - 1)
        for i, t in self.terms:
            total = total + t * u**i * q ** (self.k - i)
        return total

    def denom(self, q):
        return self.E * q ** (self.k - 1)


def _coordinates(polys: Sequence[Poly], lam, gammas) -> list[_Coordinate]:
    gammas = [0.0] * len(polys) if gammas is None else list(gammas)
    if len(gammas) != len(polys):
        raise ValueError("one gamma per coordinate")
    return [_Coordinate(p, Fraction(lam), Fraction(g)) for p, g in zip(polys, gammas)]


def a_range(q: int, B: Sequence[float], lam: float = 0.0) -> tuple[int, int]:
    """Integers a with (a + lam)/q in B, as an inclusive range (empty when hi < lo)."""
    lamF = Fraction(lam)
    return (math.ceil(q * Fraction(B[0]) - lamF), math.floor(q * Fraction(B[1]) - lamF))


def pair_count(Q: int, B: Sequence[float], lam: float = 0.0) -> int:
    """Number of (q, a) pairs with Q/2 < q <= Q and (a + lam)/q in B."""
    total = 0
    for q in range(Q // 2 + 1, Q + 1):
        lo, hi = a_range(q, B, lam)
        total += max(hi - lo + 1, 0)
    return total


def _pair_chunks(Q: int, B, lam) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    qs: list[int] = []
    los: list[int] = []
    lens: list[int] = []
    pending = 0

    def expand():
        n = np.asarray(lens, dtype=np.int64)
        starts = np.repeat(np.cumsum(n) - n, n)
        q = np.repeat(np.asarray(qs, dtype=np.int64), n)
        a = np.arange(int(n.sum()), dtype=np.int64) - starts + np.repeat(np.asarray(los, dtype=np.int64), n)
        return q, a

    for q in range(Q // 2 + 1, Q + 1):
        lo, hi = a_range(q, B, lam)
        if hi < lo:
            continue
        qs.append(q)
        los.append(lo)
        lens.append(hi - lo + 1)
        pending += hi - lo + 1
        if pending >= CHUNK:
            yield expand()
            qs, los, lens, pending = [], [], [], 0
    if qs:
        yield expand()


def _threshold_index(r, D, thresholds: np.ndarray) -> np.ndarray:
    """Per entry, the number of thresholds t with t <= r/D, decided exactly.

    ``float(r/D)`` is correctly rounded, so it decides every comparison except
    an exact float tie v == t, which is settled in integers: with t = P/S,
    the entry lies below t exactly when r S < P D.
    """
    v = np.asarray(r / D, dtype=float)
    idx = np.searchsorted(thresholds, v, side="right")
    tie = (idx > 0) & (thresholds[np.maximum(idx - 1, 0)] == v)
    if tie.any():
        r_all, D_all = np.broadcast_arrays(r, D)
        for k in np.unique(idx[tie]):
            P, S = Fraction(float(thresholds[k - 1])).as_integer_ratio()
            at = np.nonzero(tie & (idx == k))[0]
            below = r_all[at].astype(object) * S < D_all[at].astype(object) * P
            idx[at[below.astype(bool)]] -= 1
    return idx


def _residues(coords, a, q, a_max, Q):
    for co in coords:
        if co.fits_int64(a_max, Q):
            aa, qq = a, q
        else:
            aa, qq = a.astype(object), q.astype(object)
        D = co.denom(qq)
        r = co.numer(aa, qq) % D
        yield r, D


def _a_max(Q: int, B, lam) -> int:
    return int(Q * max(abs(B[0]), abs(B[1])) + abs(lam)) + 2


def exact_counts(polys: Sequence[Poly], Q: int, psis: Sequence[float], B: Sequence[float],
                 lam: float = 0.0, gammas=None) -> list[int]:
    """Exact number of triples (q, a, b) at height Q for each psi in ``psis``.

    Counts the integers b_j with every |q f_j((a + lam)/q) - gamma_j - b_j| < psi,
    strictly, over Q/2 < q <= Q and (a + lam)/q in B.  Each psi lies in (0, 1),
    so only the two integers around each coordinate value can qualify: the
    floor side at distance r/D and the ceiling side at distance (D - r)/D.  A
    b-tuple is a choice of side per coordinate, and it qualifies for psi when
    the largest of its distances is below psi.
    """
    if not all(0 < p < 1 for p in psis):
        raise ValueError("psi must lie in (0, 1)")
    coords = _coordinates(polys, lam, gammas)
    thresholds = np.asarray(sorted(set(float(p) for p in psis)))
    hist = np.zeros(len(thresholds) + 1, dtype=np.int64)
    a_max = _a_max(Q, B, lam)
    for q, a in _pair_chunks(Q, B, lam):
        sides = [(_threshold_index(r, D, thresholds), _threshold_index(D - r, D, thresholds))
                 for r, D in _residues(coords, a, q, a_max, Q)]
        for choice in itertools.product(*sides):
            worst = choice[0] if len(choice) == 1 else np.maximum.reduce(choice)
            hist += np.bincount(worst, minlength=len(hist))
    cum = np.cumsum(hist)
    where = {float(t): k for k, t in enumerate(thresholds)}
    return [int(cum[where[float(p)]]) for p in psis]


def exact_points(polys: Sequence[Poly], Q: int, psi: float, B: Sequence[float],
                 lam: float = 0.0, gammas=None) -> np.ndarray:
    """The points (a + lam)/q of every pair that carries at least one triple at psi."""
    coords = _coordinates(polys, lam, gammas)
    thresholds = np.asarray([float(psi)])
    a_max = _a_max(Q, B, lam)
    out = []
    for q, a in _pair_chunks(Q, B, lam):
        keep = np.ones(len(q), dtype=bool)
        for r, D in _residues(coords, a, q, a_max, Q):
            keep &= (_threshold_index(r, D, thresholds) == 0) | (_threshold_index(D - r, D, thresholds) == 0)
        out.append((a[keep] + lam) / q[keep])
    return np.concatenate(out) if out else np.empty(0)


def rows_inside(polys: Sequence[Poly], rows: np.ndarray, Q: int, psi: float,
                B: Sequence[float], lam: float = 0.0, gammas=None) -> np.ndarray:
    """Per row (q, a, b_1..b_m): whether the triple satisfies every defining inequality exactly."""
    rows = np.asarray(rows, dtype=np.int64).reshape(-1, 2 + len(polys))
    ok = (2 * rows[:, 0] > Q) & (rows[:, 0] <= Q)
    uq, inverse = np.unique(rows[:, 0], return_inverse=True)
    ranges = np.asarray([a_range(int(v), B, lam) for v in uq], dtype=np.int64).reshape(-1, 2)
    ok &= (ranges[inverse, 0] <= rows[:, 1]) & (rows[:, 1] <= ranges[inverse, 1])
    idx = np.nonzero(ok)[0]
    q, a = rows[idx, 0], rows[idx, 1]
    thresholds = np.asarray([float(psi)])
    a_max = _a_max(Q, B, lam)
    inside = np.ones(len(idx), dtype=bool)
    for j, co in enumerate(_coordinates(polys, lam, gammas)):
        b = rows[idx, 2 + j]
        if co.fits_int64(a_max, Q):
            aa, qq = a, q
        else:
            aa, qq, b = a.astype(object), q.astype(object), b.astype(object)
        N, D = co.numer(aa, qq), co.denom(qq)
        # only floor(N/D) and the next integer can lie within psi < 1
        near = (b > -2**61) & (b < 2**61) & (np.abs(b - N // D) <= 1)
        dist = np.abs(N - np.where(near, b, N // D) * D)
        inside &= near & (_threshold_index(dist, D, thresholds) == 0)
    ok[idx] = inside
    return ok


# ---------------------------------------------------------------------------
# shortest sup-norm vector of the curve lattice


def delta_scan(polys: Sequence[Poly], xs, c: float, Q: float, psi: float, cap: float,
               scale: float = 1.0) -> np.ndarray:
    """Shortest sup-norm length of ``scale * g^{-1} G(x) Z^(n+1)`` at each x, below ``cap``.

    A lattice vector is G(x)(q, a, b) rescaled: coordinates
    (q(f_j - x f_j') + a f_j' - b_j)/psi, psi^m Q (q x - a) and q/(cQ).  The
    scan covers 1 <= q <= cap c Q / scale with a and b the nearest integers;
    the preconditions below make every other vector at least ``cap`` long.
    Entries at or above ``cap`` only say that the true length is >= cap.
    """
    m = len(polys)
    mid = psi**m * Q
    if scale * min(mid / 2.0, 1.0 / (2.0 * psi)) < cap:
        raise ValueError("delta_scan preconditions fail: q = 0 or non-nearest vectors may be shorter than cap")
    q = np.arange(1, int(math.floor(cap * c * Q / scale)) + 1, dtype=float)
    xs = np.asarray(xs, dtype=float)
    out = np.full(xs.shape, math.inf)
    if q.size == 0:
        return out
    for start in range(0, len(xs), BLOCK):
        x = xs[start:start + BLOCK, None]
        qx = q * x
        a = np.rint(qx)
        worst = np.maximum(mid * np.abs(qx - a), q / (c * Q))
        for coeffs in polys:
            f, fp = _poly_float(coeffs, x)
            val = q * (f - x * fp) + a * fp
            worst = np.maximum(worst, np.abs(val - np.rint(val)) / psi)
        out[start:start + BLOCK] = scale * worst.min(axis=1)
    return out


# ---------------------------------------------------------------------------
# interval merge, witnesses, the paper's constants and fits


def interval_union(lo, hi) -> float:
    """Length of the union of closed intervals [lo_i, hi_i], merged into maximal runs."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    keep = hi > lo
    lo, hi = lo[keep], hi[keep]
    if lo.size == 0:
        return 0.0
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    reach = np.maximum.accumulate(hi)
    starts = np.ones(lo.size, dtype=bool)
    starts[1:] = lo[1:] > reach[:-1]
    first = np.nonzero(starts)[0]
    last = np.append(first[1:] - 1, lo.size - 1)
    return float(np.sum(reach[last] - lo[first]))


def coverage(points, rho: float, B: Sequence[float]) -> float:
    """Measure inside B of the union of the balls of radius rho around the points."""
    pts = np.asarray(points, dtype=float)
    return interval_union(np.clip(pts - rho, B[0], B[1]), np.clip(pts + rho, B[0], B[1]))


def witness_ok(polys: Sequence[Poly], x: float, q: int, a: int, bs: Sequence[int],
               c: float, Q: float, psi: float, M: float, lam: float = 0.0,
               gammas=None) -> bool:
    """The three witness families at d = 1, decided in Fraction.

    2(n+1)Q < q < 4(n+1)Q;  |q x - a - lambda| < (n+1)/c (psi^m Q)^-1;
    |q f_j((a + lambda)/q) - b_j - gamma_j| < (1 + M/(2c)) (n+1)/c psi.
    """
    m = len(polys)
    n = m + 1
    cF, QF, psiF, MF, lamF = (Fraction(v) for v in (c, Q, psi, M, lam))
    gammas = [0.0] * m if gammas is None else gammas
    if not (2 * (n + 1) * QF < q < 4 * (n + 1) * QF):
        return False
    if not abs(q * Fraction(x) - a - lamF) < (n + 1) / cF / (psiF**m * QF):
        return False
    f_limit = (1 + MF / (2 * cF)) * (n + 1) / cF * psiF
    point = (a + lamF) / q
    return all(abs(q * _poly_exact(p, point) - b - Fraction(g)) < f_limit
               for p, b, g in zip(polys, bs, gammas))


def paper_constants(n: int, M: float, c: float) -> tuple[float, float]:
    """(K0, C0) at d = 1: K0 = (4(n+1))^(3/(2m+1)) T, C0 = (4(n+1))^2 T^m / (2c),
    with T = (1 + M/(2c)) (n+1)/c.  The parabola with M = 2, c = 1 gives (72, 432)."""
    m = n - 1
    T = (1.0 + M / (2.0 * c)) * (n + 1) / c
    return (4.0 * (n + 1)) ** (3.0 / (2 * m + 1)) * T, (4.0 * (n + 1)) ** 2 * T**m / (2.0 * c)


def psi_floor(n: int, M: float, c: float, Q: float) -> float:
    """Admissibility floor K0 Q^(-3/(2n-1)) of the counting and coverage statements."""
    return paper_constants(n, M, c)[0] * Q ** (-3.0 / (2 * n - 1))


def lower_bound(n: int, M: float, c: float, Q: float, psi: float,
                B: Sequence[float]) -> tuple[bool, float]:
    """(in_regime, bound) of the counting statement count >= |B| psi^(n-1) Q^2 / (4 C0)."""
    C0 = paper_constants(n, M, c)[1]
    bound = max(0.0, B[1] - B[0]) / (4.0 * C0) * psi ** (n - 1) * Q**2
    return psi_floor(n, M, c, Q) <= psi < 1, bound


def coverage_rho(n: int, M: float, c: float, Q: float, psi: float) -> float:
    """Ball radius C0 (psi^m Q^2)^-1 of the coverage statement at d = 1."""
    return paper_constants(n, M, c)[1] / (psi ** (n - 1) * Q**2)


def loglog_slope(samples: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x, _ in samples]
    ly = [math.log(y) for _, y in samples]
    mx = math.fsum(lx) / len(lx)
    my = math.fsum(ly) / len(ly)
    num = math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return num / math.fsum((u - mx) ** 2 for u in lx)


def float_error_bound(polys: Sequence[Poly], Q: int, B: Sequence[float],
                      lam: float = 0.0, gammas=None) -> float:
    """A generous bound on the double-precision error of q f((a + lam)/q) - gamma, q <= Q."""
    gammas = [0.0] * len(polys) if gammas is None else gammas
    x_max = max(abs(B[0]), abs(B[1])) + abs(lam)
    worst = 0.0
    for p, g in zip(polys, gammas):
        size = sum(abs(float(c)) * x_max**i for i, c in enumerate(p))
        worst = max(worst, 16.0 * (len(p) + 2) * (Q * size + abs(g)))
    return worst * 2.0**-53
