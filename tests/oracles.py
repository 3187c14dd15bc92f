"""Independent oracles: deliberately naive second paths used only by tests."""

from __future__ import annotations

import logging
import math
from fractions import Fraction
from typing import Optional

import numpy as np

from nearcurve.curves import eval_jet
from nearcurve.detector import RationalWitness, WitnessReport, _interior_rho, psi_floor
from nearcurve.errors import PreconditionError
from nearcurve.lattice import LOVASZ

log = logging.getLogger("nearcurve")


def naive_count_R(fs, Q, psi, B, lam=0.0, gammas=None, guard=1e-12):
    """Pure double-loop count of the near-curve triples.

    ``fs`` is a list of plain Python coordinate callables.  Mirrors the set
    definition directly: q in (Q/2, Q], (a+lam)/q in B, each |q f_j - g_j - b|
    strictly below psi (guard band excluded).
    """
    if gammas is None:
        gammas = [0.0] * len(fs)
    total = 0
    triples = []
    q = Q // 2 + 1
    while q <= Q:
        a = math.ceil(Fraction(q) * Fraction(B[0]) - Fraction(lam))
        a_hi = math.floor(Fraction(q) * Fraction(B[1]) - Fraction(lam))
        while a <= a_hi:
            pt = (a + lam) / q
            combos = [[]]
            for f, g in zip(fs, gammas):
                y = q * f(pt) - g
                picks = []
                for b in range(math.floor(y) - 1, math.floor(y) + 2):
                    if abs(y - b) < psi - guard:
                        picks.append(b)
                combos = [c + [b] for c in combos for b in picks]
            for c in combos:
                triples.append((q, a, *c))
            total += len(combos)
            a += 1
        q += 1
    return total, sorted(triples)


_BRUTE_GRIDS: dict = {}


def _coefficient_grid(dim, box):
    key = (dim, box)
    if key not in _BRUTE_GRIDS:
        axes = [np.arange(-box, box + 1, dtype=np.int32)] * dim
        grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(dim, -1)
        _BRUTE_GRIDS[key] = (grid.astype(float), np.any(grid != 0, axis=0))
    return _BRUTE_GRIDS[key]


def brute_svp_sup(basis, box=20):
    """Minimum sup-norm over all nonzero coefficient vectors in [-box, box]^dim."""
    basis = np.asarray(basis, dtype=float)
    grid, nonzero = _coefficient_grid(basis.shape[0], box)
    sups = np.abs(basis @ grid).max(axis=0)
    return float(sups[nonzero].min())


def grid_union_measure(intervals, clip, cells=1_000_000):
    """Indicator-grid estimate of the union measure inside clip."""
    lo, hi = clip
    xs = lo + (np.arange(cells) + 0.5) * (hi - lo) / cells
    covered = np.zeros(cells, dtype=bool)
    for a, b in intervals:
        covered |= (xs >= a) & (xs <= b)
    return covered.mean() * (hi - lo)


def exact_union_measure(intervals, clip=None):
    """Union measure of the closed intervals, optionally clipped: exact in Fractions, rounded once.

    The intervals are merged one by one in the order of their lower ends; each adds the
    part of it past the furthest upper end so far, in Fractions.  An unbounded interval
    that is not empty after the clip gives inf.
    """
    spans = []
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        if clip is not None:
            lo, hi = max(lo, clip[0]), min(hi, clip[1])
        if hi > lo:
            if math.isinf(lo) or math.isinf(hi):
                return math.inf
            spans.append((lo, hi))
    total, reach = Fraction(0), None
    for lo, hi in sorted(spans):  # doubles compare as the rationals they hold
        if reach is None or hi > reach:
            total += Fraction(hi) - Fraction(lo if reach is None else max(lo, reach))
            reach = hi
    return float(total)  # the correctly rounded quotient


def sweep_union_measure(intervals, clip=None):
    """Union measure by a float sweep: one rounded term per interval, so the last bits of
    the sum depend on the order of the intervals that share a lower end."""
    arr = np.asarray([(lo, hi) for lo, hi in intervals], dtype=float).reshape(-1, 2)
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


def curve_delta_oracle(fvals_fn, x, c, Q, psi, cap=1.3):
    """Structural shortest-vector oracle for the d=1 curve lattice.

    Scans denominators q directly: any lattice vector with sup-norm <= cap has
    0 < |q| <= cap*c*Q, and given q the optimal a and b lie within explicit
    windows.  Exact whenever the true delta is below cap; returns cap-level
    values otherwise.  Requires parameters where q = 0 vectors and non-nearest
    b cannot compete (asserted below).
    """
    f, fp = fvals_fn(x)
    g1 = [fv - x * dv for fv, dv in zip(f, fp)]
    m = len(f)
    midscale = psi**m * Q  # the psi^m Q row scale
    assert midscale > cap and 1.0 / psi > cap and cap * psi < 0.5
    best = math.inf
    qmax = int(math.floor(cap * c * Q)) + 1
    for q in range(1, qmax + 1):
        a_center = round(q * x)
        ka = max(1, int(math.ceil(cap / midscale)) + 1)
        for a in range(a_center - ka, a_center + ka + 1):
            coord_mid = midscale * abs(q * x - a)
            worst = max(coord_mid, q / (c * Q))
            for j in range(m):
                val = q * g1[j] + a * fp[j]
                b = round(val)
                worst = max(worst, abs(val - b) / psi)
            best = min(best, worst)
    return best


def naive_gso(B):
    """Gram-Schmidt orthogonalisation of the columns of B; returns (B*, mu)."""
    n = B.shape[1]
    Bs = np.array(B, copy=True)
    mu = np.eye(n, dtype=B.dtype)
    for i in range(n):
        v = np.array(B[:, i], copy=True)
        for j in range(i):
            denom = Bs[:, j] @ Bs[:, j]
            if denom == 0:
                raise ValueError("singular (or numerically singular) basis")
            mu_ij = (B[:, i] @ Bs[:, j]) / denom
            mu[i, j] = mu_ij
            v -= mu_ij * Bs[:, j]
        Bs[:, i] = v
    return Bs, mu


def naive_lll(basis, delta=0.99, max_swaps=None):
    """LLL that recomputes the whole Gram-Schmidt data after every swap.

    The same column arithmetic, rounding and Lovasz test as
    ``lattice.lll_reduce``; returns ``(W, U)`` with ``U`` a list of integer
    columns.
    """
    B = np.array(basis, dtype=float)
    n = B.shape[1]
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    Bs, mu = naive_gso(B)
    norms = np.sqrt(np.sum(Bs**2, axis=0))
    if np.min(norms) <= 1e-13 * (float(np.max(np.abs(B))) or 1.0):
        raise ValueError("singular (or numerically singular) basis")
    if max_swaps is None:
        max_swaps = 10_000 * n * n
    norms2 = np.sum(Bs * Bs, axis=0)
    k = 1
    swaps = 0
    while k < n:
        for j in range(k - 1, -1, -1):
            q = int(round(float(mu[k, j])))
            if q:
                B[:, k] -= q * B[:, j]
                U[k] = [a - q * b for a, b in zip(U[k], U[j])]
                mu[k, :j] -= q * mu[j, :j]
                mu[k, j] -= q
        if norms2[k] >= (delta - float(mu[k, k - 1]) ** 2) * norms2[k - 1]:
            k += 1
        else:
            B[:, [k - 1, k]] = B[:, [k, k - 1]]
            U[k - 1], U[k] = U[k], U[k - 1]
            Bs, mu = naive_gso(B)
            norms2 = np.sum(Bs * Bs, axis=0)
            k = max(k - 1, 1)
            swaps += 1
            if swaps > max_swaps:
                break
    return B, U


def _scalar_gram_schmidt(cols: list[list[float]], scale: float) -> tuple[list[list[float]], list[float]]:
    """Gram-Schmidt orthogonalisation of the columns: ``(mu, norms2)`` as in ``incremental_lll``."""
    stars: list[list[float]] = []
    mu: list[list[float]] = []
    norms2: list[float] = []
    for b in cols:
        v = list(b)
        row = []
        for bs, nj in zip(stars, norms2):
            m = sum(x * y for x, y in zip(b, bs)) / nj
            row.append(m)
            v = [x - m * y for x, y in zip(v, bs)]
        n2 = sum(x * x for x in v)
        if math.sqrt(n2) <= 1e-13 * scale:
            raise ValueError("singular (or numerically singular) basis")
        stars.append(v)
        mu.append(row)
        norms2.append(n2)
    return mu, norms2


def incremental_lll(basis, max_swaps: Optional[int] = None):
    """Floating-point LLL on the columns of one basis, in plain Python floats.

    The scalar kernel that ``lattice.lll_reduce`` ran before it reduced whole
    stacks, kept verbatim as the bit-for-bit reference of the stacked one.
    Returns ``(W, U, mu, norms2)``: ``W = basis @ U`` is the reduced basis,
    ``U`` a list of integer columns (exact arithmetic) with ``|det U| = 1``,
    ``mu[i]`` the list of mu_ij (j < i) and ``norms2[i] = |b*_i|^2``.  The
    Gram-Schmidt data is computed once and updated in place on each swap
    (LLL 1982; Cohen, Alg. 2.6.3).  Its dot products are Python ``sum``s,
    which add left to right on Python 3.11 (3.12 compensates them).
    """
    B = np.array(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("basis must be a square matrix of column vectors")
    n = B.shape[1]
    b = B.T.tolist()  # columns
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns
    mu, norms2 = _scalar_gram_schmidt(b, float(np.max(np.abs(B))) or 1.0)
    if max_swaps is None:
        max_swaps = 10_000 * n * n
    k = 1
    swaps = 0
    while k < n:
        mk = mu[k]
        for j in range(k - 1, -1, -1):
            q = round(mk[j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                U[k] = [x - q * y for x, y in zip(U[k], U[j])]
                mj = mu[j]
                for i in range(j):
                    mk[i] -= q * mj[i]
                mk[j] -= q
        m = mk[k - 1]
        if norms2[k] >= (LOVASZ - m ** 2) * norms2[k - 1]:
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        U[k - 1], U[k] = U[k], U[k - 1]
        old = norms2[k - 1]
        norms2[k - 1] = new = norms2[k] + m * m * old
        norms2[k] = old * norms2[k] / new
        mu[k - 1], mu[k] = mk[:k - 1], mu[k - 1] + [m * old / new]
        m_new = mu[k][k - 1]
        for row in mu[k + 1:]:
            t = row[k]
            row[k] = row[k - 1] - m * t
            row[k - 1] = t + m_new * row[k]
        k = max(k - 1, 1)
        swaps += 1
        if swaps > max_swaps:
            # float flip-flop guard; the current basis still spans the lattice
            log.warning("lll_reduce stopped after %d swaps in dimension %d; "
                        "the basis may not be LLL-reduced", swaps, n)
            break
    B[...] = np.array(b).T  # keeps the memory layout of the input copy
    return B, U, mu, norms2


def dfs_shortest(W, mu, norms2):
    """``(|W t|_inf, t)`` for the sup-norm shortest nonzero W t, by a recursive ball search.

    The scalar search that ``lattice.reduce`` ran basis by basis before it
    enumerated whole stacks level by level, kept as the reference of the
    stacked one: the same bounds, the same order and the same ``W @ t``.  ``W`` is one LLL-reduced basis, ``mu`` its packed
    Gram-Schmidt coefficients and ``norms2`` its |b*_i|^2, as in one row of
    ``lattice.LLLResult``.  The radius shrinks as shorter vectors are found,
    and a leaf replaces the best only when it is strictly shorter.
    """
    dim = len(norms2)
    packed = [float(v) for v in mu]
    mu = [packed[i * (i - 1) // 2:i * (i - 1) // 2 + i] for i in range(dim)]
    norms2 = [float(v) for v in norms2]
    W = np.array(W, dtype=float)  # C-contiguous, as the per-basis search always had it
    sups = np.max(np.abs(W), axis=0)
    i0 = int(np.argmin(sups))
    state = {"best": float(sups[i0]), "t": tuple(1 if i == i0 else 0 for i in range(dim))}
    t = [0] * dim

    def dfs(level: int, acc: float) -> None:
        if level < 0:
            if any(t):
                s = float(np.max(np.abs(W @ t)))
                if s < state["best"]:
                    state["best"] = s
                    state["t"] = tuple(t)
            return
        rem = dim * state["best"] ** 2 * (1.0 + 1e-12) - acc
        if rem < 0:
            return
        center = -math.fsum(mu[j][level] * t[j] for j in range(level + 1, dim))
        half = math.sqrt(rem / norms2[level])
        lo = math.ceil(center - half - 1e-9)
        hi = math.floor(center + half + 1e-9)
        for ti in range(lo, hi + 1):
            y = ti - center
            t[level] = ti
            dfs(level - 1, acc + norms2[level] * y * y)
        t[level] = 0

    dfs(dim - 1, 0.0)
    return state["best"], state["t"]


def detect_witness_oracle(curve, x, params, reduction, guard=1e-9):
    """The witness (q, a, b) at one x, by the per-point solve ``detector.detect_witness`` ran.

    The scalar reference of ``detector.detect_witnesses``: the same
    preconditions in the same order, then one ``np.linalg.solve`` of the
    shifted target against x's reduced basis.  ``reduction`` is x's
    ``LatticeReduction``, from ``lattice.reduce_at`` or a row of a stacked
    ``lattice.reduce``.  Raises ``PreconditionError`` where the kernel
    returns one.
    """
    floor = psi_floor(params.Q, params.m)
    if params.psi < floor * (1 - 1e-12):
        raise PreconditionError(f"psi={params.psi} below the admissibility floor {floor:.3g}")
    rho = _interior_rho(params.Q, params.psi, params.m, params.c)
    lo, hi = params.B
    if not (lo + rho <= x <= hi - rho):
        raise PreconditionError(f"x={x} outside the rho-interior of B={params.B}")
    if reduction.delta < 1.0 - guard:
        raise PreconditionError(f"x={x} not in the good set (delta={reduction.delta:.6g})")
    reduction.assert_unimodular()
    n = params.n
    f_vals = eval_jet(curve, x, 0).values[1:, 0]
    lam, gam = params.theta
    omega0 = 3.0 * (n + 1) * params.Q
    target_shift = np.concatenate((
        [-omega0],
        np.asarray([lam]) - omega0 * np.asarray([x]),
        np.asarray(gam) - omega0 * f_vals,
    ))
    rhs = -np.asarray(reduction.source, dtype=float) @ target_shift
    eta = np.linalg.solve(np.asarray(reduction.columns, dtype=float), rhs)
    t = np.rint(eta).astype(np.int64)
    if not t.any():
        i_star = int(np.argmax(np.abs(eta)))
        t[i_star] = 1 if eta[i_star] > 0 else -1
    p = np.dot(reduction.preimage, t.astype(reduction.preimage.dtype))
    q = int(p[0])
    if q < 0:
        if lam != 0.0 or any(v != 0.0 for v in gam):
            raise PreconditionError("construction produced q < 0 in an inhomogeneous run")
        p = -p
        q = int(p[0])
    if q == 0:
        raise PreconditionError("construction collapsed to q = 0")
    return RationalWitness(q=q, a=int(p[1]), b=tuple(int(v) for v in p[2:]))


def fraction_coord(coord, x):
    """f(x) of a coordinate with ``coeffs`` at a ``Fraction`` x, by ``Fraction`` Horner."""
    from fractions import Fraction

    value = Fraction(0)
    for c in reversed(coord.coeffs):
        value = value * x + c
    return value


def verify_witness_oracle(w, curve, x, params, consts):
    """The witness report of one point, by the ``Fraction`` body ``detector.verify_witness`` ran.

    The reference of ``detector.verify_witnesses``: the q-range and the
    x-inequality in ``Fraction``, and so each f-inequality of a coordinate
    with ``coeffs``, by its own ``Fraction`` Horner; other coordinates in
    double precision at the rounded point.  Failures are reported, never
    raised.
    """
    from fractions import Fraction

    n, m = params.n, params.m
    lam, gam = params.theta
    q_lo = 2.0 * (n + 1) * params.Q
    q_hi = 4.0 * (n + 1) * params.Q
    q_range_ok = q_lo < w.q < q_hi

    x_limit = (n + 1) / params.c * params.x_scale
    f_limit = consts.taming_factor() * params.psi

    x_val = abs(w.q * Fraction(x) - w.a - Fraction(lam))
    x_ok = x_val < Fraction(x_limit)

    point_exact = (Fraction(w.a) + Fraction(lam)) / w.q
    point = float(point_exact)
    f_bounds = []
    f_ok = True
    for j in range(1, m + 1):
        coord = curve.coords[j - 1]
        if hasattr(coord, "coeffs"):
            fv = fraction_coord(coord, point_exact)
            val = abs(w.q * fv - w.b[j - 1] - Fraction(gam[j - 1]))
            f_ok &= val < Fraction(f_limit)
            f_bounds.append((float(val), f_limit))
        else:
            fv = float(curve.coord_values(j, point))
            val_f = abs(w.q * fv - w.b[j - 1] - gam[j - 1])
            f_ok &= val_f < f_limit
            f_bounds.append((val_f, f_limit))

    all_ok = bool(q_range_ok and x_ok and f_ok)
    return WitnessReport(q=w.q, q_range=(q_lo, q_hi), q_range_ok=bool(q_range_ok),
                         x_bounds=(float(x_val), x_limit), f_bounds=tuple(f_bounds),
                         all_ok=all_ok, point=point)


def exact_svp_sup(A):
    """``(minimum, vectors)``: the exact sup-norm minimum of the integer lattice A Z^n.

    ``A`` is an integer matrix whose columns span the lattice.  The basis is
    reduced by ``naive_lll`` and its transform applied in Python ints, so the
    reduced basis R is exact.  With s0 the least column sup of R, every
    vector v = R t with |v|_inf <= s0 has |t_i| <= |row_i(R^-1)|_1 s0, where
    the inverse is taken in Fractions.  That box is scanned in int64.
    ``vectors`` lists the coordinates, in the columns of A, of every vector
    that attains the minimum.
    """
    from fractions import Fraction
    from itertools import product

    A = [[int(v) for v in row] for row in np.asarray(A).tolist()]
    n = len(A)
    _, U = naive_lll(np.array(A, dtype=float))  # U: integer columns
    R = [[sum(A[r][k] * U[c][k] for k in range(n)) for c in range(n)] for r in range(n)]
    s0 = min(max(abs(R[r][c]) for r in range(n)) for c in range(n))
    # Gauss-Jordan inverse of R in Fractions
    aug = [[Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(R)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        p = aug[col][col]
        aug[col] = [v / p for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    bounds = [math.floor(sum(abs(v) for v in row[n:]) * s0) for row in aug]
    grid = np.array(list(product(*(range(-b, b + 1) for b in bounds))), dtype=np.int64).T
    grid = grid[:, np.any(grid != 0, axis=0)]
    sups = np.abs(np.array(R, dtype=np.int64) @ grid).max(axis=0)
    minimum = int(sups.min())
    Ui = np.array(U, dtype=np.int64).T  # columns of the transform
    vectors = [(Ui @ grid[:, k]).tolist() for k in np.flatnonzero(sups == minimum)]
    return minimum, vectors


def exact_lll_meets_tie(basis, delta=0.99):
    """Whether LLL meets an exact tie, run in exact rationals on the float entries.

    The steps are those of ``naive_lll``.  A tie is a coefficient mu that is
    exactly a half-integer when it is rounded, or a Lovasz test that holds
    with equality.  Floating-point kernels may decide a tie either way, so
    two of them can part there and still both return an LLL-reduced basis.
    """
    from fractions import Fraction

    A = np.asarray(basis, dtype=float)
    n = A.shape[0]
    b = [[Fraction(float(A[i, j])) for i in range(n)] for j in range(n)]
    dlt = Fraction(delta)

    def gso():
        stars, mu = [], [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            v = list(b[i])
            for j in range(i):
                mu[i][j] = sum(x * y for x, y in zip(b[i], stars[j])) / sum(y * y for y in stars[j])
                v = [x - mu[i][j] * y for x, y in zip(v, stars[j])]
            stars.append(v)
        return mu, [sum(x * x for x in v) for v in stars]

    mu, norms2 = gso()
    tie = False
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            tie |= (mu[k][j] - Fraction(1, 2)).denominator == 1
            q = round(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for i in range(j):
                    mu[k][i] -= q * mu[j][i]
                mu[k][j] -= q
        lhs, rhs = norms2[k], (dlt - mu[k][k - 1] ** 2) * norms2[k - 1]
        tie |= lhs == rhs
        if lhs >= rhs:
            k += 1
        else:
            b[k - 1], b[k] = b[k], b[k - 1]
            mu, norms2 = gso()
            k = max(k - 1, 1)
    return tie


# The per-q-row counting kernel that nearcurve.counting replaced with flat
# (q, a) blocks, kept verbatim: one numpy call chain per q-row (and per psi),
# with the a-range taken from Fractions.

GUARD = 1e-12


def _a_range(q, B, lam):
    # exact endpoints: every float is a rational, so ceil/floor are bit-exact
    from fractions import Fraction

    loF = Fraction(q) * Fraction(B[0]) - Fraction(lam)
    hiF = Fraction(q) * Fraction(B[1]) - Fraction(lam)
    return math.ceil(loF), math.floor(hiF)


def _strict_counts(y, s):
    """Per-entry count of integers b with |y - b| < s, and the smallest such b."""
    if s <= 0:
        return np.zeros(y.shape, dtype=np.int64), np.zeros(y.shape, dtype=np.int64)
    lo = np.floor(y - s).astype(np.int64) + 1  # smallest integer > y - s
    hi = np.ceil(y + s).astype(np.int64) - 1   # largest integer  < y + s
    return np.maximum(hi - lo + 1, 0), lo


def _q_rows(curve, Q, psis, B, theta):
    """Validated ``(Q, B, theta)`` and an iterator of q-rows ``(q, a, ys)``."""
    from nearcurve.lattice import normalise_theta

    Q = int(Q)
    if Q < 2:
        raise ValueError("Q must be >= 2")
    if not all(0 < psi < 1 for psi in psis):
        raise ValueError("psi must lie in (0, 1)")
    m = curve.n - 1
    lam, gam = normalise_theta(theta, m)
    lo, hi = float(B[0]), float(B[1])
    if lo <= hi and not (curve.contains(lo) and curve.contains(hi)):
        raise ValueError(f"B={B} not contained in curve domain {curve.domain}")

    def rows():
        if lo > hi:
            return
        for q in range(Q // 2 + 1, Q + 1):
            a_lo, a_hi = _a_range(q, (lo, hi), lam)
            if a_hi < a_lo:
                continue
            a = np.arange(a_lo, a_hi + 1, dtype=np.int64)
            x = (a + lam) / q
            yield q, a, [q * np.asarray(curve.coord_values(j, x), dtype=float) - gam[j - 1]
                         for j in range(1, m + 1)]

    return Q, (lo, hi), (lam, gam), rows()


def naive_enumerate(curve, Q, psi, B, theta=None, guard=GUARD, collect=True):
    """``(count, boundary, triples)`` of the near-curve set, one q-row at a time."""
    from itertools import product as iter_product

    Q, B, theta, rows = _q_rows(curve, Q, (psi,), B, theta)
    m = curve.n - 1
    s_in = psi - guard
    s_wide = psi + guard
    total = 0
    boundary = 0
    blocks = []
    for q, a, ys in rows:
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
            parts = []
            if len(simple):
                block = np.empty((len(simple), 2 + m), dtype=np.int64)
                block[:, 0] = q
                block[:, 1] = a[simple]
                block[:, 2:] = first_b[simple]
                parts.append(block)
            multi = keep[(nb[keep] > 1).any(axis=1)]
            for idx in multi:
                choices = [range(first_b[idx, j], first_b[idx, j] + nb[idx, j]) for j in range(m)]
                for combo in iter_product(*choices):
                    parts.append(np.array([[q, a[idx], *combo]], dtype=np.int64))
            block = np.concatenate(parts, axis=0)
            order = np.lexsort(tuple(block[:, k] for k in range(block.shape[1] - 1, 0, -1)))
            blocks.append(block[order])

    triples = None
    if collect:
        triples = np.concatenate(blocks, axis=0) if blocks else np.empty((0, 2 + m), dtype=np.int64)
    return total, boundary, triples


def naive_sweep(curve, Q, psis, B, theta=None, guard=GUARD):
    """Counts of the near-curve set for several psi at one Q, one q-row and one psi at a time."""
    _, _, _, rows = _q_rows(curve, Q, psis, B, theta)
    totals = [0] * len(psis)
    for q, a, ys in rows:
        for k, psi in enumerate(psis):
            counts = np.ones(a.shape, dtype=np.int64)
            for y in ys:
                nb_j, _ = _strict_counts(y, psi - guard)
                counts *= nb_j
            totals[k] += int(counts.sum())
    return totals
