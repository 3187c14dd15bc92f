"""Curve lattices and sup-norm shortest vectors.

The scaled lattice attached to a curve point is spanned by the columns of
``g^{-1} G(x)`` where ``G(x)`` is the unimodular frame matrix of the curve and
``g`` the diagonal scaling built from ``(c, Q, psi)``.  Dimensions are tiny
(``n + 1 <= 8``), so the shortest sup-norm vector is found exactly by an
LLL-style reduction followed by exhaustive enumeration inside the Euclidean
ball of radius ``sqrt(dim)`` times the best known sup-norm; the bound
``|v|_inf <= |v|_2`` makes that ball exhaustive.  ``reduce`` does both steps
once and returns one record that the shortest-vector and witness callers
share.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .curves import Curve, eval_jet
from .intlinalg import is_unimodular

log = logging.getLogger("nearcurve")

MAX_SVP_DIM = 8
MAX_MINIMA_DIM = 6
LOVASZ = 0.99  # the Lovasz condition factor of lll_reduce

Shift = tuple[float, tuple[float, ...]]  # (lambda, gamma_1..gamma_m), d = 1


def normalise_theta(theta, m: int) -> Shift:
    """The shift theta = (lambda, gamma) of a curve with m coordinates, as floats.

    ``None`` or ``0`` is the zero shift.  lambda may be a number or a 1-tuple;
    gamma may be a number, empty (all zero), one value (repeated m times) or
    m values.  Any other gamma length raises ValueError.
    """
    if theta is None or (isinstance(theta, (int, float)) and theta == 0):
        return 0.0, (0.0,) * m
    lam, gam = theta
    if isinstance(lam, (tuple, list)):
        lam = lam[0]
    gam = tuple(float(v) for v in ((gam,) if isinstance(gam, (int, float)) else gam))
    if len(gam) <= 1:  # no gamma, or one value for every coordinate
        gam = (gam or (0.0,)) * m
    if len(gam) != m:
        raise ValueError(f"gamma must have length {m}")
    return float(lam), gam


@dataclass(frozen=True)
class ApproxParams:
    """Full parameter record (c, Q, psi, d, m, B, theta) of one experiment cell."""

    c: float
    Q: float
    psi: float
    d: int
    m: int
    B: tuple[float, float]
    theta: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")
        if not (0 < self.psi <= 1):
            raise ValueError("psi must lie in (0, 1]")
        if self.d < 1 or self.m < 1:
            raise ValueError("d and m must be >= 1")
        if self.theta is None:
            object.__setattr__(self, "theta", ((0.0,) * self.d, (0.0,) * self.m))
        lam, gam = self.theta
        if len(lam) != self.d or len(gam) != self.m:
            raise ValueError("theta parts must have lengths d and m")
        object.__setattr__(self, "theta", (tuple(float(v) for v in lam), tuple(float(v) for v in gam)))

    @property
    def n(self) -> int:
        return self.d + self.m

    @property
    def x_scale(self) -> float:
        """(psi^m Q)^(-1/d), the x-block of the scaling diagonal g."""
        return (self.psi ** self.m * self.Q) ** (-1.0 / self.d)

    @classmethod
    def for_curve(cls, curve: Curve, c: float, Q: float, psi: float,
                  B: tuple[float, float], lam: float = 0.0,
                  gamma: Optional[Sequence[float]] = None) -> "ApproxParams":
        m = curve.n - 1
        lam, gam = normalise_theta((lam, () if gamma is None else gamma), m)
        return cls(c=c, Q=Q, psi=psi, d=1, m=m, B=(float(B[0]), float(B[1])),
                   theta=((lam,), gam))


@dataclass(frozen=True)
class LatticeBasis:
    """A reduced basis together with its exact integer preimage.

    ``columns = source @ preimage`` and ``|det preimage| = 1``, so the columns
    span the same lattice as the source basis.
    """

    dim: int
    columns: np.ndarray
    preimage: np.ndarray
    source: np.ndarray

    @property
    def max_sup(self) -> float:
        return float(np.max(np.abs(self.columns)))

    def assert_unimodular(self) -> None:
        """Exact check that ``|det preimage| = 1``."""
        if not is_unimodular(self.preimage.tolist()):
            raise AssertionError("LLL transform lost unimodularity")


@dataclass(frozen=True)
class LatticeReduction(LatticeBasis):
    """One LLL reduction of a lattice basis and the sup-norm shortest vector.

    ``delta = |source @ coords|_inf`` is minimal over nonzero lattice vectors
    and ``coords`` holds its integer coordinates in the source basis.
    """

    delta: float
    coords: np.ndarray


@dataclass(frozen=True)
class SuccessiveMinima:
    """Sup-norm successive minima with integer vectors attaining them."""

    values: np.ndarray
    achieving_vectors: np.ndarray  # columns are integer coordinate vectors
    covolume: float

    def minkowski_bounds(self) -> tuple[float, float, float]:
        """(lower, product, upper) for the Minkowski product inequality."""
        dim = len(self.values)
        prod = float(np.prod(self.values))
        return self.covolume / math.factorial(dim), prod, self.covolume


# ---------------------------------------------------------------------------
# matrix builders


def monge_frame_matrix(x_vec: Sequence[float], f_vals: Sequence[float],
                       jac: np.ndarray) -> np.ndarray:
    """The (n+1)x(n+1) frame matrix for a Monge patch of any dimension d.

    Rows 1..m:   (f_j - x . grad f_j,  grad f_j,  -e_j)
    Rows m+1..n: (x_i, -e_i, 0)
    Row n+1:     (1, 0, ..., 0)

    The determinant is +-1 by cofactor expansion along the unit structure.
    """
    x_vec = np.asarray(x_vec, dtype=float)
    f_vals = np.asarray(f_vals, dtype=float)
    jac = np.asarray(jac, dtype=float)
    d = x_vec.shape[0]
    m = f_vals.shape[0]
    if jac.shape != (m, d):
        raise ValueError("jacobian must have shape (m, d)")
    n = d + m
    G = np.zeros((n + 1, n + 1), dtype=float)
    g_vals = f_vals - jac @ x_vec
    for j in range(m):
        G[j, 0] = g_vals[j]
        G[j, 1 : 1 + d] = jac[j]
        G[j, 1 + d + j] = -1.0
    for i in range(d):
        G[m + i, 0] = x_vec[i]
        G[m + i, 1 + i] = -1.0
    G[n, 0] = 1.0
    return G


def build_G(curve: Curve, x: float) -> np.ndarray:
    """Frame matrix G(x) of a curve (d = 1 Monge patch); |det G| = 1."""
    jet = eval_jet(curve, x, 1)
    f_vals = jet.values[1:, 0]
    jac = jet.values[1:, 1].reshape(-1, 1)
    return monge_frame_matrix([x], f_vals, jac)


def scaling_diagonal(params: ApproxParams) -> np.ndarray:
    """Diagonal of g(c, Q, psi): m copies of psi, d copies of (psi^m Q)^(-1/d), then cQ."""
    diag = [params.psi] * params.m + [params.x_scale] * params.d + [params.c * params.Q]
    return np.asarray(diag, dtype=float)


def build_scaling(params: ApproxParams) -> np.ndarray:
    """The diagonal matrix g(c, Q, psi); det g = c."""
    return np.diag(scaling_diagonal(params))


def curve_lattice_basis(curve: Curve, x: float, params: ApproxParams) -> np.ndarray:
    """Columns spanning g^{-1} G(x) Z^{n+1}."""
    if params.n != curve.n:
        raise ValueError("params dimensions do not match the curve")
    G = build_G(curve, x)
    return G / scaling_diagonal(params)[:, None]


def build_h(curve: Curve, x: float, params: ApproxParams) -> np.ndarray:
    """h(x) = c^{1/(n+1)} g^{-1} G(x); |det h| = 1."""
    scale = params.c ** (1.0 / (params.n + 1))
    return scale * curve_lattice_basis(curve, x, params)


# ---------------------------------------------------------------------------
# LLL reduction with exact integer transform


class LLLResult(tuple):
    """``(W, U)`` of one ``lll_reduce`` run, carrying the Gram-Schmidt data of W.

    ``mu[i]`` lists the coefficients mu_ij (j < i) and ``norms2[i]`` is
    ``|b*_i|^2``, so ``|W t|_2^2 = sum_i norms2[i] * y_i^2`` with
    ``y_i = t_i + sum_{j>i} mu[j][i] t_j``.
    """

    mu: list[list[float]]
    norms2: list[float]


def _gram_schmidt(cols: list[list[float]], scale: float) -> tuple[list[list[float]], list[float]]:
    """Gram-Schmidt orthogonalisation of the columns: ``(mu, norms2)`` as in ``LLLResult``."""
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


def lll_reduce(basis, max_swaps: Optional[int] = None) -> LLLResult:
    """Floating-point LLL on the columns of ``basis``.

    Returns ``(W, U)`` where ``W = basis @ U`` is the reduced basis and ``U``
    is a list of integer columns (exact arithmetic) with ``|det U| = 1``.
    The Gram-Schmidt data is computed once and updated in place on each swap
    (LLL 1982; Cohen, Alg. 2.6.3); the result carries it as ``mu`` and
    ``norms2``.
    """
    B = np.array(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("basis must be a square matrix of column vectors")
    n = B.shape[1]
    b = B.T.tolist()  # columns
    U = [[1 if i == j else 0 for i in range(n)] for j in range(n)]  # columns
    mu, norms2 = _gram_schmidt(b, float(np.max(np.abs(B))) or 1.0)
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
    result = LLLResult((B, U))
    result.mu, result.norms2 = mu, norms2
    return result


def _u_columns_to_array(U: list[list[int]]) -> np.ndarray:
    flat = [v for col in U for v in col]
    if max(abs(v) for v in flat) < 2**62:
        return np.array(U, dtype=np.int64).T
    return np.array(U, dtype=object).T


# ---------------------------------------------------------------------------
# enumeration


def _enumerate_ball(norms2, mu, radius2_fn, visit) -> None:
    """DFS over all nonzero integer t with |W t|_2^2 <= radius2_fn().

    ``norms2`` and ``mu`` are the Gram-Schmidt data of W as in ``LLLResult``.
    ``visit(t)`` is called on every such coefficient vector.  The radius may
    shrink between calls (used by the shortest-vector search).
    """
    n = len(norms2)
    t = [0] * n

    def dfs(level: int, acc: float) -> None:
        if level < 0:
            if any(t):
                visit(t)
            return
        rem = radius2_fn() - acc
        if rem < 0:
            return
        center = -math.fsum(mu[j][level] * t[j] for j in range(level + 1, n))
        half = math.sqrt(rem / norms2[level])
        lo = math.ceil(center - half - 1e-9)
        hi = math.floor(center + half + 1e-9)
        for ti in range(lo, hi + 1):
            y = ti - center
            t[level] = ti
            dfs(level - 1, acc + norms2[level] * y * y)
        t[level] = 0

    dfs(n - 1, 0.0)


def _lll_prologue(basis, max_dim: Optional[int] = None):
    """Square and size checks, one LLL run: ``(source, W, U, norms2, mu)``.

    ``W = source @ U``, and ``norms2``, ``mu`` are the Gram-Schmidt data of W
    that the LLL run ends with.
    """
    B = np.asarray(basis, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("basis must be square")
    dim = B.shape[0]
    if max_dim is not None and dim > max_dim:
        raise ValueError(f"dimension {dim} exceeds the supported {max_dim}")
    run = lll_reduce(B)
    W, Ucols = run
    return B, W, _u_columns_to_array(Ucols), run.norms2, run.mu


def reduce(basis) -> LatticeReduction:
    """The lattice kernel: one LLL reduction and one ball enumeration.

    The reduced basis, its integer transform and the exact (to rounding)
    sup-norm shortest vector all come from the same reduction, so callers that
    need more than one of them never reduce twice.
    """
    B, W, U, norms2, mu = _lll_prologue(basis, MAX_SVP_DIM)
    dim = B.shape[0]
    sups = np.max(np.abs(W), axis=0)
    i0 = int(np.argmin(sups))
    state = {"best": float(sups[i0]), "t": tuple(1 if i == i0 else 0 for i in range(dim))}

    def radius2() -> float:
        return dim * state["best"] ** 2 * (1.0 + 1e-12)

    def visit(t) -> None:
        s = float(np.max(np.abs(W @ t)))
        if s < state["best"]:
            state["best"] = s
            state["t"] = tuple(t)

    _enumerate_ball(norms2, mu, radius2, visit)
    p = np.dot(U, np.array(state["t"], dtype=U.dtype))
    return LatticeReduction(dim=dim, columns=W, preimage=U, source=B, delta=state["best"], coords=p)


def reduce_at(curve: Curve, x: float, params: ApproxParams) -> LatticeReduction:
    """``reduce`` of the scaled curve lattice g^{-1} G(x) Z^{n+1}."""
    return reduce(curve_lattice_basis(curve, x, params))


def shortest_sup(basis) -> tuple[float, np.ndarray]:
    """Exact (to rounding) sup-norm shortest vector of a full-rank lattice.

    Returns ``(delta, p)`` where ``delta = |W p|_inf`` is minimal over nonzero
    lattice vectors and ``p`` holds the integer coordinates in the input basis.
    """
    r = reduce(basis)
    return r.delta, r.coords


def reduced_basis(basis) -> LatticeBasis:
    """LLL-reduced basis of the same lattice with its unimodular preimage."""
    B, W, U, _, _ = _lll_prologue(basis)
    reduced = LatticeBasis(dim=B.shape[0], columns=W, preimage=U, source=B)
    reduced.assert_unimodular()
    return reduced


def successive_minima_sup(basis) -> SuccessiveMinima:
    """Sup-norm successive minima by exhaustive enumeration (dim <= 6)."""
    B, W, U, norms2, mu = _lll_prologue(basis, MAX_MINIMA_DIM)
    dim = B.shape[0]
    # every minimum is attained inside the ball that contains the basis itself
    S = float(np.max(np.abs(W)))
    found: list[tuple[float, tuple[int, ...]]] = []

    def radius2() -> float:
        return dim * S * S * (1.0 + 1e-9)

    def visit(t) -> None:
        s = float(np.max(np.abs(W @ t)))
        if s <= S * (1.0 + 1e-12):
            found.append((s, tuple(t)))

    _enumerate_ball(norms2, mu, radius2, visit)
    found.sort(key=lambda item: (item[0], item[1]))
    values: list[float] = []
    chosen: list[tuple[int, ...]] = []
    reduced_rows: list[list] = []  # fraction-free elimination state
    for s, t in found:
        row = [int(v) for v in t]
        for piv in reduced_rows:
            lead = next(i for i, v in enumerate(piv) if v != 0)
            if row[lead] != 0:
                f1, f2 = piv[lead], row[lead]
                row = [f1 * a - f2 * b for a, b in zip(row, piv)]
        if any(row):
            reduced_rows.append(row)
            chosen.append(t)
            values.append(s)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise AssertionError("enumeration failed to reach full rank")
    vecs = np.stack([np.dot(U, np.array(t, dtype=U.dtype)) for t in chosen], axis=1)
    covol = float(np.prod(np.sqrt(norms2)))
    return SuccessiveMinima(values=np.array(values), achieving_vectors=vecs, covolume=covol)
