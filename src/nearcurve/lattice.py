"""Curve lattices and sup-norm shortest vectors.

The scaled lattice attached to a curve point is spanned by the columns of
``g^{-1} G(x)`` where ``G(x)`` is the unimodular frame matrix of the curve and
``g`` the diagonal scaling built from ``(c, Q, psi)``.  Dimensions are tiny
(``n + 1 <= 8``), so the shortest sup-norm vector is found exactly by an
LLL-style reduction followed by exhaustive enumeration inside the Euclidean
ball of radius ``sqrt(dim)`` times the best known sup-norm; the bound
``|v|_inf <= |v|_2`` makes that ball exhaustive.

``reduce`` takes a whole stack of bases ``(N, n, n)``, such as every grid
point of a cell, and returns one struct-of-arrays record that the
shortest-vector and witness callers share.  Its LLL runs all N bases in
lockstep as one numpy kernel, each basis bit for bit as the scalar kernel
would reduce it alone; the ball enumeration stays per basis.  A stack of one
pays the kernel's fixed numpy cost of about 1-2 ms, so callers pass whole
grids; the single-basis entry points (``reduce_at``, ``shortest_sup``,
``reduced_basis``, ``successive_minima_sup``) pass a stack of one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

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
class LatticeReductions:
    """``reduce`` of a stack of N bases, as arrays; ``r[i]`` is basis i's ``LatticeReduction``.

    ``source``, ``columns`` (the reduced W) and ``preimage`` (the integer U)
    have shape (N, n, n), ``delta`` (N,) and ``coords`` (N, n).  A record
    holds copies of its rows, so it owns fresh arrays as a lone reduction did.
    """

    source: np.ndarray
    columns: np.ndarray
    preimage: np.ndarray
    delta: np.ndarray
    coords: np.ndarray

    def __len__(self) -> int:
        return len(self.delta)

    def __getitem__(self, i: int) -> LatticeReduction:
        return LatticeReduction(dim=self.source.shape[1], columns=self.columns[i].copy(),
                                preimage=self.preimage[i].copy(), source=self.source[i].copy(),
                                delta=float(self.delta[i]), coords=self.coords[i].copy())


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


def curve_lattice_bases(curve: Curve, xs: Sequence[float], params: ApproxParams) -> np.ndarray:
    """The stack (len(xs), n+1, n+1) of ``curve_lattice_basis`` at each x."""
    bases = np.empty((len(xs), curve.n + 1, curve.n + 1))
    for i, x in enumerate(xs):
        bases[i] = curve_lattice_basis(curve, float(x), params)
    return bases


def build_h(curve: Curve, x: float, params: ApproxParams) -> np.ndarray:
    """h(x) = c^{1/(n+1)} g^{-1} G(x); |det h| = 1."""
    scale = params.c ** (1.0 / (params.n + 1))
    return scale * curve_lattice_basis(curve, x, params)


# ---------------------------------------------------------------------------
# LLL reduction with exact integer transform


def _stack(bases, max_dim: Optional[int] = None) -> np.ndarray:
    """The bases as a float stack ``(N, n, n)``, with n checked against ``max_dim``."""
    B = np.asarray(bases, dtype=float)
    if B.ndim != 3 or B.shape[1] != B.shape[2]:
        raise ValueError("bases must be a stack (N, n, n) of square matrices")
    if max_dim is not None and B.shape[1] > max_dim:
        raise ValueError(f"dimension {B.shape[1]} exceeds the supported {max_dim}")
    return B


_U_BOUND = 2.0**62  # int64 transforms stay below this; past it the stack reruns in Python ints


class _TransformOverflow(Exception):
    """An int64 update of the integer transform could leave the exact range."""


class LLLResult(NamedTuple):
    """One ``lll_reduce`` run over a stack of N bases of dimension n.

    ``W[s] = source[s] @ U[s]`` is the reduced basis s (as columns) and
    ``U[s]`` its integer transform, int64 or, past ``_U_BOUND``, Python ints
    (dtype object).  ``norms2[s, i] = |b*_i|^2`` and the coefficients mu_ij
    (j < i), packed row after row as ``mu[s, _row(i) + j]``, are the
    Gram-Schmidt data of ``W[s]``, so ``|W t|_2^2 = sum_i norms2[i] * y_i^2``
    with ``y_i = t_i + sum_{j>i} mu_ji t_j``.
    """

    W: np.ndarray       # (N, n, n) float, C-contiguous
    U: np.ndarray       # (N, n, n) integer
    mu: np.ndarray      # (N, n(n-1)/2) float
    norms2: np.ndarray  # (N, n) float


def _row(i):
    """Offset of row i of the packed mu: rows 0, ..., i-1 hold 0 + 1 + ... + (i-1) coefficients."""
    return i * (i - 1) // 2


def _mu_rows(packed: list[float], n: int) -> list[list[float]]:
    """The packed mu of one basis as rows: row i lists mu_ij for j < i."""
    return [packed[_row(i):_row(i) + i] for i in range(n)]


def _gram_schmidt(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gram-Schmidt data ``(mu, norms2)`` as in ``LLLResult`` of the columns of every ``B[s]``.

    A column is the list of its n coordinates, each an (N,) array over the
    stack, so every line is the scalar kernel's, run on all N bases at once;
    ``sum`` starts from 0 and adds left to right, as it does on floats.
    """
    N, n, _ = B.shape
    scale = np.maximum(B.max(axis=(1, 2), initial=0.0), -B.min(axis=(1, 2), initial=0.0))  # max |B|
    scale[scale == 0.0] = 1.0
    stars: list[list[np.ndarray]] = []
    mu = np.empty((N, _row(n)))
    norms2 = np.empty((N, n))
    for i in range(n):
        b = v = [B[:, r, i] for r in range(n)]
        for j, bs in enumerate(stars):
            mu[:, _row(i) + j] = m = sum(x * y for x, y in zip(b, bs)) / norms2[:, j]
            v = [x - m * y for x, y in zip(v, bs)]
        norms2[:, i] = n2 = sum(x * x for x in v)
        if np.any(np.sqrt(n2) <= 1e-13 * scale):
            raise ValueError("singular (or numerically singular) basis")
        if i < n - 1:  # b*_0 is b_0 itself; the last b* is never used again
            stars.append(v)
    return mu, norms2


def _size_reduce(W: np.ndarray, U: Optional[np.ndarray], mu: np.ndarray,
                 act: np.ndarray, ka: np.ndarray) -> None:
    """Size-reduce column k = ``ka`` of every active basis ``act`` against j = k-1, ..., 0.

    Only the bases whose q is not 0 are touched, one coordinate at a time,
    which keeps the temporaries at a few values per basis.
    """
    n = W.shape[1]
    for j in range(n - 2, -1, -1):
        r = np.flatnonzero(ka > j)
        q = np.rint(mu[act[r], _row(ka[r]) + j])  # half to even, as round()
        nz = np.flatnonzero(q)
        if not nz.size:
            continue
        q, r = q[nz], r[nz]
        s, ks = act[r], ka[r]
        del r, nz
        if U is not None:
            _transform_step(U, s, ks, j, q)
        for c in range(n):
            Wk, Wj = W[s, c, ks], W[s, c, j]
            Wj *= q
            Wk -= Wj
            W[s, c, ks] = Wk
        rs = _row(ks)
        for i in range(j):
            mu[s, rs + i] = mu[s, rs + i] - q * mu[s, _row(j) + i]
        mu[s, rs + j] = mu[s, rs + j] - q


def _transform_step(U: np.ndarray, s: np.ndarray, ks: np.ndarray, j: int, q: np.ndarray) -> None:
    """U_k -= q U_j on the bases s, exactly.

    In int64, ``max |U_k| + max |q| max |U_j|`` bounds every new entry; when
    it reaches ``_U_BOUND`` this raises ``_TransformOverflow`` instead.
    """
    qmax = float(np.abs(q).max())
    qi = q.astype(np.int64) if U.dtype != object else np.array([int(v) for v in q], dtype=object)
    for c in range(U.shape[1]):
        Uk, Uj = U[s, c, ks], U[s, c, j]
        if U.dtype != object and _sup(Uk) + qmax * _sup(Uj) >= _U_BOUND:
            raise _TransformOverflow
        Uj *= qi
        Uk -= Uj
        U[s, c, ks] = Uk


def _sup(a: np.ndarray) -> float:
    """max |a| of a nonempty int64 array, as a float."""
    return float(max(a.max(), -a.min()))


def _lovasz_fails(mu: np.ndarray, norms2: np.ndarray, act: np.ndarray, ka: np.ndarray) -> np.ndarray:
    """Whether the Lovasz condition fails at k = ``ka`` for each active basis."""
    m = mu[act, _row(ka) + ka - 1]
    nk, n1 = norms2[act, ka], norms2[act, ka - 1]
    rhs = (LOVASZ - m * m) * n1
    fails = ~(nk >= rhs)
    # the scalar kernel squares m with libm pow, which can differ from m * m
    # in the last bit; decide the tests that close to a tie with it
    for i in np.flatnonzero(np.abs(nk - rhs) <= 1e-12 * np.abs(rhs)):
        fails[i] = not float(nk[i]) >= (LOVASZ - float(m[i]) ** 2) * float(n1[i])
    return fails


def _swap(W: np.ndarray, U: Optional[np.ndarray], mu: np.ndarray, norms2: np.ndarray,
          s: np.ndarray, ks: np.ndarray) -> None:
    """Swap columns k-1 and k = ``ks`` of the bases ``s`` and update their Gram-Schmidt data."""
    n = W.shape[1]
    b = _row(ks)  # row k of mu; row k-1 starts k-1 places before it
    m = mu[s, b + ks - 1]
    for A in (W, U) if U is not None else (W,):
        for c in range(n):
            A[s, c, ks - 1], A[s, c, ks] = A[s, c, ks], A[s, c, ks - 1]
    old, nk = norms2[s, ks - 1], norms2[s, ks]
    norms2[s, ks - 1] = new = nk + m * m * old
    norms2[s, ks] = old * nk / new
    mu[s, b + ks - 1] = m_new = m * old / new
    del old, nk, new
    for c in range(n - 2):  # row k-1 becomes mu_k0..mu_k,k-2 and row k starts with row k-1
        r = np.flatnonzero(ks - 1 > c)
        if r.size:
            sr, pb = s[r], b[r] + c
            pa = pb - ks[r] + 1
            mu[sr, pa], mu[sr, pb] = mu[sr, pb], mu[sr, pa]
    for i in range(2, n):  # rows i > k
        r = np.flatnonzero(ks < i)
        if r.size:
            si, pk = s[r], _row(i) + ks[r]
            t = mu[si, pk]
            mu[si, pk] = new_k = mu[si, pk - 1] - m[r] * t
            mu[si, pk - 1] = t + m_new[r] * new_k


def _lll_stack(W: np.ndarray, U: Optional[np.ndarray],
               max_swaps: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """LLL in lockstep, in place on the columns of every ``W[s]`` and ``U[s]``: ``(mu, norms2)``.

    ``U`` starts as the identity, or is None when no transform is wanted.
    Each basis keeps its own k and swap count, and leaves the active set when
    k reaches n.  Every float operation is the one the scalar kernel (LLL
    1982; Cohen, Alg. 2.6.3) applies to that basis, in the same order, so each
    basis ends bit for bit where it would alone.
    """
    N, n, _ = W.shape
    if max_swaps is None:
        max_swaps = 10_000 * n * n
    mu, norms2 = _gram_schmidt(W)
    k = np.ones(N, dtype=np.intp)
    swaps = np.zeros(N, dtype=np.intp)
    act = np.arange(N)[k < n]
    while act.size:
        ka = k[act]
        _size_reduce(W, U, mu, act, ka)
        fails = _lovasz_fails(mu, norms2, act, ka)
        k[act[~fails]] += 1
        s, ks = act[fails], ka[fails]
        del ka, fails
        if s.size:
            _swap(W, U, mu, norms2, s, ks)
            k[s] = np.maximum(ks - 1, 1)
            swaps[s] += 1
            for i in s[swaps[s] > max_swaps]:
                # float flip-flop guard; the current basis still spans the lattice
                log.warning("lll_reduce stopped after %d swaps in dimension %d; "
                            "the basis may not be LLL-reduced", swaps[i], n)
                k[i] = n
        del s, ks
        act = act[k[act] < n]
    return mu, norms2


def _identities(N: int, n: int, dtype) -> np.ndarray:
    """N identity transforms (N, n, n) of the given dtype."""
    U = np.zeros((N, n, n), dtype=dtype)
    U[:, np.arange(n), np.arange(n)] = 1
    return U


def lll_reduce(bases, max_swaps: Optional[int] = None) -> LLLResult:
    """Floating-point LLL on the columns of every basis of a stack ``(N, n, n)``.

    All N bases run in lockstep through one numpy kernel, each exactly as it
    would run alone, and come back as one ``LLLResult``.  The Gram-Schmidt
    data is computed once per basis and updated on each swap.  The integer
    transform is exact: it is int64 while a bound keeps every update below
    ``_U_BOUND``, and the stack is run again in Python ints when it does not.
    A stack of one costs about 1-2 ms, so callers pass whole grids.
    """
    B = _stack(bases)
    N, n, _ = B.shape
    W, U = B.copy(), _identities(N, n, np.int64)
    try:
        mu, norms2 = _lll_stack(W, U, max_swaps)
    except _TransformOverflow:
        W, U = B.copy(), _identities(N, n, object)
        mu, norms2 = _lll_stack(W, U, max_swaps)
    return LLLResult(W=W, U=U, mu=mu, norms2=norms2)


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
    del dfs  # dfs refers to itself; freeing it now spares the cyclic collector


def _shortest(W: np.ndarray, norms2: list[float], mu: list[list[float]]) -> tuple[float, tuple[int, ...]]:
    """``(|W t|_inf, t)`` for the sup-norm shortest nonzero W t, by ball enumeration."""
    dim = len(norms2)
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
    return state["best"], state["t"]


def _shortest_each(W: np.ndarray, mu: np.ndarray, norms2: np.ndarray):
    """``_shortest`` of every basis of an LLL-reduced stack, each on a C-contiguous copy of its W.

    The copy keeps the layout ``W @ t`` has always had, so its BLAS sums, and
    with them every delta, stay bit for bit the same.
    """
    n = W.shape[1]
    for s in range(len(W)):
        yield _shortest(W[s].copy(), norms2[s].tolist(), _mu_rows(mu[s].tolist(), n))


def reduce(bases) -> LatticeReductions:
    """The lattice kernel over a stack ``(N, n, n)``: one LLL run, one ball enumeration per basis.

    The reduced bases, their integer transforms and the exact (to rounding)
    sup-norm shortest vectors all come from the same reduction, so callers
    that need more than one of them never reduce twice.
    """
    B = _stack(bases, MAX_SVP_DIM)
    W, U, mu, norms2 = lll_reduce(B)
    delta = np.empty(len(B))
    coords = np.empty(B.shape[:2], dtype=U.dtype)
    for s, (d, t) in enumerate(_shortest_each(W, mu, norms2)):
        delta[s] = d
        coords[s] = np.dot(U[s], np.array(t, dtype=U.dtype))
    return LatticeReductions(source=B, columns=W, preimage=U, delta=delta, coords=coords)


def shortest_sups(bases) -> np.ndarray:
    """``reduce(bases).delta``, bit for bit, with the stack reduced in place.

    For callers that need only the deltas: no integer transform is tracked
    and a float64 stack is not copied, so nothing else of its size is held.
    The stack ends up LLL-reduced.
    """
    W = _stack(bases, MAX_SVP_DIM)
    mu, norms2 = _lll_stack(W, None)
    return np.fromiter((delta for delta, _ in _shortest_each(W, mu, norms2)), dtype=float, count=len(W))


def reduce_at(curve: Curve, x: float, params: ApproxParams) -> LatticeReduction:
    """``reduce`` of the scaled curve lattice g^{-1} G(x) Z^{n+1}, as a stack of one."""
    return reduce(curve_lattice_basis(curve, x, params)[None])[0]


def shortest_sup(basis) -> tuple[float, np.ndarray]:
    """Exact (to rounding) sup-norm shortest vector of a full-rank lattice.

    Returns ``(delta, p)`` where ``delta = |W p|_inf`` is minimal over nonzero
    lattice vectors and ``p`` holds the integer coordinates in the input basis.
    """
    r = reduce(np.asarray(basis, dtype=float)[None])[0]
    return r.delta, r.coords


def reduced_basis(basis) -> LatticeBasis:
    """LLL-reduced basis of the same lattice with its unimodular preimage."""
    B = _stack(np.asarray(basis, dtype=float)[None])
    W, U, _, _ = lll_reduce(B)
    reduced = LatticeBasis(dim=B.shape[1], columns=W[0], preimage=U[0], source=B[0])
    reduced.assert_unimodular()
    return reduced


def successive_minima_sup(basis) -> SuccessiveMinima:
    """Sup-norm successive minima by exhaustive enumeration (dim <= 6)."""
    B = _stack(np.asarray(basis, dtype=float)[None], MAX_MINIMA_DIM)
    run = lll_reduce(B)
    dim = B.shape[1]
    W, U, norms2, mu = run.W[0], run.U[0], run.norms2[0].tolist(), _mu_rows(run.mu[0].tolist(), dim)
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
