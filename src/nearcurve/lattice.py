"""Curve lattices and sup-norm shortest vectors.

The scaled lattice attached to a curve point is spanned by the columns of
``g^{-1} G(x)`` where ``G(x)`` is the unimodular frame matrix of the curve and
``g`` the diagonal scaling built from ``(c, Q, psi)``.  Dimensions are tiny
(``n + 1 <= 8``), so the shortest sup-norm vector is found exactly by an
LLL-style reduction followed by exhaustive enumeration inside the Euclidean
ball of radius ``sqrt(dim)`` times the least column sup-norm of the reduced
basis; the bound ``|v|_inf <= |v|_2`` makes that ball exhaustive.

Every step works on whole stacks.  ``frame_matrices`` builds G(x) at every x
of a grid at once, and ``curve_lattice_bases`` scales that stack.
``reduce`` takes a stack of bases ``(N, n, n)`` and returns one
struct-of-arrays record that the shortest-vector and witness callers share.
Its LLL runs all N bases in lockstep as one numpy kernel, each basis bit for
bit as the scalar kernel would reduce it alone, and its ball enumeration
expands all of them level by level, each leaf in the order and with the sup
the per-basis search gave it.  Both index each C-contiguous array flat:
W[s, c, k] (and U's) at s n^2 + c n + k, mu[s, _row(k) + j] at
s n(n-1)/2 + _row(k) + j and norms2[s, k] at s n + k, so ``_stack`` copies a
strided stack.  A stack of one pays a fixed numpy cost of about 1.5-3 ms, so
callers pass whole grids; the single-basis entry points (``build_G``,
``build_h``, ``reduce_at``, ``shortest_sup``, ``reduced_basis``,
``successive_minima_sup``) pass a stack of one.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .curves import Curve
from .intlinalg import is_unimodular, rank_int

log = logging.getLogger("nearcurve")

MAX_SVP_DIM = 8
MAX_MINIMA_DIM = 6
LOVASZ = 0.99  # the Lovasz condition factor of lll_reduce

Shift = tuple[float, tuple[float, ...]]  # (lambda, gamma_1..gamma_m), d = 1


def normalise_theta(theta, m: int) -> Shift:
    """The shift theta = (lambda, gamma) of a curve with m coordinates, as floats.

    ``None`` or ``0`` is the zero shift.  lambda is a number; gamma may be a
    number, empty (all zero), one value (repeated m times) or m values.  Any
    other gamma length raises ValueError.
    """
    if theta is None or (isinstance(theta, (int, float)) and theta == 0):
        return 0.0, (0.0,) * m
    lam, gam = theta
    gam = tuple(float(v) for v in ((gam,) if isinstance(gam, (int, float)) else gam))
    if len(gam) <= 1:  # no gamma, or one value for every coordinate
        gam = (gam or (0.0,)) * m
    if len(gam) != m:
        raise ValueError(f"gamma must have length {m}")
    return float(lam), gam


@dataclass(frozen=True)
class ApproxParams:
    """Full parameter record (c, Q, psi, m, B, theta) of one experiment cell of a curve (d = 1)."""

    c: float
    Q: float
    psi: float
    m: int
    B: tuple[float, float]
    theta: Optional[Shift] = None

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.Q < 1:
            raise ValueError("Q must be >= 1")
        if not (0 < self.psi <= 1):
            raise ValueError("psi must lie in (0, 1]")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        object.__setattr__(self, "theta", normalise_theta(self.theta, self.m))

    @property
    def n(self) -> int:
        return self.m + 1

    @property
    def x_scale(self) -> float:
        """(psi^m Q)^(-1), the x-entry of the scaling diagonal g."""
        return (self.psi ** self.m * self.Q) ** -1.0

    @property
    def h_scale(self) -> float:
        """c^(1/(n+1)), the factor that takes g^{-1} G(x) to h(x) with |det h| = 1."""
        return self.c ** (1.0 / (self.n + 1))

    @classmethod
    def for_curve(cls, curve: Curve, c: float, Q: float, psi: float,
                  B: tuple[float, float], lam: float = 0.0,
                  gamma: Optional[Sequence[float]] = None) -> "ApproxParams":
        return cls(c=c, Q=Q, psi=psi, m=curve.n - 1, B=(float(B[0]), float(B[1])),
                   theta=(lam, () if gamma is None else gamma))


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


def frame_matrices(curve: Curve, xs: Sequence[float]) -> np.ndarray:
    """The frame matrices G(x) of a curve (d = 1 Monge patch) at every x, as a stack (N, n+1, n+1).

    Rows 1..m: (f_j - x f_j', f_j', -e_j); row m+1: (x, -1, 0); row m+2:
    (1, 0, ..., 0).  |det G| = 1 by cofactor expansion along the unit
    structure.  The jets come from each coordinate's ``jets(xs, 1)``, the
    same bits as its scalar ``jet(x, 1)`` at every x.
    """
    xs = np.asarray(xs, dtype=float)
    lo, hi = curve.domain
    outside = np.flatnonzero(~((lo <= xs) & (xs <= hi)))
    if outside.size:
        raise ValueError(f"x={float(xs[outside[0]])} outside domain {curve.domain} of {curve.label}")
    if curve.l_max < 1:
        raise ValueError(f"order 1 exceeds l_max={curve.l_max}")
    N, m = len(xs), curve.n - 1
    G = np.zeros((N, m + 2, m + 2))
    for j, coord in enumerate(curve.coords):
        f, fp = coord.jets(xs, 1)
        G[:, j, 0] = f - fp * xs
        G[:, j, 1] = fp
        G[:, j, 2 + j] = -1.0
    G[:, m, 0] = xs
    G[:, m, 1] = -1.0
    G[:, m + 1, 0] = 1.0
    return G


def build_G(curve: Curve, x: float) -> np.ndarray:
    """Frame matrix G(x) of a curve (d = 1 Monge patch); |det G| = 1."""
    return frame_matrices(curve, [x])[0]


def scaling_diagonal(params: ApproxParams) -> np.ndarray:
    """Diagonal of g(c, Q, psi): m copies of psi, then (psi^m Q)^(-1) and cQ."""
    diag = [params.psi] * params.m + [params.x_scale, params.c * params.Q]
    return np.asarray(diag, dtype=float)


def build_scaling(params: ApproxParams) -> np.ndarray:
    """The diagonal matrix g(c, Q, psi); det g = c."""
    return np.diag(scaling_diagonal(params))


def curve_lattice_bases(curve: Curve, xs: Sequence[float], params: ApproxParams) -> np.ndarray:
    """The stack (len(xs), n+1, n+1) of bases g^{-1} G(x), whose columns span g^{-1} G(x) Z^{n+1}."""
    if params.n != curve.n:
        raise ValueError("params dimensions do not match the curve")
    bases = frame_matrices(curve, xs)
    bases /= scaling_diagonal(params)[:, None]
    return bases


def build_h(curve: Curve, x: float, params: ApproxParams) -> np.ndarray:
    """h(x) = c^{1/(n+1)} g^{-1} G(x); |det h| = 1."""
    h = curve_lattice_bases(curve, [x], params)
    h *= params.h_scale
    return h[0]


# ---------------------------------------------------------------------------
# LLL reduction with exact integer transform


def _stack(bases, max_dim: Optional[int] = None) -> np.ndarray:
    """The bases as a C-contiguous float stack ``(N, n, n)``, with n checked against ``max_dim``."""
    B = np.ascontiguousarray(bases, dtype=float)
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


def _size_reduce(cols: tuple, mu: np.ndarray, n: int, ka: np.ndarray, wk: np.ndarray, mk: np.ndarray) -> None:
    """Size-reduce column k = ``ka`` of every active basis against j = k-1, ..., 0.

    ``cols`` (W, and U if tracked) and ``mu`` are flat, as in ``_lll_stack``;
    ``wk`` holds the offsets of W[s, 0, k] (and U's), ``mk`` those of row k of mu.
    """
    for j in range(n - 2, -1, -1):
        r = np.flatnonzero(ka > j)
        q = np.rint(mu[mk[r] + j])  # half to even, as round()
        nz = np.flatnonzero(q)
        if not nz.size:
            continue
        r = r[nz]
        q, rs = q[nz], mk[r]
        if j:
            rj = rs - _row(ka[r]) + _row(j)  # row j of mu
            for i in range(j):
                mu[rs + i] = mu[rs + i] - q * mu[rj + i]
        mu[rs + j] = mu[rs + j] - q
        ks = wk[r]
        js = ks - ka[r] + j  # W[s, 0, j]
        del r, rs, nz
        for A in cols:
            _column_step(A, n, ks, js, q)


def _column_step(A: np.ndarray, n: int, ks: np.ndarray, js: np.ndarray, q: np.ndarray) -> None:
    """A_k -= q A_j in place on the flat W or U, one coordinate at a time; k at ``ks``, j at ``js``.

    A float64 A is W.  An int64 or object A is U, exact: in int64, ``max |U_k| + max |q| max |U_j|``
    bounds every new entry, and when that reaches ``_U_BOUND`` this raises ``_TransformOverflow``.
    """
    exact = A.dtype == np.int64
    if A.dtype != float:
        qmax = float(np.abs(q).max())
        q = q.astype(np.int64) if exact else np.array([int(v) for v in q], dtype=object)
    for c in range(0, n * n, n):
        Ak, Aj = A[ks + c], A[js + c]
        if exact and max(Ak.max(), -Ak.min()) + qmax * max(Aj.max(), -Aj.min()) >= _U_BOUND:
            raise _TransformOverflow
        Aj *= q
        Ak -= Aj
        A[ks + c] = Ak


def _lovasz_fails(mu: np.ndarray, norms2: np.ndarray, mkk: np.ndarray, nk: np.ndarray) -> np.ndarray:
    """Whether the Lovasz condition fails at k, with mu_k,k-1 at ``mkk`` and |b*_k|^2 at ``nk``."""
    m, bk, b1 = mu[mkk], norms2[nk], norms2[nk - 1]
    rhs = (LOVASZ - m * m) * b1
    fails = ~(bk >= rhs)
    # the scalar kernel squares m with libm pow, which can differ from m * m
    # in the last bit; decide the tests that close to a tie with it
    for i in np.flatnonzero(np.abs(bk - rhs) <= 1e-12 * np.abs(rhs)):
        fails[i] = not float(bk[i]) >= (LOVASZ - float(m[i]) ** 2) * float(b1[i])
    return fails


def _swap(cols: tuple, mu: np.ndarray, norms2: np.ndarray, n: int, s: np.ndarray, ks: np.ndarray) -> None:
    """Swap columns k-1 and k = ``ks`` of the bases ``s`` and update their Gram-Schmidt data."""
    sk = s * _row(n) + ks  # s P + k, taken here so that no offset of the active set is held
    mkk = sk + _row(ks) - 1  # mu_k,k-1; row k-1 starts k-1 places before row k
    m = mu[mkk]
    w = s * (n * n) + ks  # W[s, 0, k]
    for A in cols:
        for c in range(0, n * n, n):
            A[w + (c - 1)], A[w + c] = A[w + c], A[w + (c - 1)]
    w = s * n + ks  # norms2[s, k]
    old, cur = norms2[w - 1], norms2[w]
    norms2[w - 1] = new = cur + m * m * old
    norms2[w] = old * cur / new
    mu[mkk] = m_new = m * old / new
    del w, old, cur, new
    for c in range(n - 2):  # row k-1 becomes mu_k0..mu_k,k-2 and row k starts with row k-1
        r = np.flatnonzero(ks - 1 > c)
        if r.size:
            pb = mkk[r] - ks[r] + (c + 1)
            pa = pb - ks[r] + 1
            mu[pa], mu[pb] = mu[pb], mu[pa]
    for i in range(2, n):  # rows i > k: mu_ik sits at sk + _row(i)
        r = np.flatnonzero(ks < i)
        if r.size:
            pk = sk[r] + _row(i)
            t = mu[pk]
            mu[pk] = new_k = mu[pk - 1] - m[r] * t
            mu[pk - 1] = t + m_new[r] * new_k


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
    cols = tuple(A.reshape(-1) for A in (W, U) if A is not None)
    muf, nf = mu.reshape(-1), norms2.reshape(-1)
    k = np.ones(N, dtype=np.intp)
    swaps = np.zeros(N, dtype=np.intp)
    act = np.arange(N)[k < n]
    while act.size:
        ka = k[act]
        mk = act * _row(n) + _row(ka)  # row k of mu
        _size_reduce(cols, muf, n, ka, act * (n * n) + ka, mk)
        fails = _lovasz_fails(muf, nf, mk + ka - 1, act * n + ka)
        k[act[~fails]] += 1
        s, ks = act[fails], ka[fails]
        del ka, mk, fails
        if s.size:
            _swap(cols, muf, nf, n, s, ks)
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
    A stack of one costs about 1.2-1.5 ms, so callers pass whole grids.
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


_CHUNK = 512  # bases per pass of _shortest in dimension <= 3; bounds the node and leaf arrays


def _ball(mu: np.ndarray, norms2: np.ndarray, radius2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every nonzero integer t with |W_s t|_2^2 <= radius2[s], for every basis s of a stack.

    ``mu`` and ``norms2`` are the Gram-Schmidt data of the W as in
    ``LLLResult``.  Fincke-Pohst (1985) enumeration, expanded one level at a
    time over the whole stack: the partial vectors of level i each get the
    run of t_i that keeps their partial norm within the radius, with a slack
    of 1e-9 on both ends, by ``np.repeat``.  Returns ``(owner, T)``: the leaf
    k is t = T[k] of basis owner[k], ordered by basis, then by
    (t[n-1], ..., t[0]).
    """
    N, n = norms2.shape
    mu, norms2 = mu.reshape(-1), norms2.reshape(-1)  # flat, as in _lll_stack
    owner = np.arange(N)
    T = np.zeros((N, n), dtype=np.int64)
    acc = np.zeros(N)
    for i in range(n - 1, -1, -1):
        rem = radius2[owner] - acc
        keep = np.flatnonzero(rem >= 0)
        owner, T, acc, rem = owner[keep], T[keep], acc[keep], rem[keep]
        center = np.zeros(len(owner))
        for j in range(i + 1, n):
            center -= mu[owner * _row(n) + (_row(j) + i)] * T[:, j]
        level = norms2[owner * n + i]
        half = np.sqrt(rem / level)
        lo = np.ceil(center - half - 1e-9)
        width = np.maximum(np.floor(center + half + 1e-9) - lo + 1, 0).astype(np.intp)
        step = np.arange(int(width.sum())) - np.repeat(np.cumsum(width) - width, width)
        owner, T, acc = np.repeat(owner, width), np.repeat(T, width, axis=0), np.repeat(acc, width)
        y = np.repeat(lo, width) + step
        T[:, i] = y
        y -= np.repeat(center, width)
        acc += np.repeat(level, width) * y * y
    leaf = np.flatnonzero(T.any(axis=1))
    return owner[leaf], T[leaf]


def _leaf_sups(W: np.ndarray, owner: np.ndarray, T: np.ndarray) -> np.ndarray:
    """|W[owner[k]] T[k]|_inf of every leaf, by one matmul; each equals that basis's ``W @ t`` bit for bit."""
    return np.abs(np.matmul(W[owner], T[:, :, None].astype(float))).max(axis=(1, 2))


def _shortest(W: np.ndarray, mu: np.ndarray, norms2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(delta, T)``: the sup-norm shortest nonzero ``W[s] @ T[s]`` of every basis of an LLL-reduced stack.

    The search starts from the column e_i0 of least sup s0, and ``_ball``
    takes every t with |W t|_2^2 <= n s0^2 (1 + 1e-12), which holds every
    shorter vector since |v|_inf <= |v|_2.  e_i0 stays unless a leaf is
    strictly shorter; among equally short leaves the first in ``_ball``'s
    order wins.
    """
    N, n, _ = W.shape
    sups = np.abs(W).max(axis=1)
    i0 = sups.argmin(axis=1)
    delta = sups[np.arange(N), i0]
    T = np.zeros((N, n), dtype=np.int64)
    T[np.arange(N), i0] = 1
    # a reduced basis's ball holds about twice the leaves per added dimension
    chunk = max(1, _CHUNK >> max(n - 3, 0))
    for start in range(0, N, chunk):
        part = slice(start, start + chunk)
        d, t = delta[part], T[part]  # views: the winners are written through them
        owner, leaves = _ball(mu[part], norms2[part], n * d ** 2 * (1.0 + 1e-12))
        leaf_sups = _leaf_sups(W[part], owner, leaves)
        best = d.copy()
        np.minimum.at(best, owner, leaf_sups)
        wins = np.flatnonzero((leaf_sups < d[owner]) & (leaf_sups == best[owner]))
        first = wins[np.diff(owner[wins], prepend=-1) != 0]
        d[owner[first]] = leaf_sups[first]
        t[owner[first]] = leaves[first]
    return delta, T


def reduce(bases) -> LatticeReductions:
    """The lattice kernel over a stack ``(N, n, n)``: one LLL run and one ball enumeration over all bases.

    The reduced bases, their integer transforms and the exact (to rounding)
    sup-norm shortest vectors all come from the same reduction, so callers
    that need more than one of them never reduce twice.
    """
    B = _stack(bases, MAX_SVP_DIM)
    W, U, mu, norms2 = lll_reduce(B)
    delta, T = _shortest(W, mu, norms2)
    coords = np.matmul(U, T.astype(U.dtype)[:, :, None])[:, :, 0]
    return LatticeReductions(source=B, columns=W, preimage=U, delta=delta, coords=coords)


def shortest_sups(bases) -> np.ndarray:
    """``reduce(bases).delta``, bit for bit, with the stack reduced in place.

    For callers that need only the deltas: no integer transform is tracked,
    and a C-contiguous float64 stack is reduced where it is, with nothing else
    of its size held.  Any other stack is reduced in a copy.
    """
    W = _stack(bases, MAX_SVP_DIM)
    mu, norms2 = _lll_stack(W, None)
    return _shortest(W, mu, norms2)[0]


def reduce_at(curve: Curve, x: float, params: ApproxParams) -> LatticeReduction:
    """``reduce`` of the scaled curve lattice g^{-1} G(x) Z^{n+1}, as a stack of one."""
    return reduce(curve_lattice_bases(curve, [x], params))[0]


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
    W, U, mu, norms2 = lll_reduce(B)
    dim = B.shape[1]
    # every minimum is attained inside the ball that contains the basis itself
    S = float(np.max(np.abs(W)))
    owner, T = _ball(mu, norms2, np.array([dim * S * S * (1.0 + 1e-9)]))
    found = sorted((s, tuple(t)) for s, t in zip(_leaf_sups(W, owner, T).tolist(), T.tolist())
                   if s <= S * (1.0 + 1e-12))
    values: list[float] = []
    chosen: list[tuple[int, ...]] = []
    for s, t in found:
        if rank_int(chosen + [t]) > len(chosen):
            chosen.append(t)
            values.append(s)
            if len(chosen) == dim:
                break
    if len(chosen) < dim:
        raise AssertionError("enumeration failed to reach full rank")
    vecs = np.stack([np.dot(U[0], np.array(t, dtype=U.dtype)) for t in chosen], axis=1)
    covol = float(np.prod(np.sqrt(norms2[0])))
    return SuccessiveMinima(values=np.array(values), achieving_vectors=vecs, covolume=covol)
