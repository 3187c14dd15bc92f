"""Sublevel-set goodness, skew gradients, frame-matrix minors and their duals.

The minors det(G_I(x) Gamma) drive the quantitative non-divergence estimate;
this module evaluates them directly, through their closed forms (degree-one
combinations of the curve, its derivative, or a skew gradient), and through
integer Hodge duality, and cross-checks the scale table that turns a minor of
G into the corresponding minor of the scaled matrix h.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import jets
from . import lattice as lat
from .curves import Curve, eval_jet, midpoint_grid
from .intlinalg import gcd_list, kernel_basis_int, maximal_minors, rank_int
from .lattice import ApproxParams


@dataclass(frozen=True)
class MinorSpec:
    """An index set I (1-based rows of G) with an integer coefficient matrix."""

    I: tuple[int, ...]
    Gamma: np.ndarray

    def __post_init__(self):
        I = tuple(sorted(int(i) for i in self.I))
        object.__setattr__(self, "I", I)
        G = np.asarray(self.Gamma, dtype=np.int64)
        object.__setattr__(self, "Gamma", G)
        if G.ndim != 2:
            raise ValueError("Gamma must be a matrix")
        if len(I) != G.shape[1]:
            raise ValueError("|I| must equal the number of Gamma columns")
        if not (1 <= len(I) <= G.shape[0]):
            raise ValueError("need 1 <= |I| <= n+1")
        if min(I) < 1 or max(I) > G.shape[0]:
            raise ValueError("I must be a subset of {1..n+1}")

    @property
    def r(self) -> int:
        return len(self.I)


@dataclass(frozen=True)
class GoodnessReport:
    """Empirical (C, alpha) estimate: the worst sublevel ratio seen on a grid."""

    alpha: float
    empirical_C: float
    grid_size: int
    worst_interval: tuple[float, float]
    worst_epsilon: float


@dataclass(frozen=True)
class IntegerMultivector:
    """Grassmann coordinates (all r x r minors, lex order) of an integer matrix."""

    grade: int
    coords: tuple[int, ...]

    @classmethod
    def from_matrix(cls, mat) -> "IntegerMultivector":
        arr = np.asarray(mat, dtype=np.int64)
        return cls(grade=arr.shape[1], coords=tuple(maximal_minors(arr.tolist())))

    def norm_squared(self) -> int:
        return sum(c * c for c in self.coords)


def ca_good_ratio(f: Callable, interval: tuple[float, float], alpha: float,
                  grid: int = 100_000, depth: int = 5,
                  eps_grid: Optional[Sequence[float]] = None,
                  deriv_bound: Optional[float] = None) -> GoodnessReport:
    """Worst ratio measure{|f| < eps sup|f|} / (eps^alpha |B'|) over dyadic B'.

    Measures are midpoint-grid estimates on a shared master grid, so every
    dyadic subinterval is a contiguous slice.  With ``deriv_bound`` given, the
    count is inflated by one grid cell per threshold crossing, a conservative
    modulus-of-continuity correction.
    """
    if grid < 1000:
        raise ValueError("grid must be >= 1000")
    lo, hi = float(interval[0]), float(interval[1])
    if not lo < hi:
        raise ValueError("empty interval")
    if eps_grid is None:
        eps_grid = np.geomspace(1e-3, 0.5, 12)
    h = (hi - lo) / grid
    xs = midpoint_grid(lo, hi, grid)
    try:
        vals = np.abs(np.asarray(f(xs), dtype=float))
        if vals.shape != xs.shape:
            raise TypeError
    except TypeError:
        vals = np.abs(np.array([float(f(v)) for v in xs]))

    best = 0.0
    worst_iv = (lo, hi)
    worst_eps = float(eps_grid[0])
    for level in range(depth + 1):
        pieces = 1 << level
        bounds = np.linspace(0, grid, pieces + 1).astype(int)
        for p in range(pieces):
            i0, i1 = bounds[p], bounds[p + 1]
            if i1 <= i0:
                continue
            chunk = vals[i0:i1]
            sup = float(chunk.max())
            if sup == 0.0:
                continue  # sublevel sets of the zero sup are empty
            for eps in eps_grid:
                inside = chunk < eps * sup
                cnt = int(np.count_nonzero(inside))
                if deriv_bound is not None and cnt:
                    cnt += int(np.count_nonzero(np.diff(inside)))
                ratio = cnt / (float(eps) ** alpha * (i1 - i0))
                if ratio > best:
                    best = ratio
                    worst_iv = (lo + i0 * h, lo + i1 * h)
                    worst_eps = float(eps)
    return GoodnessReport(alpha=alpha, empirical_C=best, grid_size=grid,
                          worst_interval=worst_iv, worst_epsilon=worst_eps)


def skew_gradient(g1: Callable, g2: Callable, x: float) -> float:
    """g1(x) g2'(x) - g1'(x) g2(x) for jet-evaluable scalar functions."""
    v1, d1 = jets.derivatives(g1, x, 1)
    v2, d2 = jets.derivatives(g2, x, 1)
    return v1 * d2 - d1 * v2


def phi_minor(curve: Curve, x: float, spec: MinorSpec) -> float:
    """det(G_I(x) Gamma): the minor of the frame matrix against Gamma."""
    G = lat.build_G(curve, x)
    if spec.Gamma.shape[0] != curve.n + 1:
        raise ValueError("Gamma must have n+1 rows")
    rows = np.asarray(G, dtype=float)[[i - 1 for i in spec.I], :]
    return float(np.linalg.det(rows @ spec.Gamma))


def hodge_dual_basis(Gamma) -> np.ndarray:
    """Integer basis of the orthogonal-complement lattice with matching wedge norm.

    Returns an (n+1) x (n+1-r) matrix whose columns are orthogonal to every
    column of Gamma and whose Grassmann-coordinate Euclidean norm equals that
    of Gamma exactly (integer arithmetic).  The kernel basis is primitive; one
    vector is scaled by the gcd of Gamma's maximal minors to restore the norm.
    """
    G = np.asarray(Gamma, dtype=np.int64)
    if G.ndim == 1:
        G = G.reshape(-1, 1)
    N, r = G.shape
    if r >= N:
        raise ValueError("Gamma must have fewer columns than rows")
    if rank_int(G.tolist()) != r:
        raise ValueError("Gamma must have full column rank")
    kernel = kernel_basis_int(G.T.tolist())
    if len(kernel) != N - r:
        raise AssertionError("kernel dimension mismatch")
    d = gcd_list(maximal_minors(G.tolist()))
    kernel = [list(vec) for vec in kernel]
    kernel[0] = [d * v for v in kernel[0]]
    dual = np.array(kernel, dtype=np.int64).T
    lhs = IntegerMultivector.from_matrix(dual).norm_squared()
    rhs = IntegerMultivector.from_matrix(G).norm_squared()
    if lhs != rhs:
        raise AssertionError("wedge-norm equality violated")
    return dual


def phi_closed_form(curve: Curve, x: float, spec: MinorSpec) -> float:
    """|phi| via the closed form of the three reducible cases.

    r = n,   I = {1..n}:        |a_0 + x a_1 + sum a_{j+1} f_j(x)|
    r = n,   I = {1..n-1, n+1}: |a_1 + sum a_{k+1} f_k'(x)|
    r = n-1, I = {1..n-1}:      |skew_gradient(u1 . F, u0 + u2 . F)(x)|

    with a (resp. the plane (a1, a2)) the integer Hodge dual of Gamma.
    """
    n = curve.n
    r = spec.r
    jet = eval_jet(curve, x, 1)
    F = jet.values[:, 0]   # (x, f_1, ..., f_{n-1})
    Fp = jet.values[:, 1]  # (1, f_1', ...)
    dual = hodge_dual_basis(spec.Gamma)
    if r == n and spec.I == tuple(range(1, n + 1)):
        a = dual[:, 0].astype(float)
        return abs(a[0] + float(np.dot(a[1:], F)))
    if r == n and spec.I == tuple(range(1, n)) + (n + 1,):
        a = dual[:, 0].astype(float)
        return abs(float(np.dot(a[1:], Fp)))
    if r == n - 1 and spec.I == tuple(range(1, n)):
        a1 = dual[:, 0].astype(float)
        a2 = dual[:, 1].astype(float)
        c1, c2 = a1[0], a2[0]
        if c1 != 0.0 or c2 != 0.0:
            # unimodular change of basis putting a zero in the first slot
            if abs(c2) >= abs(c1):
                a1, a2 = a1 - (c1 / c2) * a2, a2
            else:
                a1, a2 = a2 - (c2 / c1) * a1, a1
        u1 = a1[1:]
        u0, u2 = a2[0], a2[1:]
        g1 = float(np.dot(u1, F))
        g1p = float(np.dot(u1, Fp))
        g2 = u0 + float(np.dot(u2, F))
        g2p = float(np.dot(u2, Fp))
        return abs(g1 * g2p - g1p * g2)
    raise ValueError(f"no closed form for r={r}, I={spec.I} (n={n})")


def scale_factor(I: Sequence[int], params: ApproxParams) -> float:
    """The four-case diagonal factor relating minors of G to minors of h."""
    n = params.n
    idx = set(int(i) for i in I)
    if not idx or min(idx) < 1 or max(idx) > n + 1:
        raise ValueError("I must be a nonempty subset of {1..n+1}")
    r = len(idx)
    psi, Q, c = params.psi, params.Q, params.c
    has_n = n in idx
    has_n1 = (n + 1) in idx
    if not has_n and not has_n1:
        return psi ** (-r)
    if has_n and not has_n1:
        return psi ** (n - r) * Q
    if not has_n and has_n1:
        return 1.0 / (c * psi ** (r - 1) * Q)
    return psi ** (n - r + 1) / c


@dataclass(frozen=True)
class QndReport:
    """Measured bad-set fractions per epsilon with their normalised ratios."""

    rows: tuple[tuple[float, float, float], ...]  # (eps, fraction, fraction/eps^alpha)
    slope: float
    alpha: float
    samples: int


def qnd_bound_check(curve: Curve, B: tuple[float, float], params: ApproxParams,
                    alpha: float, eps_grid: Sequence[float],
                    samples: int = 4000) -> QndReport:
    """Fraction of x in B whose scaled lattice has a vector of sup-norm <= eps.

    The lattices are those of h(x) = c^{1/(n+1)} g^{-1} G(x) on the
    ``samples`` midpoints of B, built as one stack by
    ``lattice.curve_lattice_bases``, and their shortest vectors come from one
    ``lattice.shortest_sups`` of that stack.  Every epsilon row reuses the
    same deltas, so the measured fraction is nonincreasing in shrinking
    epsilon by construction.  ``eps_grid`` may be any iterable of numbers,
    a generator included; it is read once.  The fitted slope uses the
    positive rows only.
    """
    lo, hi = float(B[0]), float(B[1])
    if not lo < hi:
        raise ValueError("empty interval")
    eps_list = [float(e) for e in eps_grid]
    if any(e < 0 for e in eps_list):
        raise ValueError("eps grid entries must be nonnegative")
    if any(a < b for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps grid must be nonincreasing")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    bases = lat.curve_lattice_bases(curve, midpoint_grid(lo, hi, samples), params)
    bases *= params.h_scale  # the stack of h(x)
    deltas = lat.shortest_sups(bases)
    rows = []
    for eps in eps_list:
        frac = float(np.count_nonzero(deltas <= eps)) / samples
        ratio = frac / eps ** alpha if eps > 0 else 0.0
        rows.append((eps, frac, ratio))
    positive = [(e, f) for e, f, _ in rows if f > 0 and e > 0]
    if len(positive) >= 2:
        lx = np.log([e for e, _ in positive])
        ly = np.log([f for _, f in positive])
        slope = float(np.polyfit(lx, ly, 1)[0])
    else:
        slope = float("nan")
    return QndReport(rows=tuple(rows), slope=slope, alpha=alpha, samples=samples)
