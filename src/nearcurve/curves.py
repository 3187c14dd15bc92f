"""Monge-parametrised curves ``x -> (x, f_1(x), ..., f_{n-1}(x))`` with jets.

Built-in curves (parabola, Veronese, polynomial, the mixed ``(x, x^2, e^x)``)
carry closed-form derivatives of every order.  User-defined coordinates are
differentiated with truncated Taylor arithmetic from :mod:`nearcurve.jets`,
so all downstream identities see exact-to-rounding derivatives rather than
finite differences.  A coordinate with ``coeffs`` (exact rationals, low order
first) is the one kind evaluated exactly, by ``detector._near_curve``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from . import jets

DEFAULT_DOMAIN = (-10.0, 10.0)

# Singular values below RANK_RTOL * largest are treated as zero in span tests.
RANK_RTOL = 1e-8


class PolynomialCoordinate:
    """Coordinate function given by polynomial coefficients (low order first).

    ``coeffs`` holds them as exact rationals, which ``detector._near_curve``
    evaluates exactly at rational points.
    """

    def __init__(self, coeffs: Sequence):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._float_coeffs = np.array([float(c) for c in cs], dtype=float)

    def value(self, x):
        return np.polynomial.polynomial.polyval(x, self._float_coeffs)

    def jet(self, x: float, order: int) -> list[float]:
        out = []
        cs = self._float_coeffs
        for k in range(order + 1):
            out.append(float(np.polynomial.polynomial.polyval(x, cs)) if cs.size else 0.0)
            cs = cs[1:] * np.arange(1, cs.size)
        return out


class MonomialCoordinate(PolynomialCoordinate):
    """x^p with the falling-factorial derivative formula."""

    def __init__(self, power: int):
        if power < 1:
            raise ValueError("monomial power must be >= 1")
        self.power = int(power)
        super().__init__([0] * power + [1])

    def value(self, x):
        return np.asarray(x, dtype=float) ** self.power

    def jet(self, x: float, order: int) -> list[float]:
        p = self.power
        out = []
        for k in range(order + 1):
            if k > p:
                out.append(0.0)
            else:
                out.append(math.perm(p, k) * x ** (p - k))
        return out


class ExpCoordinate:
    """e^x; every derivative is e^x.  No coefficients, so no exact evaluation."""

    def value(self, x):
        return np.exp(x)

    def jet(self, x: float, order: int) -> list[float]:
        e = math.exp(x)
        return [e] * (order + 1)


class CallableCoordinate:
    """User-supplied coordinate differentiated by Taylor-mode evaluation.

    ``fn`` must accept a :class:`nearcurve.jets.Taylor` seed (plain arithmetic
    plus the elementary functions exported by :mod:`nearcurve.jets`).
    """

    def __init__(self, fn: Callable, label: str = "f"):
        self.fn = fn
        self.label = label

    def value(self, x):
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.array([jets.derivatives(self.fn, float(v), 0)[0] for v in xs])
        return vals if np.ndim(x) else float(vals[0])

    def jet(self, x: float, order: int) -> list[float]:
        return jets.derivatives(self.fn, x, order)


@dataclass(frozen=True)
class Curve:
    """A curve x -> (x, f_1(x), ..., f_{n-1}(x)) on a closed interval."""

    n: int
    domain: tuple[float, float]
    coords: tuple
    label: str
    l_max: int = 12

    def __post_init__(self):
        if self.n != 1 + len(self.coords):
            raise ValueError("n must equal 1 + number of coordinate functions")
        if self.n < 2:
            raise ValueError("ambient dimension must be at least 2")
        if not self.domain[0] < self.domain[1]:
            raise ValueError("empty domain")

    def contains(self, x: float) -> bool:
        return self.domain[0] <= x <= self.domain[1]

    def coord_values(self, j: int, x):
        """Vectorised value of f_j (1-indexed) at x."""
        return self.coords[j - 1].value(x)


@dataclass(frozen=True)
class Jet:
    """Derivatives of (x, f(x)) at a point: row j holds orders 0..order of coordinate j."""

    order: int
    values: np.ndarray  # shape (n, order + 1)

    @property
    def point(self) -> np.ndarray:
        return self.values[:, 0]

    def derivative(self, k: int) -> np.ndarray:
        return self.values[:, k]


def eval_jet(curve: Curve, x: float, order: int) -> Jet:
    """Derivatives of the full map (x, f(x)) at x, orders 0..order."""
    if not curve.contains(x):
        raise ValueError(f"x={x} outside domain {curve.domain} of {curve.label}")
    if order < 0 or order > curve.l_max:
        raise ValueError(f"order {order} exceeds l_max={curve.l_max}")
    rows = np.zeros((curve.n, order + 1))
    rows[0, 0] = x
    if order >= 1:
        rows[0, 1] = 1.0
    for j, coord in enumerate(curve.coords, start=1):
        rows[j, :] = coord.jet(float(x), order)
    return Jet(order=order, values=rows)


def nondegeneracy_order(curve: Curve, x: float, l_max: Optional[int] = None) -> Optional[int]:
    """Smallest l with span{f'(x), ..., f^(l)(x)} = R^n, or None up to l_max."""
    cap = curve.l_max if l_max is None else min(l_max, curve.l_max)
    jet = eval_jet(curve, x, cap)
    for l in range(1, cap + 1):
        block = jet.values[:, 1 : l + 1].T
        sv = np.linalg.svd(block, compute_uv=False)
        rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv.size and sv[0] > 0 else 0
        if rank == curve.n:
            return l
    return None


def midpoint_grid(lo: float, hi: float, points: int) -> np.ndarray:
    """The midpoints of ``points`` equal cells of [lo, hi]."""
    return lo + (np.arange(points) + 0.5) * ((hi - lo) / points)


def second_derivative_bound(
    curve: Curve,
    interval: tuple[float, float],
    grid: int = 10_000,
    safety: float = 1.05,
) -> float:
    """Grid estimate of max_j sup |f_j''| on the interval, inflated by ``safety``.

    This is an empirical bound, not a certified supremum.
    """
    lo, hi = interval
    if not (lo < hi):
        raise ValueError("empty interval")
    if not (curve.contains(lo) and curve.contains(hi)):
        raise ValueError("interval not contained in curve domain")
    xs = np.linspace(lo, hi, grid)
    worst = 0.0
    for j, coord in enumerate(curve.coords, start=1):
        if isinstance(coord, PolynomialCoordinate):
            cs = coord._float_coeffs
            d2 = cs[2:] * np.arange(2, cs.size) * np.arange(1, cs.size - 1) if cs.size > 2 else np.zeros(1)
            vals = np.abs(np.polynomial.polynomial.polyval(xs, d2)) if d2.size else np.zeros_like(xs)
            worst = max(worst, float(vals.max()))
        elif isinstance(coord, ExpCoordinate):
            worst = max(worst, float(np.exp(xs).max()))
        else:
            worst = max(worst, max(abs(coord.jet(float(v), 2)[2]) for v in xs))
    return worst * safety


def aux_g(curve: Curve, x: float) -> np.ndarray:
    """The auxiliary vector with entries f_j(x) - x * f_j'(x)."""
    jet = eval_jet(curve, x, 1)
    f = jet.values[1:, 0]
    fp = jet.values[1:, 1]
    return f - x * fp


# ---------------------------------------------------------------------------
# curve catalog


def veronese(n: int, domain: tuple[float, float] = DEFAULT_DOMAIN) -> Curve:
    if n < 2:
        raise ValueError("veronese curve needs n >= 2")
    coords = tuple(MonomialCoordinate(p) for p in range(2, n + 1))
    return Curve(n=n, domain=domain, coords=coords, label=f"veronese:{n}")


def parabola(domain: tuple[float, float] = DEFAULT_DOMAIN) -> Curve:
    c = veronese(2, domain)
    return Curve(n=2, domain=domain, coords=c.coords, label="parabola")


def resolve_curve(name: str, domain: tuple[float, float] = DEFAULT_DOMAIN) -> Curve:
    """Resolve catalog names: parabola | veronese:N | poly:c0,c1,..[;..] | mixed."""
    name = name.strip()
    if name == "parabola":
        return parabola(domain)
    if name.startswith("veronese:"):
        return veronese(int(name.split(":", 1)[1]), domain)
    if name.startswith("poly:"):
        spec = name.split(":", 1)[1]
        coord_specs = [part for part in spec.split(";") if part]
        if not coord_specs:
            raise ValueError(f"no coefficients in curve name {name!r}")
        coords = tuple(
            PolynomialCoordinate([Fraction(c) for c in part.split(",")]) for part in coord_specs
        )
        return Curve(n=1 + len(coords), domain=domain, coords=coords, label=name)
    if name == "mixed":
        coords = (MonomialCoordinate(2), ExpCoordinate())
        return Curve(n=3, domain=domain, coords=coords, label="mixed")
    raise ValueError(f"unknown curve name {name!r}")
