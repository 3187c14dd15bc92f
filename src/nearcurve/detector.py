"""Constructive extraction of near-rational witnesses from good lattice points.

For x in the good set (the scaled curve lattice has no sup-norm vector below
1), a short solve against a reduced basis produces an integer vector
``(q, a, b)`` whose three inequality families are then verified with exact
rational arithmetic wherever the inputs are rational.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import lattice as lat
from .curves import Curve, eval_jet
from .errors import PreconditionError
from .lattice import ApproxParams

log = logging.getLogger("nearcurve")

GOOD_SET_GUARD = 1e-9


@dataclass(frozen=True)
class RationalWitness:
    """Integer triple (q, a, b) certifying a shifted rational point near the curve."""

    q: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("witness denominator q must be positive")

    def point(self, lam: tuple[float, ...]) -> tuple[float, ...]:
        return tuple((ai + li) / self.q for ai, li in zip(self.a, lam))


@dataclass(frozen=True)
class DerivedConstants:
    """The explicit constants K0, C0 and the scale functions built from them."""

    n: int
    d: int
    m: int
    M: float
    c: float
    K0: float
    C0: float

    def omega0(self, Q: float) -> float:
        return 3.0 * (self.n + 1) * Q

    def rho(self, Q: float, psi: float) -> float:
        """Ball radius of the coverage statement at the outer (tilde) scale."""
        return self.C0 * (psi**self.m * Q ** (self.d + 1)) ** (-1.0 / self.d)

    def interior_rho(self, Q: float, psi: float) -> float:
        """Interior margin required of x by the witness construction (inner scale)."""
        return _interior_rho(Q, psi, self.d, self.m, self.c)

    def taming_factor(self) -> float:
        """(1 + M d^2 / 2c)(n+1)/c, the psi-rescaling between the two scales."""
        return _taming_factor(self.n, self.d, self.M, self.c)


@dataclass(frozen=True)
class WitnessReport:
    """Per-inequality slacks of a witness; all_ok only when all hold strictly."""

    q: int
    q_range: tuple[float, float]
    q_range_ok: bool
    x_bounds: tuple[tuple[float, float], ...]  # (value, limit) pairs
    f_bounds: tuple[tuple[float, float], ...]
    all_ok: bool
    point: tuple[float, ...]


def _floor_exponent(d: int, m: int) -> float:
    return (d + 2) / (2 * m + d)


def psi_floor(Q: float, d: int, m: int, K0: float = 1.0) -> float:
    """The admissibility floor K0 Q^{-(d+2)/(2m+d)} of psi.

    K0 = 1 at the inner scale of the witness construction; the derived K0 at
    the outer scale of the counting statements.
    """
    return K0 * Q ** -_floor_exponent(d, m)


def _taming_factor(n: int, d: int, M: float, c: float) -> float:
    return (1.0 + M * d**2 / (2.0 * c)) * (n + 1) / c


def _interior_rho(Q: float, psi: float, d: int, m: int, c: float) -> float:
    return (psi**m * Q ** (d + 1)) ** (-1.0 / d) / (2.0 * c)


def derive_constants(n: int, d: int, m: int, M: float, c: float) -> DerivedConstants:
    """K0 at its minimal allowed value and C0 exactly per its defining formula."""
    if n != d + m:
        raise ValueError("n must equal d + m")
    if min(n, d, m) < 1 or c <= 0:
        raise ValueError("dimensions must be >= 1 and c > 0")
    if M < 0:
        raise ValueError("M must be nonnegative")
    fac = _taming_factor(n, d, M, c)
    K0 = (4.0 * (n + 1)) ** _floor_exponent(d, m) * fac
    C0 = ((4.0 * (n + 1)) ** (d + 1) * fac**m) ** (1.0 / d) / (2.0 * c)
    return DerivedConstants(n=n, d=d, m=m, M=float(M), c=float(c), K0=K0, C0=C0)


def goodset_delta(curve: Curve, x: float, params: ApproxParams) -> float:
    """Shortest sup-norm vector length of the scaled lattice at x."""
    return lat.reduce_at(curve, x, params).delta


def in_good_set(curve: Curve, x: float, params: ApproxParams,
                guard: float = GOOD_SET_GUARD) -> bool:
    """Whether the scaled lattice at x has no nonzero vector of sup-norm < 1.

    Points with |delta - 1| <= guard sit on the membership boundary; callers
    that count good-set measure should treat them separately.
    """
    return goodset_delta(curve, x, params) >= 1.0 - guard


def detect_witness(curve: Curve, x: float, params: ApproxParams,
                   guard: float = GOOD_SET_GUARD,
                   reduction: Optional[lat.LatticeReduction] = None) -> RationalWitness:
    """Construct the integer witness (q, a, b) at a good point x.

    Preconditions: x lies in the rho-interior of params.B, psi is above its
    admissibility floor, and x belongs to the good set.  The construction
    solves for the real coordinates of a shifted target against a reduced
    lattice basis and rounds them to integers (forcing a nonzero vector).
    ``reduction``, when given, must be ``lattice.reduce_at(curve, x, params)``
    or the record of x in a stacked ``lattice.reduce``, and the lattice is not
    reduced again; without it, this call reduces it.

    Sign convention: the target vector is (-w0, lambda - w0 x, gamma - w0 f(x))
    with w0 = 3(n+1)Q, which lands q inside the stated positive range; the
    plus-sign variant would produce q near -3(n+1)Q instead.
    """
    floor = psi_floor(params.Q, params.d, params.m)
    if params.psi < floor * (1 - 1e-12):
        raise PreconditionError(f"psi={params.psi} below the admissibility floor {floor:.3g}")
    rho = _interior_rho(params.Q, params.psi, params.d, params.m, params.c)
    lo, hi = params.B
    if not (lo + rho <= x <= hi - rho):
        raise PreconditionError(f"x={x} outside the rho-interior of B={params.B}")
    if reduction is None:
        reduction = lat.reduce_at(curve, x, params)
    if reduction.delta < 1.0 - guard:
        raise PreconditionError(f"x={x} not in the good set (delta={reduction.delta:.6g})")

    reduction.assert_unimodular()
    inv_c = 1.0 / params.c
    if reduction.max_sup > inv_c * (1 + 1e-9):
        log.debug("reduced basis exceeds 1/c: max sup %.6g > %.6g (witness still attempted)",
                  reduction.max_sup, inv_c)

    n = params.n
    jet = eval_jet(curve, x, 0)
    f_vals = jet.values[1:, 0]
    lam, gam = params.theta
    omega0 = 3.0 * (n + 1) * params.Q
    target_shift = np.concatenate((
        [-omega0],
        np.asarray(lam) - omega0 * np.asarray([x]),
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
        if any(v != 0.0 for v in lam) or any(v != 0.0 for v in gam):
            raise PreconditionError("construction produced q < 0 in an inhomogeneous run")
        p = -p  # exact symmetry of the homogeneous inequalities
        q = int(p[0])
    if q == 0:
        raise PreconditionError("construction collapsed to q = 0")
    return RationalWitness(q=q, a=tuple(int(v) for v in p[1 : 1 + params.d]),
                           b=tuple(int(v) for v in p[1 + params.d :]))


def verify_witness(w: RationalWitness, curve: Curve, x: float, params: ApproxParams,
                   consts: DerivedConstants) -> WitnessReport:
    """Evaluate the three witness inequality families and report their slacks.

    Arithmetic is exact (Fraction) for the q-range and x-inequalities and for
    f-inequalities of coordinates with exact rational evaluators; it falls
    back to double precision otherwise.  Failures are reported, never raised.
    """
    n, d, m = params.n, params.d, params.m
    lam, gam = params.theta
    q_lo = 2.0 * (n + 1) * params.Q
    q_hi = 4.0 * (n + 1) * params.Q
    q_range_ok = q_lo < w.q < q_hi

    x_limit = (n + 1) / params.c * params.x_scale
    f_limit = consts.taming_factor() * params.psi

    xF = Fraction(x)
    x_bounds = []
    x_ok = True
    for i in range(d):
        val = abs(w.q * xF - w.a[i] - Fraction(lam[i]))
        x_ok &= val < Fraction(x_limit)
        x_bounds.append((float(val), x_limit))

    points_exact = [(Fraction(w.a[i]) + Fraction(lam[i])) / w.q for i in range(d)]
    point_float = tuple(float(p) for p in points_exact)
    f_bounds = []
    f_ok = True
    for j in range(1, m + 1):
        exact = curve.exact_coord(j)
        if exact is not None:
            fv = exact(points_exact[0])
            val = abs(w.q * fv - w.b[j - 1] - Fraction(gam[j - 1]))
            f_ok &= val < Fraction(f_limit)
            f_bounds.append((float(val), f_limit))
        else:
            fv = float(curve.coord_values(j, point_float[0]))
            val_f = abs(w.q * fv - w.b[j - 1] - gam[j - 1])
            f_ok &= val_f < f_limit
            f_bounds.append((val_f, f_limit))

    all_ok = bool(q_range_ok and x_ok and f_ok)
    return WitnessReport(q=w.q, q_range=(q_lo, q_hi), q_range_ok=bool(q_range_ok),
                         x_bounds=tuple(x_bounds), f_bounds=tuple(f_bounds),
                         all_ok=all_ok, point=point_float)


def corollary_map(params: ApproxParams, consts: DerivedConstants) -> tuple[float, float, float]:
    """Translate outer (tilde) parameters into the inner (Q, psi, rho) triple.

    Q = Q~/(4(n+1)), psi = psi~ / ((1 + M d^2/2c)(n+1)/c), and rho satisfies
    rho = (1/2c)(psi^m Q^{d+1})^{-1/d} = C0 (psi~^m Q~^{d+1})^{-1/d}.
    """
    n = params.n
    floor = psi_floor(params.Q, params.d, params.m, consts.K0)
    if params.psi < floor * (1 - 1e-12):
        raise PreconditionError(
            f"psi~={params.psi} below K0 * Q~^(-(d+2)/(2m+d)) = {floor:.3g}")
    Q = params.Q / (4.0 * (n + 1))
    psi = params.psi / consts.taming_factor()
    return Q, psi, _interior_rho(Q, psi, params.d, params.m, consts.c)
