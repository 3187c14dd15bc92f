"""Constructive extraction of near-rational witnesses from good lattice points.

At the good points x of a grid (the scaled curve lattice has no sup-norm
vector below 1), ``detect_witnesses`` solves one stacked system against the
reduced bases for integer vectors ``(q, a, b)``; ``verify_witnesses`` decides
their three inequality families in one integer pass, exactly for polynomials;
its f-family is ``_near_curve``'s, the membership test of the counting half.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import lattice as lat
from .curves import Curve
from .errors import PreconditionError
from .intlinalg import is_unimodular
from .lattice import ApproxParams

log = logging.getLogger("nearcurve")

GOOD_SET_GUARD = 1e-9


@dataclass(frozen=True)
class RationalWitness:
    """Integer triple (q, a, b) certifying a shifted rational point near the curve."""

    q: int
    a: int
    b: tuple[int, ...]

    def __post_init__(self):
        if self.q <= 0:
            raise ValueError("witness denominator q must be positive")


@dataclass(frozen=True)
class DerivedConstants:
    """The explicit constants K0, C0 and the scale functions built from them."""

    n: int
    m: int
    M: float
    c: float
    K0: float
    C0: float

    def omega0(self, Q: float) -> float:
        return 3.0 * (self.n + 1) * Q

    def rho(self, Q: float, psi: float) -> float:
        """Ball radius of the coverage statement at the outer (tilde) scale."""
        return self.C0 * (psi**self.m * Q ** 2) ** -1.0

    def interior_rho(self, Q: float, psi: float) -> float:
        """Interior margin required of x by the witness construction (inner scale)."""
        return _interior_rho(Q, psi, self.m, self.c)

    def taming_factor(self) -> float:
        """(1 + M / 2c)(n+1)/c, the psi-rescaling between the two scales."""
        return _taming_factor(self.n, self.M, self.c)


@dataclass(frozen=True)
class WitnessReport:
    """Per-inequality slacks of a witness; all_ok only when all hold strictly."""

    q: int
    q_range: tuple[float, float]
    q_range_ok: bool
    x_bounds: tuple[float, float]  # (value, limit)
    f_bounds: tuple[tuple[float, float], ...]
    all_ok: bool
    point: float


def _floor_exponent(m: int) -> float:
    return 3 / (2 * m + 1)


def psi_floor(Q: float, m: int, K0: float = 1.0) -> float:
    """The admissibility floor K0 Q^{-3/(2m+1)} of psi.

    K0 = 1 at the inner scale of the witness construction; the derived K0 at
    the outer scale of the counting statements.
    """
    return K0 * Q ** -_floor_exponent(m)


def _taming_factor(n: int, M: float, c: float) -> float:
    return (1.0 + M / (2.0 * c)) * (n + 1) / c


def _interior_rho(Q: float, psi: float, m: int, c: float) -> float:
    return (psi**m * Q ** 2) ** -1.0 / (2.0 * c)


def derive_constants(n: int, M: float, c: float) -> DerivedConstants:
    """K0 at its minimal allowed value and C0 exactly per its defining formula, with m = n - 1."""
    if n < 2 or c <= 0:
        raise ValueError("n must be >= 2 and c > 0")
    if M < 0:
        raise ValueError("M must be nonnegative")
    m = n - 1
    fac = _taming_factor(n, M, c)
    K0 = (4.0 * (n + 1)) ** _floor_exponent(m) * fac
    C0 = (4.0 * (n + 1)) ** 2 * fac**m / (2.0 * c)
    return DerivedConstants(n=n, m=m, M=float(M), c=float(c), K0=K0, C0=C0)


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


def detect_witnesses(curve: Curve, xs: Sequence[float], params: ApproxParams,
                     guard: float = GOOD_SET_GUARD) -> tuple[np.ndarray, list]:
    """The witness (q, a, b) at every x of a grid, from one stacked reduction and one solve.

    Returns ``(delta, outcomes)``: each x's shortest sup-norm vector length
    (nan outside the rho-interior of params.B, where nothing is reduced) and
    its ``RationalWitness`` or the ``PreconditionError`` it met.  The checks,
    in order: psi above its admissibility floor (delta is computed even when
    it is not), x in the rho-interior, x in the good set, and the exact
    unimodularity of the LLL transform, whose failure raises AssertionError.
    The real coordinates of the target (-w0, lambda - w0 x, gamma - w0 f(x)),
    w0 = 3(n+1)Q, in the reduced basis are rounded to a nonzero integer t, and
    the witness is U t.  This sign lands q inside the stated positive range;
    the plus-sign variant would produce q near -3(n+1)Q instead.
    """
    xs = np.array(xs, dtype=float)
    n = params.n
    lo, hi = params.B
    rho = _interior_rho(params.Q, params.psi, params.m, params.c)
    interior = (lo + rho <= xs) & (xs <= hi - rho)
    reduction = lat.reduce(lat.curve_lattice_bases(curve, xs[interior], params))
    delta = np.full(len(xs), np.nan)
    delta[interior] = reduction.delta
    floor = psi_floor(params.Q, params.m)
    if params.psi < floor * (1 - 1e-12):
        return delta, [PreconditionError(f"psi={params.psi} below the admissibility floor {floor:.3g}")
                       for _ in xs]
    good = delta >= 1.0 - guard  # nan outside the interior compares False
    rows = np.flatnonzero(good[interior])
    B, W, U = reduction.source[rows], reduction.columns[rows], reduction.preimage[rows]
    inv_c = 1.0 / params.c
    for u, max_sup in zip(U, np.abs(W).max(axis=(1, 2)).tolist()):
        if not is_unimodular(u.tolist()):
            raise AssertionError("LLL transform lost unimodularity")
        if max_sup > inv_c * (1 + 1e-9):
            log.debug("reduced basis exceeds 1/c: max sup %.6g > %.6g (witness still attempted)",
                      max_sup, inv_c)
    lam, gam = params.theta
    omega0 = 3.0 * (n + 1) * params.Q
    xg = xs[good]
    point = np.ones((len(xg), n + 1))  # (1, x, f(x)) at every good x
    point[:, 1] = xg
    for j, coord in enumerate(curve.coords):
        point[:, 2 + j] = coord.jets(xg, 0)[0]
    target = np.array((0.0, lam, *gam)) - omega0 * point
    eta = np.linalg.solve(W, np.matmul(-B, target[:, :, None]))[:, :, 0]
    t = np.rint(eta).astype(np.int64)
    zero = np.flatnonzero(~t.any(axis=1))
    i_star = np.abs(eta[zero]).argmax(axis=1)
    t[zero, i_star] = np.where(eta[zero, i_star] > 0, 1, -1)
    witnesses = iter(np.matmul(U, t.astype(U.dtype)[:, :, None])[:, :, 0].tolist())
    outcomes = []
    for x, x_delta, inside, x_good in zip(xs.tolist(), delta.tolist(), interior.tolist(), good.tolist()):
        p = next(witnesses) if x_good else None
        if not inside:
            outcomes.append(PreconditionError(f"x={x} outside the rho-interior of B={params.B}"))
        elif not x_good:
            outcomes.append(PreconditionError(f"x={x} not in the good set (delta={x_delta:.6g})"))
        elif p[0] < 0 and any((lam, *gam)):
            outcomes.append(PreconditionError("construction produced q < 0 in an inhomogeneous run"))
        elif p[0] == 0:
            outcomes.append(PreconditionError("construction collapsed to q = 0"))
        else:
            p = p if p[0] > 0 else [-v for v in p]  # exact symmetry of the homogeneous inequalities
            outcomes.append(RationalWitness(q=p[0], a=p[1], b=tuple(p[2:])))
    return delta, outcomes


def detect_witness(curve: Curve, x: float, params: ApproxParams,
                   guard: float = GOOD_SET_GUARD) -> RationalWitness:
    """``detect_witnesses`` at one x: its witness, or the ``PreconditionError`` it met, raised."""
    (outcome,) = detect_witnesses(curve, [x], params, guard)[1]
    if isinstance(outcome, PreconditionError):
        raise outcome
    return outcome


def _near_curve(curve: Curve, theta: lat.Shift, limit: float):
    """``test(q, a, b) -> (P, D, ok, gaps)``: is every |q f_j((a + lambda)/q) - gamma_j - b_j| < limit?

    lambda, gamma_j and the limit are read as the dyadic rationals they hold,
    and (a + lambda)/q as P/D.  A coordinate with ``coeffs`` is decided in ints,
    by homogeneous Horner over one denominator E with gamma_j; any other in
    doubles at the rounded point, as |q f_j - b_j - gamma_j|.  ``gaps`` holds
    (left side, limit) per j, as doubles, the left side correctly rounded.
    """
    l_num, l_den = theta[0].as_integer_ratio()
    L_num, L_den = limit.as_integer_ratio()
    coords = []  # f_j, gamma_j, G = E gamma_j, E and the E c_k high order first (None: double path)
    for coord, g in zip(curve.coords, theta[1]):
        cs, (g_num, g_den) = getattr(coord, "coeffs", None), g.as_integer_ratio()
        E = math.lcm(g_den, *(c.denominator for c in cs or ()))
        C = None if cs is None else [c.numerator * (E // c.denominator) for c in reversed(cs)]
        coords.append((coord, g, g_num * (E // g_den), E, C))

    def test(q: int, a: int, bs: Sequence[int]):
        P, D = a * l_den + l_num, q * l_den
        ok, gaps = True, []
        for (coord, g, G, E, C), b in zip(coords, bs):
            if C is None:
                gap = abs(q * float(coord.value(P / D)) - b - g)
                ok &= gap < limit
            else:
                N, Dk = C[0], 1  # at the end, Dk = D^deg and f_j(P/D) = N / (E Dk)
                for c in C[1:]:
                    Dk *= D
                    N = N * P + c * Dk
                top, bot = abs(q * N - (b * E + G) * Dk), E * Dk
                ok &= top * L_den < L_num * bot
                gap = top / bot
            gaps.append((gap, limit))
        return P, D, ok, gaps

    return test


def verify_witnesses(witnesses: Sequence[RationalWitness], curve: Curve, xs: Sequence[float],
                     params: ApproxParams, consts: DerivedConstants) -> list[WitnessReport]:
    """Every witness's three inequality families at its x, decided in one integer pass.

    x and the x-limit are read as the dyadic rationals they hold; the f-family
    is ``_near_curve``'s at the taming limit.  Reports round exact values
    correctly.
    """
    n = params.n
    q_lo, q_hi = 2.0 * (n + 1) * params.Q, 4.0 * (n + 1) * params.Q
    x_limit, f_limit = (n + 1) / params.c * params.x_scale, consts.taming_factor() * params.psi
    xl_num, xl_den = x_limit.as_integer_ratio()
    near = _near_curve(curve, params.theta, f_limit)
    reports = []
    for w, x in zip(witnesses, xs):
        x_num, x_den = float(x).as_integer_ratio()
        P, D, f_ok, gaps = near(w.q, w.a, w.b)
        x_top, x_bot = w.q * abs(x_num * D - P * x_den), x_den * D  # q |x - P/D|
        q_range_ok = q_lo < w.q < q_hi
        reports.append(WitnessReport(q=w.q, q_range=(q_lo, q_hi), q_range_ok=q_range_ok,
                                     x_bounds=(x_top / x_bot, x_limit), f_bounds=tuple(gaps),
                                     all_ok=q_range_ok and x_top * xl_den < xl_num * x_bot and f_ok,
                                     point=P / D))
    return reports


def verify_witness(w: RationalWitness, curve: Curve, x: float, params: ApproxParams,
                   consts: DerivedConstants) -> WitnessReport:
    """``verify_witnesses`` at one witness: its three inequality families and their slacks."""
    return verify_witnesses([w], curve, [x], params, consts)[0]


def corollary_map(params: ApproxParams, consts: DerivedConstants) -> tuple[float, float, float]:
    """Translate outer (tilde) parameters into the inner (Q, psi, rho) triple.

    Q = Q~/(4(n+1)), psi = psi~ / ((1 + M/2c)(n+1)/c), and rho satisfies
    rho = (1/2c)(psi^m Q^2)^{-1} = C0 (psi~^m Q~^2)^{-1}.
    """
    n = params.n
    floor = psi_floor(params.Q, params.m, consts.K0)
    if params.psi < floor * (1 - 1e-12):
        raise PreconditionError(
            f"psi~={params.psi} below K0 * Q~^(-3/(2m+1)) = {floor:.3g}")
    Q = params.Q / (4.0 * (n + 1))
    psi = params.psi / consts.taming_factor()
    return Q, psi, _interior_rho(Q, psi, params.m, consts.c)
