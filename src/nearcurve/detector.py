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
from .intlinalg import det_stack
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
    unimodularity of the LLL transforms, whose failure raises AssertionError.
    The real coordinates of the target (-w0, lambda - w0 x, gamma - w0 f(x)),
    w0 = 3(n+1)Q, in the reduced basis are rounded to a nonzero integer t, and
    the witness is U t.  This sign lands q inside the stated positive range;
    the plus-sign variant would produce q near -3(n+1)Q instead.
    """
    delta, _, p, error = _detect(curve, xs, params, guard)
    return delta, [PreconditionError(e) if e else RationalWitness(q=w[0], a=w[1], b=tuple(w[2:]))
                   for w, e in zip(p.tolist(), error.tolist())]


def _detect(curve: Curve, xs: Sequence[float], params: ApproxParams, guard: float):
    """``detect_witnesses`` as arrays ``(delta, good, p, error)``, with no object per x.

    ``good`` marks the x in the good set, row i of ``p`` (N, n + 1) is x_i's
    witness (q, a, b) with q > 0, and ``error[i]`` the text of its
    ``PreconditionError``, "" where it has a witness.
    """
    xs = np.array(xs, dtype=float)
    n = params.n
    lo, hi = params.B
    rho = _interior_rho(params.Q, params.psi, params.m, params.c)
    interior = (lo + rho <= xs) & (xs <= hi - rho)
    reduction = lat.reduce(lat.curve_lattice_bases(curve, xs[interior], params))
    delta = np.full(len(xs), np.nan)
    delta[interior] = reduction.delta
    good = delta >= 1.0 - guard  # nan outside the interior compares False
    p, error = np.zeros((len(xs), n + 1), reduction.preimage.dtype), np.full(len(xs), "", dtype=object)
    floor = psi_floor(params.Q, params.m)
    if params.psi < floor * (1 - 1e-12):
        error[:] = f"psi={params.psi} below the admissibility floor {floor:.3g}"
        return delta, good, p, error
    error[~interior] = [f"x={x} outside the rho-interior of B={params.B}" for x in xs[~interior].tolist()]
    bad = interior & ~good
    error[bad] = [f"x={x} not in the good set (delta={d:.6g})" for x, d in zip(xs[bad].tolist(), delta[bad].tolist())]
    rows = np.flatnonzero(good[interior])
    B, W, U = reduction.source[rows], reduction.columns[rows], reduction.preimage[rows]
    if not (abs(det_stack(U)) == 1).all():
        raise AssertionError("LLL transform lost unimodularity")
    inv_c, max_sup = 1.0 / params.c, np.abs(W).max(axis=(1, 2))
    for v in max_sup[max_sup > inv_c * (1 + 1e-9)].tolist():
        log.debug("reduced basis exceeds 1/c: max sup %.6g > %.6g (witness still attempted)", v, inv_c)
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
    p[good] = np.matmul(U, t.astype(U.dtype)[:, :, None])[:, :, 0]
    negative = good & (p[:, 0] < 0)
    if any((lam, *gam)):
        error[negative] = "construction produced q < 0 in an inhomogeneous run"
    else:
        p[negative] = -p[negative]  # exact symmetry of the homogeneous inequalities
    error[good & (p[:, 0] == 0)] = "construction collapsed to q = 0"
    return delta, good, p, error


def detect_witness(curve: Curve, x: float, params: ApproxParams,
                   guard: float = GOOD_SET_GUARD) -> RationalWitness:
    """``detect_witnesses`` at one x: its witness, or the ``PreconditionError`` it met, raised."""
    (outcome,) = detect_witnesses(curve, [x], params, guard)[1]
    if isinstance(outcome, PreconditionError):
        raise outcome
    return outcome


def _near_curve(curve: Curve, theta: lat.Shift, limit: float):
    """``test(q, a, b) -> (P, D, ok, gaps)``: is every |q f_j((a + lambda)/q) - gamma_j - b_j| < limit?

    q, a and each b_j are ints, or columns of them (object arrays), decided
    element by element.  lambda, gamma_j and the limit are read as the dyadic
    rationals they hold, and (a + lambda)/q as P/D.  A coordinate with
    ``coeffs`` is decided in ints, by homogeneous Horner over one denominator
    E with gamma_j; any other in doubles at the rounded point, as
    |q f_j - b_j - gamma_j|.  ``gaps`` holds (left side, limit) per j, as
    doubles, the left side correctly rounded.
    """
    l_num, l_den = theta[0].as_integer_ratio()
    L_num, L_den = limit.as_integer_ratio()
    coords = []  # f_j, gamma_j, G = E gamma_j, E and the E c_k high order first (None: double path)
    for coord, g in zip(curve.coords, theta[1]):
        cs, (g_num, g_den) = getattr(coord, "coeffs", None), g.as_integer_ratio()
        E = math.lcm(g_den, *(c.denominator for c in cs or ()))
        C = None if cs is None else [c.numerator * (E // c.denominator) for c in reversed(cs)]
        coords.append((coord, g, g_num * (E // g_den), E, C))

    def test(q, a, bs):
        P, D = a * l_den + l_num, q * l_den
        ok, gaps = True, []
        for (coord, g, G, E, C), b in zip(coords, bs):
            if C is None:
                f = np.asarray(coord.value(np.asarray(P / D, dtype=float)), dtype=float).astype(object)
                gap = abs(q * f - b - g)  # Python floats, as q * float(f) - b - g on one triple
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
    """Every witness's three inequality families at its x, decided exactly, column by column.

    x and the x-limit are read as the dyadic rationals they hold; the f-family
    is ``_near_curve``'s at the taming limit.  Reports round exact values
    correctly.
    """
    p = np.array([(w.q, w.a, *w.b) for w in witnesses], dtype=object).reshape(len(witnesses), params.n + 1)
    q_range, x_limit, q_range_ok, x_gap, gaps, all_ok, point = _verify(p, xs, curve, params, consts)
    x_bounds = zip(x_gap.tolist(), [x_limit] * len(p))
    f_bounds = zip(*(zip(gap.tolist(), [limit] * len(p)) for gap, limit in gaps))
    return [WitnessReport(q, q_range, *fields) for q, *fields in
            zip(p[:, 0].tolist(), q_range_ok.tolist(), x_bounds, f_bounds, all_ok.tolist(), point.tolist())]


def _verify(p: np.ndarray, xs: Sequence[float], curve: Curve, params: ApproxParams, consts: DerivedConstants):
    """``verify_witnesses`` on the columns of witness rows p (N, n + 1) at their xs, in Python ints.

    Returns ``(q_range, x_limit, q_range_ok, x_gap, gaps, all_ok, point)``:
    two constants, then columns, gaps as ``_near_curve`` gives them.
    """
    n = params.n
    q_range = (2.0 * (n + 1) * params.Q, 4.0 * (n + 1) * params.Q)
    x_limit, f_limit = (n + 1) / params.c * params.x_scale, consts.taming_factor() * params.psi
    xl_num, xl_den = x_limit.as_integer_ratio()
    q, a, *bs = np.asarray(p, dtype=object).T
    x_num, x_den = np.array([float(x).as_integer_ratio() for x in xs], dtype=object).reshape(-1, 2).T
    P, D, f_ok, gaps = _near_curve(curve, params.theta, f_limit)(q, a, bs)
    x_top, x_bot = q * abs(x_num * D - P * x_den), x_den * D  # q |x - P/D|
    q_range_ok = (q_range[0] < q) & (q < q_range[1])
    all_ok = q_range_ok & (x_top * xl_den < xl_num * x_bot) & f_ok
    return q_range, x_limit, q_range_ok, x_top / x_bot, gaps, all_ok, P / D


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
