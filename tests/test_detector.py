import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import detector, lattice
from nearcurve.detector import GOOD_SET_GUARD, detect_witnesses
from nearcurve.errors import PreconditionError
from oracles import curve_delta_oracle, detect_witness_oracle, fraction_coord, verify_witness_oracle


def _params(curve, **kw):
    defaults = dict(c=1.0, Q=1000.0, psi=0.3, B=(0.1, 0.9))
    defaults.update(kw)
    return nc.ApproxParams.for_curve(curve, **defaults)


def _good_grid(curve, params, points=200):
    """The good points of a midpoint grid on params.B, from one stacked reduction.

    Its deltas are ``goodset_delta``'s bit for bit, so this is the grid
    filtered by ``in_good_set``.
    """
    lo, hi = params.B
    xs = lo + (np.arange(points) + 0.5) * (hi - lo) / points
    delta = lattice.shortest_sups(lattice.curve_lattice_bases(curve, xs, params))
    return xs[delta >= 1.0 - GOOD_SET_GUARD].tolist()


def test_derive_constants_examples():
    consts = nc.derive_constants(2, 2.0, 1.0)
    assert consts.K0 == pytest.approx(72.0)
    assert consts.C0 == pytest.approx(432.0)
    assert consts.omega0(10.0) == pytest.approx(90.0)
    assert consts.rho(100.0, 0.1) == pytest.approx(0.432)
    flat = nc.derive_constants(2, 0.0, 1.0)
    assert flat.K0 == pytest.approx(36.0)  # the (1 + M/2c) factor collapses to 1
    assert flat.C0 == pytest.approx(216.0)
    with pytest.raises(ValueError):
        nc.derive_constants(1, 2.0, 1.0)
    with pytest.raises(ValueError):
        nc.derive_constants(2, 2.0, 0.0)
    with pytest.raises(ValueError):
        nc.derive_constants(2, -1.0, 1.0)


def test_corollary_map_examples(parabola):
    consts = nc.derive_constants(2, 2.0, 1.0)
    pt = _params(parabola, c=1.0, Q=1200.0, psi=0.9, B=(0.0, 1.0))
    Q, psi, rho = nc.corollary_map(pt, consts)
    assert Q == pytest.approx(100.0)
    assert psi == pytest.approx(0.9 / 6.0)
    assert 2 * (consts.n + 1) * Q == pytest.approx(1200.0 / 2.0)  # exact algebra
    assert rho == pytest.approx(consts.rho(1200.0, 0.9), rel=1e-12)


def test_corollary_map_rho_identity_random(parabola, rng):
    for _ in range(50):
        c = float(rng.uniform(0.05, 1.0))
        M = float(rng.uniform(0.0, 4.0))
        consts = nc.derive_constants(2, M, c)
        Qt = float(rng.uniform(500, 5000))
        floor = consts.K0 * Qt ** (-1.0)
        psit = float(rng.uniform(min(floor * 1.01, 0.99), 1.0))
        if psit < floor:
            continue
        pt = _params(parabola, c=c, Q=Qt, psi=psit, B=(0.0, 1.0))
        _, _, rho = nc.corollary_map(pt, consts)
        assert rho == pytest.approx(consts.rho(Qt, psit), rel=1e-12)


def test_corollary_map_precondition(parabola):
    consts = nc.derive_constants(2, 2.0, 1.0)
    pt = _params(parabola, c=1.0, Q=1200.0, psi=0.01, B=(0.0, 1.0))
    with pytest.raises(PreconditionError):
        nc.corollary_map(pt, consts)


def test_good_set_against_structural_oracle(parabola, rng):
    # a pinned sample point plus random draws, vs the q-scan oracle
    p = _params(parabola, c=0.01, Q=10_000.0, psi=0.3)

    def fvals(x):
        jet = nc.eval_jet(parabola, x, 1)
        return list(jet.values[1:, 0]), list(jet.values[1:, 1])

    for x in [1.0 / 3.0] + [float(v) for v in rng.uniform(0.1, 0.9, size=10)]:
        delta = nc.goodset_delta(parabola, x, p)
        oracle = curve_delta_oracle(fvals, x, 0.01, 10_000.0, 0.3)
        if min(delta, oracle) < 1.2:
            assert delta == pytest.approx(oracle, rel=1e-9)
        assert nc.in_good_set(parabola, x, p) == (delta >= 1 - 1e-9)


def test_good_set_monotone_in_c(parabola, rng):
    # shrinking c scales only the last lattice coordinate up, so delta grows
    for x in rng.uniform(0.1, 0.9, size=25):
        d_small = nc.goodset_delta(parabola, float(x), _params(parabola, c=0.01))
        d_large = nc.goodset_delta(parabola, float(x), _params(parabola, c=0.02))
        assert d_small >= d_large - 1e-9
        if nc.in_good_set(parabola, float(x), _params(parabola, c=0.02)):
            assert nc.in_good_set(parabola, float(x), _params(parabola, c=0.01))


def test_good_set_fraction_large_at_small_c(parabola):
    # kappa = 1/3 level: with a suitable c the bad set occupies under a third
    p = _params(parabola, c=0.01, Q=10_000.0, psi=0.3, B=(0.1, 0.9))
    good = len(_good_grid(parabola, p, points=1000))
    assert good / 1000 >= 2.0 / 3.0


def test_detect_witness_preconditions(parabola):
    p = _params(parabola, c=1.0, Q=1000.0, psi=0.3, B=(0.0, 1.0))
    with pytest.raises(PreconditionError):
        nc.detect_witness(parabola, 0.4, p)  # x = 2/5 is deep inside the bad set
    p_bad_psi = _params(parabola, c=1.0, Q=1000.0, psi=1e-4, B=(0.0, 1.0))
    with pytest.raises(PreconditionError):
        nc.detect_witness(parabola, 0.4, p_bad_psi)
    p_edge = _params(parabola, c=0.01, Q=1000.0, psi=0.3, B=(0.0, 1.0))
    with pytest.raises(PreconditionError):
        nc.detect_witness(parabola, 0.0, p_edge)  # outside the rho-interior


def test_detect_witness_conclusions(parabola):
    # q-range and x-bound of the witness construction at parameters with good points
    p = _params(parabola, c=0.5, Q=1000.0, psi=0.05, B=(0.1, 0.9))
    consts = nc.derive_constants(2, 2.0, 0.5)
    goods = _good_grid(parabola, p)
    assert goods, "expected a nonempty good set at c = 0.5"
    x_limit = (2 + 1) / 0.5 * (0.05 * 1000.0) ** -1.0
    for x in goods[:25]:
        w = nc.detect_witness(parabola, x, p)
        assert 6000 < w.q < 12000
        assert abs(w.q * x - w.a) < x_limit
        rep = nc.verify_witness(w, parabola, x, p, consts)
        assert rep.all_ok
        # the shifted rational point lies within the interior margin of x
        assert abs(rep.point - x) <= consts.interior_rho(1000.0, 0.05) * (1 + 1e-9)


def test_detect_witness_soundness_sweep(parabola):
    for Q in (1000.0, 10_000.0):
        for psi in (0.1, 0.3):
            for lam, gam in ((0.0, (0.0,)), (0.5, (0.5,))):
                p = _params(parabola, c=0.01, Q=Q, psi=psi, B=(0.1, 0.9),
                            lam=lam, gamma=gam)
                consts = nc.derive_constants(2, 2.0, 0.01)
                goods = _good_grid(parabola, p, points=60)
                assert goods
                # every good point carries a witness, all from one kernel call
                for x, w in zip(goods, detect_witnesses(parabola, goods, p)[1]):
                    assert isinstance(w, nc.RationalWitness), (Q, psi, lam, x, w)
                    rep = nc.verify_witness(w, parabola, x, p, consts)
                    assert rep.all_ok, (Q, psi, lam, x, w, rep)


def test_verify_witness_perturbation(parabola):
    # f-limit below 1/2 makes a +1 shift of b a guaranteed failure
    p = _params(parabola, c=0.5, Q=1000.0, psi=0.02, B=(0.1, 0.9))
    consts = nc.derive_constants(2, 2.0, 0.5)
    assert consts.taming_factor() * 0.02 < 0.5
    goods = _good_grid(parabola, p)
    assert goods
    x = goods[len(goods) // 2]
    w = nc.detect_witness(parabola, x, p)
    assert nc.verify_witness(w, parabola, x, p, consts).all_ok
    shifted = nc.RationalWitness(q=w.q, a=w.a, b=(w.b[0] + 1,))
    rep = nc.verify_witness(shifted, parabola, x, p, consts)
    assert not rep.all_ok
    assert rep.q_range_ok  # only the f-inequality broke


def test_detect_witness_veronese_two_coordinates(veronese3):
    # m = 2: both f-inequalities verified, one per coordinate
    p = nc.ApproxParams.for_curve(veronese3, c=0.01, Q=1000.0, psi=0.3,
                                  B=(0.1, 0.9), lam=0.25, gamma=(0.5, 0.75))
    consts = nc.derive_constants(3, 6.0, 0.01)
    goods = _good_grid(veronese3, p, points=80)
    assert goods
    for x in goods[::11]:
        w = nc.detect_witness(veronese3, x, p)
        assert len(w.b) == 2
        rep = nc.verify_witness(w, veronese3, x, p, consts)
        assert rep.all_ok
        assert len(rep.f_bounds) == 2


def _grid_cells(parabola, veronese3):
    """detect.cfg's four cells on parabola and veronese:3, and criterion 05's shifted cells (500 points each)."""
    for curve in (parabola, veronese3):
        for Q in (1000.0, 10_000.0):
            for psi in (0.1, 0.3):
                yield curve, _params(curve, c=0.01, Q=Q, psi=psi, B=(0.1, 0.9))
    for c in (1.0, 0.01):
        for Q in (1000.0, 10_000.0):
            for psi in (0.1, 0.3):
                yield parabola, _params(parabola, c=c, Q=Q, psi=psi, B=(0.0, 1.0),
                                        lam=0.5, gamma=(0.5,))


def test_detect_witnesses_match_the_scalar_oracle(parabola, veronese3, monkeypatch):
    stacks = []
    original = lattice._lll_stack

    def counted(W, *args, **kwargs):
        stacks.append(len(W))
        return original(W, *args, **kwargs)

    monkeypatch.setattr(lattice, "_lll_stack", counted)
    checked = 0
    for curve, p in _grid_cells(parabola, veronese3):
        lo, hi = p.B
        xs = lo + (np.arange(500) + 0.5) * (hi - lo) / 500
        stacks.clear()
        delta, outcomes = detect_witnesses(curve, xs, p)
        rho = nc.derive_constants(p.n, 2.0, p.c).interior_rho(p.Q, p.psi)
        inside = (lo + rho <= xs) & (xs <= hi - rho)
        assert stacks == [np.count_nonzero(inside)]  # one reduction, of the rho-interior points
        records = lattice.reduce(lattice.curve_lattice_bases(curve, xs[inside], p))
        assert np.array_equal(delta[inside], records.delta) and np.isnan(delta[~inside]).all()
        k = 0
        for x, is_inside, outcome in zip(xs.tolist(), inside.tolist(), outcomes):
            rec = records[k] if is_inside else None  # the oracle stops before it needs one
            k += is_inside
            try:
                expected = detect_witness_oracle(curve, x, p, rec)
                checked += 1
            except PreconditionError as exc:
                expected = str(exc)
            assert (outcome if isinstance(outcome, nc.RationalWitness) else str(outcome)) == expected
    assert checked > 5000


@pytest.mark.parametrize("lam, gam", [(0.0, 0.0), (0.5, 0.0), (0.0, 0.5)])
def test_detect_witnesses_q_below_and_at_zero(parabola, monkeypatch, lam, gam):
    """The q < 0 and q = 0 branches, reached through a reduced basis with large entries.

    Each reduction's preimage becomes V = [[1, K, 0], [0, 1, 0], [0, 0, 1]] and
    its columns source @ V: the real reduction right-multiplied by the
    unimodular U^{-1} V, so still a basis of the same lattice.  The witness is
    then V rint(V^{-1} z) for z = w0 (1, x, x^2) - (0, lambda, gamma), whose q is
    w0 - rint(K e) with e = w0 x - lambda - N and N the integer nearest to
    w0 x - lambda; its a is N.
    """
    w0, K = 90, 360  # w0 = 3(n+1)Q at Q = 10
    V = np.array([[1, K, 0], [0, 1, 0], [0, 0, 1]])
    real = lattice.reduce

    def reduce(bases):
        r = real(bases)
        U = np.broadcast_to(V, r.preimage.shape).astype(r.preimage.dtype)
        return dataclasses.replace(r, columns=np.matmul(r.source, V.astype(float)), preimage=U)

    monkeypatch.setattr(detector.lat, "reduce", reduce)
    p = _params(parabola, c=0.3, Q=10.0, psi=0.5, B=(0.1, 0.9), lam=lam, gamma=(gam,))
    for e, q in ((0.25, 0), (0.4, -54), (-0.1, 126)):
        xs = np.array([(N + e + lam) / w0 for N in range(9, 82)])
        delta, outcomes = detect_witnesses(parabola, xs, p)
        good = np.flatnonzero(delta >= 1.0 - GOOD_SET_GUARD)
        assert good.size > 5
        records = lattice.reduce(lattice.curve_lattice_bases(parabola, xs[good], p))
        for k, i in enumerate(good.tolist()):
            x, outcome = float(xs[i]), outcomes[i]
            try:
                expected = detect_witness_oracle(parabola, x, p, records[k])
            except PreconditionError as exc:
                expected = str(exc)
            assert (outcome if isinstance(outcome, nc.RationalWitness) else str(outcome)) == expected
            N = round(w0 * x - lam)
            if q == 0:
                assert expected == "construction collapsed to q = 0"
            elif q < 0 and (lam or gam):
                assert expected == "construction produced q < 0 in an inhomogeneous run"
            else:  # a homogeneous q < 0 is negated whole
                assert (outcome.q, outcome.a) == (abs(q), N if q > 0 else -N)


def test_detect_witness_float_verification_path():
    # the exp coordinate has no exact rational evaluator: float fallback
    mixed = nc.resolve_curve("mixed")
    p = nc.ApproxParams.for_curve(mixed, c=0.01, Q=1000.0, psi=0.3, B=(0.1, 0.9))
    M = nc.second_derivative_bound(mixed, (0.1, 0.9))
    consts = nc.derive_constants(3, M, 0.01)
    goods = _good_grid(mixed, p, points=60)
    assert goods
    w = nc.detect_witness(mixed, goods[0], p)
    rep = nc.verify_witness(w, mixed, goods[0], p, consts)
    assert rep.all_ok


def test_verify_witness_q_range(parabola):
    p = _params(parabola, c=1.0, Q=1000.0, psi=0.3, B=(0.0, 1.0))
    consts = nc.derive_constants(2, 2.0, 1.0)
    w = nc.RationalWitness(q=1000, a=400, b=(160,))
    rep = nc.verify_witness(w, parabola, 0.4, p, consts)
    assert not rep.q_range_ok and not rep.all_ok


def test_witness_validation():
    with pytest.raises(ValueError):
        nc.RationalWitness(q=0, a=1, b=(1,))
    with pytest.raises(ValueError):
        nc.RationalWitness(q=-3, a=1, b=(1,))


def test_verify_witness_exact_arithmetic(parabola):
    # a slack within 1e-13 of the limit must be judged by exact rationals
    p = _params(parabola, c=0.5, Q=1000.0, psi=0.02, B=(0.1, 0.9))
    consts = nc.derive_constants(2, 2.0, 0.5)
    goods = _good_grid(parabola, p)
    x = goods[0]
    w = nc.detect_witness(parabola, x, p)
    rep = nc.verify_witness(w, parabola, x, p, consts)
    val = Fraction(w.q) * (Fraction(w.a) / w.q) ** 2 - w.b[0]
    assert float(abs(val)) == pytest.approx(rep.f_bounds[0][0], rel=1e-12, abs=1e-15)


def _moved(w, q_out):
    """The witness itself, then with b_1, a and q moved; q by q_out = 2(n+1)Q lands above, then below, the range."""
    yield w
    yield nc.RationalWitness(q=w.q, a=w.a, b=(w.b[0] + 1, *w.b[1:]))
    yield nc.RationalWitness(q=w.q, a=w.a + 1, b=w.b)
    yield nc.RationalWitness(q=w.q + q_out, a=w.a, b=w.b)
    yield nc.RationalWitness(q=w.q - q_out, a=w.a, b=w.b)


@pytest.mark.parametrize("name, M, shifts", [
    ("parabola", 2.0, [(0.0, 0.0), (0.1, (0.3,)), (0.25, (0.5,))]),
    ("veronese:3", 6.0, [(0.0, 0.0), (0.1, (0.3,)), (0.25, (0.5, 0.75))]),
    ("poly:1/3,0,2/7", 2.0, [(0.0, 0.0), (0.1, (0.3,))]),
    ("mixed", None, [(0.0, 0.0), (0.1, (0.3,))]),  # the exp coordinate takes the double path
])
def test_verify_witnesses_match_the_fraction_oracle(name, M, shifts):
    # 0.1 and 0.3 are not dyadic: their doubles carry denominators 2^55 and 2^54
    curve = nc.resolve_curve(name)
    consts = nc.derive_constants(curve.n, M or nc.second_derivative_bound(curve, (0.1, 0.9)), 0.01)
    reports = []
    for Q in (1000.0, 10_000.0):
        for psi in (0.1, 0.3):
            for lam, gam in shifts:
                p = _params(curve, c=0.01, Q=Q, psi=psi, lam=lam, gamma=gam)
                xs = (0.1 + (np.arange(120) + 0.5) * 0.8 / 120).tolist()
                pairs = [(v, x) for x, w in zip(xs, detect_witnesses(curve, xs, p)[1])
                         if isinstance(w, nc.RationalWitness) for v in _moved(w, 2 * (curve.n + 1) * int(Q))]
                got = nc.verify_witnesses([w for w, _ in pairs], curve, [x for _, x in pairs], p, consts)
                assert got == [verify_witness_oracle(w, curve, x, p, consts) for w, x in pairs], (Q, psi, lam)
                reports += got
    assert len(reports) > 1000
    assert {r.all_ok for r in reports} == {True, False}
    assert {r.q_range_ok for r in reports} == {True, False}


@pytest.mark.parametrize("family, w, x, gamma", [
    ("x", nc.RationalWitness(q=8192, a=3000, b=(1099,)), (3000 + 3 / 256) / 8192, 0.0),
    ("f", nc.RationalWitness(q=8192, a=3000, b=(1089,)), 3000 / 8192, 81 / 128),
])
def test_verify_witnesses_fail_an_exact_tie(parabola, family, w, x, gamma):
    """A slack equal to its limit as a rational fails that family: the inequalities are strict.

    At c = psi = 1/2 and Q = 1024 the limits are x_limit = 3/256 and
    f_limit = 9.  The x tie has q x - a = 3/256; the f tie has
    q (a/q)^2 - b - gamma = 9000000/8192 - 1089 - 81/128 = 9.
    """
    p = _params(parabola, c=0.5, Q=1024.0, psi=0.5, gamma=(gamma,))
    consts = nc.derive_constants(2, 2.0, 0.5)
    (rep,) = nc.verify_witnesses([w], parabola, [x], p, consts)
    assert rep == verify_witness_oracle(w, parabola, x, p, consts)
    assert rep.x_bounds[1] == 3 / 256 and rep.f_bounds[0][1] == 9.0
    tie, other = (rep.x_bounds, rep.f_bounds[0]) if family == "x" else (rep.f_bounds[0], rep.x_bounds)
    assert tie[0] == tie[1] and other[0] < other[1] and rep.q_range_ok
    assert not rep.all_ok


def _fraction_ys(curve, q, a, theta):
    """q f_j((a + lambda)/q) - gamma_j per coordinate, in ``Fraction``."""
    lam, gam = theta
    x = (a + Fraction(lam)) / q
    return [q * fraction_coord(c, x) - Fraction(g) for c, g in zip(curve.coords, gam)]


def _dyadic_cases(name):
    """Witnesses with gaps exactly 0 and exactly L at lambda = 0, as (theta, limit, (q, a, bs), ok).

    On veronese:7 at q = 64 every y_k = a^k / 64^(k-1) is a double (a^7 < 2^42), so
    gamma_k = y_k - floor(y_k), or that minus L, is exact too.  On poly:0.1,1/3,1,
    y = q/10 + a/3 + a^2/q is 15.5 at (30, 15) and 62 at (120, 60).
    """
    if name == "poly:0.1,1/3,1":
        yield (0.0, (0.5,)), 0.5, (30, 15, (15,)), True
        yield (0.0, (0.0,)), 0.5, (30, 15, (15,)), False
        yield (0.0, (0.0,)), 0.5, (30, 15, (16,)), False
        yield (0.0, (0.0,)), 1e-300, (120, 60, (62,)), True
        return
    for a in (1, 37, 63):
        ys = [Fraction(a**k, 64 ** (k - 1)) for k in range(2, 8)]
        floors = tuple(math.floor(y) for y in ys)
        zero = tuple(float(y - math.floor(y)) for y in ys)
        yield (0.0, zero), 0.25, (64, a, floors), True
        yield (0.0, zero[:3] + (zero[3] - 0.25,) + zero[4:]), 0.25, (64, a, floors), False


@pytest.mark.parametrize("name", ["veronese:7", "poly:0.1,1/3,1"])
def test_near_curve_matches_fraction(name):
    # lambda = 0.1 and gamma = 0.3 carry the denominators 2^55 and 2^54; E = 30 on the poly
    curve = nc.resolve_curve(name)
    m = curve.n - 1
    shift = (0.1, (0.3,) * m)
    rng = np.random.default_rng(20)
    cases = []
    for limit in (0.6, 0.3):
        for _ in range(150):
            q = int(rng.integers(1, 65537))
            a = int(rng.integers(-q, 2 * q))
            bs = tuple(round(y) + int(rng.choice((0, 0, 0, 0, 1, -1))) for y in _fraction_ys(curve, q, a, shift))
            cases.append((shift, limit, (q, a, bs), None))
    edges = list(_dyadic_cases(name))
    seen = set()
    for theta, limit, (q, a, bs), expected in cases + edges:
        P, D, ok, gaps = detector._near_curve(curve, theta, limit)(q, a, bs)
        exact = [abs(y - b) for y, b in zip(_fraction_ys(curve, q, a, theta), bs)]
        assert Fraction(P, D) == (a + Fraction(theta[0])) / q
        assert gaps == [(float(v), limit) for v in exact]
        assert ok == all(v < Fraction(limit) for v in exact)
        if expected is not None:
            assert ok == expected and all(v in (0, Fraction(limit)) for v in exact)
        seen.add(ok)
    assert seen == {True, False}


def _witness_pairs(name, rng):
    """(curve, psi, theta, witness) with b next to the rounded y, and parabola's tie (7875, 6720, 5735).

    The tie's exact gap 3/5 lies above the double 0.6, which its double gap rounds to.
    """
    curve = nc.resolve_curve(name)
    m = curve.n - 1
    if name == "parabola":
        yield curve, 0.6, (0.0, (0.0,)), nc.RationalWitness(q=7875, a=6720, b=(5735,))
    for theta in ((0.0, (0.0,) * m), (0.1, (0.3,) * m)):
        lam, gam = theta
        for _ in range(60):
            q = int(rng.integers(64, 8193))
            a = int(rng.integers(0, q))
            x = (a + lam) / q
            bs = tuple(round(q * float(curve.coord_values(j, x)) - g) + int(rng.integers(-1, 2))
                       for j, g in enumerate(gam, start=1))
            yield curve, 0.6, theta, nc.RationalWitness(q=q, a=a, b=bs)


@pytest.mark.parametrize("name", ["parabola", "veronese:3", "mixed"])
def test_membership_and_verification_agree(name):
    # c = n + 1 and M = 0 make the taming factor 1, so verify_witnesses' f-limit is psi;
    # Q = q / 3(n + 1) puts q mid-range and x = (a + lambda)/q meets the x-limit
    rng = np.random.default_rng(7)
    seen = set()
    for curve, psi, (lam, gam), w in _witness_pairs(name, rng):
        n = curve.n
        consts = nc.derive_constants(n, 0.0, n + 1.0)
        p = _params(curve, c=n + 1.0, Q=w.q / (3 * (n + 1)), psi=psi, B=(0.0, 1.0), lam=lam, gamma=gam)
        (rep,) = nc.verify_witnesses([w], curve, [(w.a + lam) / w.q], p, consts)
        assert rep.q_range_ok and rep.x_bounds[0] < rep.x_bounds[1] and rep.f_bounds[0][1] == psi
        member = nc.counting.witness_in_R(w, curve, w.q, psi, (0.0, 1.0), (lam, gam))
        assert member == rep.all_ok, (w, lam)
        seen.add(member)
    assert seen == {True, False}
