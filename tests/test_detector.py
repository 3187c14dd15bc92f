import math
from fractions import Fraction

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import lattice
from nearcurve.detector import GOOD_SET_GUARD, detect_witnesses
from nearcurve.errors import PreconditionError
from oracles import curve_delta_oracle, detect_witness_oracle


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
    consts = nc.derive_constants(2, 1, 1, 2.0, 1.0)
    assert consts.K0 == pytest.approx(72.0)
    assert consts.C0 == pytest.approx(432.0)
    assert consts.omega0(10.0) == pytest.approx(90.0)
    assert consts.rho(100.0, 0.1) == pytest.approx(0.432)
    flat = nc.derive_constants(2, 1, 1, 0.0, 1.0)
    assert flat.K0 == pytest.approx(36.0)  # the (1 + M d^2/2c) factor collapses to 1
    assert flat.C0 == pytest.approx(216.0)
    with pytest.raises(ValueError):
        nc.derive_constants(3, 1, 1, 2.0, 1.0)
    with pytest.raises(ValueError):
        nc.derive_constants(2, 1, 1, 2.0, 0.0)
    with pytest.raises(ValueError):
        nc.derive_constants(2, 1, 1, -1.0, 1.0)


def test_corollary_map_examples(parabola):
    consts = nc.derive_constants(2, 1, 1, 2.0, 1.0)
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
        consts = nc.derive_constants(2, 1, 1, M, c)
        Qt = float(rng.uniform(500, 5000))
        floor = consts.K0 * Qt ** (-1.0)
        psit = float(rng.uniform(min(floor * 1.01, 0.99), 1.0))
        if psit < floor:
            continue
        pt = _params(parabola, c=c, Q=Qt, psi=psit, B=(0.0, 1.0))
        _, _, rho = nc.corollary_map(pt, consts)
        assert rho == pytest.approx(consts.rho(Qt, psit), rel=1e-12)


def test_corollary_map_precondition(parabola):
    consts = nc.derive_constants(2, 1, 1, 2.0, 1.0)
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
    consts = nc.derive_constants(2, 1, 1, 2.0, 0.5)
    goods = _good_grid(parabola, p)
    assert goods, "expected a nonempty good set at c = 0.5"
    x_limit = (2 + 1) / 0.5 * (0.05 * 1000.0) ** -1.0
    for x in goods[:25]:
        w = nc.detect_witness(parabola, x, p)
        assert 6000 < w.q < 12000
        assert abs(w.q * x - w.a[0]) < x_limit
        rep = nc.verify_witness(w, parabola, x, p, consts)
        assert rep.all_ok
        # the shifted rational point lies within the interior margin of x
        assert abs(rep.point[0] - x) <= consts.interior_rho(1000.0, 0.05) * (1 + 1e-9)


def test_detect_witness_soundness_sweep(parabola):
    for Q in (1000.0, 10_000.0):
        for psi in (0.1, 0.3):
            for lam, gam in ((0.0, (0.0,)), (0.5, (0.5,))):
                p = _params(parabola, c=0.01, Q=Q, psi=psi, B=(0.1, 0.9),
                            lam=lam, gamma=gam)
                consts = nc.derive_constants(2, 1, 1, 2.0, 0.01)
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
    consts = nc.derive_constants(2, 1, 1, 2.0, 0.5)
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
    consts = nc.derive_constants(3, 1, 2, 6.0, 0.01)
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
        rho = nc.derive_constants(p.n, 1, p.m, 2.0, p.c).interior_rho(p.Q, p.psi)
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


def test_detect_witness_float_verification_path():
    # the exp coordinate has no exact rational evaluator: float fallback
    mixed = nc.resolve_curve("mixed")
    p = nc.ApproxParams.for_curve(mixed, c=0.01, Q=1000.0, psi=0.3, B=(0.1, 0.9))
    M = nc.second_derivative_bound(mixed, (0.1, 0.9))
    consts = nc.derive_constants(3, 1, 2, M, 0.01)
    goods = _good_grid(mixed, p, points=60)
    assert goods
    w = nc.detect_witness(mixed, goods[0], p)
    rep = nc.verify_witness(w, mixed, goods[0], p, consts)
    assert rep.all_ok


def test_verify_witness_q_range(parabola):
    p = _params(parabola, c=1.0, Q=1000.0, psi=0.3, B=(0.0, 1.0))
    consts = nc.derive_constants(2, 1, 1, 2.0, 1.0)
    w = nc.RationalWitness(q=1000, a=(400,), b=(160,))
    rep = nc.verify_witness(w, parabola, 0.4, p, consts)
    assert not rep.q_range_ok and not rep.all_ok


def test_witness_validation():
    with pytest.raises(ValueError):
        nc.RationalWitness(q=0, a=(1,), b=(1,))
    with pytest.raises(ValueError):
        nc.RationalWitness(q=-3, a=(1,), b=(1,))


def test_verify_witness_exact_arithmetic(parabola):
    # a slack within 1e-13 of the limit must be judged by exact rationals
    p = _params(parabola, c=0.5, Q=1000.0, psi=0.02, B=(0.1, 0.9))
    consts = nc.derive_constants(2, 1, 1, 2.0, 0.5)
    goods = _good_grid(parabola, p)
    x = goods[0]
    w = nc.detect_witness(parabola, x, p)
    rep = nc.verify_witness(w, parabola, x, p, consts)
    val = Fraction(w.q) * (Fraction(w.a[0]) / w.q) ** 2 - w.b[0]
    assert float(abs(val)) == pytest.approx(rep.f_bounds[0][0], rel=1e-12, abs=1e-15)
