from fractions import Fraction

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import jets
from nearcurve.curves import CallableCoordinate, Curve, resolve_curve
from nearcurve.detector import _near_curve


def test_eval_jet_parabola_example(parabola):
    jet = nc.eval_jet(parabola, 0.5, 2)
    assert jet.values.tolist() == [[0.5, 1.0, 0.0], [0.25, 1.0, 2.0]]


def test_eval_jet_zeroth_is_the_point(parabola):
    jet = nc.eval_jet(parabola, 0.3, 0)
    assert jet.values.shape == (2, 1)
    assert jet.point == pytest.approx([0.3, 0.09])


def test_eval_jet_veronese_example(veronese3):
    jet = nc.eval_jet(veronese3, 1.0, 3)
    assert jet.derivative(1).tolist() == [1.0, 2.0, 3.0]
    assert jet.derivative(2).tolist() == [0.0, 2.0, 6.0]
    assert jet.derivative(3).tolist() == [0.0, 0.0, 6.0]


def test_eval_jet_errors(parabola):
    with pytest.raises(ValueError):
        nc.eval_jet(parabola, 99.0, 1)
    with pytest.raises(ValueError):
        nc.eval_jet(parabola, 0.5, parabola.l_max + 1)


def test_first_row_exact_for_builtins(rng):
    curves = [nc.parabola(), nc.veronese(3), nc.veronese(4), resolve_curve("mixed")]
    xs = rng.uniform(-2.0, 2.0, size=1000)
    for curve in curves:
        for x in xs[:250]:
            jet = nc.eval_jet(curve, float(x), 3)
            assert jet.values[0, 0] == float(x)
            assert jet.values[0, 1] == 1.0
            assert jet.values[0, 2] == 0.0 and jet.values[0, 3] == 0.0


def test_nondegeneracy_orders(rng):
    parab = nc.parabola()
    for x in rng.uniform(-3, 3, size=20):
        assert nc.nondegeneracy_order(parab, float(x)) == 2
    for n in (2, 3, 4, 5):
        v = nc.veronese(n)
        for x in rng.uniform(-2, 2, size=5):
            assert nc.nondegeneracy_order(v, float(x)) == n
    line = resolve_curve("poly:1,2")  # (x, 2x + 1) lies in a hyperplane
    assert nc.nondegeneracy_order(line, 0.7, l_max=5) is None


def test_nondegeneracy_locally_constant(rng):
    for curve in (nc.parabola(), nc.veronese(3)):
        for x in rng.uniform(-2, 2, size=50):
            assert nc.nondegeneracy_order(curve, float(x)) == nc.nondegeneracy_order(
                curve, float(x) + 1e-6
            )


def test_second_derivative_bound_examples():
    assert nc.second_derivative_bound(nc.parabola(), (-1, 1), safety=1.0) == pytest.approx(2.0)
    assert nc.second_derivative_bound(nc.veronese(3), (0, 1), safety=1.0) == pytest.approx(6.0)
    affine = resolve_curve("poly:3,0.5")
    assert nc.second_derivative_bound(affine, (-1, 1), safety=1.0) == 0.0
    # default safety inflates the sup estimate
    assert nc.second_derivative_bound(nc.parabola(), (-1, 1)) == pytest.approx(2.1)


def test_second_derivative_bound_errors(parabola):
    with pytest.raises(ValueError):
        nc.second_derivative_bound(parabola, (1.0, 1.0))
    with pytest.raises(ValueError):
        nc.second_derivative_bound(parabola, (0.0, 99.0))


def test_aux_g_examples(parabola):
    assert nc.aux_g(parabola, 0.5) == pytest.approx([-0.25])
    assert nc.aux_g(parabola, 0.0) == pytest.approx([0.0])
    affine = resolve_curve("poly:7,3")
    for x in (-1.0, 0.3, 2.0):
        assert nc.aux_g(affine, x) == pytest.approx([7.0])


def test_aux_g_matches_jet(rng):
    for curve in (nc.parabola(), nc.veronese(4), resolve_curve("mixed")):
        for x in rng.uniform(-2, 2, size=100):
            jet = nc.eval_jet(curve, float(x), 1)
            expected = jet.values[1:, 0] - float(x) * jet.values[1:, 1]
            got = nc.aux_g(curve, float(x))
            assert np.allclose(got, expected, rtol=1e-12, atol=1e-14)


def test_catalog_names():
    assert resolve_curve("parabola").n == 2
    assert resolve_curve("veronese:5").n == 5
    poly = resolve_curve("poly:0,0,1;0,0,0,1")
    assert poly.n == 3
    assert poly.coord_values(2, 2.0) == pytest.approx(8.0)
    assert resolve_curve("mixed").n == 3
    with pytest.raises(ValueError):
        resolve_curve("circle")


def test_poly_exact_evaluation():
    poly = resolve_curve("poly:1,0,0.5")
    exact = 3 * (1 + Fraction(1, 2) * Fraction(1, 9)) - 3  # q f(a/q) - b at (q, a, b) = (3, 1, 3)
    P, D, ok, gaps = _near_curve(poly, (0.0, (0.0,)), 1 / 6)(3, 1, (3,))
    assert Fraction(P, D) == Fraction(1, 3) and gaps == [(float(exact), 1 / 6)]
    assert not ok  # exact = 1/6 lies above the double 1/6 that it rounds to
    assert _near_curve(poly, (0.0, (0.0,)), 0.17)(3, 1, (3,))[2]


def test_user_defined_curve_via_taylor():
    coord = CallableCoordinate(lambda t: t * t * jets.exp(t), label="x^2 e^x")
    curve = Curve(n=2, domain=(-2.0, 2.0), coords=(coord,), label="custom")
    jet = nc.eval_jet(curve, 0.5, 2)
    e = np.exp(0.5)
    assert jet.values[1, 0] == pytest.approx(0.25 * e)
    assert jet.values[1, 1] == pytest.approx((2 * 0.5 + 0.25) * e)
    assert jet.values[1, 2] == pytest.approx((2 + 4 * 0.5 + 0.25) * e)
    assert nc.nondegeneracy_order(curve, 0.5) == 2


def test_curve_invariants():
    with pytest.raises(ValueError):
        Curve(n=3, domain=(0, 1), coords=(nc.parabola().coords[0],), label="bad n")
    with pytest.raises(ValueError):
        Curve(n=2, domain=(1, 0), coords=nc.parabola().coords, label="bad domain")
