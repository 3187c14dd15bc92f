import math

import numpy as np
import pytest

import nearcurve as nc
from nearcurve.intlinalg import det_int
from nearcurve.lattice import curve_lattice_basis, lll_reduce, scaling_diagonal
from oracles import brute_svp_sup


def _params(curve, **kw):
    defaults = dict(c=1.0, Q=100.0, psi=0.1, B=(0.0, 1.0))
    defaults.update(kw)
    return nc.ApproxParams.for_curve(curve, **defaults)


def test_approx_params_validation(parabola):
    with pytest.raises(ValueError):
        nc.ApproxParams(c=-1, Q=10, psi=0.5, d=1, m=1, B=(0, 1))
    with pytest.raises(ValueError):
        nc.ApproxParams(c=1, Q=0.5, psi=0.5, d=1, m=1, B=(0, 1))
    with pytest.raises(ValueError):
        nc.ApproxParams(c=1, Q=10, psi=1.5, d=1, m=1, B=(0, 1))
    p = _params(parabola, lam=0.5, gamma=(0.25,))
    assert p.theta == ((0.5,), (0.25,))
    assert p.n == 2


def test_build_G_parabola_example(parabola):
    G = nc.build_G(parabola, 0.5)
    assert G.tolist() == [[-0.25, 1.0, -1.0], [0.5, -1.0, 0.0], [1.0, 0.0, 0.0]]


def test_build_G_veronese_trailing_columns(veronese3, rng):
    for x in rng.uniform(-1, 1, size=5):
        G = nc.build_G(veronese3, float(x))
        assert G[:, 3].tolist() == [0.0, -1.0, 0.0, 0.0]
        assert G[:, 2].tolist() == [-1.0, 0.0, 0.0, 0.0]


def test_det_G_unimodular(rng):
    for curve in (nc.parabola(), nc.veronese(3), nc.resolve_curve("mixed")):
        for x in rng.uniform(0.1, 0.9, size=200):
            G = nc.build_G(curve, float(x))
            assert abs(abs(np.linalg.det(G)) - 1.0) < 1e-9


def test_scaling_examples(parabola):
    p = _params(parabola, c=1.0, Q=100.0, psi=0.1)
    assert np.diag(nc.build_scaling(p)).tolist() == pytest.approx([0.1, 0.1, 100.0])
    ident = _params(parabola, c=1.0, Q=1.0, psi=1.0)
    assert np.allclose(nc.build_scaling(ident), np.eye(3))
    p2 = _params(parabola, c=2.0, Q=7.0, psi=0.37)
    assert np.prod(scaling_diagonal(p2)) == pytest.approx(2.0, rel=1e-12)


def test_build_h(parabola, rng):
    p = _params(parabola, c=1.0, Q=100.0, psi=0.1)
    h = nc.build_h(parabola, 0.5, p)
    expected = np.diag([10.0, 10.0, 0.01]) @ nc.build_G(parabola, 0.5)
    assert np.allclose(h, expected, rtol=1e-12)
    for c in (0.3, 1.0):
        pc = _params(parabola, c=c, Q=250.0, psi=0.2)
        for x in rng.uniform(0.1, 0.9, size=50):
            assert abs(abs(np.linalg.det(nc.build_h(parabola, float(x), pc))) - 1) < 1e-9


def test_monge_frame_general_d():
    from nearcurve.lattice import monge_frame_matrix

    # d = 2, m = 1 patch (x1, x2, x1*x2): jacobian (x2, x1)
    x = (0.3, 0.7)
    G = monge_frame_matrix(x, [0.21], [[0.7, 0.3]])
    assert G.shape == (4, 4)
    assert abs(abs(np.linalg.det(G)) - 1) < 1e-12
    # g_1 = f - x . grad f = 0.21 - (0.3*0.7 + 0.7*0.3)
    assert G[0, 0] == pytest.approx(0.21 - 0.42)


def test_shortest_sup_examples():
    assert nc.shortest_sup(np.eye(3))[0] == pytest.approx(1.0)
    assert nc.shortest_sup(np.diag([2.0, 3.0, 5.0]))[0] == pytest.approx(2.0)
    delta, p = nc.shortest_sup(np.array([[1.0, 0.5], [0.0, 0.5]]))
    assert delta == pytest.approx(0.5)
    assert abs(p).tolist() == [0, 1]


def test_shortest_sup_errors():
    with pytest.raises(ValueError):
        nc.shortest_sup(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        nc.shortest_sup(np.eye(9))


def test_shortest_sup_oracle_equivalence(rng):
    # module-scale version of the acceptance criterion
    done = 0
    while done < 60:
        dim = int(rng.integers(2, 5))
        mat = rng.integers(-5, 6, size=(dim, dim))
        if det_int(mat.tolist()) == 0:
            continue
        delta, vec = nc.shortest_sup(mat.astype(float))
        assert delta == pytest.approx(brute_svp_sup(mat), abs=1e-9)
        attained = float(np.max(np.abs(mat.astype(float) @ np.asarray(vec, dtype=float))))
        assert attained == pytest.approx(delta, abs=1e-9)
        done += 1


def test_shortest_sup_unimodular_invariance(rng):
    U = np.array([[1, 3, 0], [0, 1, 0], [2, 1, 1]])
    assert det_int(U.tolist()) == 1
    for _ in range(20):
        mat = rng.integers(-5, 6, size=(3, 3))
        if det_int(mat.tolist()) == 0:
            continue
        d1, _ = nc.shortest_sup(mat.astype(float))
        d2, _ = nc.shortest_sup((mat @ U).astype(float))
        assert d1 == pytest.approx(d2, rel=1e-9)


def test_shortest_sup_homogeneity(rng):
    mat = np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 4.0], [1.0, 0.0, 1.0]])
    d1, _ = nc.shortest_sup(mat)
    for s in (0.25, 3.0, 17.5):
        ds, _ = nc.shortest_sup(s * mat)
        assert ds == pytest.approx(s * d1, rel=1e-9)


def test_reduced_basis_identity_and_skew():
    rb = nc.reduced_basis(np.eye(3))
    assert rb.max_sup == pytest.approx(1.0)
    assert abs(det_int(rb.preimage.tolist())) == 1
    skew = np.array([[1.0, 0.0], [1e6, 1.0]])  # columns (1, 1e6), (0, 1)
    rb2 = nc.reduced_basis(skew)
    assert np.max(np.abs(rb2.columns), axis=0).tolist() == pytest.approx([1.0, 1.0])


def test_reduced_basis_spans_same_lattice(rng):
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        mat = rng.uniform(-3, 3, size=(dim, dim))
        if abs(np.linalg.det(mat)) < 0.1:
            continue
        rb = nc.reduced_basis(mat)
        assert abs(det_int(rb.preimage.tolist())) == 1
        assert np.allclose(rb.columns, mat @ rb.preimage.astype(float), rtol=1e-9, atol=1e-12)
        gram_in = abs(np.linalg.det(mat.T @ mat))
        gram_out = abs(np.linalg.det(rb.columns.T @ rb.columns))
        assert gram_out == pytest.approx(gram_in, rel=1e-6)


def test_lll_handles_curve_scale_skew(parabola):
    p = _params(parabola, c=1.0, Q=10_000.0, psi=0.3)
    A = curve_lattice_basis(parabola, 0.351, p)
    W, U = lll_reduce(A)
    assert abs(det_int([[int(v) for v in col] for col in zip(*U)])) == 1


def test_lll_max_swaps_guard_warns(caplog):
    skew = np.array([[1.0, 0.0], [1e6, 1.0]])  # needs at least one swap
    with caplog.at_level("WARNING", logger="nearcurve"):
        W, U = lll_reduce(skew, max_swaps=0)
    assert "stopped after 1 swaps in dimension 2" in caplog.text
    assert abs(det_int([list(col) for col in zip(*U)])) == 1


@pytest.mark.parametrize("curve_name", ["parabola", "veronese:3"])
def test_views_agree_with_reduction_record(curve_name):
    curve = nc.resolve_curve(curve_name)
    p = _params(curve, c=0.01, Q=1000.0, psi=0.3, B=(0.1, 0.9))
    for x in (0.2371, 0.5, 0.7093):
        rec = nc.reduce_at(curve, x, p)
        A = curve_lattice_basis(curve, x, p)
        assert np.array_equal(rec.source, A)
        delta, coords = nc.shortest_sup(A)
        assert delta == rec.delta and np.array_equal(coords, rec.coords)
        assert nc.goodset_delta(curve, x, p) == rec.delta
        rb = nc.reduced_basis(A)
        assert np.array_equal(rb.columns, rec.columns)
        assert np.array_equal(rb.preimage, rec.preimage)
        assert float(np.max(np.abs(A @ rec.coords))) == pytest.approx(rec.delta, rel=1e-12)


def test_reduced_basis_takes_any_dimension():
    rb = nc.reduced_basis(np.eye(9))
    assert rb.dim == 9
    assert np.array_equal(rb.columns, np.eye(9)) and np.array_equal(rb.preimage, np.eye(9))
    with pytest.raises(ValueError):
        nc.shortest_sup(np.eye(9))


def test_successive_minima_examples():
    sm = nc.successive_minima_sup(np.eye(4))
    assert sm.values.tolist() == pytest.approx([1.0, 1.0, 1.0, 1.0])
    sm2 = nc.successive_minima_sup(np.diag([2.0, 3.0]))
    assert sm2.values.tolist() == pytest.approx([2.0, 3.0])
    lower, prod, upper = sm2.minkowski_bounds()
    assert lower <= prod + 1e-9 and prod <= upper + 1e-9
    with pytest.raises(ValueError):
        nc.successive_minima_sup(np.eye(7))


def test_minkowski_product_on_good_lattice(parabola):
    p = _params(parabola, c=0.01, Q=1000.0, psi=0.3, B=(0.1, 0.9))
    hits = 0
    for x in (0.3371, 0.517, 0.7093):
        A = curve_lattice_basis(parabola, x, p)
        delta, _ = nc.shortest_sup(A)
        if delta < 1.0:
            continue
        sm = nc.successive_minima_sup(A)
        assert sm.values[0] == pytest.approx(delta, rel=1e-9)
        assert p.c * float(np.prod(sm.values)) <= 1.0 + 1e-9
        hits += 1
    assert hits >= 2  # the c = 0.01 good set covers almost all of B

