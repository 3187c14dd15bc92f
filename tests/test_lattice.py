import dataclasses
import math

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import lattice
from nearcurve.curves import midpoint_grid
from nearcurve.intlinalg import det_int
from nearcurve.lattice import MAX_SVP_DIM, curve_lattice_bases, lll_reduce, scaling_diagonal
from oracles import brute_svp_sup, dfs_shortest, exact_lll_meets_tie, exact_svp_sup, incremental_lll, naive_gso, naive_lll


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


def test_frame_matrices_match_scalar_jets():
    # every row of the stacked builder is the d = 1 Monge frame of eval_jet's floats
    xs = midpoint_grid(0.1, 0.9, 301).tolist() + [0.0, 0.5, -1.25]
    for curve in (nc.parabola(), nc.veronese(3), nc.veronese(5), nc.resolve_curve("mixed")):
        G = lattice.frame_matrices(curve, xs)
        m = curve.n - 1
        for x, Gx in zip(xs, G):
            jet = nc.eval_jet(curve, x, 1).values
            rows = [[float(jet[j, 0] - jet[j, 1] * x), float(jet[j, 1])] + [-1.0 if k == j else 0.0 for k in range(1, m + 1)]
                    for j in range(1, m + 1)]
            rows += [[x, -1.0] + [0.0] * m, [1.0] + [0.0] * (m + 1)]
            assert Gx.tobytes() == np.array(rows).tobytes(), (curve.label, x)
            assert np.array_equal(nc.build_G(curve, x), Gx)


def test_frame_matrices_domain_check(parabola):
    with pytest.raises(ValueError, match="outside domain"):
        lattice.frame_matrices(parabola, [0.5, 99.0])
    with pytest.raises(ValueError, match="outside domain"):
        nc.build_G(parabola, -10.5)


def test_frame_matrices_l_max_check(parabola):
    # G(x) needs first derivatives: a curve with l_max = 0 has none, as in eval_jet
    flat = dataclasses.replace(parabola, l_max=0)
    for build in (lambda: lattice.frame_matrices(flat, [0.5]), lambda: nc.build_G(flat, 0.5),
                  lambda: nc.eval_jet(flat, 0.5, 1)):
        with pytest.raises(ValueError, match="order 1 exceeds l_max=0"):
            build()


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
    assert np.max(np.abs(rb.columns)) == pytest.approx(1.0)
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
    A = curve_lattice_bases(parabola, [0.351], p)[0]
    run = lll_reduce(A[None])
    assert abs(det_int(run.U[0].tolist())) == 1


def test_lll_max_swaps_guard_warns(caplog):
    skew = np.array([[1.0, 0.0], [1e6, 1.0]])  # needs at least one swap
    with caplog.at_level("WARNING", logger="nearcurve"):
        run = lll_reduce(skew[None], max_swaps=0)
    assert "stopped after 1 swaps in dimension 2" in caplog.text
    assert abs(det_int(run.U[0].tolist())) == 1


@pytest.mark.parametrize("curve_name", ["parabola", "veronese:3"])
def test_views_agree_with_reduction_record(curve_name):
    curve = nc.resolve_curve(curve_name)
    p = _params(curve, c=0.01, Q=1000.0, psi=0.3, B=(0.1, 0.9))
    for x in (0.2371, 0.5, 0.7093):
        rec = nc.reduce_at(curve, x, p)
        A = curve_lattice_bases(curve, [x], p)[0]
        assert np.array_equal(rec.source, A)
        delta, coords = nc.shortest_sup(A)
        assert delta == rec.delta and np.array_equal(coords, rec.coords)
        assert nc.goodset_delta(curve, x, p) == rec.delta
        rb = nc.reduced_basis(A)
        assert np.array_equal(rb.columns, rec.columns)
        assert np.array_equal(rb.preimage, rec.preimage)
        assert float(np.max(np.abs(A @ rec.coords))) == pytest.approx(rec.delta, rel=1e-12)
    # one stack over the same points gives the same records, index by index
    xs = (0.2371, 0.5, 0.7093)
    stacked = lattice.reduce(curve_lattice_bases(curve, xs, p))
    assert len(stacked) == 3
    for i, x in enumerate(xs):
        assert _same_record(stacked[i], nc.reduce_at(curve, x, p))


def _same_record(a, b):
    return (a.dim == b.dim and repr(a.delta) == repr(b.delta)
            and all(np.array_equal(getattr(a, f), getattr(b, f)) and getattr(a, f).dtype == getattr(b, f).dtype
                    for f in ("columns", "preimage", "source", "coords")))


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
        A = curve_lattice_bases(parabola, [x], p)[0]
        delta, _ = nc.shortest_sup(A)
        if delta < 1.0:
            continue
        sm = nc.successive_minima_sup(A)
        assert sm.values[0] == pytest.approx(delta, rel=1e-9)
        assert p.c * float(np.prod(sm.values)) <= 1.0 + 1e-9
        hits += 1
    assert hits >= 2  # the c = 0.01 good set covers almost all of B



def _check_lll_against_naive(A):
    """``lll_reduce`` against ``naive_lll`` on one basis; True when it meets a tie.

    Without an exact tie both take the same steps: the same U and a
    bit-identical W.  At a tie they may part, and the result must still be an
    LLL-reduced basis of the same lattice.
    """
    run = lll_reduce(A[None])
    W, Um = run.W[0], run.U[0]
    if not exact_lll_meets_tie(A):
        W0, U0 = naive_lll(A)
        assert Um.T.tolist() == U0 and W.tobytes() == W0.tobytes(), A.tolist()
        return False
    assert abs(det_int(Um.tolist())) == 1
    assert np.allclose(W, A @ Um.astype(float), rtol=0, atol=1e-9 * np.max(np.abs(A)) * np.max(np.abs(Um)))
    Bs, mu = naive_gso(W)
    norms2 = np.sum(Bs * Bs, axis=0)
    assert np.all(np.abs(np.tril(mu, -1)) <= 0.5 + 1e-6)
    for k in range(1, len(norms2)):
        assert norms2[k] >= (0.99 - 1e-6 - mu[k, k - 1] ** 2) * norms2[k - 1]
    return True


def test_lll_matches_naive_on_curve_bases():
    # the incremental Gram-Schmidt update takes the same steps as a recompute
    # after every swap; the grid holds x = 0.5, where the dyadic entries meet ties
    xs = [0.1 + 0.8 * (i + 0.5) / 19 for i in range(19)]
    checked = ties = 0
    for name in ("parabola", "veronese:3"):
        curve = nc.resolve_curve(name)
        for c in (1.0, 0.01):
            for Q in (1000.0, 10000.0):
                for psi in (0.1, 0.3):
                    p = _params(curve, c=c, Q=Q, psi=psi, B=(0.1, 0.9))
                    for x in xs:
                        ties += _check_lll_against_naive(curve_lattice_bases(curve, [x], p)[0])
                        checked += 1
    assert checked == 304 and ties <= 16


def test_lll_matches_naive_on_integer_bases(rng):
    # dimensions 2..MAX_SVP_DIM; entries in [-3, 3] meet ties often, entries
    # up to 10^6 rarely
    ties = 0
    for dim in range(2, MAX_SVP_DIM + 1):
        for span in (3,) * 8 + (10**6,) * 2:
            A = rng.integers(-span, span + 1, size=(dim, dim))
            while det_int(A.tolist()) == 0:
                A = rng.integers(-span, span + 1, size=(dim, dim))
            ties += _check_lll_against_naive(A.astype(float))
    assert ties > 0


def test_lll_rejects_singular_basis():
    for A in (np.zeros((3, 3)), np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([[1.0, 1.0], [1e-15, 0.0]])):
        with pytest.raises(ValueError, match="singular"):
            lll_reduce(A[None])
        with pytest.raises(ValueError, match="singular"):
            naive_lll(A)


def _assert_same_as_scalar(bases, run, max_swaps=None):
    """``run = lll_reduce(bases)`` against the scalar kernel on each basis: bit-identical W, U, mu, |b*|^2."""
    N, n, _ = bases.shape
    assert run.W.shape == run.U.shape == bases.shape
    assert run.mu.shape == (N, n * (n - 1) // 2) and run.norms2.shape == (N, n)
    for s, A in enumerate(bases):
        W0, U0, mu0, norms0 = incremental_lll(A, max_swaps=max_swaps)
        assert run.W[s].tobytes() == W0.tobytes(), s
        assert run.U[s].T.tolist() == U0, s
        assert run.mu[s].tobytes() == np.array([v for row in mu0 for v in row], dtype=float).tobytes(), s
        assert run.norms2[s].tobytes() == np.array(norms0).tobytes(), s


def _grid_bases(name, c, Q, psi, points, h=False):
    """The bases g^{-1} G(x), or h(x) when ``h``, on the midpoint grid of B = (0.1, 0.9)."""
    curve = nc.resolve_curve(name)
    p = _params(curve, c=c, Q=Q, psi=psi, B=(0.1, 0.9))
    bases = curve_lattice_bases(curve, midpoint_grid(0.1, 0.9, points), p)
    return bases * p.h_scale if h else bases


@pytest.mark.parametrize("name,samples", [("parabola", 8000), ("veronese:3", 3000)])
def test_stacked_lll_matches_scalar_on_qnd_bases(name, samples):
    # every basis of qnd.cfg (parabola, 8000 samples) and of its veronese:3 run
    bases = _grid_bases(name, 1.0, 10000.0, 0.3, samples, h=True)
    _assert_same_as_scalar(bases, lll_reduce(bases))


def test_stacked_lll_matches_scalar_on_detect_cells():
    for Q in (1000.0, 10000.0):
        for psi in (0.1, 0.3):
            bases = _grid_bases("parabola", 0.01, Q, psi, 500)
            _assert_same_as_scalar(bases, lll_reduce(bases))


def test_stacked_lll_matches_scalar_on_integer_bases(rng):
    # one stack per dimension; entries up to 3 and up to 10^6 take different numbers of swaps
    for dim in range(2, MAX_SVP_DIM + 1):
        stack = []
        for span in (3, 10**6) * 15:
            A = rng.integers(-span, span + 1, size=(dim, dim))
            while det_int(A.tolist()) == 0:
                A = rng.integers(-span, span + 1, size=(dim, dim))
            stack.append(A)
        bases = np.array(stack, dtype=float)
        _assert_same_as_scalar(bases, lll_reduce(bases))


def test_stacked_lll_bases_finish_at_different_steps(parabola):
    # the identity needs no swap, the skew basis one, the curve bases several,
    # so each leaves the working set at its own step
    p = _params(parabola, c=1.0, Q=10000.0, psi=0.3)
    skew = np.array([[1.0, 0.0, 0.0], [1e6, 1.0, 0.0], [0.0, 0.0, 1.0]])
    curve = [nc.build_h(parabola, x, p) for x in (0.1234, 0.5, 0.618, 0.8642)]
    bases = np.array([curve[0], np.eye(3), curve[1], skew, curve[2], np.eye(3), curve[3]])
    _assert_same_as_scalar(bases, lll_reduce(bases))


def test_stacked_lll_max_swaps_stops_only_that_basis(parabola, caplog):
    # with max_swaps = 2 the curve basis stops after its third swap; the
    # identity (no swap) and the skew basis (one swap) finish on their own
    p = _params(parabola, c=1.0, Q=10000.0, psi=0.3)
    skew = np.array([[1.0, 0.0, 0.0], [1e6, 1.0, 0.0], [0.0, 0.0, 1.0]])
    bases = np.array([np.eye(3), nc.build_h(parabola, 0.3579, p), skew])
    with caplog.at_level("WARNING", logger="nearcurve"):
        run = lll_reduce(bases, max_swaps=2)
    assert caplog.text.count("lll_reduce stopped") == 1
    assert "stopped after 3 swaps in dimension 3" in caplog.text
    _assert_same_as_scalar(bases, run, max_swaps=2)
    assert np.array_equal(run.U[0], np.eye(3)) and run.U[2].tolist() != np.eye(3).tolist()


def test_transform_reruns_in_python_ints_past_the_bound(monkeypatch):
    bases = _grid_bases("parabola", 1.0, 10000.0, 0.3, 40, h=True)
    expected = lattice.reduce(bases)
    assert expected.preimage.dtype == np.int64
    monkeypatch.setattr(lattice, "_U_BOUND", 4.0)  # every stack whose U outgrows 4 reruns
    run = lll_reduce(bases)
    assert run.U.dtype == object and all(type(v) is int for v in run.U.flat)
    _assert_same_as_scalar(bases, run)
    got = lattice.reduce(bases)
    assert got.delta.tobytes() == expected.delta.tobytes()
    assert got.coords.tolist() == expected.coords.tolist()


@pytest.mark.parametrize("name,samples", [("parabola", 8000), ("veronese:3", 3000)])
def test_shortest_sups_is_reduce_delta_in_place(name, samples):
    # the delta-only pass of qnd: same deltas bit for bit, the stack itself reduced
    bases = _grid_bases(name, 1.0, 10000.0, 0.3, samples, h=True)
    full = lattice.reduce(bases)
    deltas = lattice.shortest_sups(bases)
    assert deltas.tobytes() == full.delta.tobytes()
    assert bases.tobytes() == full.columns.tobytes()


def _random_integer_basis(rng, dim, span):
    A = rng.integers(-span, span + 1, size=(dim, dim))
    while det_int(A.tolist()) == 0:
        A = rng.integers(-span, span + 1, size=(dim, dim))
    return A


def _assert_same_as_dfs(bases):
    """``reduce`` against the recursive search on every basis: bit-identical delta, equal coords."""
    got = lattice.reduce(bases)
    run = lll_reduce(bases)
    for s in range(len(bases)):
        delta, t = dfs_shortest(run.W[s], run.mu[s], run.norms2[s])
        assert got.delta[s].tobytes() == np.float64(delta).tobytes(), s
        assert got.coords[s].tolist() == np.dot(run.U[s], np.array(t, dtype=run.U.dtype)).tolist(), s
    return run


@pytest.mark.parametrize("name,samples", [("parabola", 8000), ("veronese:3", 3000)])
def test_stacked_enumeration_matches_dfs_on_qnd_bases(name, samples):
    run = _assert_same_as_dfs(_grid_bases(name, 1.0, 10000.0, 0.3, samples, h=True))
    # each leaf's sup from the one stacked matmul is its basis's W @ t, bit for bit
    n = run.W.shape[1]
    s0 = np.abs(run.W).max(axis=1).min(axis=1)
    owner, T = lattice._ball(run.mu, run.norms2, n * s0 ** 2 * (1.0 + 1e-12))
    assert len(owner) > 2 * len(run.W)
    expected = [np.max(np.abs(run.W[s] @ t)) for s, t in zip(owner.tolist(), T)]
    assert lattice._leaf_sups(run.W, owner, T).tobytes() == np.array(expected).tobytes()


def test_stacked_enumeration_matches_dfs_on_detect_cells():
    for Q in (1000.0, 10000.0):
        for psi in (0.1, 0.3):
            _assert_same_as_dfs(_grid_bases("parabola", 0.01, Q, psi, 500))


def test_stacked_enumeration_matches_dfs_in_dimensions_2_to_8(rng):
    for dim in range(2, MAX_SVP_DIM + 1):
        ints = [_random_integer_basis(rng, dim, span) for span in (3, 10**6) * 6]
        _assert_same_as_dfs(np.array(ints, dtype=float))
        if dim >= 5:  # veronese:4..7 curve bases
            _assert_same_as_dfs(_grid_bases(f"veronese:{dim - 1}", 1.0, 10000.0, 0.3, 40, h=True))


def test_reduce_finds_the_exact_minimum_in_dimensions_5_to_8(rng):
    # the exact integer oracle reaches dimension 8, where brute_svp_sup's box
    # cannot.  Random bases seldom have a vector shorter than every reduced
    # column, so q-ary bases (columns (1, a) and 10^6 e_i) join them until two
    # per dimension have one, as the oracle's own reduction decides
    for dim in range(5, MAX_SVP_DIM + 1):
        cases = [(A, *exact_svp_sup(A)) for A in (_random_integer_basis(rng, dim, span)
                                                  for span in (3, 3, 10**6, 10**6))]
        shorter = 0
        while shorter < 2:
            A = 10**6 * np.eye(dim, dtype=np.int64)
            A[1:, 0], A[0, 0] = rng.integers(0, 10**6, size=dim - 1), 1
            minimum, vectors = exact_svp_sup(A)
            if minimum < np.abs(naive_lll(A)[0]).max(axis=0).min():
                cases.append((A, minimum, vectors))
                shorter += 1
        for A, minimum, vectors in cases:
            r = lattice.reduce(A[None].astype(float))[0]
            assert r.delta == minimum, A.tolist()
            coords = [int(v) for v in r.coords]
            assert max(abs(sum(int(a) * c for a, c in zip(row, coords))) for row in A.tolist()) == minimum
            assert coords in vectors


def test_empty_stack_gives_empty_results():
    run = lll_reduce(np.empty((0, 3, 3)))
    assert run.W.shape == run.U.shape == (0, 3, 3) and run.mu.shape == run.norms2.shape == (0, 3)
    r = lattice.reduce(np.empty((0, 4, 4)))
    assert len(r) == 0 and r.delta.shape == (0,) and r.coords.shape == (0, 4)
    assert lattice.shortest_sups(np.empty((0, 4, 4))).shape == (0,)
    assert curve_lattice_bases(nc.parabola(), [], _params(nc.parabola())).shape == (0, 3, 3)


def test_lll_takes_only_stacks():
    with pytest.raises(ValueError, match="stack"):
        lll_reduce(np.eye(3))
    with pytest.raises(ValueError, match="stack"):
        lattice.reduce(np.eye(3))


# reduce_at at fixed points with the detect.cfg cells (c = 0.01) and the
# qnd.cfg cell (c = 1): (curve, c, Q, psi, x, repr(delta), coords).  Pinned so
# that an ulp drift in any later lattice kernel change fails here.
GOLDEN_REDUCTIONS = [
    ("parabola", 0.01, 1000.0, 0.1, 0.1234, "1.2800000000000011", [8, 1, 0]),
    ("parabola", 0.01, 1000.0, 0.1, 0.3579, "2.1429373999999983", [14, 5, 2]),
    ("parabola", 0.01, 1000.0, 0.1, 0.618, "2.2000000000000597", [21, 13, 8]),
    ("parabola", 0.01, 1000.0, 0.1, 0.8642, "3.6999999999999744", [15, 13, 11]),
    ("parabola", 0.01, 1000.0, 0.3, 0.1234, "3.3333333333333335", [0, 0, 1]),
    ("parabola", 0.01, 1000.0, 0.3, 0.3579, "3.1799999999997937", [-14, -5, -2]),
    ("parabola", 0.01, 1000.0, 0.3, 0.618, "3.3333333333333335", [0, 0, 1]),
    ("parabola", 0.01, 1000.0, 0.3, 0.8642, "3.3333333333333335", [0, 0, 1]),
    ("parabola", 0.01, 10000.0, 0.1, 0.1234, "3.599999999998687", [154, 19, 2]),
    ("parabola", 0.01, 10000.0, 0.1, 0.3579, "1.6842105000000167", [-95, -34, -12]),
    ("parabola", 0.01, 10000.0, 0.1, 0.618, "2.0", [89, 55, 34]),
    ("parabola", 0.01, 10000.0, 0.1, 0.8642, "1.6199999999999999", [162, 140, 121]),
    ("parabola", 0.01, 10000.0, 0.3, 0.1234, "3.0000000000026716", [-235, -29, -4]),
    ("parabola", 0.01, 10000.0, 0.3, 0.3579, "1.5000000000120508", [-95, -34, -12]),
    ("parabola", 0.01, 10000.0, 0.3, 0.618, "3.3333333333333335", [0, 0, 1]),
    ("parabola", 0.01, 10000.0, 0.3, 0.8642, "1.6199999999999997", [-162, -140, -121]),
    ("parabola", 1.0, 10000.0, 0.3, 0.1234, "0.5", [-5000, -617, -76]),
    ("parabola", 1.0, 10000.0, 0.3, 0.3579, "0.8019000000000001", [8019, 2870, 1027]),
    ("parabola", 1.0, 10000.0, 0.3, 0.618, "0.12666666666653725", [-500, -309, -191]),
    ("parabola", 1.0, 10000.0, 0.3, 0.8642, "0.6939999999966373", [-5000, -4321, -3734]),
    ("veronese:3", 0.01, 1000.0, 0.1, 0.1234, "1.106", [-9, -1, 0, 0]),
    ("veronese:3", 0.01, 1000.0, 0.1, 0.3579, "2.2", [22, 8, 3, 1]),
    ("veronese:3", 0.01, 1000.0, 0.1, 0.618, "1.2460799999999992", [-8, -5, -3, -2]),
    ("veronese:3", 0.01, 1000.0, 0.1, 0.8642, "1.3580000000000005", [1, 1, 1, 1]),
    ("veronese:3", 0.01, 1000.0, 0.3, 0.1234, "1.152000000000001", [8, 1, 0, 0]),
    ("veronese:3", 0.01, 1000.0, 0.3, 0.3579, "1.4000000000000001", [14, 5, 2, 1]),
    ("veronese:3", 0.01, 1000.0, 0.3, 0.618, "2.1000000000000005", [-21, -13, -8, -5]),
    ("veronese:3", 0.01, 1000.0, 0.3, 0.8642, "2.2", [22, 19, 16, 14]),
    ("veronese:3", 0.01, 10000.0, 0.1, 0.1234, "1.2800000000000011", [8, 1, 0, 0]),
    ("veronese:3", 0.01, 10000.0, 0.1, 0.3579, "1.1100000000001273", [109, 39, 14, 5]),
    ("veronese:3", 0.01, 10000.0, 0.1, 0.618, "0.89", [89, 55, 34, 21]),
    ("veronese:3", 0.01, 10000.0, 0.1, 0.8642, "1.2199999999997857", [59, 51, 44, 38]),
    ("veronese:3", 0.01, 10000.0, 0.3, 0.1234, "2.35", [-235, -29, -4, 0]),
    ("veronese:3", 0.01, 10000.0, 0.3, 0.3579, "1.183379491966674", [-95, -34, -12, -4]),
    ("veronese:3", 0.01, 10000.0, 0.3, 0.618, "1.8000000000040473", [-89, -55, -34, -21]),
    ("veronese:3", 0.01, 10000.0, 0.3, 0.8642, "1.6199999999999999", [162, 140, 121, 105]),
    ("veronese:3", 1.0, 10000.0, 0.3, 0.1234, "0.6953", [-6953, -858, -106, -13]),
    ("veronese:3", 1.0, 10000.0, 0.3, 0.3579, "0.5751938535734933", [2076, 743, 266, 95]),
    ("veronese:3", 1.0, 10000.0, 0.3, 0.618, "0.12666666666659765", [-500, -309, -191, -118]),
    ("veronese:3", 1.0, 10000.0, 0.3, 0.8642, "0.6939999999956772", [-5000, -4321, -3734, -3227]),
]


@pytest.mark.parametrize("name,c,Q,psi,x,delta,coords", GOLDEN_REDUCTIONS)
def test_reduce_at_golden_values(name, c, Q, psi, x, delta, coords):
    curve = nc.resolve_curve(name)
    r = nc.reduce_at(curve, x, _params(curve, c=c, Q=Q, psi=psi, B=(0.1, 0.9)))
    assert repr(r.delta) == delta
    assert r.coords.tolist() == coords
