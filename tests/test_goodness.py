import math

import numpy as np
import pytest

import nearcurve as nc
from nearcurve import jets
from nearcurve.goodness import (
    IntegerMultivector,
    MinorSpec,
    ca_good_ratio,
    hodge_dual_basis,
    phi_closed_form,
    phi_minor,
    qnd_bound_check,
    scale_factor,
    skew_gradient,
)
from nearcurve.intlinalg import rank_int


def _full_rank(rng, shape):
    while True:
        G = rng.integers(-3, 4, size=shape)
        if rank_int(G.tolist()) == min(shape):
            return G.astype(np.int64)


def _params(curve, **kw):
    defaults = dict(c=1.0, Q=100.0, psi=0.1, B=(0.0, 1.0))
    defaults.update(kw)
    return nc.ApproxParams.for_curve(curve, **defaults)


# ---------------------------------------------------------------- (C, alpha)


def test_ca_good_monomial_calibration():
    # grid 1e5: below that, single-cell quantisation at the smallest eps
    # inflates the k = 1 ratio on the shortest dyadic pieces
    for k in (1, 2, 3):
        rep = ca_good_ratio(lambda x, k=k: x**k, (-1.0, 1.0), 1.0 / k, grid=100_000)
        assert 0.9 <= rep.empirical_C <= 1.1
        assert rep.grid_size == 100_000


def test_ca_good_convergence_with_grid():
    errs = [abs(ca_good_ratio(lambda x: x**2, (-1.0, 1.0), 0.5, grid=g).empirical_C - 1.0)
            for g in (2000, 20_000, 200_000)]
    assert errs[2] <= errs[0] + 1e-9


def test_ca_good_constant_and_linear():
    rep = ca_good_ratio(lambda x: np.ones_like(x), (0.0, 1.0), 1.0, grid=2000)
    assert rep.empirical_C == 0.0
    rep = ca_good_ratio(lambda x: x, (0.0, 1.0), 1.0, grid=10_000, eps_grid=[0.25])
    assert rep.empirical_C == pytest.approx(1.0, abs=0.02)
    assert rep.worst_epsilon == 0.25


def test_ca_good_modulus_correction_is_conservative():
    plain = ca_good_ratio(lambda x: x, (0.0, 1.0), 1.0, grid=5000, eps_grid=[0.25])
    padded = ca_good_ratio(lambda x: x, (0.0, 1.0), 1.0, grid=5000, eps_grid=[0.25],
                           deriv_bound=1.0)
    assert padded.empirical_C >= plain.empirical_C


def test_ca_good_validation():
    with pytest.raises(ValueError):
        ca_good_ratio(lambda x: x, (0.0, 1.0), 1.0, grid=10)
    with pytest.raises(ValueError):
        ca_good_ratio(lambda x: x, (1.0, 1.0), 1.0)


# ------------------------------------------------------------ skew gradient


def test_skew_gradient_examples():
    assert skew_gradient(lambda t: t, lambda t: t * t, 3.0) == pytest.approx(9.0)
    f = lambda t: t * t + 1
    assert skew_gradient(f, f, 1.7) == pytest.approx(0.0)
    a = skew_gradient(lambda t: t, lambda t: jets.exp(t), 0.4)
    b = skew_gradient(lambda t: jets.exp(t), lambda t: t, 0.4)
    assert a == pytest.approx(-b)


def test_skew_gradient_scalar_multiples(rng):
    g1 = lambda t: t * t - 2
    g2 = lambda t: t * t * t
    base = skew_gradient(g1, g2, 1.3)
    for s in rng.uniform(-3, 3, size=5):
        scaled = skew_gradient(lambda t: float(s) * (t * t - 2), g2, 1.3)
        assert scaled == pytest.approx(float(s) * base, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------------- minors


def test_phi_minor_examples(parabola):
    spec = MinorSpec(I=(1, 2), Gamma=np.array([[1, 0], [0, 1], [0, 0]]))
    assert phi_minor(parabola, 0.5, spec) == pytest.approx(-0.25)
    degenerate = MinorSpec(I=(1, 2), Gamma=np.array([[1, 1], [2, 2], [0, 0]]))
    assert phi_minor(parabola, 0.3, degenerate) == pytest.approx(0.0)
    const = MinorSpec(I=(2, 3), Gamma=np.array([[1, 0], [0, 1], [0, 0]]))
    assert phi_minor(parabola, 0.5, const) == pytest.approx(1.0)
    assert phi_minor(parabola, 0.17, const) == pytest.approx(1.0)


def test_minor_spec_validation():
    with pytest.raises(ValueError):
        MinorSpec(I=(1, 2, 3), Gamma=np.eye(3, 2))
    with pytest.raises(ValueError):
        MinorSpec(I=(0, 1), Gamma=np.eye(3, 2))
    with pytest.raises(ValueError):
        MinorSpec(I=(1, 4), Gamma=np.eye(3, 2))


def test_phi_minor_dimension_mismatch(veronese3):
    spec = MinorSpec(I=(1, 2), Gamma=np.array([[1, 0], [0, 1], [0, 0]]))
    with pytest.raises(ValueError):
        phi_minor(veronese3, 0.5, spec)


# -------------------------------------------------------------- hodge duals


def test_hodge_dual_coordinate_plane():
    dual = hodge_dual_basis(np.array([[1, 0], [0, 1], [0, 0]]))
    assert dual.shape == (3, 1)
    assert [abs(v) for v in dual[:, 0]] == [0, 0, 1]


def test_hodge_dual_example_111():
    gamma = np.array([[1], [1], [0]])
    dual = hodge_dual_basis(gamma)
    assert dual.shape == (3, 2)
    assert np.all(dual.T @ gamma == 0)
    wedge = IntegerMultivector.from_matrix(dual)
    assert sorted(abs(c) for c in wedge.coords) == [0, 1, 1]
    assert wedge.norm_squared() == 2  # equals |(1,1,0)|^2


def test_hodge_dual_non_primitive_column():
    dual = hodge_dual_basis(np.array([[2], [0], [0]]))
    assert IntegerMultivector.from_matrix(dual).norm_squared() == 4


def test_hodge_dual_rank_deficient():
    with pytest.raises(ValueError):
        hodge_dual_basis(np.array([[1, 2], [1, 2], [0, 0]]))


def test_hodge_norm_and_determinant_identity(parabola, veronese3, rng):
    for curve in (parabola, veronese3):
        n = curve.n
        for _ in range(100):
            r = int(rng.integers(1, n + 1))
            gamma = _full_rank(rng, (n + 1, r))
            dual = hodge_dual_basis(gamma)
            # exact wedge-norm equality in integer arithmetic
            assert (IntegerMultivector.from_matrix(dual).norm_squared()
                    == IntegerMultivector.from_matrix(gamma).norm_squared())
            x = float(rng.uniform(0.1, 0.9))
            I = tuple(sorted(rng.choice(np.arange(1, n + 2), size=r, replace=False).tolist()))
            spec = MinorSpec(I=I, Gamma=gamma)
            direct = abs(phi_minor(curve, x, spec))
            G = nc.build_G(curve, x)
            stacked = np.vstack([G[[i - 1 for i in I], :], dual.T.astype(float)])
            alt = abs(float(np.linalg.det(stacked)))
            assert alt == pytest.approx(direct, rel=1e-9, abs=1e-9)


# -------------------------------------------------------------- closed forms


def test_phi_closed_form_worked_examples(parabola):
    # dual vector (1,2,3): Gamma columns span its orthogonal complement
    gamma = np.array([[2, 3], [-1, 0], [0, -1]])
    spec = MinorSpec(I=(1, 2), Gamma=gamma)
    assert phi_closed_form(parabola, 0.5, spec) == pytest.approx(2.75)
    assert abs(phi_minor(parabola, 0.5, spec)) == pytest.approx(2.75)
    # dual vector (5,1,3) with I = {1, 3}: derivative form |a1 + a2 f'(x)|
    gamma_b = np.array([[1, 0], [-5, 3], [0, -1]])
    spec_b = MinorSpec(I=(1, 3), Gamma=gamma_b)
    assert phi_closed_form(parabola, 0.5, spec_b) == pytest.approx(4.0)
    assert abs(phi_minor(parabola, 0.5, spec_b)) == pytest.approx(4.0)


def test_phi_closed_form_u2_zero_case(parabola):
    # dual plane spanned by (0, u1) and (u0, 0): a multiple of the derivative class
    gamma = np.array([[0], [0], [1]])
    spec = MinorSpec(I=(1,), Gamma=gamma)
    val = phi_closed_form(parabola, 0.5, spec)
    assert val == pytest.approx(abs(phi_minor(parabola, 0.5, spec)))
    assert val == pytest.approx(1.0)  # |u0 * u1 . f'| with u0 = 1, u1 = e1


def test_phi_closed_form_matches_minor(parabola, veronese3, rng):
    for curve in (parabola, veronese3):
        n = curve.n
        cases = [
            (tuple(range(1, n + 1)), n),
            (tuple(range(1, n)) + (n + 1,), n),
            (tuple(range(1, n)), n - 1),
        ]
        for I, r in cases:
            for _ in range(150):
                spec = MinorSpec(I=I, Gamma=_full_rank(rng, (n + 1, r)))
                x = float(rng.uniform(0.05, 0.95))
                direct = abs(phi_minor(curve, x, spec))
                closed = phi_closed_form(curve, x, spec)
                assert closed == pytest.approx(direct, rel=1e-9, abs=1e-9)


def test_phi_closed_form_unsupported_case(veronese3):
    spec = MinorSpec(I=(2, 4), Gamma=np.array([[1, 0], [0, 1], [0, 0], [0, 0]]))
    with pytest.raises(ValueError):
        phi_closed_form(veronese3, 0.5, spec)


# ------------------------------------------------------------- scale factors


def test_scale_factor_cases(parabola):
    p = _params(parabola, c=1.0, Q=100.0, psi=0.1)
    assert scale_factor((1,), p) == pytest.approx(10.0)
    assert scale_factor((2,), p) == pytest.approx(10.0)
    assert scale_factor((2, 3), p) == pytest.approx(0.1)
    assert scale_factor((3,), p) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        scale_factor((0,), p)


def test_scale_factor_h_identity(parabola, veronese3, rng):
    for curve in (parabola, veronese3):
        n = curve.n
        p = _params(curve, c=0.7, Q=320.0, psi=0.23)
        for _ in range(60):
            r = int(rng.integers(1, n + 2))
            gamma = _full_rank(rng, (n + 1, r))
            I = tuple(sorted(rng.choice(np.arange(1, n + 2), size=r, replace=False).tolist()))
            x = float(rng.uniform(0.1, 0.9))
            h = nc.build_h(curve, x, p)
            lhs = abs(float(np.linalg.det(h[[i - 1 for i in I], :] @ gamma)))
            G = nc.build_G(curve, x)
            minor = abs(float(np.linalg.det(G[[i - 1 for i in I], :] @ gamma)))
            rhs = p.c ** (r / (n + 1)) * scale_factor(I, p) * minor
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


# ----------------------------------------------------------------------- QND


def test_qnd_basic_properties(parabola):
    p = _params(parabola, c=1.0, Q=2000.0, psi=0.3, B=(0.1, 0.9))
    eps = (0.3, 0.1, 0.03, 0.0)
    rep = qnd_bound_check(parabola, (0.1, 0.9), p, 1.0 / 3.0, eps, samples=1200)
    by_eps = {e: f for e, f, _ in rep.rows}
    assert by_eps[0.0] == 0.0  # a nonsingular lattice has delta > 0
    fracs = [f for e, f, _ in sorted(rep.rows, key=lambda r: -r[0])]
    assert all(a >= b for a, b in zip(fracs, fracs[1:]))


def test_qnd_ratio_definition(parabola):
    p = _params(parabola, c=1.0, Q=2000.0, psi=0.3, B=(0.1, 0.9))
    rep = qnd_bound_check(parabola, (0.1, 0.9), p, 0.5, (0.2,), samples=400)
    eps, frac, ratio = rep.rows[0]
    assert ratio == pytest.approx(frac / eps**0.5)


def test_qnd_eps_grid_is_read_once(parabola):
    # a generator is used up by the validation; the rows must still cover it
    p = _params(parabola, c=1.0, Q=2000.0, psi=0.3, B=(0.1, 0.9))
    grid = [0.1, 0.05, 0.01]
    reports = [qnd_bound_check(parabola, (0.1, 0.9), p, 1.0 / 3.0, eps, samples=200)
               for eps in (grid, np.array(grid), (e for e in grid))]
    assert len(reports[0].rows) == 3
    assert [e for e, _, _ in reports[0].rows] == grid
    for rep in reports[1:]:
        assert rep.rows == reports[0].rows
        assert repr(rep.slope) == repr(reports[0].slope)


def test_qnd_eps_grid_validation(parabola):
    p = _params(parabola, c=1.0, Q=2000.0, psi=0.3, B=(0.1, 0.9))
    with pytest.raises(ValueError):
        qnd_bound_check(parabola, (0.1, 0.9), p, 0.5, (0.1, 0.2), samples=400)
    with pytest.raises(ValueError):
        qnd_bound_check(parabola, (0.1, 0.9), p, 0.5, (0.1, -0.2), samples=400)
