"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the PASS lines and
timings as they happen.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import nearcurve as nc
from nearcurve.counting import count_R_psi_sweep, enumerate_R
from nearcurve.detector import GOOD_SET_GUARD, detect_witnesses
from nearcurve.goodness import (
    IntegerMultivector,
    MinorSpec,
    ca_good_ratio,
    hodge_dual_basis,
    phi_closed_form,
    phi_minor,
    qnd_bound_check,
)
from nearcurve.intlinalg import rank_int
from oracles import brute_svp_sup, naive_count_R

Q_SWEEP = (512, 1024, 2048, 4096, 8192)
PSI_SWEEP = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8)


def _report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num:02d} {status} [{elapsed:6.2f}s / {budget:g}s] {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} exceeded its runtime budget"


def _full_rank(rng, shape):
    while True:
        G = rng.integers(-3, 4, size=shape)
        if rank_int(G.tolist()) == min(shape):
            return G.astype(np.int64)


@pytest.fixture(scope="module")
def sweeps():
    """Shared enumeration sweeps for criteria 6 and 7."""
    parab = nc.parabola()
    v3 = nc.veronese(3)
    t0 = time.monotonic()
    q_counts = [enumerate_R(parab, Q, 0.3, (0.0, 1.0), collect=False).count for Q in Q_SWEEP]
    psi_counts = count_R_psi_sweep(parab, 4096, PSI_SWEEP, (0.0, 1.0))
    v3_counts = count_R_psi_sweep(v3, 4096, PSI_SWEEP, (0.0, 1.0))
    return {"elapsed": time.monotonic() - t0, "q": q_counts, "psi": psi_counts,
            "v3": v3_counts}


def test_criterion_01_determinant_invariants():
    t0 = time.monotonic()
    worst = 0.0
    for curve in (nc.parabola(), nc.veronese(3)):
        params = nc.ApproxParams.for_curve(curve, c=0.7, Q=1000.0, psi=0.3, B=(0.1, 0.9))
        xs = 0.1 + (np.arange(1000) + 0.5) * 0.8 / 1000
        for x in xs:
            dG = abs(abs(np.linalg.det(nc.build_G(curve, float(x)))) - 1.0)
            dh = abs(abs(np.linalg.det(nc.build_h(curve, float(x), params))) - 1.0)
            worst = max(worst, dG, dh)
    _report(1, worst < 1e-9, f"|det G|, |det h| within {worst:.2e} of 1 over 2x1000 points",
            time.monotonic() - t0, 1.0)


def test_criterion_02_closed_form_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    worst = 0.0
    draws = 1000
    for curve in (nc.parabola(), nc.veronese(3)):
        n = curve.n
        for I, r in ((tuple(range(1, n + 1)), n),
                     (tuple(range(1, n)) + (n + 1,), n),
                     (tuple(range(1, n)), n - 1)):
            for _ in range(draws):
                spec = MinorSpec(I=I, Gamma=_full_rank(rng, (n + 1, r)))
                x = float(rng.uniform(0.05, 0.95))
                a = abs(phi_minor(curve, x, spec))
                b = phi_closed_form(curve, x, spec)
                worst = max(worst, abs(a - b) / max(1.0, a, b))
    _report(2, worst < 1e-9, f"three closed forms, 2x3x{draws} draws, worst rel err {worst:.2e}",
            time.monotonic() - t0, 5.0)


def test_criterion_03_hodge_duality():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    curves = {3: nc.parabola(), 4: nc.veronese(3), 5: nc.veronese(4)}
    worst = 0.0
    exact_failures = 0
    for k in range(1000):
        dim = int(rng.choice((3, 4, 5)))
        r = int(rng.integers(1, dim))
        gamma = _full_rank(rng, (dim, r))
        dual = hodge_dual_basis(gamma)
        if (IntegerMultivector.from_matrix(dual).norm_squared()
                != IntegerMultivector.from_matrix(gamma).norm_squared()):
            exact_failures += 1
        curve = curves[dim]
        x = float(rng.uniform(0.1, 0.9))
        I = tuple(sorted(rng.choice(np.arange(1, dim + 1), size=r, replace=False).tolist()))
        spec = MinorSpec(I=I, Gamma=gamma)
        direct = abs(phi_minor(curve, x, spec))
        stacked = np.vstack([nc.build_G(curve, x)[[i - 1 for i in I], :], dual.T.astype(float)])
        alt = abs(float(np.linalg.det(stacked)))
        worst = max(worst, abs(alt - direct) / max(1.0, direct, alt))
    ok = exact_failures == 0 and worst < 1e-9
    _report(3, ok, f"1000 duals: wedge norms exact, det identity worst {worst:.2e}",
            time.monotonic() - t0, 10.0)


def test_criterion_04_svp_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(4)
    done = 0
    worst = 0.0
    while done < 200:
        dim = int(rng.integers(2, 5))
        mat = rng.integers(-5, 6, size=(dim, dim))
        if abs(np.linalg.det(mat.astype(float))) < 0.5:
            continue
        delta, _ = nc.shortest_sup(mat.astype(float))
        oracle = brute_svp_sup(mat, box=20)
        worst = max(worst, abs(delta - oracle))
        done += 1
    _report(4, worst < 1e-9, f"200 lattices dim<=4: max |svp - brute| = {worst:.2e}",
            time.monotonic() - t0, 30.0)


def test_criterion_05_detector_soundness():
    t0 = time.monotonic()
    parab = nc.parabola()
    failures = 0
    good_seen = {1.0: 0, 0.01: 0}
    # the stated c = 1 cells (the covolume-1 good set is thin: Minkowski's
    # first theorem caps delta at 1, so membership needs a critical lattice),
    # plus c = 0.01 cells where nearly every grid point carries a witness
    for c in (1.0, 0.01):
        consts = nc.derive_constants(2, 1, 1, 2.0, c)
        for Q in (1000.0, 10_000.0):
            for psi in (0.1, 0.3):
                for lam, gam in ((0.0, (0.0,)), (0.5, (0.5,))):
                    params = nc.ApproxParams.for_curve(parab, c=c, Q=Q, psi=psi,
                                                       B=(0.0, 1.0), lam=lam, gamma=gam)
                    rho = consts.interior_rho(Q, psi)
                    xs = [float(x) for x in (np.arange(500) + 0.5) / 500 if rho <= x <= 1 - rho]
                    # one kernel call per cell; its delta is reduce_at's bit for bit
                    deltas, outcomes = detect_witnesses(parab, xs, params)
                    first = True
                    for x, delta, w in zip(xs, deltas.tolist(), outcomes):
                        if delta < 1.0 - GOOD_SET_GUARD:
                            continue
                        good_seen[c] += 1
                        if not isinstance(w, nc.RationalWitness):
                            failures += 1
                            continue
                        if first:  # the single-point public path, which reduces x itself
                            first = False
                            if not (nc.in_good_set(parab, x, params)
                                    and nc.detect_witness(parab, x, params) == w):
                                failures += 1
                        rep = nc.verify_witness(w, parab, x, params, consts)
                        if not rep.all_ok:
                            failures += 1
    ok = failures == 0 and good_seen[0.01] > 3000
    _report(5, ok, f"good points: c=1 -> {good_seen[1.0]}, c=0.01 -> {good_seen[0.01]}; "
            f"verification failures: {failures}", time.monotonic() - t0, 120.0)


def test_criterion_06_counting_exponents(sweeps):
    t0 = time.monotonic()
    q_fit = nc.scaling_fit(list(zip(Q_SWEEP, sweeps["q"])))
    psi_fit = nc.scaling_fit(list(zip(PSI_SWEEP, sweeps["psi"])))
    v3_fit = nc.scaling_fit(list(zip(PSI_SWEEP, sweeps["v3"])))
    ok = (abs(q_fit.slope - 2.0) <= 0.15 and abs(psi_fit.slope - 1.0) <= 0.2
          and abs(v3_fit.slope - 2.0) <= 0.3)
    _report(6, ok, f"slopes: Q {q_fit.slope:.3f} (2 +- 0.15), psi {psi_fit.slope:.3f} "
            f"(1 +- 0.2), veronese3 psi {v3_fit.slope:.3f} (2 +- 0.3)",
            sweeps["elapsed"] + time.monotonic() - t0, 180.0)


def test_criterion_07_corollary_lower_bound(sweeps):
    t0 = time.monotonic()
    consts2 = nc.derive_constants(2, 1, 1, 2.0, 1.0)
    assert consts2.K0 == 72.0 and consts2.C0 == 432.0
    v3_M = nc.second_derivative_bound(nc.veronese(3), (0.0, 1.0), safety=1.0)
    consts3 = nc.derive_constants(3, 1, 2, v3_M, 1.0)
    checked = 0
    all_ok = True
    for Q, count in zip(Q_SWEEP, sweeps["q"]):
        res = nc.lower_bound_check(count, (0.0, 1.0), consts2.C0, 0.3, Q, 2, consts2.K0)
        if res.in_regime:
            checked += 1
            all_ok &= bool(res.ok)
    for psi, count in zip(PSI_SWEEP, sweeps["psi"]):
        res = nc.lower_bound_check(count, (0.0, 1.0), consts2.C0, psi, 4096, 2, consts2.K0)
        if res.in_regime:
            checked += 1
            all_ok &= bool(res.ok)
    for psi, count in zip(PSI_SWEEP, sweeps["v3"]):
        res = nc.lower_bound_check(count, (0.0, 1.0), consts3.C0, psi, 4096, 3, consts3.K0)
        if res.in_regime:
            checked += 1
            all_ok &= bool(res.ok)
    _report(7, all_ok and checked >= 10,
            f"lower bound holds in all {checked} in-regime cells (K0=72, C0=432 at n=2)",
            time.monotonic() - t0, 1.0)


def test_criterion_08_coverage():
    t0 = time.monotonic()
    parab = nc.parabola()
    res = enumerate_R(parab, 2048, 0.3, (0.0, 1.0))
    rho = 432.0 / (0.3 * 2048.0**2)
    cov = nc.delta_coverage(res, rho, (0.0, 1.0))
    _report(8, cov >= 0.5, f"coverage {cov:.4f} >= 0.5 with rho = {rho:.3e} "
            f"({res.count} witnesses)", time.monotonic() - t0, 60.0)


def test_criterion_09_enumeration_oracle_values():
    t0 = time.monotonic()
    parab = nc.parabola()
    c1 = enumerate_R(parab, 10, 0.5, (0.0, 1.0)).count
    c2 = enumerate_R(parab, 10, 1e-9, (0.0, 1.0)).count
    n1, _ = naive_count_R([lambda x: x * x], 10, 0.5, (0.0, 1.0))
    n2, _ = naive_count_R([lambda x: x * x], 10, 1e-9, (0.0, 1.0))
    ok = (c1, c2, n1, n2) == (41, 13, 41, 13)
    _report(9, ok, f"counts (41, 13) vs naive oracle ({n1}, {n2})",
            time.monotonic() - t0, 1.0)


def test_criterion_10_ca_good_calibration():
    t0 = time.monotonic()
    cs = {}
    for k in (1, 2, 3):
        rep = ca_good_ratio(lambda x, k=k: x**k, (-1.0, 1.0), 1.0 / k, grid=100_000)
        cs[k] = rep.empirical_C
    ok = all(0.9 <= v <= 1.1 for v in cs.values())
    _report(10, ok, "empirical C: " + ", ".join(f"x^{k}: {v:.4f}" for k, v in cs.items()),
            time.monotonic() - t0, 10.0)


def test_criterion_11_qnd_inequality():
    t0 = time.monotonic()
    parab = nc.parabola()
    params = nc.ApproxParams.for_curve(parab, c=1.0, Q=10_000.0, psi=0.3, B=(0.1, 0.9))
    eps = tuple(np.geomspace(0.1, 0.001, 9))
    rep = qnd_bound_check(parab, (0.1, 0.9), params, 1.0 / 3.0, eps, samples=12_000)
    fracs = [f for _, f, _ in rep.rows]
    monotone = all(a >= b for a, b in zip(fracs, fracs[1:]))
    ok = monotone and not math.isnan(rep.slope) and rep.slope >= 0.28
    _report(11, ok, f"bad-set fraction nonincreasing, fitted slope {rep.slope:.3f} >= 0.28 "
            f"(alpha = 1/3)", time.monotonic() - t0, 120.0)


def test_criterion_12_utilities():
    t0 = time.monotonic()
    dim = nc.dim_exponent(2, Fraction(3, 4))
    exact = dim.lower_bound == Fraction(5, 7)
    div = nc.divergence_partial_sum(2.0, 1.0, 2, 100_000)
    near = abs(div.partial_sum - 1.0823) < 1e-3
    _report(12, exact and near and div.verdict == "converges",
            f"dim(2, 3/4) = {dim.lower_bound} exactly; divergence sum "
            f"{div.partial_sum:.6f} ~ zeta(4)", time.monotonic() - t0, 1.0)
