import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import nearcurve as nc
from nearcurve.config import parse_config_text
from nearcurve.errors import ConfigError
from nearcurve.harness import dim_exponent, divergence_partial_sum, run_experiment

EULER_GAMMA = 0.5772156649015329


def test_dim_exponent_examples():
    res = dim_exponent(2, Fraction(3, 4))
    assert res.lower_bound == Fraction(5, 7)
    assert res.in_range
    assert res.stated_range_empty
    # float 0.75 is exactly 3/4 in binary, so the rational survives
    assert dim_exponent(2, 0.75).lower_bound == Fraction(5, 7)
    out = dim_exponent(2, 1.2)
    assert not out.in_range  # 1.2 >= 3/(2n-1) = 1
    for n in range(2, 11):
        assert dim_exponent(n, Fraction(1, n)).lower_bound == 1
    with pytest.raises(ValueError):
        dim_exponent(1, 0.5)
    with pytest.raises(ValueError):
        dim_exponent(2, 0.0)


def test_divergence_partial_sum_examples():
    harmonic = divergence_partial_sum(0.5, 1.0, 2, 1000)
    assert harmonic.exponent == pytest.approx(-1.0)
    assert harmonic.verdict == "diverges" and harmonic.boundary
    expected_h1000 = math.log(1000.0) + EULER_GAMMA + 1.0 / 2000.0
    assert harmonic.partial_sum == pytest.approx(expected_h1000, abs=1e-6)
    zeta4 = divergence_partial_sum(2.0, 1.0, 2, 100_000)
    assert zeta4.verdict == "converges"
    assert zeta4.partial_sum == pytest.approx(math.pi**4 / 90.0, abs=1e-3)
    with pytest.raises(ValueError):
        divergence_partial_sum(1.0, 1.0, 2, 5)


def test_divergence_verdict_sign_agreement(rng):
    for _ in range(50):
        tau = float(rng.uniform(0.1, 3.0))
        s = float(rng.uniform(0.5, 1.0))
        n = int(rng.integers(2, 5))
        res = divergence_partial_sum(tau, s, n, 50)
        sign = n - (tau + 1) * (s + n - 1) + 1
        assert (res.verdict == "diverges") == (sign >= -1e-12)


def _cfg(text):
    return parse_config_text(text)


def test_run_count_writes_expected_csv(tmp_path):
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0,1
        M = 2
        psi_list = 0.5
        Q_list = 10
        output_dir = {tmp_path}/out
        """
    )
    outcome = run_experiment(cfg, mode="count")
    triples = Path(f"{tmp_path}/out/count_Q10_psi0p5.csv").read_text(encoding="utf-8")
    assert triples.startswith("q,a,b1,x_point,slack_f1\n")
    counts = Path(f"{tmp_path}/out/counts.csv").read_text(encoding="utf-8")
    assert counts.splitlines()[1].startswith("10,0.5,41,8,")
    manifest = json.loads(Path(f"{tmp_path}/out/manifest_count.json").read_text())
    assert manifest["constants"]["K0"] == 72.0
    assert manifest["constants"]["C0"] == 432.0


def test_run_experiment_deterministic(tmp_path):
    # identical config and seed must reproduce every output byte for byte
    text = f"""
    curve = parabola
    B = 0,1
    psi_list = 0.4
    Q_list = 32,64
    seed = 9
    output_dir = {tmp_path}/a
    """
    out1 = run_experiment(_cfg(text), mode="count")
    snapshot = {f: Path(f).read_bytes() for f in out1.files}
    out2 = run_experiment(_cfg(text), mode="count")
    assert sorted(out2.files) == sorted(out1.files)
    for f in out2.files:
        assert Path(f).read_bytes() == snapshot[f]


def test_run_experiment_errors(tmp_path):
    good = f"curve = parabola\noutput_dir = {tmp_path}/x\n"
    with pytest.raises(ConfigError, match="unknown curve"):
        run_experiment(_cfg(good.replace("parabola", "helix")), mode="count")
    with pytest.raises(ConfigError, match="no mode"):
        run_experiment(_cfg(good))
    with pytest.raises(ConfigError, match="conflicts"):
        run_experiment(_cfg(good + "mode = qnd\n"), mode="count")
    with pytest.raises(ConfigError, match="theta.gamma"):
        run_experiment(_cfg(good + "theta.gamma = 0.1,0.2,0.3\n"), mode="count")


def test_run_detect_and_goodset(tmp_path):
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0.1,0.9
        c = 0.01
        M = 2
        psi_list = 0.3
        Q_list = 500
        grid.points = 40
        output_dir = {tmp_path}/d
        """
    )
    outcome = run_experiment(cfg, mode="detect")
    assert outcome.checks_passed is True
    assert outcome.summary["failures"] == 0
    assert outcome.summary["good_points"] > 0
    out2 = run_experiment(cfg, mode="goodset")
    key = "Q=500,psi=0.3"
    assert out2.summary[key]["fraction_good"] > 0.5


def _count_stacks(monkeypatch):
    """Record the stack size of every run of the LLL kernel ``lattice._lll_stack``."""
    sizes = []
    original = nc.lattice._lll_stack

    def counted(W, *args, **kwargs):
        sizes.append(len(W))
        return original(W, *args, **kwargs)

    monkeypatch.setattr(nc.lattice, "_lll_stack", counted)
    return sizes


def test_run_detect_reduces_each_cell_as_one_stack(tmp_path, monkeypatch):
    stacks = _count_stacks(monkeypatch)
    # at Q = 40 the rho-interior drops 4 grid points at each end of B
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0.1,0.9
        c = 0.01
        M = 2
        psi_list = 0.3
        Q_list = 40,1000
        grid.points = 30
        output_dir = {tmp_path}/d
        """
    )
    outcome = run_experiment(cfg, mode="detect")
    assert outcome.summary["good_points"] > 0
    consts = nc.derive_constants(2, 1, 1, 2.0, 0.01)
    xs = 0.1 + (np.arange(30) + 0.5) * (0.8 / 30)
    interior = [int(np.count_nonzero((xs >= 0.1 + rho) & (xs <= 0.9 - rho)))
                for rho in (consts.interior_rho(Q, 0.3) for Q in (40, 1000))]
    assert interior == [22, 30]
    points = sum(len(Path(f).read_text().splitlines()) - 1
                 for f in outcome.files if Path(f).name.startswith("detect_"))
    assert points == sum(interior)
    # one stacked reduction per cell, of its rho-interior points; the witness
    # solves reuse it
    assert stacks == interior


def test_run_detect_cell_with_empty_interior(tmp_path, monkeypatch):
    stacks = _count_stacks(monkeypatch)
    # at Q = 10 the rho-interior (rho = 1/(2 c psi Q^2) = 5/3) holds no grid point
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0.1,0.9
        c = 0.01
        M = 2
        psi_list = 0.3
        Q_list = 10,1000
        grid.points = 30
        output_dir = {tmp_path}/d
        """
    )
    outcome = run_experiment(cfg, mode="detect")
    assert stacks == [0, 30]
    empty = Path(f"{tmp_path}/d/detect_Q10_psi0p3.csv").read_text().splitlines()
    assert empty == ["x,delta,good,q,a,b1,all_ok"]
    assert outcome.checks_passed is True


def test_run_detect_cell_below_the_psi_floor(tmp_path):
    # psi = 0.0009 is below the floor Q^-1 = 0.001: every good row carries the
    # floor error and its delta, and counts as a failure
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0.1,0.9
        c = 0.01
        M = 2
        psi_list = 0.0009
        Q_list = 1000
        grid.points = 20
        output_dir = {tmp_path}/d
        """
    )
    outcome = run_experiment(cfg, mode="detect")
    assert outcome.summary == {"good_points": 16, "failures": 16}
    assert outcome.checks_passed is False
    rows = Path(f"{tmp_path}/d/detect_Q1000_psi0p0009.csv").read_text().splitlines()[1:]
    xs = [float(r.split(",")[0]) for r in rows]
    params = nc.ApproxParams.for_curve(nc.parabola(), c=0.01, Q=1000.0, psi=0.0009, B=(0.1, 0.9))
    deltas = nc.lattice.shortest_sups(nc.lattice.curve_lattice_bases(nc.parabola(), xs, params))
    good = 0
    for row, delta in zip(rows, deltas.tolist()):
        x, d, flag, *witness, all_ok = row.split(",")
        assert d == repr(delta)
        if flag == "yes":
            good += 1
            assert witness == ["", "", ""]
            assert all_ok == "error:psi=0.0009 below the admissibility floor 0.001"
        else:
            assert (flag, witness, all_ok) == ("no", ["", "", ""], "")
    assert good == 16


def test_run_qnd_reduces_its_samples_as_one_stack(tmp_path, monkeypatch):
    stacks = _count_stacks(monkeypatch)
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0.1,0.9
        psi_list = 0.3
        Q_list = 4000
        qnd.samples = 500
        output_dir = {tmp_path}/q
        """
    )
    run_experiment(cfg, mode="qnd")
    assert stacks == [500]


def test_run_coverage_and_rho_scale(tmp_path):
    base = f"""
    curve = parabola
    B = 0,1
    M = 2
    psi_list = 0.3
    Q_list = 512
    output_dir = {tmp_path}/cov
    """
    ok = run_experiment(_cfg(base), mode="coverage")
    assert ok.checks_passed is True
    doomed = run_experiment(_cfg(base + "coverage.rho_scale = 1e-7\n"), mode="coverage")
    assert doomed.checks_passed is False


def test_count_and_coverage_agree_on_regime(tmp_path):
    # K0 = 72 here, so the floor at Q = 256 is the dyadic 72/256 = 0.28125
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0,1
        c = 1.0
        M = 2
        psi_list = 0.28,0.28125,0.29
        Q_list = 256
        count.write_triples = false
        output_dir = {tmp_path}/r
        """
    )
    run_experiment(cfg, mode="count")
    run_experiment(cfg, mode="coverage")

    def regime(name):
        rows = Path(f"{tmp_path}/r/{name}").read_text().splitlines()
        col = rows[0].split(",").index("in_regime")
        return {tuple(r.split(",")[:2]): r.split(",")[col] for r in rows[1:]}

    counts, coverage = regime("counts.csv"), regime("coverage.csv")
    assert counts == coverage
    assert [counts[("256", psi)] for psi in ("0.28", "0.28125", "0.29")] == ["no", "yes", "yes"]


def test_run_scaling_and_identities(tmp_path):
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0,1
        psi_list = 0.2,0.3,0.45
        Q_list = 64,128,256
        identities.draws = 25
        scaling.svg = true
        output_dir = {tmp_path}/s
        """
    )
    res = run_experiment(cfg, mode="scaling")
    fits = Path(f"{tmp_path}/s/scaling_fits.csv").read_text().splitlines()
    assert fits[0] == "axis,fixed,slope,intercept,r_squared"
    assert len(fits) > 4
    svgs = [f for f in res.files if f.endswith(".svg")]
    assert svgs and Path(svgs[0]).read_text().startswith("<svg")
    res2 = run_experiment(cfg, mode="identities")
    assert res2.checks_passed is True
    assert res2.summary["worst_rel_err"] <= 1e-9


def test_run_qnd(tmp_path):
    cfg = _cfg(
        f"""
        curve = parabola
        B = 0.1,0.9
        psi_list = 0.3
        Q_list = 4000
        qnd.samples = 500
        qnd.eps = 0.2,0.1,0.05
        output_dir = {tmp_path}/q
        """
    )
    res = run_experiment(cfg, mode="qnd")
    assert res.checks_passed is True  # nonincreasing fractions
    rows = Path(f"{tmp_path}/q/qnd.csv").read_text().splitlines()
    assert rows[0] == "eps,fraction,ratio"
    assert len(rows) == 4
