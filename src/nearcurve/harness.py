"""Batch experiment orchestration plus the dimension/divergence calculators.

Every mode writes CSV files (header row, LF endings, '.' decimals) and a JSON
manifest holding the derived constants, so a rerun with the same config and
seed reproduces the outputs byte for byte.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from . import __version__
from .config import MODES, ExperimentConfig
from .counting import _counts, _coverage, _triples, _write_triples, count_R_psi_sweep
from .curves import Curve, midpoint_grid, resolve_curve, second_derivative_bound
from .detector import _detect, _verify, derive_constants, psi_floor
from .errors import ConfigError
from .goodness import MinorSpec, hodge_dual_basis, phi_closed_form, phi_minor, qnd_bound_check, scale_factor
from .intlinalg import rank_int
from .lattice import ApproxParams, Shift, build_G, build_h, curve_lattice_bases, normalise_theta, shortest_sups
from .plots import svg_loglog


# ---------------------------------------------------------------------------
# asymptotic-exponent utilities


@dataclass(frozen=True)
class DimResult:
    """Hausdorff-dimension lower bound (n+1)/(tau+1) - n + 1 with range flags."""

    n: int
    tau: Fraction
    lower_bound: Fraction
    in_range: bool
    stated_range_empty: bool


def dim_exponent(n: int, tau) -> DimResult:
    if n < 2:
        raise ValueError("n must be >= 2")
    tauF = Fraction(tau)
    if tauF <= 0:
        raise ValueError("tau must be positive")
    lower = Fraction(n + 1) / (tauF + 1) - n + 1
    upper_edge = Fraction(3, 2 * n - 1)
    # the stated range asks n <= tau < 3/(2n-1), which is empty for n >= 2;
    # only the upper condition is enforced here
    return DimResult(
        n=n,
        tau=tauF,
        lower_bound=lower,
        in_range=tauF < upper_edge,
        stated_range_empty=Fraction(n) >= upper_edge,
    )


@dataclass(frozen=True)
class DivergenceSum:
    """Partial sum of q^n (psi(q)/q)^{s+n-1} for psi(q) = q^(-tau)."""

    partial_sum: float
    verdict: str  # "diverges" | "converges"
    exponent: float
    boundary: bool

    @property
    def diverges(self) -> bool:
        return self.verdict == "diverges"


def divergence_partial_sum(tau: float, s: float, n: int, N: int) -> DivergenceSum:
    if N < 10:
        raise ValueError("N must be >= 10")
    exponent = n - (tau + 1.0) * (s + n - 1.0)
    partial = math.fsum(float(q) ** exponent for q in range(1, N + 1))
    boundary = abs(exponent + 1.0) <= 1e-12
    verdict = "diverges" if exponent >= -1.0 - 1e-12 else "converges"
    return DivergenceSum(partial_sum=partial, verdict=verdict, exponent=exponent,
                         boundary=boundary)


# ---------------------------------------------------------------------------
# scaling fits and the counting lower bound


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares fit of log y against log x."""

    slope: float
    intercept: float
    r_squared: float
    samples: tuple[tuple[float, float], ...]


def scaling_fit(samples: Sequence[tuple[float, float]]) -> ScalingFit:
    if len(samples) < 3:
        raise ValueError("need at least 3 samples")
    xs = np.asarray([s[0] for s in samples], dtype=float)
    ys = np.asarray([s[1] for s in samples], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("samples must be positive for a log-log fit")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return ScalingFit(slope=float(slope), intercept=float(intercept),
                      r_squared=max(0.0, min(1.0, r2)),
                      samples=tuple((float(a), float(b)) for a, b in samples))


@dataclass(frozen=True)
class LowerBoundCheck:
    """Outcome of the counting lower bound; ok is None when out of regime."""

    in_regime: bool
    ok: Optional[bool]
    bound: float
    psi_floor: float


def lower_bound_check(count: int, B: tuple[float, float], C0: float, psi: float,
                      Q: float, n: int, K0: float) -> LowerBoundCheck:
    """count >= |B|/(4 C0) psi^{n-1} Q^2, guarded by the admissibility window."""
    floor = psi_floor(Q, n - 1, K0)
    in_regime = floor <= psi < 1
    size = max(0.0, B[1] - B[0])
    bound = size / (4.0 * C0) * psi ** (n - 1) * Q**2
    ok = bool(count >= bound) if in_regime else None
    return LowerBoundCheck(in_regime=in_regime, ok=ok, bound=bound, psi_floor=floor)


# ---------------------------------------------------------------------------
# experiment harness


@dataclass
class ExperimentOutcome:
    mode: str
    files: tuple[str, ...]
    checks_passed: Optional[bool]
    summary: dict


def _tag(value: float) -> str:
    return str(value).replace(".", "p").replace("-", "m")


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """The header and the rows by ``csv.writer``, LF line ends: a float, numpy's float64 too, as its ``repr``."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _params(cfg: ExperimentConfig, curve: Curve, theta: Shift, Q: float, psi: float) -> ApproxParams:
    lam, gam = theta
    return ApproxParams.for_curve(curve, c=cfg.c, Q=Q, psi=psi, B=cfg.B, lam=lam, gamma=gam)


def _cells(cfg: ExperimentConfig) -> list[tuple[int, float]]:
    return [(Q, psi) for Q in cfg.Q_list for psi in cfg.psi_list]


def run_experiment(cfg: ExperimentConfig, mode: Optional[str] = None,
                   out_dir: Optional[str] = None, seed: Optional[int] = None) -> ExperimentOutcome:
    """Run one experiment mode; deterministic in (config, seed)."""
    mode = mode or cfg.mode
    if mode is None:
        raise ConfigError("no mode given (config key 'mode' or CLI subcommand)")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}")
    if cfg.mode is not None and cfg.mode != mode:
        raise ConfigError(f"config mode {cfg.mode!r} conflicts with requested {mode!r}")
    seed = cfg.seed if seed is None else seed
    out = out_dir or cfg.output_dir
    try:
        curve = resolve_curve(cfg.curve)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    m = curve.n - 1
    try:
        theta = normalise_theta((cfg.theta_lambda, cfg.theta_gamma), m)
    except ValueError as exc:
        raise ConfigError(f"theta.gamma must have length {m} for this curve") from exc
    M = cfg.M if cfg.M is not None else second_derivative_bound(curve, cfg.B)
    consts = derive_constants(curve.n, M, cfg.c)

    runner = {
        "count": _run_count,
        "detect": _run_detect,
        "coverage": _run_coverage,
        "goodset": _run_goodset,
        "qnd": _run_qnd,
        "identities": _run_identities,
        "scaling": _run_scaling,
    }[mode]
    made, path = [], os.path.abspath(out)  # the directories that makedirs makes, leaf first
    while not os.path.isdir(path):
        made.append(path)
        path = os.path.dirname(path)
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output dir {out!r}: {exc}") from exc
    try:
        files, checks, summary = runner(cfg, curve, consts, theta, out, seed)
    except BaseException:
        for path in made:  # a failed run leaves no empty directory of its own
            if os.listdir(path):
                break
            os.rmdir(path)
        raise

    manifest = {
        "package": f"nearcurve {__version__}",
        "mode": mode,
        "seed": seed,
        "config": {k: list(v) if isinstance(v, tuple) else v for k, v in cfg.raw.items()},
        "curve": curve.label,
        "n": curve.n,
        "constants": {
            "M": M,
            "c": cfg.c,
            "K0": consts.K0,
            "C0": consts.C0,
            "omega0": {str(Q): consts.omega0(Q) for Q in cfg.Q_list},
        },
        "rho": {f"Q={Q},psi={psi}": consts.rho(Q, psi) for Q, psi in _cells(cfg)},
        "summary": summary,
    }
    manifest_path = os.path.join(out, f"manifest_{mode}.json")
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ExperimentOutcome(mode=mode, files=tuple(list(files) + [manifest_path]),
                             checks_passed=checks, summary=summary)


def _run_count(cfg, curve, consts, theta, out, seed):
    files = []
    rows = []
    checks = None
    total = 0
    for Q, psi in _cells(cfg):
        Q, B, shift, count, boundary = _counts(curve, Q, psi, cfg.B, theta)
        if cfg.count_write_triples:  # the triples go to the CSV as they come, a block at a time
            path = os.path.join(out, f"count_Q{Q}_psi{_tag(psi)}.csv")
            _write_triples(path, curve, psi, shift, _triples(curve, Q, psi, B, shift, count))
            files.append(path)
        lb = lower_bound_check(count, cfg.B, consts.C0, psi, Q, curve.n, consts.K0)
        rows.append((Q, psi, count, boundary, lb.bound,
                     "yes" if lb.in_regime else "no",
                     "" if lb.ok is None else ("yes" if lb.ok else "no")))
        total += count
        if lb.in_regime:
            checks = bool(lb.ok) if checks is None else (checks and bool(lb.ok))
    summary_path = os.path.join(out, "counts.csv")
    _write_csv(summary_path, ["Q", "psi", "count", "boundary", "lower_bound", "in_regime", "bound_ok"], rows)
    files.append(summary_path)
    return files, checks, {"cells": len(rows), "total_count": total}


def _run_detect(cfg, curve, consts, theta, out, seed):
    m = curve.n - 1
    files, n_good, n_fail = [], 0, 0
    header = ["x", "delta", "good", "q", "a"] + [f"b{j}" for j in range(1, m + 1)] + ["all_ok"]
    for Q, psi in _cells(cfg):
        params = _params(cfg, curve, theta, Q, psi)
        rho = consts.interior_rho(Q, psi)
        xs = midpoint_grid(cfg.B[0], cfg.B[1], cfg.grid_points)
        xs = xs[(cfg.B[0] + rho <= xs) & (xs <= cfg.B[1] - rho)]
        delta, good, p, error = _detect(curve, xs, params, cfg.guard)
        found = error == ""  # a witness, at a good x
        all_ok = np.zeros(len(xs), dtype=bool)
        all_ok[found] = _verify(p[found], xs[found].tolist(), curve, params, consts)[5]  # its all_ok
        verdict = np.where(found, np.where(all_ok, "yes", "no"), np.where(good, "error:" + error, ""))
        witness = zip(*[w if f else ("",) * (m + 2) for w, f in zip(p.tolist(), found.tolist())])
        rows = zip(xs.tolist(), delta.tolist(), np.where(good, "yes", "no").tolist(), *witness, verdict.tolist())
        n_good += int(good.sum())
        n_fail += int((good & ~all_ok).sum())
        path = os.path.join(out, f"detect_Q{Q}_psi{_tag(psi)}.csv")
        _write_csv(path, header, rows)
        files.append(path)
    return files, n_fail == 0, {"good_points": n_good, "failures": n_fail}


def _run_coverage(cfg, curve, consts, theta, out, seed):
    size = cfg.B[1] - cfg.B[0]
    rows = []
    checks = None
    for Q, psi in _cells(cfg):
        rho = consts.rho(Q, psi) * cfg.coverage_rho_scale
        count, cov = _coverage(curve, Q, psi, cfg.B, theta, rho)
        in_regime = psi >= psi_floor(Q, consts.m, consts.K0)
        ok = cov >= 0.5 * size
        rows.append((Q, psi, rho, count, cov, 0.5 * size,
                     "yes" if in_regime else "no", "yes" if ok else "no"))
        if in_regime:
            checks = ok if checks is None else (checks and ok)
    path = os.path.join(out, "coverage.csv")
    _write_csv(path, ["Q", "psi", "rho", "count", "coverage", "target", "in_regime", "ok"], rows)
    return [path], checks, {"cells": len(rows)}


def _run_goodset(cfg, curve, consts, theta, out, seed):
    files = []
    summary = {}
    for Q, psi in _cells(cfg):
        params = _params(cfg, curve, theta, Q, psi)
        xs = midpoint_grid(cfg.B[0], cfg.B[1], cfg.grid_points)
        rows = []
        n_good = 0
        n_boundary = 0
        for x, delta in zip(xs, shortest_sups(curve_lattice_bases(curve, xs, params)).tolist()):
            good = delta >= 1.0 - cfg.guard
            boundary = abs(delta - 1.0) <= cfg.guard
            n_good += good and not boundary
            n_boundary += boundary
            rows.append((x, delta, "yes" if good else "no", "yes" if boundary else "no"))
        path = os.path.join(out, f"goodset_Q{Q}_psi{_tag(psi)}.csv")
        _write_csv(path, ["x", "delta", "good", "boundary"], rows)
        files.append(path)
        summary[f"Q={Q},psi={psi}"] = {
            "fraction_good": n_good / len(xs),
            "boundary_points": n_boundary,
        }
    return files, None, summary


def _run_qnd(cfg, curve, consts, theta, out, seed):
    Q, psi = cfg.Q_list[0], cfg.psi_list[0]
    params = _params(cfg, curve, theta, Q, psi)
    report = qnd_bound_check(curve, cfg.B, params, cfg.qnd_alpha, cfg.qnd_eps,
                             samples=cfg.qnd_samples)
    path = os.path.join(out, "qnd.csv")
    _write_csv(path, ["eps", "fraction", "ratio"], report.rows)
    ordered = sorted(report.rows, key=lambda r: r[0], reverse=True)
    fracs = [r[1] for r in ordered]
    monotone = all(a >= b for a, b in zip(fracs, fracs[1:]))
    slope = None if math.isnan(report.slope) else report.slope
    return [path], monotone, {"slope": slope, "alpha": report.alpha,
                              "samples": report.samples}


def _draw_full_rank(rng, shape) -> np.ndarray:
    while True:
        G = rng.integers(-3, 4, size=shape)
        if rank_int(G.tolist()) == min(shape):
            return G.astype(np.int64)


def _run_identities(cfg, curve, consts, theta, out, seed):
    rng = np.random.default_rng(seed)
    n = curve.n
    Q, psi = cfg.Q_list[0], cfg.psi_list[0]
    params = _params(cfg, curve, theta, Q, psi)
    rows = []
    worst = 0.0

    def record(kind, x, lhs, rhs):
        nonlocal worst
        err = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, err)
        rows.append((kind, x, lhs, rhs, err))

    cases = [
        ("closed_form_full", tuple(range(1, n + 1)), n),
        ("closed_form_deriv", tuple(range(1, n)) + (n + 1,), n),
        ("closed_form_skew", tuple(range(1, n)), n - 1),
    ]
    for _ in range(cfg.identities_draws):
        x = float(rng.uniform(cfg.B[0], cfg.B[1]))
        G = build_G(curve, x)
        record("det_G", x, abs(float(np.linalg.det(G))), 1.0)
        record("det_h", x, abs(float(np.linalg.det(build_h(curve, x, params)))), 1.0)
        for kind, I, r in cases:
            if r < 1:
                continue
            spec = MinorSpec(I=I, Gamma=_draw_full_rank(rng, (n + 1, r)))
            record(kind, x, abs(phi_minor(curve, x, spec)), phi_closed_form(curve, x, spec))
        r = int(rng.integers(1, n + 1))
        Gam = _draw_full_rank(rng, (n + 1, r))
        I = tuple(sorted(rng.choice(np.arange(1, n + 2), size=r, replace=False).tolist()))
        spec = MinorSpec(I=I, Gamma=Gam)
        dual = hodge_dual_basis(Gam)
        stacked = np.vstack([np.asarray(build_G(curve, x), dtype=float)[[i - 1 for i in I], :],
                             dual.T.astype(float)])
        record("hodge_det", x, abs(phi_minor(curve, x, spec)), abs(float(np.linalg.det(stacked))))
        h = build_h(curve, x, params)
        lhs = abs(float(np.linalg.det(np.asarray(h, dtype=float)[[i - 1 for i in I], :] @ Gam)))
        rhs = params.c ** (r / (n + 1)) * scale_factor(I, params) * abs(phi_minor(curve, x, spec))
        record("scale_table", x, lhs, rhs)
    path = os.path.join(out, "identities.csv")
    _write_csv(path, ["kind", "x", "lhs", "rhs", "rel_err"], rows)
    return [path], bool(worst <= 1e-9), {"draws": cfg.identities_draws,
                                         "worst_rel_err": float(worst)}


def _run_scaling(cfg, curve, consts, theta, out, seed):
    per_Q = [count_R_psi_sweep(curve, Q, cfg.psi_list, cfg.B, theta) for Q in cfg.Q_list]
    count_rows = []
    for Q, counts in zip(cfg.Q_list, per_Q):
        for psi, cnt in zip(cfg.psi_list, counts):
            count_rows.append((Q, psi, cnt))
    files = []
    counts_path = os.path.join(out, "scaling_counts.csv")
    _write_csv(counts_path, ["Q", "psi", "count"], count_rows)
    files.append(counts_path)

    fit_rows = []
    svgs = []
    by_psi = list(zip(*per_Q))  # by_psi[k][i] is the count at psi_list[k], Q_list[i]
    for axis, xs, fixed_name, fixed_values, rows in (("Q", cfg.Q_list, "psi", cfg.psi_list, by_psi),
                                                     ("psi", cfg.psi_list, "Q", cfg.Q_list, per_Q)):
        for fixed, counts in zip(fixed_values, rows):
            samples = [(x, cnt) for x, cnt in zip(xs, counts) if cnt > 0]
            if len(samples) < 3:
                continue
            fit = scaling_fit(samples)
            fit_rows.append((axis, fixed, fit.slope, fit.intercept, fit.r_squared))
            if cfg.scaling_svg:
                svg = os.path.join(out, f"scaling_{axis}_{fixed_name}{_tag(fixed)}.svg")
                svg_loglog(svg, [s[0] for s in samples], [s[1] for s in samples],
                           fit.slope, fit.intercept, title=f"count vs {axis} at {fixed_name}={fixed}",
                           xlabel=axis, ylabel="count")
                svgs.append(svg)
    fits_path = os.path.join(out, "scaling_fits.csv")
    _write_csv(fits_path, ["axis", "fixed", "slope", "intercept", "r_squared"], fit_rows)
    files.append(fits_path)
    files.extend(svgs)
    summary = {"fits": [(r[0], r[1], r[2]) for r in fit_rows]}
    return files, None, summary
