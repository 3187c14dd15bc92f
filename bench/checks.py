"""Output checks of each workload, computed by the oracles and never through nearcurve.

Every check returns one ``Op`` per operation of the workload (a grid point,
an epsilon row or a cell) with the problems found in it.  An op whose files
cannot be read fails with that reason.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import oracles
from .workloads import Run, psi_tag

# the counting guard band the program documents (nearcurve.counting.GUARD)
COUNT_GUARD = 1e-12
# delta_scan is exact below this length on the detect lattices
DETECT_CAP = 1.3
DELTA_TOL = 1e-9

# The one cell that fails every time today: counting._strict_counts tests
# |y - b| < psi - 1e-12, but the float error of y = q f(x) at q near 8192 is
# larger than 1e-12, so exact boundary cases such as (q, a, b) =
# (7875, 6720, 5735), where a^2 - b q = -0.6 q, are counted as inside.
KNOWN_FAULTS = frozenset({"scaling-parabola Q=8192 psi=0.6"})


@dataclass
class Op:
    name: str
    problems: list[str] = field(default_factory=list)


def check(runs: list[Run], out_dir: str) -> list[Op]:
    """All operations of a workload's runs, checked against their outputs under ``out_dir``."""
    checkers = {"detect": _detect, "qnd": _qnd, "count": _count, "coverage": _coverage,
                "scaling": _scaling}
    ops: list[Op] = []
    for run in runs:
        ops.extend(checkers[run.mode](run, os.path.join(out_dir, run.tag)))
    return ops


def _guarded(ops: list[Op], fn, *args) -> None:
    try:
        fn(*args)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        for op in ops:
            op.problems.append(f"unreadable output: {exc!r}")


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summary(path: str, ops: list[Op]):
    """A per-cell summary CSV keyed by (Q, psi), or None after marking every op failed."""
    try:
        return {(int(r["Q"]), float(r["psi"])): r for r in _rows(path)}
    except (OSError, KeyError, ValueError) as exc:
        for op in ops:
            op.problems.append(f"unreadable output: {exc!r}")
        return None


class _Setting:
    """The parameters of one run as the checks use them."""

    def __init__(self, run: Run):
        self.polys = oracles.curve_polys(run.curve)
        self.m = len(self.polys)
        self.n = self.m + 1
        self.B = run.B
        self.c = run.get("c")
        self.M = run.get("M")
        self.lam = run.get("theta.lambda") if "theta.lambda" in run.values else 0.0
        gam = run.floats("theta.gamma") if "theta.gamma" in run.values else ()
        self.gammas = gam * self.m if len(gam) == 1 else (gam or (0.0,) * self.m)
        self.Qs = run.ints("Q_list")
        self.psis = run.floats("psi_list")

    def bracket(self, op: Op, Q: int, psi: float, count: int, upper: int, lower: int) -> None:
        if count > upper:
            op.problems.append(f"count {count} above the exact count {upper}")
        if count < lower:
            op.problems.append(f"count {count} below the exact count {lower} at psi - {self.edge(Q):.3g}")

    def edge(self, Q: int) -> float:
        """How far below psi the lower edge of the count bracket sits."""
        return COUNT_GUARD + oracles.float_error_bound(self.polys, Q, self.B, self.lam, self.gammas)

    def exact(self, Q: int, psis) -> list[int]:
        """Exact counts at each psi, then at each psi minus the edge."""
        return oracles.exact_counts(self.polys, Q, list(psis) + [p - self.edge(Q) for p in psis],
                                    self.B, self.lam, self.gammas)

    def lower_bound(self, op: Op, Q: int, psi: float, count: int) -> bool:
        in_regime, bound = oracles.lower_bound(self.n, self.M, self.c, Q, psi, self.B)
        if in_regime and count < bound:
            op.problems.append(f"count {count} below the lower bound {bound:.6g}")
        return in_regime


# ---------------------------------------------------------------------------
# detect: grid points


def _detect(run: Run, out: str) -> list[Op]:
    s = _Setting(run)
    points = int(run.values["grid.points"])
    guard = run.get("guard")
    ops: list[Op] = []
    for Q in s.Qs:
        for psi in s.psis:
            h = (s.B[1] - s.B[0]) / points
            xs = s.B[0] + (np.arange(points) + 0.5) * h
            rho = (psi**s.m * Q**2) ** -1.0 / (2.0 * s.c)
            xs = xs[(s.B[0] + rho <= xs) & (xs <= s.B[1] - rho)]
            cell = [Op(f"{run.tag} Q={Q} psi={psi!r} x={float(x)!r}") for x in xs]
            ops.extend(cell)
            path = os.path.join(out, f"detect_Q{Q}_psi{psi_tag(psi)}.csv")
            _guarded(cell, _detect_cell, s, cell, xs, Q, psi, guard, path)
    return ops


def _detect_cell(s: _Setting, cell, xs, Q, psi, guard, path) -> None:
    rows = _rows(path)
    if len(rows) != len(xs):
        raise ValueError(f"{path}: {len(rows)} rows for {len(xs)} grid points")
    oracle = oracles.delta_scan(s.polys, xs, s.c, Q, psi, DETECT_CAP)
    bs = [f"b{j}" for j in range(1, s.m + 1)]
    for op, x, want, row in zip(cell, xs, oracle, rows):
        if float(row["x"]) != x:
            op.problems.append(f"x {row['x']} is not the grid point {float(x)!r}")
            continue
        delta = float(row["delta"])
        if want < DETECT_CAP and abs(delta - want) > DELTA_TOL:
            op.problems.append(f"delta {delta!r} but the denominator scan gives {float(want)!r}")
        elif want >= DETECT_CAP and delta < DETECT_CAP - DELTA_TOL:
            op.problems.append(f"delta {delta!r} but the scan finds nothing below {DETECT_CAP}")
        good = want >= 1.0 - guard
        if (row["good"] == "yes") != good:
            op.problems.append(f"good flag {row['good']} disagrees with the scan")
        witness = [row["q"], row["a"]] + [row[b] for b in bs]
        if good:
            if row["all_ok"] != "yes":
                op.problems.append(f"witness not verified: {row['all_ok']}")
            elif not oracles.witness_ok(s.polys, x, int(row["q"]), int(row["a"]),
                                        [int(row[b]) for b in bs], s.c, Q, psi, s.M,
                                        s.lam, s.gammas):
                op.problems.append("witness fails the Fraction recheck")
        elif any(witness) or row["all_ok"]:
            op.problems.append("witness reported at a point outside the good set")


# ---------------------------------------------------------------------------
# qnd: epsilon rows


def _qnd(run: Run, out: str) -> list[Op]:
    eps = run.floats("qnd.eps")
    ops = [Op(f"{run.tag} eps={e!r}") for e in eps]
    _guarded(ops, _qnd_rows, run, ops, eps, os.path.join(out, "qnd.csv"))
    return ops


def _qnd_rows(run: Run, ops, eps, path) -> None:
    s = _Setting(run)
    samples = int(run.values["qnd.samples"])
    alpha = run.get("qnd.alpha")
    lo, hi = s.B
    xs = lo + (np.arange(samples) + 0.5) * ((hi - lo) / samples)
    scale = s.c ** (1.0 / (s.n + 1))
    deltas = oracles.delta_scan(s.polys, xs, s.c, s.Qs[0], s.psis[0], 1.5 * max(eps), scale)
    rows = _rows(path)
    if len(rows) != len(eps):
        raise ValueError(f"{path}: {len(rows)} rows for {len(eps)} eps values")
    for op, e, row in zip(ops, eps, rows):
        if float(row["eps"]) != e:
            op.problems.append(f"eps {row['eps']} out of order")
            continue
        want = np.count_nonzero(deltas <= e) / samples
        got = float(row["fraction"])
        if got != want:
            op.problems.append(f"fraction {got!r} but the denominator scan gives {want!r}")
        ratio = want / e**alpha if e > 0 else 0.0
        if abs(float(row["ratio"]) - ratio) > 1e-12 * max(1.0, ratio):
            op.problems.append(f"ratio {row['ratio']} but fraction/eps^alpha is {ratio!r}")


# ---------------------------------------------------------------------------
# count and coverage: cells


def _cells(run: Run, s: _Setting) -> list[tuple[int, float, Op]]:
    return [(Q, psi, Op(f"{run.tag} Q={Q} psi={psi!r}")) for Q in s.Qs for psi in s.psis]


def _count(run: Run, out: str) -> list[Op]:
    s = _Setting(run)
    cells = _cells(run, s)
    ops = [op for _, _, op in cells]
    summary = _summary(os.path.join(out, "counts.csv"), ops)
    if summary is None:
        return ops
    for Q, psi, op in cells:
        path = os.path.join(out, f"count_Q{Q}_psi{psi_tag(psi)}.csv")
        _guarded([op], _count_cell, s, op, Q, psi, summary[(Q, psi)], path)
    return ops


def _count_cell(s: _Setting, op: Op, Q: int, psi: float, row: dict, path: str) -> None:
    count = int(row["count"])
    upper, lower = s.exact(Q, [psi])
    s.bracket(op, Q, psi, count, upper, lower)
    if s.lower_bound(op, Q, psi, count) != (row["in_regime"] == "yes"):
        op.problems.append(f"in_regime {row['in_regime']} disagrees with K0 Q^(-3/(2n-1))")
    triples = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64,
                         usecols=range(2 + s.m), ndmin=2)
    if len(triples) != count:
        op.problems.append(f"{len(triples)} rows for a count of {count}")
    outside = int(np.count_nonzero(~oracles.rows_inside(s.polys, triples, Q, psi, s.B, s.lam, s.gammas)))
    if outside:
        op.problems.append(f"{outside} rows break the strict inequalities")
    if len(np.unique(triples, axis=0)) != len(triples):
        op.problems.append("repeated rows")


def _coverage(run: Run, out: str) -> list[Op]:
    s = _Setting(run)
    cells = _cells(run, s)
    ops = [op for _, _, op in cells]
    rho_scale = run.get("coverage.rho_scale")
    summary = _summary(os.path.join(out, "coverage.csv"), ops)
    if summary is None:
        return ops
    for Q, psi, op in cells:
        _guarded([op], _coverage_cell, s, op, Q, psi, rho_scale, summary[(Q, psi)])
    return ops


def _coverage_cell(s: _Setting, op: Op, Q: int, psi: float, rho_scale: float, row: dict) -> None:
    count = int(row["count"])
    upper, lower = s.exact(Q, [psi])
    s.bracket(op, Q, psi, count, upper, lower)
    s.lower_bound(op, Q, psi, count)
    rho = oracles.coverage_rho(s.n, s.M, s.c, Q, psi) * rho_scale
    if abs(float(row["rho"]) - rho) > 1e-12 * rho:
        op.problems.append(f"rho {row['rho']} but C0 (psi^m Q^2)^-1 is {rho!r}")
    points = oracles.exact_points(s.polys, Q, psi, s.B, s.lam, s.gammas)
    mine = oracles.coverage(points, rho, s.B)
    got = float(row["coverage"])
    if abs(got - mine) > 1e-9 + 2.0 * rho * abs(upper - count):
        op.problems.append(f"coverage {got!r} but the interval merge gives {mine!r}")
    in_regime = oracles.psi_floor(s.n, s.M, s.c, Q) <= psi < 1
    if (row["in_regime"] == "yes") != in_regime:
        op.problems.append(f"in_regime {row['in_regime']} disagrees with K0 Q^(-3/(2n-1))")
    half = 0.5 * (s.B[1] - s.B[0])
    if in_regime and mine < half:
        op.problems.append(f"coverage {mine!r} below |B|/2 = {half!r}")


# ---------------------------------------------------------------------------
# scaling: cells, counts and fits

# fitted slope targets: against Q, 2; against psi, n - 1
SLOPE_TOL_Q = 0.15
SLOPE_TOL_PSI = {2: 0.2, 3: 0.3}


def _scaling(run: Run, out: str) -> list[Op]:
    s = _Setting(run)
    cells = _cells(run, s)
    ops = [op for _, _, op in cells]
    _guarded(ops, _scaling_cells, s, cells, out)
    return ops


def _scaling_cells(s: _Setting, cells, out: str) -> None:
    counts = {(int(r["Q"]), float(r["psi"])): int(r["count"])
              for r in _rows(os.path.join(out, "scaling_counts.csv"))}
    by_cell = {(Q, psi): op for Q, psi, op in cells}
    K = len(s.psis)
    for Q in s.Qs:
        exact = s.exact(Q, s.psis)
        for k, psi in enumerate(s.psis):
            op = by_cell[(Q, psi)]
            if (Q, psi) not in counts:
                op.problems.append("no count reported")
                continue
            s.bracket(op, Q, psi, counts[(Q, psi)], exact[k], exact[K + k])
            s.lower_bound(op, Q, psi, counts[(Q, psi)])

    fits = {(r["axis"], float(r["fixed"])): float(r["slope"])
            for r in _rows(os.path.join(out, "scaling_fits.csv"))}
    axes = [("Q", psi, [(Q, psi) for Q in s.Qs], 2.0, SLOPE_TOL_Q) for psi in s.psis]
    axes += [("psi", Q, [(Q, psi) for psi in s.psis], s.n - 1.0, SLOPE_TOL_PSI.get(s.n, 0.3))
             for Q in s.Qs]
    for axis, fixed, keys, target, tol in axes:
        samples = [(Q if axis == "Q" else psi, counts.get((Q, psi), 0)) for Q, psi in keys]
        samples = [(x, y) for x, y in samples if y > 0]
        if len(samples) < 3:
            continue
        mine = oracles.loglog_slope(samples)
        problems = []
        got = fits.get((axis, float(fixed)))
        if got is None:
            problems.append(f"no fit against {axis} at {fixed!r}")
        elif abs(got - mine) > 1e-9:
            problems.append(f"fit against {axis} at {fixed!r}: slope {got!r}, least squares gives {mine!r}")
        if abs(mine - target) > tol:
            problems.append(f"slope against {axis} at {fixed!r} is {mine:.4f}, not {target} +- {tol}")
        for key in keys:
            by_cell[key].problems.extend(problems)
