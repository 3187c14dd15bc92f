"""Spans and counters recorded from outside nearcurve, around its layer functions.

``Tracer.install`` replaces each traced function in every ``nearcurve``
module namespace that binds it, so calls made through ``from .x import f``
and through ``module.f`` are both seen; ``uninstall`` puts the originals back.
Spans stay in memory as (name, start, end, parent) and are written out at the
end of a run.  A span's self time is its duration minus the durations of its
direct children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
import sys
from time import perf_counter

from . import oracles

# layer (module) -> traced functions
LAYERS = {
    "lattice": ("lll_reduce", "_gso", "_enumerate_ball", "shortest_sup", "reduced_basis",
                "curve_lattice_basis"),
    "detector": ("goodset_delta", "detect_witness", "verify_witness"),
    "goodness": ("qnd_bound_check",),
    "curves": ("eval_jet",),
    "counting": ("enumerate_R", "count_R_psi_sweep", "_a_range", "write_triples_csv",
                 "delta_coverage", "interval_union_measure"),
    "harness": ("run_experiment", "_write_csv"),
}

# name -> unit; the traced run prints exactly these
LAYER_METRICS = {
    "lattice.lll_calls": "count",
    "lattice.lll_s": "s",
    "lattice.gso_calls": "count",
    "lattice.gso_s": "s",
    "lattice.enum_calls": "count",
    "lattice.enum_s": "s",
    "lattice.shortest_sup_calls": "count",
    "lattice.shortest_sup_s": "s",
    "lattice.reduced_basis_calls": "count",
    "lattice.reduced_basis_s": "s",
    "lattice.basis_s": "s",
    "lattice.self_s": "s",
    "detector.points": "count",
    "detector.good_points": "count",
    "detector.goodset_delta_s": "s",
    "detector.detect_witness_s": "s",
    "detector.verify_witness_s": "s",
    "detector.lll_per_point": "ratio",
    "detector.self_s": "s",
    "goodness.qnd_s": "s",
    "goodness.samples": "count",
    "goodness.self_s": "s",
    "curves.eval_jet_calls": "count",
    "curves.eval_jet_s": "s",
    "curves.self_s": "s",
    "counting.sweep_s": "s",
    "counting.a_range_s": "s",
    "counting.pairs": "count",
    "counting.pairs_per_s": "1/s",
    "counting.enumerate_calls": "count",
    "counting.enumerate_s": "s",
    "counting.triples": "count",
    "counting.boundary": "count",
    "counting.csv_s": "s",
    "counting.csv_mb": "MB",
    "counting.coverage_s": "s",
    "counting.union_s": "s",
    "counting.self_s": "s",
    "harness.run_s": "s",
    "harness.self_s": "s",
    "harness.csv_s": "s",
    "bench.trace_overhead_s": "s",
}
# metrics fixed by the inputs, which every traced round must repeat exactly
EXACT = {name for name, unit in LAYER_METRICS.items() if unit in ("count", "ratio", "MB")}


def _shift(theta) -> float:
    """lambda of a theta argument as the counting functions accept it."""
    if theta is None or isinstance(theta, (int, float)):
        return 0.0
    lam = theta[0]
    return float(lam[0] if isinstance(lam, (tuple, list)) else lam)


def _note_enumerate(bound, result) -> dict:
    a = bound.arguments
    return {"Q": int(a["Q"]), "B": tuple(a["B"]), "lam": _shift(a.get("theta")),
            "triples": result.count, "boundary": result.boundary}


def _note_sweep(bound, result) -> dict:
    a = bound.arguments
    return {"Q": int(a["Q"]), "B": tuple(a["B"]), "lam": _shift(a.get("theta"))}


def _note_csv(bound, result) -> dict:
    return {"path": str(bound.arguments["path"])}


def _note_qnd(bound, result) -> dict:
    return {"samples": result.samples}


# functions whose counters need their arguments or result
NOTES = {
    "counting.enumerate_R": _note_enumerate,
    "counting.count_R_psi_sweep": _note_sweep,
    "counting.write_triples_csv": _note_csv,
    "goodness.qnd_bound_check": _note_qnd,
}


class Tracer:
    """Wraps nearcurve's layer functions; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.notes: list = []  # (span index, name, note)
        self._stack: list[int] = []
        self._saved: list = []
        self._wrappers: dict[int, tuple] = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"nearcurve.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is not None:  # a function the program no longer has reads 0
                    self._wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))

    def _wrap(self, name, fn):
        spans, stack, notes = self.spans, self._stack, self.notes
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if note is not None:
                notes.append((index, name, note(signature.bind(*args, **kwargs), result)))
            return result

        return traced

    def install(self) -> None:
        for module in [m for k, m in sys.modules.items() if k == "nearcurve" or k.startswith("nearcurve.")]:
            for attr, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._saved.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def metrics(self, first: int) -> dict:
        """Per-layer metrics of the spans recorded from index ``first`` on."""
        spans = self.spans[first:]
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(spans)
        in_detector = [False] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            p = parent - first
            if p >= 0:
                child[p] += end - start
                in_detector[i] = in_detector[p] or spans[p][0].startswith("detector.")
        layer_self = {layer: 0.0 for layer in LAYERS}
        lll_in_detector = 0
        for i, (name, start, end, parent) in enumerate(spans):
            layer_self[name.split(".", 1)[0]] += (end - start) - child[i]
            lll_in_detector += name == "lattice.lll_reduce" and in_detector[i]

        pairs = triples = boundary = samples = 0
        csv_bytes = 0
        for index, name, note in self.notes:
            if index < first:
                continue
            if name in ("counting.enumerate_R", "counting.count_R_psi_sweep"):
                pairs += oracles.pair_count(note["Q"], note["B"], note["lam"])
            if name == "counting.enumerate_R":
                triples += note["triples"]
                boundary += note["boundary"]
            elif name == "counting.write_triples_csv":
                csv_bytes += os.path.getsize(note["path"])
            elif name == "goodness.qnd_bound_check":
                samples += note["samples"]

        def t(name: str) -> float:
            return total.get(name, 0.0)

        def n(name: str) -> int:
            return calls.get(name, 0)

        points = n("detector.goodset_delta")
        kernel_s = t("counting.enumerate_R") + t("counting.count_R_psi_sweep")
        return {
            "lattice.lll_calls": n("lattice.lll_reduce"),
            "lattice.lll_s": t("lattice.lll_reduce"),
            "lattice.gso_calls": n("lattice._gso"),
            "lattice.gso_s": t("lattice._gso"),
            "lattice.enum_calls": n("lattice._enumerate_ball"),
            "lattice.enum_s": t("lattice._enumerate_ball"),
            "lattice.shortest_sup_calls": n("lattice.shortest_sup"),
            "lattice.shortest_sup_s": t("lattice.shortest_sup"),
            "lattice.reduced_basis_calls": n("lattice.reduced_basis"),
            "lattice.reduced_basis_s": t("lattice.reduced_basis"),
            "lattice.basis_s": t("lattice.curve_lattice_basis"),
            "lattice.self_s": layer_self["lattice"],
            "detector.points": points,
            "detector.good_points": n("detector.detect_witness"),
            "detector.goodset_delta_s": t("detector.goodset_delta"),
            "detector.detect_witness_s": t("detector.detect_witness"),
            "detector.verify_witness_s": t("detector.verify_witness"),
            "detector.lll_per_point": lll_in_detector / points if points else 0.0,
            "detector.self_s": layer_self["detector"],
            "goodness.qnd_s": t("goodness.qnd_bound_check"),
            "goodness.samples": samples,
            "goodness.self_s": layer_self["goodness"],
            "curves.eval_jet_calls": n("curves.eval_jet"),
            "curves.eval_jet_s": t("curves.eval_jet"),
            "curves.self_s": layer_self["curves"],
            "counting.sweep_s": t("counting.count_R_psi_sweep"),
            "counting.a_range_s": t("counting._a_range"),
            "counting.pairs": pairs,
            "counting.pairs_per_s": pairs / kernel_s if kernel_s else 0.0,
            "counting.enumerate_calls": n("counting.enumerate_R"),
            "counting.enumerate_s": t("counting.enumerate_R"),
            "counting.triples": triples,
            "counting.boundary": boundary,
            "counting.csv_s": t("counting.write_triples_csv"),
            "counting.csv_mb": csv_bytes / 1e6,
            "counting.coverage_s": t("counting.delta_coverage"),
            "counting.union_s": t("counting.interval_union_measure"),
            "counting.self_s": layer_self["counting"],
            "harness.run_s": t("harness.run_experiment"),
            "harness.self_s": layer_self["harness"],
            "harness.csv_s": t("harness._write_csv"),
        }

    def write(self, path: str, rounds: list[int]) -> None:
        """Write every span as one JSON line: [round, index, name, start, end, parent]."""
        bounds = rounds + [len(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            for r in range(len(rounds)):
                for i in range(bounds[r], bounds[r + 1]):
                    name, start, end, parent = self.spans[i]
                    fh.write(json.dumps([r, i, name, start, end, parent]) + "\n")


def combine(per_round: list[dict], plain_s: list[float], traced_s: list[float]) -> dict:
    """Exact metrics from the first traced round (they must repeat), medians of the times."""
    out = {}
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        out[name] = values[0] if name in EXACT else statistics.median(values)
    out["bench.trace_overhead_s"] = statistics.median(traced_s) - statistics.median(plain_s)
    return out


def exact_repeat(per_round: list[dict]) -> bool:
    return all(m[name] == per_round[0][name] for m in per_round for name in EXACT)
