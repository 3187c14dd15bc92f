"""The benchmark's four workloads, built from the shipped configs and a seed.

Seed 0 reproduces the shipped configs.  Any other seed perturbs them a
little, keeping the amount of work nearly the same:

* detect, qnd: the window B moves right by a random fraction of one grid step,
  so every grid point moves and the good/bad pattern changes;
* qnd: c is also scaled by a random factor in [0.998, 1.002].  With c = 1 and
  Q = 10000 every eps of the grid equals q/(cQ) for an integer q, so a sample
  whose shortest vector is set by that q has delta = eps exactly, and the
  program's float delta falls on either side of eps.  Seed 0 has no such
  sample.  With c off 1, eps*c*Q is no longer an integer, so the q/(cQ)
  coordinate can no longer tie with eps;
* collect: psi is scaled by a random factor in [0.998, 1.002];
* sweep: the veronese:3 psi list is scaled by such a factor.  The parabola
  sweep stays as shipped, because it holds the cell (Q = 8192, psi = 0.6)
  that fails every time through a known fault and must not depend on the seed.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

WORKLOADS = ("detect", "qnd", "collect", "sweep")

# veronese:3 samples per qnd run; 3000 keeps it near the length of the 8000-sample parabola run
VERONESE_QND_SAMPLES = 3000
VERONESE_SCALING_Q = (1024, 2048, 4096)
JITTER = 0.002

# Values the output checks read.  Keys a shipped config leaves out are written
# explicitly with the program's documented defaults, so the program and the
# checks see the same numbers.
DEFAULTS = {
    "c": "1.0",
    "theta.lambda": "0.0",
    "guard": "1e-09",
    "grid.points": "500",
    "qnd.alpha": repr(1.0 / 3.0),
    "qnd.eps": "0.1,0.0562,0.0316,0.0178,0.01,0.00562,0.00316,0.00178,0.001",
    "qnd.samples": "4000",
    "coverage.rho_scale": "1.0",
}
CHECKED_KEYS = {
    "detect": ("c", "theta.lambda", "guard", "grid.points"),
    "qnd": ("c", "qnd.alpha", "qnd.eps", "qnd.samples"),
    "count": ("c", "theta.lambda"),
    "coverage": ("c", "theta.lambda", "coverage.rho_scale"),
    "scaling": ("c", "theta.lambda"),
}


@dataclass(frozen=True)
class Run:
    """One CLI invocation: ``nearcurve <mode> --config <tag>.cfg``."""

    tag: str
    mode: str
    values: dict  # config key -> raw value text

    def text(self) -> str:
        return "".join(f"{k} = {v}\n" for k, v in self.values.items())

    def floats(self, key: str) -> tuple[float, ...]:
        return tuple(float(v) for v in self.values[key].split(",") if v.strip())

    def ints(self, key: str) -> tuple[int, ...]:
        return tuple(int(v) for v in self.values[key].split(",") if v.strip())

    def get(self, key: str) -> float:
        return float(self.values[key])

    @property
    def curve(self) -> str:
        return self.values["curve"]

    @property
    def B(self) -> tuple[float, float]:
        lo, hi = self.floats("B")
        return lo, hi



def read_config(path: str) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if line:
                key, raw = (part.strip() for part in line.split("=", 1))
                values[key] = raw
    return values


def _complete(values: dict, mode: str) -> dict:
    out = dict(values)
    for key in CHECKED_KEYS[mode]:
        out.setdefault(key, DEFAULTS[key])
    return out


def _fraction(seed: int, tag: str) -> float:
    """A number in [0, 1) drawn from (seed, tag); 0 for seed 0."""
    return 0.0 if seed == 0 else random.Random(f"{seed}:{tag}").random()


def _shift_B(values: dict, steps: int, u: float) -> None:
    lo, hi = (float(v) for v in values["B"].split(","))
    shift = u * (hi - lo) / steps
    values["B"] = f"{lo + shift!r},{hi + shift!r}"


def _scale(values: dict, key: str, u: float) -> None:
    factor = 1.0 + JITTER * (2.0 * u - 1.0) if u else 1.0
    values[key] = ",".join(repr(float(v) * factor) for v in values[key].split(","))


def build(workload: str, seed: int, config_dir: str) -> list[Run]:
    """The runs of one workload for one seed, from the shipped configs in ``config_dir``."""
    def shipped(mode: str) -> dict:
        return _complete(read_config(os.path.join(config_dir, f"{mode}.cfg")), mode)

    def veronese(values: dict, changes: dict) -> dict:
        return {**values, "curve": "veronese:3", "M": "6", **changes}

    runs: list[Run] = []
    if workload == "detect":
        values = shipped("detect")
        _shift_B(values, int(values["grid.points"]), _fraction(seed, "detect"))
        runs.append(Run("detect", "detect", values))
    elif workload == "qnd":
        base = shipped("qnd")
        vero = veronese(base, {"qnd.samples": str(VERONESE_QND_SAMPLES)})
        for tag, values in (("qnd-parabola", base), ("qnd-veronese3", vero)):
            _shift_B(values, int(values["qnd.samples"]), _fraction(seed, tag))
            _scale(values, "c", _fraction(seed, tag + ":c"))
            runs.append(Run(tag, "qnd", values))
    elif workload == "collect":
        for mode in ("count", "coverage"):
            values = shipped(mode)
            _scale(values, "psi_list", _fraction(seed, mode))
            runs.append(Run(mode, mode, values))
    elif workload == "sweep":
        base = shipped("scaling")
        runs.append(Run("scaling-parabola", "scaling", base))
        vero = veronese(base, {"Q_list": ",".join(str(q) for q in VERONESE_SCALING_Q)})
        _scale(vero, "psi_list", _fraction(seed, "scaling-veronese3"))
        runs.append(Run("scaling-veronese3", "scaling", vero))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return runs


# The warm-up round runs every config cut down to a fraction of its size: the
# same modes and code paths, lazy imports and allocations, at small cost.
WARMUP = {
    "detect": {"grid.points": "20"},
    "qnd": {"qnd.samples": "200"},
    "count": {"Q_list": "128"},
    "coverage": {"Q_list": "128"},
    "scaling": {"Q_list": "64,128,256"},
}


def warmup(run: Run) -> Run:
    """The cut-down copy of a run used for the warm-up round."""
    return Run(run.tag, run.mode, {**run.values, **WARMUP[run.mode]})


def psi_tag(psi: float) -> str:
    """The psi part of the program's per-cell file names, e.g. 0.3 -> 0p3."""
    return str(psi).replace(".", "p").replace("-", "m")
