"""Flat typed key-value experiment configs with dotted-key nesting.

Unknown keys are hard errors: silent config drift destroys reproducibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError

MODES = ("count", "detect", "coverage", "goodset", "qnd", "identities", "scaling")

# key -> (type tag, default); required keys carry the REQUIRED sentinel
_REQUIRED = object()

SCHEMA: dict[str, tuple[str, object]] = {
    "curve": ("str", _REQUIRED),
    "mode": ("str", None),
    "B": ("interval", (0.0, 1.0)),
    "theta.lambda": ("float", 0.0),
    "theta.gamma": ("floats", ()),
    "c": ("float", 1.0),
    "M": ("float", None),
    "psi_list": ("floats", (0.3,)),
    "Q_list": ("ints", (1024,)),
    "seed": ("int", 0),
    "output_dir": ("str", "out"),
    "grid.points": ("int", 500),
    "guard": ("float", 1e-9),
    "qnd.alpha": ("float", 1.0 / 3.0),
    "qnd.eps": ("floats", (0.1, 0.0562, 0.0316, 0.0178, 0.01, 0.00562, 0.00316, 0.00178, 0.001)),
    "qnd.samples": ("int", 4000),
    "coverage.rho_scale": ("float", 1.0),
    "identities.draws": ("int", 200),
    "count.write_triples": ("bool", True),
    "scaling.svg": ("bool", False),
}

# the float keys with a range beyond finiteness: key -> (the range's text, its test)
_RANGES = {"c": (" and > 0", lambda v: v > 0), "coverage.rho_scale": (" and > 0", lambda v: v > 0),
           "M": (" and >= 0", lambda v: v >= 0)}


def _parse_value(kind: str, raw: str, key: str):
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "yes", "1"):
                return True
            if low in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        if kind == "interval":
            lo, hi = map(float, raw.split(","))
            return (lo, hi)
        if kind in ("floats", "ints"):
            return tuple(map(float if kind == "floats" else int, filter(str.strip, raw.split(","))))
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from exc
    raise ConfigError(f"key {key!r}: unknown type tag {kind}")


@dataclass
class ExperimentConfig:
    """Validated experiment parameters: one field per schema key, its dots as underscores."""

    curve: str
    mode: Optional[str]
    B: tuple[float, float]
    theta_lambda: float
    theta_gamma: tuple[float, ...]
    c: float
    M: Optional[float]
    psi_list: tuple[float, ...]
    Q_list: tuple[int, ...]
    seed: int
    output_dir: str
    grid_points: int
    guard: float
    qnd_alpha: float
    qnd_eps: tuple[float, ...]
    qnd_samples: int
    coverage_rho_scale: float
    identities_draws: int
    count_write_triples: bool
    scaling_svg: bool
    raw: dict = field(default_factory=dict)


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r} (line {lineno})")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r} (line {lineno})")
        kind = SCHEMA[key][0]
        values[key] = value = _parse_value(kind, raw, key)
        if kind in ("float", "floats", "interval"):  # every value finite, and in its key's range
            rule, test = _RANGES.get(key, ("", None))
            if not all(math.isfinite(v) and (test is None or test(v))
                       for v in (value if kind != "float" else (value,))):
                raise ConfigError(f"key {key!r} must be finite{rule}, got {raw}")

    resolved: dict[str, object] = {}
    for key, (kind, default) in SCHEMA.items():
        if key in values:
            resolved[key] = values[key]
        elif default is _REQUIRED:
            raise ConfigError(f"missing required config key {key!r}")
        else:
            resolved[key] = default

    if resolved["mode"] is not None and resolved["mode"] not in MODES:
        raise ConfigError(f"unknown mode {resolved['mode']!r}; expected one of {MODES}")
    for key in ("Q_list", "psi_list"):
        if not resolved[key]:
            raise ConfigError(f"key {key!r} must hold at least one value")
    q_list = resolved["Q_list"]
    if any(b <= a for a, b in zip(q_list, q_list[1:])):
        raise ConfigError("Q_list must be strictly ascending")
    if len(set(resolved["psi_list"])) < len(resolved["psi_list"]):
        raise ConfigError("psi_list must not repeat a value")
    if resolved["B"][0] >= resolved["B"][1]:
        raise ConfigError("B must be a nonempty interval lo,hi")
    for key in ("grid.points", "qnd.samples", "identities.draws"):
        if resolved[key] < 1:
            raise ConfigError(f"key {key!r} must be >= 1, got {resolved[key]}")

    return ExperimentConfig(**{key.replace(".", "_"): value for key, value in resolved.items()},
                            raw=resolved)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
