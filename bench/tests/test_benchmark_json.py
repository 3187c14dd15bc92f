"""BENCHMARK.json keeps its fixed form, and the benchmark prints what it declares.

The end-to-end tests run ``bench/run.py`` once per workload with a one-second
measuring window, about a minute in all.
"""

import json
import os
import re
import subprocess
import sys

import pytest

from bench import run, tracing, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _readme_layer_names() -> list[str]:
    """Metric names in the first column of the per-layer table of bench/README.md."""
    with open(os.path.join(ROOT, "bench", "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Per-layer metrics", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", section, flags=re.MULTILINE)


def test_fixed_form():
    spec = _spec()
    assert list(spec) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    e2e = spec["end_to_end"]
    assert [m["name"] for m in e2e] == ["wall_s", "setup_s", "peak_rss_mb"]
    for m in e2e:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] == "lower" and 0 < m["bound"] <= 0.25
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["bound"] == max(m["bound"] for m in e2e)
    names = [m["name"] for m in e2e + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + spec["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert len(json.dumps(spec)) <= 64 * 1024


def test_declared_metrics_match_the_code_and_readme():
    spec = _spec()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS
    assert _readme_layer_names() == list(tracing.LAYER_METRICS)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


# operations per round, and those that fail every time (the sweep's known fault)
OPERATIONS = {"detect": (2000, 0), "qnd": (18, 0), "collect": (5, 0), "sweep": (64, 1)}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_each_workload_prints_its_end_to_end_metrics(workload):
    result = _bench(workload, 0)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    per_round, failing = OPERATIONS[workload]
    assert result["attempted"] % per_round == 0 and result["attempted"] > 0
    assert result["failed"] * per_round == failing * result["attempted"]
    declared = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_exactly_the_readme_layer_metrics():
    result = _bench("detect", 1)
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == _readme_layer_names()
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["detector.points"] == 2000
    assert m["detector.lll_per_point"] == m["lattice.lll_calls"] / 2000
    assert m["harness.run_s"] >= m["harness.self_s"] > 0
