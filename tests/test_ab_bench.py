"""The summary of tools/ab_bench.py against the pairs that BENCH_18.json lists."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def tool(monkeypatch):
    def no_process(*args, **kwargs):
        raise AssertionError("the summary starts no process")

    monkeypatch.setattr(subprocess, "run", no_process)
    monkeypatch.setattr(subprocess, "Popen", no_process)
    spec = importlib.util.spec_from_file_location("ab_bench", ROOT / "tools" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_reproduces_bench_18(tool):
    bench = json.loads((ROOT / "BENCH_18.json").read_text(encoding="utf-8"))
    pairs = [dict(p, workload=w) for w, entry in bench["workloads"].items() for p in entry["per_pair"]]
    metrics = tool.end_to_end_metrics(str(ROOT))
    summary = tool.summarize(pairs, metrics, ("collect", "wall_s"))
    assert list(summary["workloads"]) == list(bench["workloads"])
    for workload, entry in bench["workloads"].items():
        got = summary["workloads"][workload]
        for key in ("seeds", "pairs", "before", "after", "change_wins", "after_over_before_median"):
            assert got[key] == entry[key], (workload, key)
    claim, expected = summary["claim"], bench["claim"]
    (group,) = claim["groups"]  # one pair per seed: all pairs are the one group
    assert claim["met"] is group["met"] is expected["met"] is True
    assert (group["wins"], group["pairs"]) == (expected["wins"], expected["pairs"])
    assert group["median_difference"] == expected["median_difference_s"]
    assert group["before_iqr"] == expected["before_iqr_s"]
    assert group["after_over_before_median"] == expected["after_over_before_median"]
    # sweep won both of its pairs, by less than the parent's spread of 0.29 s
    assert summary["workloads"]["sweep"]["unresolved"]["wall_s"]
    assert not any(any(entry["beyond_bound"].values()) for entry in summary["workloads"].values())
    assert not tool.summarize(pairs, metrics, ("sweep", "wall_s"))["claim"]["met"]


def test_claim_holds_on_every_seed_with_several_pairs(tool):
    metrics = {"wall_s": ("lower", 0.25)}

    def pair(seed, before, after):
        return {"workload": "w", "seed": seed, "first": "before", "before_wall_s": before,
                "after_wall_s": after, "before_correct": True, "after_correct": True,
                "before_failed": 0, "after_failed": 0, "before_attempted": 1, "after_attempted": 1}

    fast = [pair(0, 1.0 + 0.01 * k, 0.5 + 0.01 * k) for k in range(10)]
    even = [pair(1, 1.0 + 0.01 * k, 1.0 + 0.01 * k - 0.001 * (k % 2)) for k in range(10)]
    claim = tool.summarize(fast + even, metrics, ("w", "wall_s"))["claim"]
    assert [g["seeds"] for g in claim["groups"]] == [[0, 1], [0], [1]]
    assert [g["wins"] for g in claim["groups"]] == [15, 10, 5]
    assert [g["met"] for g in claim["groups"]] == [False, True, False] and not claim["met"]
    assert tool.summarize(fast, metrics, ("w", "wall_s"))["claim"]["met"]
    one = tool.summarize(fast[:1], metrics, ("w", "wall_s"))  # a single pair has no spread
    assert one["workloads"]["w"]["before"]["wall_s"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert one["claim"]["met"]


def test_bounds_are_read_in_the_metric_unit(tool):
    # 0.1 for peak_rss_mb is 0.1 MB, not a tenth of the median
    metrics = {"peak_rss_mb": ("lower", 0.1), "wall_s": ("lower", 0.25)}

    def pair(k, before, after):
        return {"workload": "w", "seed": k, "first": "before", "before_peak_rss_mb": before,
                "after_peak_rss_mb": after, "before_wall_s": 3.0 + 0.1 * k, "after_wall_s": 3.0 + 0.1 * k,
                "before_correct": True, "after_correct": True, "before_failed": 0, "after_failed": 0,
                "before_attempted": 1, "after_attempted": 1}

    rows = [pair(k, 37.0 + 0.01 * k, 37.35 + 0.01 * k) for k in range(10)]
    up = tool.summarize(rows, metrics)["workloads"]["w"]
    assert up["beyond_bound"] == {"peak_rss_mb": True, "wall_s": False}
    assert up["unresolved"] == {"peak_rss_mb": False, "wall_s": True}  # wall_s IQR is 0.55 s
    assert up["change_wins"] == {"peak_rss_mb": 0, "wall_s": 0}
    near = tool.summarize([pair(k, 37.0 + 0.01 * k, 37.05 + 0.01 * k) for k in range(10)], metrics)
    assert not any(near["workloads"]["w"]["beyond_bound"].values())
