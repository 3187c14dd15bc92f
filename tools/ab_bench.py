"""Paired A/B runs of ``bench/run.py`` on a parent commit and ``HEAD``, summarised in one JSON layout.

    python3 tools/ab_bench.py PARENT --workload W [--workload W2 ...] --seeds 0,2101
                              [--pairs 10] [--claim WORKLOAD:METRIC] [--dir DIR]
                              [--out FILE] [--append FILE]

Checks out PARENT (before) and ``HEAD`` (after) as detached ``git worktree``
checkouts under DIR (a fresh temporary directory by default).  Both sides of a
pair run from directory names of the same length, because path length alone
moved ``wall_s`` by 4-5 %; and from pair to pair that length cycles through
``NAME_LENGTHS`` (2, 7 and 12 characters), because the heap left by compiling
nearcurve from source moved ``peak_rss_mb`` by about 1 MB between names of 2
and 12 characters.  Every seed gets ``--pairs`` pairs per
workload; a pair runs ``bench/run.py --workload W --seed S --seconds N``
unchanged in each checkout, one after the other, with N the ``run_seconds`` of
``BENCHMARK.json``, and the side that runs first alternates from pair to pair,
because the host drifts.  Each run has ``PYTHONDONTWRITEBYTECODE=1``, so every
interpreter compiles nearcurve from source, as in a fresh checkout.  The
worktrees, and a temporary directory, are removed at the end.

With ``--append FILE`` the pairs of an earlier run on the same two ``src``
trees come first, so one JSON can hold workloads run with different seeds,
pair counts and checkout directories.  The JSON holds every pair
(``per_pair``: the seed, which side ran ``first``, the ``name_length`` of both
checkout directories, the ``invocation`` of this tool that ran it, as an index
into ``tools``, and per side each
end-to-end metric of ``BENCHMARK.json``, ``correct``, ``failed`` and
``attempted``); per workload the medians and quartiles
(``statistics.quantiles(n=4)``) of each side, the pairs the change wins per
metric, the ratio of the medians, ``unresolved`` where the parent's
interquartile range exceeds the metric's bound, and ``beyond_bound`` where the
change's median is worse than the parent's by more than the bound; the claim
verdict; and the git tree hash of both ``src`` directories.  A bound is read
in its metric's own unit: 0.25 s for ``wall_s``, 0.1 MB for ``peak_rss_mb``.
The claim rule: the change wins at least 9 in 10 of the pairs and its median
beats the parent's by more than the parent's interquartile range, on all pairs
of the workload and on every seed that has two or more pairs.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RULE = ("change wins >= 9 in 10 of the pairs and the medians differ by more than the parent's "
        "interquartile range, on all pairs and on every seed with two or more")
SIDES = ("before", "after")
NAME_LENGTHS = (2, 7, 12)  # characters in the name of both checkout directories, pair after pair


def checkout_dirs(base: str, pair: int) -> dict:
    """``{side: path}`` of the two checkouts that pair number ``pair`` runs in, under ``base``.

    Both names have ``NAME_LENGTHS[pair % 3]`` characters: the side's name,
    cut or padded with "_".
    """
    length = NAME_LENGTHS[pair % len(NAME_LENGTHS)]
    return {side: os.path.join(base, (side + "_" * length)[:length]) for side in SIDES}


def _benchmark(root: str = ROOT) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end_metrics(root: str = ROOT) -> dict:
    """``{name: (better, bound)}`` of the end-to-end metrics that ``BENCHMARK.json`` declares."""
    return {m["name"]: (m["better"], m["bound"]) for m in _benchmark(root)["end_to_end"]}


def _spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _worse(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, in the metric's unit (negative: better)."""
    return after - before if better == "lower" else before - after


def _wins(pairs: list, name: str, better: str) -> int:
    return sum(_worse(p[f"before_{name}"], p[f"after_{name}"], better) < 0 for p in pairs)


def _verdict(pairs: list, name: str, better: str) -> dict:
    before = [p[f"before_{name}"] for p in pairs]
    after = [p[f"after_{name}"] for p in pairs]
    spread = _spread(before)
    gain = -_worse(statistics.median(before), statistics.median(after), better)
    wins = _wins(pairs, name, better)
    return {"seeds": sorted({p["seed"] for p in pairs}), "pairs": len(pairs), "wins": wins,
            "median_difference": gain, "before_iqr": spread["q3"] - spread["q1"],
            "after_over_before_median": statistics.median(after) / statistics.median(before),
            "met": wins >= math.ceil(0.9 * len(pairs)) and gain > spread["q3"] - spread["q1"]}


def summarize(pairs: list, metrics: dict, claim=None) -> dict:
    """Per workload, the spread of each side, the wins and the ratios; and the claim verdict.

    ``pairs`` are rows as in ``per_pair`` with a ``workload`` key, ``metrics`` maps each
    metric to ``(better, bound)``, and ``claim`` is ``(workload, metric)`` or None.
    """
    workloads = {}
    for workload in dict.fromkeys(p["workload"] for p in pairs):
        rows = [p for p in pairs if p["workload"] == workload]
        entry = {"seeds": list(dict.fromkeys(p["seed"] for p in rows)), "pairs": len(rows)}
        for side in SIDES:
            entry[side] = {name: _spread([p[f"{side}_{name}"] for p in rows]) for name in metrics}
            entry[side].update(correct=all(p[f"{side}_correct"] for p in rows),
                               failed=sum(p[f"{side}_failed"] for p in rows),
                               attempted=sum(p[f"{side}_attempted"] for p in rows))
        entry["change_wins"] = {name: _wins(rows, name, better) for name, (better, _) in metrics.items()}
        entry["after_over_before_median"] = {
            name: entry["after"][name]["median"] / entry["before"][name]["median"] for name in metrics}
        before, after = entry["before"], entry["after"]
        entry["unresolved"] = {name: before[name]["q3"] - before[name]["q1"] > bound
                               for name, (_, bound) in metrics.items()}
        entry["beyond_bound"] = {
            name: _worse(before[name]["median"], after[name]["median"], better) > bound
            for name, (better, bound) in metrics.items()}
        workloads[workload] = entry
    result = {"workloads": workloads}
    if claim:
        workload, name = claim
        rows = [p for p in pairs if p["workload"] == workload]
        seeds = list(dict.fromkeys(p["seed"] for p in rows))
        groups = [rows] + [g for g in ([p for p in rows if p["seed"] == s] for s in seeds) if len(g) > 1]
        verdicts = [_verdict(g, name, metrics[name][0]) for g in groups]
        result["claim"] = {"workload": workload, "metric": name, "rule": RULE, "groups": verdicts,
                           "met": all(v["met"] for v in verdicts)}
    return result


def _git(*args: str, cwd: str = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def _run(checkout: str, workload: str, seed: int, seconds: int, metrics: dict) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    row = {name: out["metrics"][name]["value"] for name in metrics}
    row.update(correct=out["correct"], failed=out["failed"], attempted=out["attempted"])
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit measured as before; HEAD is measured as after")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated seeds")
    parser.add_argument("--pairs", type=int, default=1, help="pairs per seed and workload")
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain is claimed")
    parser.add_argument("--dir", help="where the two worktrees go (default: a new temporary directory)")
    parser.add_argument("--out", help="the JSON file to write (default: stdout)")
    parser.add_argument("--append", help="an earlier JSON of this tool on the same two trees: "
                        "its pairs come first and are summarised with the new ones")
    args = parser.parse_args(argv)
    metrics, seconds = end_to_end_metrics(), _benchmark()["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    claim = tuple(args.claim.split(":")) if args.claim else None
    base = args.dir or tempfile.mkdtemp(prefix="ab_bench_")
    sides = {"before": args.parent, "after": "HEAD"}
    revs = {side: {"rev": rev, "git_sha": _git("rev-parse", rev), "src_tree": _git("rev-parse", f"{rev}:src")}
            for side, rev in sides.items()}
    command = [args.parent, *(f"--workload {w}" for w in args.workload), "--seeds", args.seeds,
               "--pairs", str(args.pairs)]
    command += ["--claim", args.claim] if args.claim else []
    tools = ["python3 tools/ab_bench.py " + " ".join(command)]  # the measurement, not where files went
    per_pair = []
    if args.append:
        with open(args.append, encoding="utf-8") as fh:
            earlier = json.load(fh)
        if any(earlier[side]["src_tree"] != revs[side]["src_tree"] for side in SIDES):
            raise SystemExit(f"{args.append} measured other src trees")
        tools, per_pair = earlier["tools"] + tools, earlier["per_pair"]
    added = []
    try:
        for workload in args.workload:
            for seed in seeds:
                for _ in range(args.pairs):
                    order = SIDES if len(per_pair) % 2 == 0 else SIDES[::-1]
                    dirs = checkout_dirs(base, len(per_pair))
                    for side, path in dirs.items():
                        if path not in added:
                            _git("worktree", "add", "--detach", path, sides[side])
                            added.append(path)
                    row = {"workload": workload, "seed": seed, "first": order[0],
                           "name_length": len(os.path.basename(dirs["before"])), "invocation": len(tools) - 1}
                    for side in order:
                        run = _run(dirs[side], workload, seed, seconds, metrics)
                        row.update({f"{side}_{key}": value for key, value in run.items()})
                    per_pair.append(row)
                    print(json.dumps(row), file=sys.stderr)
    finally:
        for path in added:
            _git("worktree", "remove", "--force", path)
        if not args.dir:
            os.rmdir(base)
    result = {
        "command": f"python3 bench/run.py --workload <w> --seed <s> --seconds {seconds}",
        "tools": tools,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                            capture_output=True, text=True).stdout.strip(),
                    "platform": platform.platform(), "env": "PYTHONDONTWRITEBYTECODE=1"},
        **revs,
        **summarize(per_pair, metrics, claim),
        "per_pair": per_pair,
    }
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
