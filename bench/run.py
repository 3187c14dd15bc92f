"""Benchmark nearcurve end to end on the shipped configs, and layer by layer when traced.

    python3 bench/run.py --workload {detect,qnd,collect,sweep} [--seed N]
                         [--seconds S] [--trace 0|1]

Run from the repository root.  The workload's configs (see workloads.py)
are written under bench/out/<workload>/, and one worker process runs them
through nearcurve.cli.main: a cut-down warm-up round, then whole rounds
until S seconds are used up.  Set-up time is measured with fresh interpreters.
Afterwards every output is checked by the oracles in oracles.py, which never
call nearcurve.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics of tracing.py with --trace 1 (spans go to
bench/trace/<workload>-seed<N>.jsonl).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from bench import checks, workloads  # noqa: E402
from bench.tracing import LAYER_METRICS  # noqa: E402

TIME_LIMIT_S = 170.0   # the whole benchmark run, checks included
CHECK_RESERVE_S = 30.0  # kept back from the worker's budget for the checks
SETUP_PROBES = 5
SETUP_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import nearcurve; "
    "from nearcurve.config import load_config; "
    "[nearcurve.resolve_curve(load_config(p).curve) for p in sys.argv[2:]]"
)
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _environment() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), ROOT])
    return env


def _setup_times(env: dict, configs: list[str]) -> list[float]:
    """Wall time of fresh interpreters that import nearcurve, load the configs and resolve the curves."""
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, os.path.join(ROOT, "src"), *configs],
                       env=env, cwd=ROOT, check=True, timeout=60)
        times.append(perf_counter() - start)
    return times


def _write_config(out: str, name: str, run: workloads.Run) -> tuple[str, str, str]:
    path = os.path.join(out, "configs", f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(run.text())
    return run.tag, run.mode, path


def end_to_end(walls: list[float], setups: list[float], peak_rss_mb: float) -> dict:
    values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
              "peak_rss_mb": peak_rss_mb}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(layers: dict) -> dict:
    return {name: {"value": layers[name], "unit": unit} for name, unit in LAYER_METRICS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    src = os.path.join(ROOT, "src")
    config_dir = os.path.join(ROOT, "configs")
    if not os.path.isfile(os.path.join(src, "nearcurve", "__init__.py")) or not os.path.isdir(config_dir):
        print(f"bench: no nearcurve sources under {src} or no configs under {config_dir}", file=sys.stderr)
        return 2

    out = os.path.join(ROOT, "bench", "out", args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(os.path.join(out, "configs"))
    runs = workloads.build(args.workload, args.seed, config_dir)
    spec_runs = [_write_config(out, run.tag, run) for run in runs]
    warmup_runs = [_write_config(out, f"{run.tag}-warmup", workloads.warmup(run)) for run in runs]

    env = _environment()
    setups = _setup_times(env, [path for _, _, path in spec_runs])

    trace_file = os.path.join(ROOT, "bench", "trace", f"{args.workload}-seed{args.seed}.jsonl")
    if args.trace:
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
    budget = TIME_LIMIT_S - CHECK_RESERVE_S - (perf_counter() - started)
    spec = {"src": src, "out": os.path.join(out, "round"), "runs": spec_runs,
            "warmup_out": os.path.join(out, "warmup"), "warmup_runs": warmup_runs,
            "seconds": args.seconds, "trace": bool(args.trace), "trace_file": trace_file,
            "budget_s": budget}
    spec_path = os.path.join(out, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    try:
        proc = subprocess.run([sys.executable, "-m", "bench.worker", spec_path], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True, timeout=budget + 10.0)
    except subprocess.TimeoutExpired:
        print("bench: the worker ran out of time", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"bench: the worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])

    ops = checks.check(runs, spec["out"])
    failing = [op for op in ops if op.problems]
    for op in failing[:20]:
        print(f"bench: FAILED {op.name}: {'; '.join(op.problems)}", file=sys.stderr)
    repeat = len(set(result["digests"])) == 1
    if not repeat:
        print("bench: outputs differ between rounds", file=sys.stderr)
    exit_ok = all(code == 0 for code in result["exit_codes"])
    if not exit_ok:
        print(f"bench: nonzero exit codes {sorted(set(result['exit_codes']))}", file=sys.stderr)
    correct = repeat and exit_ok and all(op.name in checks.KNOWN_FAULTS for op in failing)

    if args.trace:
        rounds = len(result["walls"]) + len(result["traced_walls"])
        correct = correct and result["layers_repeat"]
        metrics = per_layer(result["layers"])
    else:
        rounds = len(result["walls"])
        metrics = end_to_end(result["walls"], setups, result["peak_rss_mb"])
    print(json.dumps({"correct": bool(correct), "attempted": len(ops) * rounds,
                      "failed": len(failing) * rounds, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
