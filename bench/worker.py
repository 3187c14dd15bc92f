"""The process that runs one workload through ``nearcurve.cli.main``.

Usage: ``python3 -m bench.worker SPEC.json`` from the repository root, with
``src`` first on ``PYTHONPATH``.  The spec names the runs (mode and config
file), the cut-down configs of the warm-up round, the output directory, the
seconds to measure and whether to trace.  One round runs every config of the
workload once, in one process.  After an untimed warm-up round the worker
times whole rounds until the seconds are used up.  With tracing it
alternates plain and traced rounds, so the overhead of tracing is the
difference of their medians.  Every timed round writes to the same
directory; the digest of its files after each round shows whether the
outputs repeat.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter


def _digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    started = perf_counter()
    import nearcurve
    from nearcurve import cli

    src = os.path.realpath(spec["src"])
    if os.path.commonpath([os.path.realpath(nearcurve.__file__), src]) != src:
        print(f"nearcurve imported from {nearcurve.__file__}, not from {src}", file=sys.stderr)
        return 1

    out = spec["out"]
    exit_codes: list[int] = []
    digests: list[str] = []

    def one_round(runs=spec["runs"], dest=out) -> float:
        sink = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(sink):
            for tag, mode, config in runs:
                exit_codes.append(cli.main([mode, "--config", config, "--out", os.path.join(dest, tag),
                                            "--jobs", "1", "--precision", "double"]))
        return perf_counter() - start

    def timed_round() -> float:
        wall = one_round()
        digests.append(_digest(out))
        return wall

    def more(step_s: float) -> bool:
        """Whether to time another step: the seconds are not used up and the budget allows one."""
        now = perf_counter()
        if now - measure_start >= spec["seconds"]:
            return False
        return now - started + step_s < spec["budget_s"]

    one_round(spec["warmup_runs"], spec["warmup_out"])
    measure_start = perf_counter()
    result: dict = {"exit_codes": exit_codes, "digests": digests}
    if not spec["trace"]:
        walls = [timed_round()]
        while more(max(walls)):
            walls.append(timed_round())
        result.update(walls=walls, peak_rss_mb=_peak_rss_mb())
    else:
        from bench import tracing

        tracer = tracing.Tracer()
        plain: list[float] = []
        traced: list[float] = []
        per_round: list[dict] = []
        firsts: list[int] = []
        while not plain or more(max(plain) + max(traced)):
            plain.append(timed_round())
            firsts.append(len(tracer.spans))
            tracer.install()
            try:
                traced.append(timed_round())
            finally:
                tracer.uninstall()
            per_round.append(tracer.metrics(firsts[-1]))
        tracer.write(spec["trace_file"], firsts)
        result.update(walls=plain, traced_walls=traced,
                      layers=tracing.combine(per_round, plain, traced),
                      layers_repeat=tracing.exact_repeat(per_round))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
