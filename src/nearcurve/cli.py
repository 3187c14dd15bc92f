"""Command-line entry point.

Exit codes: 0 success, 1 config error, 2 precondition violation,
3 a built-in consistency check failed (useful for CI gates).
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .config import MODES, load_config
from .errors import CheckFailure, ConfigError, PreconditionError
from .harness import dim_exponent, divergence_partial_sum, run_experiment


@functools.cache  # parse_args returns a fresh Namespace; one parser leaves no garbage per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearcurve",
        description="Detect, count and analyse shifted rational points near curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run the {mode} experiment")
        p.add_argument("--config", required=True, help="path to the experiment config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument("--jobs", type=int, choices=(1,), default=1,
                       help="cells run one after another (1 only)")
        p.add_argument("--precision", choices=("double",), default="double",
                       help="float type of the lattice layer (float64 only)")

    p = sub.add_parser("dim", help="dimension lower-bound exponent calculator")
    p.add_argument("n", type=int)
    p.add_argument("tau", type=str, help="decay exponent, e.g. 3/4 or 0.75")

    p = sub.add_parser("divsum", help="partial sums of the divergence series")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, default=100000)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "dim":
            res = dim_exponent(args.n, Fraction(args.tau))
            print(f"n={res.n} tau={res.tau} lower_bound={res.lower_bound} "
                  f"(~{float(res.lower_bound):.6f}) in_range={res.in_range}")
            if res.stated_range_empty:
                print("notice: the stated range n <= tau < 3/(2n-1) is empty for this n; "
                      "only the upper condition is checked")
            return 0
        if args.command == "divsum":
            res = divergence_partial_sum(args.tau, args.s, args.n, args.N)
            print(f"exponent={res.exponent:.6g} partial_sum={res.partial_sum:.10g} "
                  f"verdict={res.verdict}" + (" (boundary)" if res.boundary else ""))
            return 0

        cfg = load_config(args.config)
        outcome = run_experiment(cfg, mode=args.command, out_dir=args.out, seed=args.seed)
        for path in outcome.files:
            print(f"wrote {path}")
        print(f"summary: {outcome.summary}")
        if outcome.checks_passed is False:
            raise CheckFailure(f"{args.command}: consistency checks failed")
        if outcome.checks_passed is True:
            print("checks: pass")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
