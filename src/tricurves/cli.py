"""Command line front end.

    tricurves <command> --config experiment.ini --out runs/exp [--jobs K]
                        [--seed-override S]

Commands: sample, spectrum, ids, lyapunov, curve, verify, compare.
Exit codes: 0 success, 2 validation error, 3 numerical failure,
4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import NumericalError, ValidationError, VerificationFailure
from . import pipeline


# command -> (stage runner, help)
_COMMANDS = {
    "sample": (pipeline.stage_sample, "write coefficient realizations"),
    "spectrum": (pipeline.stage_spectrum, "dense spectra per (n, rep) plus non-real summary"),
    "ids": (pipeline.stage_ids, "estimate the integrated density of states"),
    "lyapunov": (pipeline.stage_lyapunov, "Lyapunov scans (transfer and Thouless routes)"),
    "curve": (pipeline.stage_curve, "trace the predicted limit curve, support and density"),
    "verify": (pipeline.stage_verify, "run the invariant battery against budgets"),
    "compare": (pipeline.stage_compare, "empirical spectra against the predicted limit"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tricurves", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="; ".join(f"{name}: {text}" for name, (_, text) in _COMMANDS.items()))
    parser.add_argument("--config", required=True, help="experiment config (INI)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--jobs", type=int, default=1, help="worker pool size")
    parser.add_argument("--seed-override", type=int, default=None, help="replace the config seed")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.jobs < 1:
            raise ValidationError(f"--jobs must be >= 1, got {args.jobs}")
        cfg = load_config(args.config)
        if args.seed_override is not None:
            cfg = cfg.with_seed(args.seed_override)
        os.makedirs(args.out, exist_ok=True)
        stage, _ = _COMMANDS[args.command]
        _, lines, ok = stage(cfg, args.out, jobs=args.jobs)
        for line in lines:
            print(line)
        if not ok:
            raise VerificationFailure(f"{args.command}: one or more checks failed")
        return 0
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
