"""Command-line entry points for the experiment pipeline.

Exit codes: 0 success, 2 configuration error (an unreadable config file
is one, and so is an output directory that a file blocks), 3 stage
failure (running out of memory and a worker process that dies without a
result are ones), 4 reproduction stalled.  A compare method that
fails is reported on stderr as a warning; the command still exits 0 with
that method's rows left empty.

BLAS is held to one thread unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS
is already set: outputs are identical at any thread count, and a second
BLAS thread only slows genil's small matrices when the other core is busy.
"""

from __future__ import annotations

import os

# Before anything imports numpy: BLAS reads these when it loads.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import argparse
import dataclasses
import sys

from .config import ExperimentConfig, load_config
from .errors import ConfigError, GenilError, ReproductionStalledError
from .pipeline import COMMANDS, run_command

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3
EXIT_STALLED = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genil",
        description="Genetic reproduction of demonstrations with ranking-loss "
        "reward inference on toy environments.",
    )
    parser.add_argument("--config", metavar="PATH", help="experiment config file")
    parser.add_argument(
        "--seed", type=int, metavar="N", help="override the config base seed"
    )
    parser.add_argument("--out", metavar="DIR", help="override the output directory")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (_, help_text) in COMMANDS.items():
        sub.add_parser(name, help=help_text)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    say = (lambda *a: None) if args.quiet else (lambda *a: print(*a))
    try:
        cfg = load_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            cfg = dataclasses.replace(cfg, base_seed=args.seed)
        manifest = run_command(args.command, cfg, out_dir=args.out)
    except ConfigError as exc:
        print(f"genil: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ReproductionStalledError as exc:
        print(f"genil: reproduction stalled: {exc}", file=sys.stderr)
        for bucket in sorted(exc.bucket_fill):
            print(
                f"genil:   bucket {bucket}: {exc.bucket_fill[bucket]}/{exc.quota} filled",
                file=sys.stderr,
            )
        print(f"genil:   attempts used: {exc.attempts}", file=sys.stderr)
        return EXIT_STALLED
    except (GenilError, OSError) as exc:
        print(f"genil: {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except MemoryError as exc:  # a bare MemoryError() has no message
        reason = ": ".join(filter(None, (type(exc).__name__, str(exc))))
        print(f"genil: {args.command} failed: {reason}", file=sys.stderr)
        return EXIT_STAGE
    for method, reason in manifest.meta.get("method_errors", {}).items():
        print(f"genil: warning: {method} failed: {reason}", file=sys.stderr)
    for warning in manifest.warnings:
        say(f"genil: warning: {warning}")
    out = args.out if args.out is not None else cfg.output_dir
    say(f"genil: {args.command}: wrote {len(manifest.artifacts)} artifacts to {out}")
    return EXIT_OK


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
