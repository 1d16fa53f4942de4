"""Command-line front end: one subcommand per experiment kind plus
``verify`` for the acceptance suite.

Exit codes: 0 all verdicts pass, 1 a verdict failed, 2 config error,
3 numerical error, 4 internal error (any other exception, reported as
one ``internal error: <Type>: <message>`` line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .acceptance import run_acceptance
from .config import KINDS, validate_config
from .errors import ConfigError, NumericalError
from .experiments import run_experiment

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_INTERNAL = 4

_THREADS_ENV = "SPARSELOC_THREADS"


def _default_threads() -> int:
    """``$SPARSELOC_THREADS``, or 1 when unset; anything but an integer >= 1
    is a config error."""
    text = os.environ.get(_THREADS_ENV, "1")
    try:
        threads = int(text)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError([(_THREADS_ENV, f"must be an integer >= 1, got {text!r}")])
    return threads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparseloc",
        description="numerical lab for lattice operators with sparse random potentials",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run a {kind} experiment from a config file")
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory for artifacts")
        p.add_argument("--threads", type=int, default=None,
                       help=f"worker threads (default ${_THREADS_ENV} or 1)")
    v = sub.add_parser("verify", help="run the acceptance suite presets")
    v.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    v.add_argument("--out", default=None, help="directory for acceptance artifacts")
    v.add_argument("--threads", type=int, default=None)
    return parser


def _internal(exc: Exception) -> int:
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_INTERNAL


def _run_kind(kind: str, args, default_threads: int) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(raw, dict):
        print("config error: top level must be an object", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.out is not None:
        raw["out"] = args.out
    try:
        raw["threads"] = args.threads if args.threads is not None else raw.get(
            "threads", default_threads
        )
        cfg = validate_config(raw, kind)
    except ConfigError as exc:
        print("config rejected:", file=sys.stderr)
        for field, reason in exc.violations:
            print(f"  {field}: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    for key, value in sorted(cfg.derived.items()):
        print(f"derived {key}: {value}")
    try:
        manifest = run_experiment(cfg)
    except NumericalError as exc:
        print(f"numerical error: {exc} {exc.diagnostics}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        return _internal(exc)
    for name, ok in sorted(manifest.verdicts.items()):
        print(f"verdict {name}: {'pass' if ok else 'FAIL'}")
    print(f"artifacts: {args.out or cfg.out or os.path.join('runs', kind)}")
    return EXIT_OK if manifest.all_passed else EXIT_VERDICT


def _run_verify(args, default_threads: int) -> int:
    indices = None
    if args.criteria:
        try:
            indices = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        except ValueError:
            print("verify: --criteria must be comma-separated integers", file=sys.stderr)
            return EXIT_CONFIG
    try:
        threads = args.threads if args.threads is not None else default_threads
        results = run_acceptance(indices=indices, workdir=args.out, threads=threads)
    except ConfigError as exc:
        for field, reason in exc.violations:
            print(f"verify: {field}: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except Exception as exc:
        return _internal(exc)
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERDICT


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:  # checked under every subcommand, whichever count the run then takes
        default_threads = _default_threads()
    except ConfigError as exc:
        for field, reason in exc.violations:
            print(f"{args.command}: {field}: {reason}", file=sys.stderr)
        return EXIT_CONFIG
    if args.command == "verify":
        return _run_verify(args, default_threads)
    return _run_kind(args.command, args, default_threads)


if __name__ == "__main__":
    sys.exit(main())
