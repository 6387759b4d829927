"""Command-line interface: eval, synth, and gradcheck subcommands."""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .embeddings import generate_synthetic, save_embedding_set
from .harness import (SOURCES, RunConfig, RunError, emit_report, flat_fields,
                      load_config_file, run_eval)
from .verification import run_gradcheck_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewproto",
        description="Few-shot evaluation with graph aggregation and "
                    "trainable class prototypes over embedding vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="run an episodic evaluation")
    ev.add_argument("--config", help="flat key=value config file")
    # One flag per config key, its `dest`; values stay text and parse as
    # config-file values do.
    sources = ev.add_mutually_exclusive_group()
    for key, _, f, _ in flat_fields(RunConfig()):
        (sources if key in SOURCES else ev).add_argument(
            f.metadata["flag"], dest=key, metavar=key,
            choices=f.metadata["choices"], help=f.metadata["help"])
    ev.add_argument("--out", help="report path (JSON)")

    sy = sub.add_parser("synth", help="write a synthetic embedding file")
    sy.add_argument("--out", required=True)
    sy.add_argument("--classes", type=int, required=True)
    sy.add_argument("--per-class", type=int, required=True)
    sy.add_argument("--dim", type=int, required=True)
    sy.add_argument("--mean-scale", type=float, required=True)
    sy.add_argument("--sigma", type=float, required=True)
    sy.add_argument("--seed", type=int, default=0)

    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of analytic gradients")
    gc.add_argument("--trials", type=int, default=100)
    gc.add_argument("--tolerance", type=float, default=1e-4)
    gc.add_argument("--seed", type=int, default=0)
    return parser


def eval_config(args: argparse.Namespace) -> RunConfig:
    """The run config of parsed `eval` arguments: the config file's
    values, then the flags given."""
    config = RunConfig()
    if args.config:
        for key, value in load_config_file(args.config).items():
            config.set_flat(key, value)
    # Each config key is the `dest` of its flag; None means not given.
    flags = {key: vars(args)[key] for key in config.to_flat()
             if vars(args)[key] is not None}
    if flags.keys() & set(SOURCES):  # it replaces the config file's source
        flags = dict.fromkeys(SOURCES) | flags
    for key, value in flags.items():
        config.set_flat(key, value)
    return config


def _eval_command(args: argparse.Namespace) -> int:
    config = eval_config(args)
    # A report with nowhere to go fails before the run, not after it.
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise RunError(f"--out {args.out}: its directory does not exist")
    report = run_eval(config)
    if args.out:
        emit_report(report, args.out)
    else:
        print(report.summary_line())
    return 0


def _synth_command(args: argparse.Namespace) -> int:
    emb = generate_synthetic(args.classes, args.per_class, args.dim,
                             args.mean_scale, args.sigma,
                             np.random.default_rng(args.seed))
    save_embedding_set(emb, args.out)
    print(f"wrote {emb.n_records} records, {emb.n_classes} classes, "
          f"dim {emb.dim} to {args.out}")
    return 0


def _gradcheck_command(args: argparse.Namespace) -> int:
    report = run_gradcheck_suite(trials=args.trials,
                                 tolerance=args.tolerance, seed=args.seed)
    print(f"gradcheck: {report.n_checks} checks, "
          f"max relative error {report.max_error:.3e} "
          f"(tolerance {report.tolerance:g})")
    if not report.passed:
        for name, trial, err in report.failures[:10]:
            print(f"  FAIL {name} trial {trial}: {err:.3e}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return _eval_command(args)
        if args.command == "synth":
            return _synth_command(args)
        return _gradcheck_command(args)
    except (RunError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
