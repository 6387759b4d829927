"""Command-line interface: eval, synth, and gradcheck subcommands."""

from __future__ import annotations

import argparse
import os
import re
import sys

from . import verification
from .embeddings import save_embedding_set
from .harness import (SOURCES, RunConfig, RunError, _resolve_pool, emit_report,
                      flat_fields, load_config_file, run_eval)

# A value, not an option, though it starts with "-": what float() reads
# as a negative number, exponent form included.
NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf(inity)?|nan)$", re.I)


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

    sy = sub.add_parser("synth", help="write the pool eval --synthetic reads")
    sy.add_argument("--out", required=True, help="embedding file path")
    sy.add_argument("--synthetic", required=True, metavar="synthetic")
    sy.add_argument("--seed", metavar="seed")

    sub.add_parser("gradcheck",
                   help="finite-difference check of analytic gradients")
    # argparse's own test of a negative number has no exponent form, so
    # it took "-1e-3" for an option; a flag reads it as a config file does.
    for subparser in (ev, sy):
        subparser._negative_number_matcher = NEGATIVE_NUMBER
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


def _check_out(path: str | None) -> None:
    """An output with nowhere to go fails before the work, not after it."""
    if path and not os.path.isdir(os.path.dirname(path) or "."):
        raise RunError(f"--out {path}: its directory does not exist")
    if path and os.path.isdir(path):
        raise RunError(f"--out {path}: is a directory, not a file path")


def _eval_command(args: argparse.Namespace) -> int:
    config = eval_config(args)
    _check_out(args.out)
    report = run_eval(config)
    if args.out:
        emit_report(report, args.out)
    else:
        print(report.summary_line())
    return 0


def _synth_command(args: argparse.Namespace) -> int:
    seed = {} if args.seed is None else {"seed": args.seed}
    config = RunConfig.from_flat({"synthetic": args.synthetic, **seed})
    config.validate()
    _check_out(args.out)
    emb = _resolve_pool(config)
    save_embedding_set(emb, args.out)
    print(f"wrote {emb.n_records} records, {emb.n_classes} classes, "
          f"dim {emb.dim} to {args.out}")
    return 0


def _gradcheck_command() -> int:
    report = verification.run_gradcheck_suite()
    print(f"gradcheck: {report.n_checks} checks, "
          f"max relative error {report.max_error:.3e} "
          f"(tolerance {verification.TOLERANCE:g})")
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
        return _gradcheck_command()
    except (RunError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
