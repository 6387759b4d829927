"""Command-line interface: eval, synth, and gradcheck subcommands."""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .embeddings import generate_synthetic, save_embedding_set
from .harness import (RunConfig, RunError, emit_report, load_config_file,
                      run_eval)
from .verification import run_gradcheck_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewproto",
        description="Few-shot evaluation with graph aggregation and "
                    "trainable class prototypes over embedding vectors.")
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="run an episodic evaluation")
    src = ev.add_mutually_exclusive_group()
    src.add_argument("--data", help="embedding file (EMB1 format)")
    src.add_argument("--synthetic", metavar="C,P,D,MS,SIG",
                     help="synthetic pool: n_classes,per_class,dim,"
                          "mean_scale,sigma")
    ev.add_argument("--config", help="flat key=value config file")
    ev.add_argument("--ways", type=int, dest="n_ways")
    ev.add_argument("--shots", type=int, dest="k_shots")
    ev.add_argument("--queries", type=int, dest="n_queries")
    ev.add_argument("--tasks", type=int, dest="n_tasks")
    ev.add_argument("--seed", type=int)
    ev.add_argument("--proto", choices=["trained", "mean"],
                    dest="proto.strategy", help="prototype strategy")
    ev.add_argument("--mask", choices=["on", "off"], dest="mask.enabled",
                    help="attention-mask correction of query features")
    ev.add_argument("--top-m", type=int, dest="graph.top_m")
    ev.add_argument("--self-weight", type=float, dest="graph.self_weight")
    ev.add_argument("--rounds", type=int, dest="graph.rounds")
    ev.add_argument("--head-epochs", type=int, dest="head.epochs")
    ev.add_argument("--head-lr", type=float, dest="head.lr")
    ev.add_argument("--n-aug", type=int, dest="head.n_aug")
    ev.add_argument("--proto-epochs", type=int, dest="proto.epochs")
    ev.add_argument("--proto-lr", type=float, dest="proto.lr")
    ev.add_argument("--entropy-weight", type=float,
                    dest="proto.entropy_weight")
    ev.add_argument("--class-weight", type=float, dest="proto.class_weight")
    ev.add_argument("--mask-scale", type=float, dest="mask.scale")
    ev.add_argument("--mask-boost", type=float, dest="mask.boost")
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


def _eval_command(args: argparse.Namespace) -> int:
    config = RunConfig()
    if args.config:
        for key, value in load_config_file(args.config).items():
            config.set_flat(key, value)
    # A CLI-provided source replaces whichever one the config file had.
    if args.data is not None:
        config.synthetic = None
    if args.synthetic is not None:
        config.data = None
    # Each config key is the `dest` of its flag; None means not given.
    flags = vars(args)
    for key in config.to_flat():
        if flags[key] is not None:
            config.set_flat(key, flags[key])
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
