"""Episodic evaluation benchmark for fewproto.

Run from the repository root:

    python3 bench/run.py --workload trained_5w5s --seed 1 --seconds 30 --trace 0

Each run evaluates one workload (workloads.py) closed loop through the
public `fewproto.harness.run_eval`: one caller, one process,
`workers=1`, one episode after another, with BLAS fixed at
BLAS_THREADS threads. --trace 0 prints the end-to-end metrics, --trace 1
the per-layer ones (see measure.py). The last stdout line is the JSON
result {"correct", "attempted", "failed", "metrics"}; earlier lines
carry machine facts and run details.

`python3 bench/run.py --write-reference` re-records reference.json,
the per-task accuracies every run re-checks.
"""

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
# One BLAS thread: on two cores, default OpenBLAS threading ran these
# small matrices slower than one thread. The value must not exceed nproc.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fewproto", "__init__.py")):
        print(f"bench: fewproto sources not found under {SRC}", file=sys.stderr)
        return 2
    # numpy reads these when it loads, and child processes inherit them,
    # so they are set before anything imports numpy.
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    import measure

    if args.write_reference:
        measure.write_reference()
        return 0
    if args.workload not in measure.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(measure.WORKLOADS)}")
    return measure.run(args.workload, args.seed, args.seconds,
                       bool(args.trace), BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
