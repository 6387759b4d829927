"""Write a file workload's EMB1 pool for one seed.

Usage: python3 bench/make_pool.py WORKLOAD SEED PATH

Runs in its own process so that generating the pool adds nothing to the
set-up time or peak memory of the measured process.
"""

import sys

import workloads


def main(argv: list[str]) -> int:
    name, seed, path = argv[1], int(argv[2]), argv[3]
    workloads.write_file_pool(workloads.WORKLOADS[name], seed, path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
