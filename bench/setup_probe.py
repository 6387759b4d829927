"""One set-up, timed in a fresh interpreter.

Usage: python3 bench/setup_probe.py WORKLOAD SEED DATA_PATH|-

The clock starts before `import fewproto` and stops once the config is
validated and the workload's pool is in memory: what `fewproto eval`
pays before its first episode. Prints one JSON object with
`import_ms`, `load_ms` and `setup_s`. The caller sets PYTHONPATH and the
BLAS thread variables.
"""

import json
import sys
import time


def main(argv: list[str]) -> int:
    name, seed, data = argv[1], int(argv[2]), argv[3]
    t0 = time.perf_counter()
    import fewproto
    t_import = time.perf_counter()
    import workloads
    workload = workloads.WORKLOADS[name]
    config = workloads.build_config(workload, seed, workload.tasks_per_call,
                                    None if data == "-" else data)
    config.validate()
    fewproto.harness._resolve_pool(config)
    t_end = time.perf_counter()
    print(json.dumps({
        "import_ms": (t_import - t0) * 1e3,
        "load_ms": (t_end - t_import) * 1e3,
        "setup_s": t_end - t0,
        "fewproto_file": fewproto.__file__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
