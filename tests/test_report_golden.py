"""Report bytes pinned against committed fixtures.

Every number a report carries except `wall_time` is seed-deterministic,
and the kernels behind it (top-m sparsification, prototype means,
masked cosine scoring) are rewritten only when the rewrite gives the
same bits. Each fixture under tests/golden/ holds the report JSON of one
bench-shaped config, serialized as `emit_report` writes it, minus
`wall_time`; a kernel change that moves any bit of a score far enough to
flip a prediction or a diagnostic fails here.

To re-record after an intended change of results:

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from fewproto.harness import RunConfig, run_eval

GOLDEN = Path(__file__).parent / "golden"
SYNTHETIC_64 = "20,50,64,3.0,1.5"
SHAPE_5W5S = {"n_ways": 5, "k_shots": 5, "n_queries": 15}

# The three bench workloads' shapes at small task counts. The 640-d pool
# is synthetic with the file workload's class spread, and just large
# enough for 5-way 1-shot with 15 queries.
CONFIGS = {
    "trained_5w5s": {"synthetic": SYNTHETIC_64, **SHAPE_5W5S,
                     "proto.strategy": "trained", "mask.enabled": True,
                     "n_tasks": 6, "seed": 3},
    "mean_5w5s": {"synthetic": SYNTHETIC_64, **SHAPE_5W5S,
                  "proto.strategy": "mean", "mask.enabled": True,
                  "n_tasks": 60, "seed": 3},
    "trained640_5w1s": {"synthetic": "20,20,640,6.0,1.5", "n_ways": 5,
                        "k_shots": 1, "n_queries": 15,
                        "proto.strategy": "trained", "mask.enabled": True,
                        "n_tasks": 4, "seed": 3},
}


def report_text(flat: dict) -> str:
    """The report JSON of `flat`'s run minus wall_time, as emit_report
    serializes it."""
    report = asdict(run_eval(RunConfig.from_flat(flat)))
    del report["wall_time"]
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_report_bytes_match_fixture(name):
    want = (GOLDEN / f"{name}.json").read_text()
    assert report_text(CONFIGS[name]) == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, flat in CONFIGS.items():
        (GOLDEN / f"{name}.json").write_text(report_text(flat))
        print(f"wrote {GOLDEN / name}.json", file=sys.stderr)
