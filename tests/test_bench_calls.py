"""The library calls the benchmark makes still work.

This drives bench/tracing.py's traced pass, which calls the pipeline's
public functions one by one, and checks it against run_eval on small
configs of the bench's synthetic workloads. It also runs the benchmark
itself once, briefly, as its command line does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fewproto.harness import RunConfig, run_eval

BENCH = str(Path(__file__).resolve().parents[1] / "bench")


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, BENCH)
    try:
        import tracing
        import workloads
        yield tracing, workloads
    finally:
        sys.path.remove(BENCH)


@pytest.mark.parametrize("workload", ["trained_5w5s", "mean_5w5s"])
def test_traced_pass_matches_run_eval(bench, workload):
    tracing, workloads = bench
    flat = dict(workloads.WORKLOADS[workload].flat, n_tasks=3, seed=0)
    flat["proto.epochs"] = 20
    assert flat["synthetic"] == workloads.SYNTHETIC_POOL
    _, traced = tracing.traced_pass(RunConfig.from_flat(flat),
                                    tracing.Spans())
    assert traced == run_eval(RunConfig.from_flat(flat)).per_task_accuracy


def test_adam_update_samples(bench):
    tracing, _ = bench
    samples = tracing.adam_update_samples((5, 64), 3)
    assert len(samples) == 3 and all(s >= 0.0 for s in samples)


def test_bench_smoke_run(bench):
    # The shortest run of each workload still makes its reference check
    # and one timed call.
    for workload in bench[1].WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(BENCH) / "run.py"), "--workload",
             workload, "--seed", "1", "--seconds", "0.01", "--trace", "0"],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, (workload, proc.stderr)
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0, workload
        assert result["metrics"]["episodes_per_s"]["value"] > 0, workload
