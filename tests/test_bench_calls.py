"""The library calls the benchmark makes still work.

This drives bench/tracing.py's traced pass, which calls the pipeline's
public functions one by one, and checks it against run_eval on small
configs of the bench's synthetic workloads. It also runs the benchmark
itself, briefly, as its command line does: each workload once, and one
traced, all four at once, and checks their metric names against
BENCHMARK.json's.
"""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from fewproto.harness import RunConfig, run_eval

ROOT = Path(__file__).resolve().parents[1]
BENCH = str(ROOT / "bench")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


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


@pytest.fixture(scope="module")
def bench_runs():
    """The shortest bench run of each workload, and one traced run of
    mean_5w5s, all started together: each still makes its reference
    check and one timed call. Maps (workload, trace) to its process."""
    keys = [(w["name"], 0) for w in DECLARED["workloads"]]
    keys.append(("mean_5w5s", 1))
    with contextlib.ExitStack() as stack:
        runs = {}
        for workload, trace in keys:
            proc = stack.enter_context(subprocess.Popen(
                [sys.executable, str(Path(BENCH) / "run.py"), "--workload",
                 workload, "--seed", "1", "--seconds", "0.01", "--trace",
                 str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
            stack.callback(proc.kill)  # runs before the exit waits for it
            runs[workload, trace] = proc
        yield runs


def bench_result(runs: dict, workload: str, trace: int) -> dict:
    """The result line of the `bench_runs` run of `workload`."""
    proc = runs[workload, trace]
    stdout, stderr = proc.communicate(timeout=300)
    assert proc.returncode == 0, (workload, stderr)
    result = json.loads(stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, workload
    return result


def declared_names(kind: str) -> set:
    return {metric["name"] for metric in DECLARED[kind]}


def test_bench_smoke_run(bench, bench_runs):
    # Every workload reports the end-to-end metrics BENCHMARK.json names.
    workloads = bench[1].WORKLOADS
    assert {w["name"] for w in DECLARED["workloads"]} == set(workloads)
    for workload in workloads:
        result = bench_result(bench_runs, workload, trace=0)
        assert result["metrics"].keys() == declared_names("end_to_end")
        assert result["metrics"]["episodes_per_s"]["value"] > 0, workload


def test_bench_trace_run(bench_runs):
    # A traced run reports the per-layer metrics BENCHMARK.json names.
    result = bench_result(bench_runs, "mean_5w5s", trace=1)
    assert result["metrics"].keys() == declared_names("per_layer")
