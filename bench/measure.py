"""One benchmark run: measure a workload and check its outputs.

--trace 0 reports the end-to-end metrics:
  episodes_per_s  the best, over the run's run_eval calls at the
                  workload's fixed task count, of completed episodes /
                  call wall time. Other tenants of a shared machine slow
                  calls down, by up to half for seconds or minutes, and
                  never speed them up; so, as with `timeit`, the fastest
                  call tracks the program and repeats from run to run,
                  where the median does not. Every call's rate is
                  printed with the run details.
  setup_s         median of SETUP_PROBES fresh interpreters spread over
                  the run, each timed from before `import fewproto` to a
                  validated config and a loaded pool (setup_probe.py)
  peak_rss_mb     peak resident set (ru_maxrss) of this process, which
                  runs every run_eval call; pool files are written by a
                  child process so they do not count
--trace 1 alternates untraced run_eval calls with traced passes over the
same tasks (tracing.py), then reports per-module
p50/p95 timings, the set-up split into `setup.import_ms` and
`embeddings.load_ms`, `graph.import_ms` from `-X importtime`, and the
tracing overhead.

Outputs are checked on every run: a reference call at REFERENCE_SEED
must reproduce the per-task accuracies in reference.json, every timed
call must repeat the first one, and the traced passes must reproduce
the untraced accuracies. An episode that aborts or differs counts as
failed; failed / attempted is the failed-episode fraction. A call with
an abort cannot be aligned with the accuracies it is checked against,
so all of its episodes count as failed; at 40 tasks a single abort
exceeds run_eval's 1% cap, so there it raises RunError and ends the run
without a result.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

import machine
import tracing
from fewproto import run_eval
from fewproto.harness import _resolve_pool
from workloads import (REFERENCE_SEED, WORKLOADS, Workload, build_config,
                       pool_path)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, ".work")
REFERENCE_FILE = os.path.join(BENCH_DIR, "reference.json")

SETUP_PROBES = 11
IMPORTTIME_PROBES = 3
# Timed calls (and, traced, passes) every run makes, whatever --seconds.
MIN_CALLS = 2
CHILD_TIMEOUT_S = 120


class Tally:
    """Episodes attempted and failed across every check of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, n_tasks: int, got: list[float],
            want: list[float] | None) -> None:
        """Count one pass of `n_tasks` episodes.

        `got` lists the completed episodes' accuracies as run_eval
        reports them, aborted ones dropped. Aborts fail, and so does any
        accuracy that differs from `want`. A pass with aborts cannot be
        aligned with `want`, so then all of its episodes fail.
        """
        self.attempted += n_tasks
        if want is not None and len(got) != n_tasks:
            self.failed += n_tasks
            return
        self.failed += n_tasks - len(got)
        if want is not None:
            self.failed += sum(a != b for a, b in zip(got, want))


def _child(args: list[str]) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return proc


def _make_pool(workload: Workload, seed: int, work: str) -> str | None:
    path = pool_path(work, workload, seed)
    if path is not None and not os.path.exists(path):
        _child([os.path.join(BENCH_DIR, "make_pool.py"), workload.name,
                str(seed), path])
    return path


def _setup_probe(name: str, seed: int, data_path: str | None) -> dict:
    proc = _child([os.path.join(BENCH_DIR, "setup_probe.py"), name, str(seed),
                   data_path or "-"])
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(probe["fewproto_file"]).startswith(SRC + os.sep):
        raise RuntimeError(f"probe imported {probe['fewproto_file']}")
    return probe


def _graph_import_ms() -> list[float]:
    """Cumulative import time of fewproto.graph, from `-X importtime`."""
    out = []
    for _ in range(IMPORTTIME_PROBES):
        proc = _child(["-X", "importtime", "-c", "import fewproto"])
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "fewproto.graph":
                out.append(int(parts[1]) / 1e3)
    if len(out) != IMPORTTIME_PROBES:
        raise RuntimeError("fewproto.graph missing from -X importtime output")
    return out


def _untraced_call(config, tally: Tally, want: list[float] | None):
    """One run_eval call; returns (wall seconds, per-task accuracies)."""
    t = time.perf_counter()
    report = run_eval(config)
    dt = time.perf_counter() - t
    got = report.per_task_accuracy
    tally.add(config.n_tasks, got, want)
    return dt, got


def _another(n_calls: int, used_s: float, next_s: float,
             seconds: float) -> bool:
    """Whether to start another call: one expected to end within budget."""
    return n_calls < MIN_CALLS or used_s + next_s <= seconds


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _end_to_end(name: str, seed: int, data_path: str | None, config,
                seconds: float, tally: Tally) -> tuple[dict, dict]:
    # Every call repeats the first one's config, so each must reproduce
    # the first call's per-task accuracies. The set-up probes run between
    # calls, outside the timed seconds, spread over the run so that their
    # median does not hang on one stretch of a shared machine.
    dt, first = _untraced_call(config, tally, None)
    times, setup = [dt], []
    while _another(len(times), sum(times), times[-1], seconds):
        times.append(_untraced_call(config, tally, first)[0])
        due = min(SETUP_PROBES, SETUP_PROBES * sum(times) / seconds)
        while len(setup) < due:
            setup.append(_setup_probe(name, seed, data_path)["setup_s"])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_probe(name, seed, data_path)["setup_s"])
    rates = [len(first) / dt for dt in times]
    metrics = {
        "episodes_per_s": _metric(max(rates), "episodes/s"),
        "setup_s": _metric(statistics.median(setup), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }
    details = {"calls": len(rates), "rates": rates,
               "setup_s_probes": setup}
    return metrics, details


def _per_layer(name: str, seed: int, data_path: str | None, config,
               seconds: float, tally: Tally) -> tuple[dict, dict]:
    # Untraced calls and traced passes alternate, so both see the same
    # machine; every pass must reproduce the first call's accuracies.
    start = time.perf_counter()
    dt, untraced = _untraced_call(config, tally, None)
    rates, pass_rates, spans = [len(untraced) / dt], [], tracing.Spans()
    pair_s = 2 * dt  # a traced pass and an untraced call
    while _another(len(pass_rates), time.perf_counter() - start, pair_s,
                   seconds):
        t = time.perf_counter()
        rate, per_task = tracing.traced_pass(config, spans)
        pass_rates.append(rate)
        tally.add(config.n_tasks, [a for a in per_task if a is not None],
                  untraced)
        dt = _untraced_call(config, tally, untraced)[0]
        rates.append(len(untraced) / dt)
        pair_s = time.perf_counter() - t
    adam = tracing.adam_update_samples(
        (config.n_ways, _resolve_pool(config).dim))
    probes = [_setup_probe(name, seed, data_path)
              for _ in range(SETUP_PROBES)]
    graph_import = _graph_import_ms()

    timings = dict(spans.samples)
    timings["head.epoch_us"] = [v / config.head.epochs
                                for v in timings["head.train_us"]]
    timings["prototypes.step_us"] = [v / config.proto.epochs
                                     for v in timings["prototypes.train_us"]]
    timings["optim.adam_update_us"] = adam
    metrics = {}
    for stem, values in timings.items():
        p50, p95 = np.percentile(values, [50, 95])
        metrics[f"{stem}.p50"] = _metric(p50, "us")
        metrics[f"{stem}.p95"] = _metric(p95, "us")
    metrics["graph.edges"] = _metric(statistics.median(spans.edges), "count")
    metrics["graph.import_ms"] = _metric(statistics.median(graph_import), "ms")
    metrics["setup.import_ms"] = _metric(
        statistics.median(p["import_ms"] for p in probes), "ms")
    metrics["embeddings.load_ms"] = _metric(
        statistics.median(p["load_ms"] for p in probes), "ms")
    metrics["harness.trace_overhead_frac"] = _metric(
        max(rates) / max(pass_rates) - 1.0, "frac")
    details = {"untraced_calls": len(rates), "traced_passes": len(pass_rates),
               "samples": {k: len(v) for k, v in timings.items()}}
    return dict(sorted(metrics.items())), details


def _load_reference(name: str) -> tuple[int, list[float]]:
    with open(REFERENCE_FILE) as f:
        ref = json.load(f)
    return ref["seed"], ref["workloads"][name]


def run(name: str, seed: int, seconds: float, trace: bool,
        blas_threads: int) -> int:
    workload = WORKLOADS[name]
    print(json.dumps({"machine": machine.facts(blas_threads)}), flush=True)
    ref_seed, ref_acc = _load_reference(name)
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        tally = Tally()
        # The reference call doubles as warm-up for the timed calls.
        ref_config = build_config(workload, ref_seed, len(ref_acc),
                                  _make_pool(workload, ref_seed, work))
        tally.add(ref_config.n_tasks, run_eval(ref_config).per_task_accuracy,
                  ref_acc)
        data_path = _make_pool(workload, seed, work)
        config = build_config(workload, seed, workload.tasks_per_call,
                              data_path)
        measure = _per_layer if trace else _end_to_end
        metrics, details = measure(name, seed, data_path, config, seconds,
                                   tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def write_reference() -> None:
    """Record each workload's per-task accuracies at REFERENCE_SEED."""
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(dir=WORK_DIR)
    out = {"seed": REFERENCE_SEED, "workloads": {}}
    try:
        for name, workload in WORKLOADS.items():
            config = build_config(workload, REFERENCE_SEED,
                                  workload.reference_tasks,
                                  _make_pool(workload, REFERENCE_SEED, work))
            per_task = run_eval(config).per_task_accuracy
            if len(per_task) != workload.reference_tasks:
                raise RuntimeError(f"{name}: reference run aborted episodes")
            out["workloads"][name] = per_task
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE_FILE, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
