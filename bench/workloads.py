"""Workload definitions for the episodic evaluation benchmark.

Every workload is a fixed `RunConfig` evaluated closed loop by one
caller: one process, `workers=1`, one episode after another. The
benchmark seed becomes the run seed, so it picks the synthetic pool and
every episode; for the file workload it also picks the EMB1 file that
the benchmark writes before measuring.

This module imports numpy and fewproto at the top. The set-up probe
imports it only after its import timer has stopped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import fewproto

# Seed whose per-task accuracies are recorded in reference.json and
# re-checked by every run.
REFERENCE_SEED = 0
# Seed stream for the file workload's pool, distinct from run_eval's.
FILE_POOL_STREAM = 0x66696C65
SYNTHETIC_POOL = "20,50,64,3.0,1.5"


@dataclass(frozen=True)
class FilePool:
    """An EMB1 file the benchmark generates from its seed."""

    n_classes: int
    per_class: int
    dim: int
    mean_scale: float
    sigma: float


@dataclass(frozen=True)
class Workload:
    name: str
    flat: dict            # RunConfig.from_flat keys, minus data/seed/n_tasks
    # n_tasks of each timed run_eval call, the task counts the ROADMAP
    # baselines are measured at (40 and 100 tasks).
    tasks_per_call: int
    reference_tasks: int  # n_tasks of the reference call
    file_pool: FilePool | None = None


_SHAPE_5W5S = {"n_ways": 5, "k_shots": 5, "n_queries": 15}

WORKLOADS = {w.name: w for w in (
    Workload("trained_5w5s",
             {"synthetic": SYNTHETIC_POOL, **_SHAPE_5W5S,
              "proto.strategy": "trained", "mask.enabled": True},
             tasks_per_call=40, reference_tasks=4),
    Workload("mean_5w5s",
             {"synthetic": SYNTHETIC_POOL, **_SHAPE_5W5S,
              "proto.strategy": "mean", "mask.enabled": True},
             tasks_per_call=100, reference_tasks=40),
    # Shaped like a miniImageNet test split; mean scale 6 at sigma 1.5
    # puts 5-way 1-shot accuracy near 40%, well between chance and 100%.
    # run_eval loads the ~30 MB file once per call, inside the timed call.
    Workload("file640_trained_5w1s",
             {"n_ways": 5, "k_shots": 1, "n_queries": 15,
              "proto.strategy": "trained", "mask.enabled": True},
             tasks_per_call=40, reference_tasks=4,
             file_pool=FilePool(20, 600, 640, 6.0, 1.5)),
)}


def pool_path(work_dir: str, workload: Workload, seed: int) -> str | None:
    if workload.file_pool is None:
        return None
    return os.path.join(work_dir, f"{workload.name}.seed{seed}.emb")


def build_config(workload: Workload, seed: int, n_tasks: int,
                 data_path: str | None) -> fewproto.RunConfig:
    flat = dict(workload.flat, seed=seed, n_tasks=n_tasks)
    if data_path is not None:
        flat["data"] = data_path
    return fewproto.RunConfig.from_flat(flat)


def write_file_pool(workload: Workload, seed: int, path: str) -> None:
    """Generate the workload's EMB1 file for `seed` (atomic rename)."""
    spec = workload.file_pool
    pool = fewproto.generate_synthetic(
        spec.n_classes, spec.per_class, spec.dim, spec.mean_scale,
        spec.sigma, np.random.default_rng([seed, FILE_POOL_STREAM]))
    tmp = path + ".part"
    fewproto.save_embedding_set(pool, tmp)
    os.replace(tmp, path)
