"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute. The statistical checks use synthetic pools because the
method's headline numbers require an external large-scale feature
extractor; what is asserted here is exactly what the package promises:
verified gradients, graph oracles, analytic loss values, perfect
separation on easy data, the trained-vs-mean ordering on hard data,
determinism, interval arithmetic, and mask neutrality.
"""

import json
import math
import time
from dataclasses import asdict

import numpy as np

from fewproto import harness
from fewproto.classify import build_masks, classify_batch
from fewproto.embeddings import generate_synthetic, sample_episode
from fewproto.graph import (build_similarity, normalize_adjacency, propagate,
                            sparsify_top_m)
from fewproto.harness import (RunConfig, SyntheticSpec, confidence_interval_95,
                              run_eval)
from fewproto.head import LinearHead
from fewproto.prototypes import loss_class, loss_entropy, mean_prototypes
from fewproto.verification import run_gradcheck_suite

GREEN = "PASS"
RED = "FAIL"


def announce(ok: bool, name: str, detail: str) -> None:
    print(f"{GREEN if ok else RED}: {name} -- {detail}")
    assert ok, f"{name}: {detail}"


def test_gradient_gate():
    t0 = time.perf_counter()
    report = run_gradcheck_suite(trials=100, tolerance=1e-4, seed=0,
                                 n_ways=5, dim=16)
    elapsed = time.perf_counter() - t0
    ok = (report.passed and report.n_checks >= 200
          and report.max_error < 1e-4 and elapsed < 120.0)
    announce(ok, "gradient gate",
             f"{report.n_checks} checks, max rel err {report.max_error:.3e}, "
             f"{elapsed:.1f}s")


def dense_sparsify_oracle(s, m):
    """Brute-force union-of-row-and-column top-m with lowest-index ties."""
    n = s.shape[0]
    keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        order = sorted((j for j in range(n) if j != i),
                       key=lambda j: (-s[i, j], j))
        for j in order[:m]:
            keep[i, j] = True
    keep |= keep.T
    out = np.where(keep, s, 0.0)
    np.fill_diagonal(out, 0.0)
    return out


def dense_normalize_oracle(s):
    d = s.sum(axis=1)
    inv = np.where(d > 0, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    return np.diag(inv) @ s @ np.diag(inv)


def test_graph_oracle_equivalence():
    rng = np.random.default_rng(1)
    worst = 0.0
    for trial in range(50):
        n_ways = int(rng.integers(2, 4))
        k = int(rng.integers(1, 3))
        q = int(rng.integers(1, 3))
        if n_ways * (k + q) > 12:
            continue
        pool = generate_synthetic(n_ways + 2, k + q + 2, 6,
                                  float(rng.uniform(1, 6)),
                                  float(rng.uniform(0.1, 1.0)),
                                  np.random.default_rng(trial))
        ep = sample_episode(pool, n_ways, k, q, np.random.default_rng(trial))
        v = np.vstack([ep.support_x, ep.query_x])
        m = int(rng.integers(1, v.shape[0]))
        rounds = int(rng.integers(0, 4))
        sw = float(rng.uniform(0.3, 1.2))

        dense = build_similarity(v)
        kept = sparsify_top_m(dense, m)
        worst = max(worst, np.abs(kept - dense_sparsify_oracle(dense, m)).max())
        adjacency = normalize_adjacency(kept)
        worst = max(worst, np.abs(
            adjacency - dense_normalize_oracle(kept)).max())
        out = propagate(v, adjacency, sw, rounds)
        power = np.linalg.matrix_power(
            sw * np.eye(v.shape[0]) + adjacency, rounds) @ v
        worst = max(worst, np.abs(out - power).max())
    announce(worst <= 1e-10, "graph oracle equivalence",
             f"50 episodes (M<=12), worst deviation {worst:.3e}")


def test_analytic_loss_values():
    rng = np.random.default_rng(2)
    protos = rng.normal(size=(5, 16))
    uniform_head = LinearHead(weights=np.zeros((5, 16)), bias=np.zeros(5))
    want = math.log(5.0) / 5.0  # 0.321888
    err_u = max(abs(loss_class(protos, uniform_head) - want),
                abs(loss_entropy(protos, uniform_head) - want))
    onehot_protos = 10.0 * np.eye(5)
    onehot_head = LinearHead(weights=100.0 * np.eye(5), bias=np.zeros(5))
    err_o = max(abs(loss_class(onehot_protos, onehot_head)),
                abs(loss_entropy(onehot_protos, onehot_head)))
    ok = err_u <= 1e-9 and err_o <= 1e-9
    announce(ok, "analytic loss values",
             f"uniform-head dev {err_u:.2e} (target ln5/5={want:.6f}), "
             f"one-hot dev {err_o:.2e}")


def test_separable_data_sanity():
    t0 = time.perf_counter()
    results = {}
    for strategy in ("trained", "mean"):
        for mask_on in (True, False):
            cfg = RunConfig(synthetic=SyntheticSpec(20, 50, 64, 10.0, 0.1),
                            n_ways=5, k_shots=5, n_queries=15,
                            n_tasks=200, seed=1234)
            cfg.proto.strategy = strategy
            cfg.mask.enabled = mask_on
            rep = run_eval(cfg)
            results[(strategy, mask_on)] = rep.mean_accuracy
    elapsed = time.perf_counter() - t0
    ok = all(acc == 1.0 for acc in results.values()) and elapsed < 300.0
    detail = ", ".join(f"{s}/{'mask' if m else 'plain'}={a:.3f}"
                       for (s, m), a in results.items())
    announce(ok, "separable-data sanity (200 tasks x 4 combos)",
             f"{detail}, {elapsed:.1f}s")


def test_trained_vs_mean_ordering():
    reports = {}
    for strategy in ("trained", "mean"):
        cfg = RunConfig(synthetic=SyntheticSpec(20, 50, 64, 3.0, 1.5),
                        n_ways=5, k_shots=5, n_queries=15,
                        n_tasks=1000, seed=77)
        cfg.proto.strategy = strategy
        reports[strategy] = run_eval(cfg)
    trained = reports["trained"].mean_accuracy
    mean = reports["mean"].mean_accuracy
    delta_pp = 100.0 * (trained - mean)
    ok = trained >= mean - 0.005
    announce(ok, "trained-vs-mean ordering (1000 tasks, overlapping data)",
             f"trained={trained:.4f}±{reports['trained'].ci95:.4f}, "
             f"mean={mean:.4f}±{reports['mean'].ci95:.4f}, "
             f"signed delta {delta_pp:+.2f}pp")


def test_determinism_across_runs_and_chunks(monkeypatch):
    n_tasks = 30
    default_stack = harness.MAX_STACK

    def one(max_stack):
        monkeypatch.setattr(harness, "MAX_STACK", max_stack)
        cfg = RunConfig(synthetic=SyntheticSpec(10, 30, 16, 6.0, 0.8),
                        n_ways=4, k_shots=3, n_queries=6, n_tasks=n_tasks,
                        seed=99)
        cfg.proto.epochs = 200
        raw = asdict(run_eval(cfg))
        raw.pop("wall_time")
        return json.dumps(raw, sort_keys=True)

    # The default stacks all 30 episodes at once; at most 8 gives
    # chunks of 8, 8, 7 and 7.
    first = one(default_stack)
    again = one(default_stack)
    single = one(1)
    uneven = one(8)
    ok = n_tasks <= default_stack and first == again == single == uneven
    announce(ok, "determinism",
             f"bytes match across repeat runs and stacks of at most 1, "
             f"8 and {default_stack} over {n_tasks} tasks "
             f"({len(first)} report bytes)")


def test_confidence_interval_arithmetic():
    per_task = [0.8, 1.0, 0.9]
    mean = float(np.mean(per_task))
    ci = confidence_interval_95(per_task)
    observed_mean = sum(per_task) / 3.0
    var = sum((a - observed_mean) ** 2 for a in per_task) / 3.0
    hand = 1.96 * math.sqrt(var) / math.sqrt(3.0)
    ok = (abs(mean - 0.9) <= 1e-12 and abs(ci - hand) <= 1e-5
          and abs(ci - 0.0924) <= 5e-5)
    announce(ok, "confidence-interval arithmetic",
             f"mean={mean:.6f}, ci95={ci:.7f}, hand oracle {hand:.7f}")


def test_mask_neutrality_at_zero_scale():
    pool = generate_synthetic(15, 40, 32, 4.0, 1.2, np.random.default_rng(5))
    mismatches = 0
    queries_seen = 0
    for seed in range(100):
        ep = sample_episode(pool, 5, 3, 10, np.random.default_rng(seed))
        bank = mean_prototypes(ep.support_x, ep.support_y)
        masks = build_masks(bank, scale=0.0, boost=10000.0)
        masked, _ = classify_batch(ep.query_x, bank, masks, use_mask=True)
        plain, _ = classify_batch(ep.query_x, bank, None, use_mask=False)
        mismatches += int(np.sum(masked != plain))
        queries_seen += ep.query_x.shape[0]
    announce(mismatches == 0, "mask neutrality at zero scale",
             f"{queries_seen} queries over 100 episodes, "
             f"{mismatches} prediction mismatches")
