"""Traced episodes: the steps of `run_episode`, timed from outside.

`traced_episode` calls the public functions of each fewproto module in
the same order and with the same arguments as `harness.run_episode`
(and `graph.build_task_graph` inside it), so it draws the same random
numbers and must reproduce the untraced per-task accuracies exactly.
Spans are kept in memory as plain lists and summarized at the end.
"""

from __future__ import annotations

import time

import numpy as np

from fewproto.classify import build_masks, classify_batch, score_episode
from fewproto.diagnostics import Diagnostics, EpisodeAbort
from fewproto.embeddings import sample_episode
from fewproto.graph import (build_similarity, normalize_adjacency, propagate,
                            sparsify_top_m)
from fewproto.harness import _resolve_pool, episode_rng
from fewproto.head import manifold_augment, train_head
from fewproto.optim import AdamState, adam_update
from fewproto.prototypes import (LossWeights, mean_prototypes,
                                 train_prototypes, validate_prototypes)

# The configured mean workload never trains prototypes; this many of its
# traced episodes also train them off the timed path (on a private
# generator) so `prototypes.train_us` exists for every workload. It is
# about as many samples as a trained workload's traced run collects.
OFF_PATH_TRAINED = 40
ADAM_CALLS = 2000


class Spans:
    """Per-episode phase durations in microseconds, keyed by metric stem,
    and the number of graph edges each episode kept."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}
        self.edges: list[int] = []

    def add(self, name: str, seconds: float) -> None:
        self.samples.setdefault(name, []).append(seconds * 1e6)


class _Laps:
    """Contiguous laps: each phase runs from the previous mark to now."""

    def __init__(self, spans: Spans):
        self.spans = spans
        self.start = self.last = time.perf_counter()

    def lap(self, name: str) -> None:
        now = time.perf_counter()
        self.spans.add(name, now - self.last)
        self.last = now

    def close(self) -> None:
        self.spans.add("harness.episode_us", self.last - self.start)


def traced_episode(emb, config, rng, spans: Spans):
    """One episode as `run_episode` runs it.

    Returns the accuracy, the trained head and the (features, labels)
    support pair, so the caller can time the other prototype strategy.
    """
    diag = Diagnostics()
    laps = _Laps(spans)
    episode = sample_episode(emb, config.n_ways, config.k_shots,
                             config.n_queries, rng)
    laps.lap("embeddings.sample_us")

    v = np.vstack([np.asarray(episode.support_x, dtype=np.float64),
                   np.asarray(episode.query_x, dtype=np.float64)])
    dense = build_similarity(v, diag)
    laps.lap("graph.similarity_us")
    s = sparsify_top_m(dense, config.graph.top_m)
    laps.lap("graph.sparsify_us")
    adjacency = normalize_adjacency(s, diag)
    laps.lap("graph.normalize_us")
    aggregated = propagate(v, adjacency, config.graph.self_weight,
                           config.graph.rounds)
    n_support = episode.support_x.shape[0]
    support_feats = aggregated[:n_support]
    query_feats = aggregated[n_support:]
    laps.lap("graph.propagate_us")
    # Kept nonzeros, whether sparsify_top_m returns a sparse or dense matrix.
    spans.edges.append(s.nnz if hasattr(s, "nnz") else np.count_nonzero(s))

    aug = manifold_augment(support_feats, episode.support_y,
                           config.head.n_aug, rng)
    laps.lap("head.augment_us")
    head = train_head(aug, config.head.epochs, config.head.lr, rng, diag)
    laps.lap("head.train_us")

    if config.proto.strategy == "trained":
        bank = train_prototypes(
            head, support_feats, episode.support_y,
            LossWeights(config.proto.entropy_weight,
                        config.proto.class_weight),
            config.proto.epochs, config.proto.lr, rng)
        laps.lap("prototypes.train_us")
    else:
        bank = mean_prototypes(support_feats, episode.support_y)
        validate_prototypes(bank.protos)
        laps.lap("prototypes.mean_us")

    masks = (build_masks(bank, config.mask.scale, config.mask.boost)
             if config.mask.enabled else None)
    laps.lap("classify.masks_us")
    predictions, _ = classify_batch(query_feats, bank, masks,
                                    config.mask.enabled, diag)
    laps.lap("classify.batch_us")
    accuracy = score_episode(episode, predictions)
    laps.lap("classify.score_us")
    laps.close()
    return accuracy, head, (support_feats, episode.support_y)


def _off_path_prototypes(config, head, support, spans: Spans,
                         task_index: int) -> None:
    """Time the prototype strategy the workload does not use.

    Runs after the episode's spans close and on its own generator, so it
    changes neither the episode's timings nor its random stream.
    """
    feats, labels = support
    if config.proto.strategy == "trained":
        t = time.perf_counter()
        validate_prototypes(mean_prototypes(feats, labels).protos)
        spans.add("prototypes.mean_us", time.perf_counter() - t)
    elif len(spans.samples.get("prototypes.train_us", ())) < OFF_PATH_TRAINED:
        t = time.perf_counter()
        try:
            train_prototypes(head, feats, labels,
                             LossWeights(config.proto.entropy_weight,
                                         config.proto.class_weight),
                             config.proto.epochs, config.proto.lr,
                             np.random.default_rng(task_index))
        except EpisodeAbort:
            return  # off the measured path: no sample, nothing fails
        spans.add("prototypes.train_us", time.perf_counter() - t)


def traced_pass(config, spans: Spans) -> tuple[float, list[float | None]]:
    """One traced pass over task indices 0..n_tasks-1.

    Does what one run_eval call does: validate the config, build or
    load the pool, run the episodes. Returns the completed episodes per
    second, timed like a run_eval call but without the off-path
    prototype timings, and the per-task accuracies with None for an
    aborted episode.
    """
    t = time.perf_counter()
    config.validate()
    emb = _resolve_pool(config)
    elapsed = time.perf_counter() - t
    per_task = []
    for i in range(config.n_tasks):
        t = time.perf_counter()
        try:
            acc, head, support = traced_episode(
                emb, config, episode_rng(config.seed, i), spans)
        except EpisodeAbort:
            acc = None
        elapsed += time.perf_counter() - t
        per_task.append(acc)
        if acc is not None:
            _off_path_prototypes(config, head, support, spans, i)
    return sum(a is not None for a in per_task) / elapsed, per_task


def adam_update_samples(shape, n_calls: int = ADAM_CALLS) -> list[float]:
    """Per-call microseconds of `adam_update` at one prototype bank's shape."""
    rng = np.random.default_rng(0)
    state = AdamState.fresh(shape, lr=1e-2)
    param = rng.normal(size=shape)
    grads = rng.normal(size=(16,) + tuple(shape))
    out = []
    for k in range(n_calls):
        t = time.perf_counter()
        state, param = adam_update(state, param, grads[k % 16])
        out.append((time.perf_counter() - t) * 1e6)
    return out
