"""Control pools: gates that fail when trained prototypes or the mask stop
doing what the paper says they do, or fail where they are known to.

On the benchmark's isotropic pool, trained and mean prototypes score the
same within any tier-1 CI, and so do mask on and off, so no byte-free
test there can tell a trainer that works from one that returns mean
banks, or a mask from a uniform one. A control pool is built so that the
effect shows. Each run here is 5-way 5-shot, 200 tasks at seed 3, and
runs are paired by task index. Every run is deterministic: a gate is a
regression bound on a fixed number, set below its measured value with a
margin, not a hypothesis test.
"""

import numpy as np

from fewproto.embeddings import (EmbeddingSet, generate_synthetic,
                                 save_embedding_set)
from fewproto.harness import RunConfig, confidence_interval_95, run_eval


def lognormal_norm_pool(path) -> None:
    """Write the benchmark's pool recipe (20 classes of 50 records, 64-d,
    class means at radius 3, noise sigma 1.5, from `default_rng(0)`) with
    each record then multiplied by exp(N(0, 1)) to `path`. Large records
    pull a raw mean while cosine scoring ignores norms, and the prototype
    loss is a cosine loss."""
    rng = np.random.default_rng(0)
    pool = generate_synthetic(20, 50, 64, 3.0, 1.5, rng)
    scales = np.exp(rng.normal(size=(pool.vectors.shape[0], 1)))
    save_embedding_set(EmbeddingSet.from_arrays(pool.vectors * scales,
                                                pool.labels), path)


def offset_pool(path) -> None:
    """Write the benchmark's pool recipe, as `lognormal_norm_pool` draws
    it, with 6 added to every entry to `path`. Every bank entry is then
    large, and the mask's softmax takes scale * |entry|, which is
    absolute: at the default scale it saturates, each class is scored
    against a query corrected toward its own few dims, and the scores
    stop being comparable across classes."""
    pool = generate_synthetic(20, 50, 64, 3.0, 1.5, np.random.default_rng(0))
    save_embedding_set(EmbeddingSet.from_arrays(pool.vectors + 6.0,
                                                pool.labels), path)


def sparse_mean_pool(path) -> None:
    """Write 20 classes of 50 records, 64-d, from `default_rng(0)`, to
    `path`: each class mean is +-6 on 4 dims and 0 elsewhere, under
    N(0, 8^2) noise. A mask that weights a class's few large dims helps
    there."""
    rng = np.random.default_rng(0)
    means = np.zeros((20, 64))
    for row in means:
        row[rng.choice(64, 4, replace=False)] = rng.choice([-6.0, 6.0], 4)
    vectors = means[:, None, :] + 8 * rng.normal(size=(20, 50, 64))
    save_embedding_set(EmbeddingSet.from_arrays(
        vectors.reshape(-1, 64), np.repeat(np.arange(20), 50)), path)


def per_task(path, flat: dict) -> np.ndarray:
    """The per-task accuracies of a run on the pool at `path` with the
    flat config overrides `flat`. No task may abort, so that runs pair by
    task index."""
    report = run_eval(RunConfig.from_flat(
        dict(flat, data=str(path), n_tasks=200, seed=3)))
    assert report.diagnostics["aborted_episodes"] == 0
    return np.array(report.per_task_accuracy)


def paired(a: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """The mean of a - b and its 95% CI."""
    diff = a - b
    return diff.mean(), confidence_interval_95(diff.tolist())


def test_trained_prototypes_beat_mean_on_lognormal_norms(tmp_path):
    # Trained read 44.76% against mean 42.22%, +2.54 +- 0.67pp. Mean
    # banks in place of trained ones read +0 and fail both bounds.
    path = tmp_path / "lognormal.emb"
    lognormal_norm_pool(path)
    gain, ci = paired(per_task(path, {"proto.strategy": "trained"}),
                      per_task(path, {"proto.strategy": "mean"}))
    assert gain > 0.015, f"trained - mean = {100 * gain:+.2f}pp"
    assert gain - ci > 0, f"{100 * gain:+.2f} +- {100 * ci:.2f}pp"


def test_default_mask_loses_on_the_offset_pool(tmp_path):
    # This pins a known failure of the default mask scale, not a claim of
    # the paper: with mean banks, mask on read 13.64% against 47.07% off,
    # -33.43 +- 1.33pp. A uniform mask reads +0 and fails the bound.
    path = tmp_path / "offset.emb"
    offset_pool(path)
    loss, _ = paired(per_task(path, {"proto.strategy": "mean"}),
                     per_task(path, {"proto.strategy": "mean",
                                     "mask.enabled": False}))
    assert loss < -0.25, f"mask on - off = {100 * loss:+.2f}pp"


def test_small_scale_mask_gains_on_the_sparse_mean_pool(tmp_path):
    # With mean banks, mask.scale=0.03 read 36.76% against 36.04% off,
    # +0.72 +- 0.43pp. A uniform mask reads +0 and fails both bounds.
    path = tmp_path / "sparse_mean.emb"
    sparse_mean_pool(path)
    gain, ci = paired(per_task(path, {"proto.strategy": "mean",
                                      "mask.scale": 0.03}),
                      per_task(path, {"proto.strategy": "mean",
                                      "mask.enabled": False}))
    assert gain > 0.003, f"mask on - off = {100 * gain:+.2f}pp"
    assert gain - ci > 0, f"{100 * gain:+.2f} +- {100 * ci:.2f}pp"
