"""Control pools: gates that fail when trained prototypes stop doing what
the paper says they do.

On the benchmark's isotropic pool, trained and mean prototypes score the
same within any tier-1 CI, so no byte-free test there can tell a trainer
that works from one that returns mean banks. A control pool is built so
that the mean bank is the wrong estimator. Every run here is
deterministic: a gate is a regression bound on a fixed number, set below
its measured value with a margin, not a hypothesis test.
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


def test_trained_prototypes_beat_mean_on_lognormal_norms(tmp_path):
    # 200 tasks at seed 3, 5-way 5-shot, paired by task index: trained
    # read 44.76% against mean 42.22%, +2.54 +- 0.67pp. Mean banks in
    # place of trained ones read +0 and fail both bounds.
    path = tmp_path / "lognormal.emb"
    lognormal_norm_pool(path)
    accuracy = {}
    for strategy in ("trained", "mean"):
        config = RunConfig(data=str(path), n_tasks=200, seed=3)
        config.proto.strategy = strategy
        report = run_eval(config)
        assert report.diagnostics["aborted_episodes"] == 0  # so pairs hold
        accuracy[strategy] = np.array(report.per_task_accuracy)
    diff = accuracy["trained"] - accuracy["mean"]
    gain, ci = diff.mean(), confidence_interval_95(diff.tolist())
    assert gain > 0.015, f"trained - mean = {100 * gain:+.2f}pp"
    assert gain - ci > 0, f"{100 * gain:+.2f} +- {100 * ci:.2f}pp"
