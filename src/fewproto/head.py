"""Task-dependent linear classifier trained on augmented support features.

The head is a single fully connected layer followed by softmax. Support
sets are tiny, so training is full batch: deterministic given the seed,
no batch-order effects. Labeled data is first extended by within-class
convex mixing (manifold augmentation), which adds rows without moving any
class's convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, EpisodeAbort
from .optim import LOG_FLOOR, AdamState, adam_step, softmax

# Epoch-to-epoch loss increases beyond this slack are counted as a
# diagnostic; full-batch training is expected to be monotone.
LOSS_INCREASE_SLACK = 1e-6
# Initial weights' std: small, so the first softmax is near uniform.
HEAD_INIT_STD = 0.01


@dataclass
class LinearHead:
    """Single fully connected layer: logits = weights @ f + bias."""

    weights: np.ndarray  # (n_classes, e)
    bias: np.ndarray     # (n_classes,)


@dataclass
class AugmentedSupport:
    """Support features extended by within-class convex combinations.

    The original rows appear first, unmodified; every added row is a
    convex combination of two same-class originals.
    """

    features: np.ndarray
    labels: np.ndarray


def manifold_augment(support_feats: np.ndarray, labels: np.ndarray,
                     n_aug: int, rng: np.random.Generator) -> AugmentedSupport:
    """Add `n_aug` mixed rows per class: lam*f_a + (1-lam)*f_b, lam ~ U(0,1).

    f_a and f_b are distinct same-class rows when the class has at least
    two; a singleton class can only duplicate its row. n_aug=0 returns
    the input unchanged. Deterministic given the generator state.
    """
    support_feats = np.asarray(support_feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if n_aug < 0:
        raise ValueError("n_aug must be non-negative")
    feats = [support_feats]
    labs = [labels]
    for c in np.unique(labels):
        rows = support_feats[labels == c]
        extra = np.empty((n_aug, support_feats.shape[1]))
        for i in range(n_aug):
            if len(rows) == 1:
                a = b = 0
            else:
                a, b = rng.choice(len(rows), size=2, replace=False)
            lam = rng.uniform(0.0, 1.0)
            extra[i] = lam * rows[a] + (1.0 - lam) * rows[b]
        feats.append(extra)
        labs.append(np.full(n_aug, c, dtype=np.int64))
    return AugmentedSupport(features=np.vstack(feats),
                            labels=np.concatenate(labs))


def head_predict(head: LinearHead, feats: np.ndarray) -> np.ndarray:
    """Row-wise softmax(weights @ f + bias) for a matrix of features."""
    feats = np.asarray(feats, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != head.weights.shape[1]:
        raise ValueError(
            f"features {feats.shape} incompatible with head "
            f"{head.weights.shape}")
    return softmax(feats @ head.weights.T + head.bias, axis=1)


def head_loss_and_grad(weights: np.ndarray, bias: np.ndarray,
                       feats: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy of the head on `feats`, with analytic gradients.

    Returns (loss, grad_weights, grad_bias). The gradient is the exact
    derivative of the returned loss (softmax + cross-entropy), verified
    against finite differences by the gradcheck suite.
    """
    n = feats.shape[0]
    probs = softmax(feats @ weights.T + bias, axis=1)
    picked = probs[np.arange(n), labels]
    loss = float(np.mean(-np.log(np.maximum(picked, LOG_FLOOR))))
    delta = probs
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    return loss, delta.T @ feats, delta.sum(axis=0)


def init_head(n_classes: int, dim: int, rng: np.random.Generator) -> LinearHead:
    """Gaussian weights of std HEAD_INIT_STD and zero bias."""
    return LinearHead(weights=rng.normal(0.0, HEAD_INIT_STD, (n_classes, dim)),
                      bias=np.zeros(n_classes))


def train_head(aug: AugmentedSupport, epochs: int, lr: float,
               rng: np.random.Generator, diag: Diagnostics) -> LinearHead:
    """Full-batch Adam (in-place `adam_step`) on the head's cross-entropy.

    Raises EpisodeAbort on a non-finite loss, and after training on an
    overflowed Adam second moment (`head_grad_overflow`), which freezes
    its coordinate while the loss stays finite; an inf moment stays inf,
    so one check after the loop catches it. An epoch-to-epoch loss
    increase beyond LOSS_INCREASE_SLACK records a `head_loss_increase`
    diagnostic but training continues.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    if aug.features.shape[0] == 0:
        raise ValueError("empty augmented support")
    n_classes = int(aug.labels.max()) + 1
    head = init_head(n_classes, aug.features.shape[1], rng)
    state_w = AdamState.fresh(head.weights.shape, lr=lr)
    state_b = AdamState.fresh(head.bias.shape, lr=lr)
    scratch_w, scratch_b = np.empty_like(head.weights), np.empty_like(head.bias)
    prev = np.inf
    # An overflow, and the inf - inf or 0 * inf it leads to, ends in a
    # non-finite loss, moment or parameter, and each aborts with the
    # event named, so their warnings are off.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(epochs):
            loss, gw, gb = head_loss_and_grad(head.weights, head.bias,
                                              aug.features, aug.labels)
            if not np.isfinite(loss):
                raise EpisodeAbort("head_loss_diverged", f"loss={loss}")
            if loss > prev + LOSS_INCREASE_SLACK:
                diag.record("head_loss_increase")
            prev = loss
            adam_step(state_w, head.weights, gw, scratch_w)
            adam_step(state_b, head.bias, gb, scratch_b)
    # The bias gradient is bounded by 1; only the weights' moment can
    # overflow.
    if not np.all(np.isfinite(state_w.v)):
        raise EpisodeAbort("head_grad_overflow",
                           "Adam second moment overflowed; training stalled")
    if not (np.all(np.isfinite(head.weights)) and np.all(np.isfinite(head.bias))):
        raise EpisodeAbort("head_params_nonfinite")
    return head
