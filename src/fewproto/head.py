"""Task-dependent linear classifier trained on augmented support features.

The head is a single fully connected layer followed by softmax. Support
sets are tiny, so training is full batch: deterministic given the seed,
no batch-order effects. Labeled data is first extended by within-class
convex mixing (manifold augmentation), which adds rows without moving any
class's convex hull.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics, EpisodeAbort
from .optim import (label_targets, softmax, sorted_unique, stacked_nll,
                    stacked_softmax, train_stack)

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
    for c in sorted_unique(labels):
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
    return softmax(feats @ head.weights.T + head.bias)


class _Workspace:
    """Constants and preallocated buffers of one stacked head loop.

    Built from B heads' augmented rows (r, e) and labels (r,), all of one
    shape, and their class count n. Holds the stacked rows (B, r, e), the
    labels one-hot (B, r, n) and the flat index of each row's own-class
    entry in a (B, r, n) array. Every `_step_loss_and_grad` call writes
    the same buffers, through views made here, so a step allocates no
    array.
    """

    def __init__(self, feats: list[np.ndarray], labels: list[np.ndarray],
                 n_classes: int):
        self.feats = np.stack(feats, dtype=np.float64)
        n_heads, r, e = self.feats.shape
        n = n_classes
        self.one_hot, self.picked_index = label_targets(labels, n)
        self.probs = np.empty((n_heads, r, n))
        self.per_row = np.empty((n_heads, r, 1))
        self.picked = np.empty((n_heads, r))
        self.loss = np.empty(n_heads)
        self.grad = np.empty((n_heads, n, e + 1))
        self.grad_w = self.grad[:, :, :e]
        self.grad_b = self.grad[:, :, e]
        self.probs_t = self.probs.transpose(0, 2, 1)
        self.probs_cols = [self.probs[:, :, k] for k in range(n)]


def _step_loss_and_grad(params: np.ndarray, work: _Workspace
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Mean cross-entropy of a stack of B heads, with its gradient.

    `params` is (B, n, e+1): each head's weights, with its bias as the
    last column. The rows and labels come from `work`. Returns the (B,)
    losses and the (B, n, e+1) gradient in the same layout, buffers of
    `work` that the next call overwrites. With p the softmax of a row's
    logits, d/dz = (p - onehot) / r. Every operation runs within one
    head, and is the one an allocating evaluation runs, in the same
    order, so each head gets the bits it gets alone: the softmax and its
    loss are `stacked_softmax` and `stacked_nll`, and subtracting the
    one-hot over the whole array changes only the picked entries,
    because x - 0.0 == x.
    """
    w = work
    n_rows = w.feats.shape[1]
    probs, loss = w.probs, w.loss
    np.matmul(w.feats, params[:, :, :-1].transpose(0, 2, 1), out=probs)
    probs += params[:, None, :, -1]
    stacked_softmax(probs, w.probs_cols, w.per_row, probs)
    stacked_nll(probs, w.picked_index, w.picked, loss)
    loss /= n_rows
    probs -= w.one_hot
    probs /= n_rows
    np.matmul(w.probs_t, w.feats, out=w.grad_w)
    np.add.reduce(probs, axis=1, out=w.grad_b)
    return loss, w.grad


def init_head(n_classes: int, dim: int, rng: np.random.Generator) -> LinearHead:
    """Gaussian weights of std HEAD_INIT_STD and zero bias."""
    return LinearHead(weights=rng.normal(0.0, HEAD_INIT_STD, (n_classes, dim)),
                      bias=np.zeros(n_classes))


def train_heads(inits: list[LinearHead], augs: Iterable[AugmentedSupport],
                epochs: int, lr: float, diags: list[Diagnostics]
                ) -> list[LinearHead | EpisodeAbort]:
    """Train one head per episode, all in one `train_stack` loop on the
    head's cross-entropy, each head one (n, e+1) member of the stack.

    Entry j holds episode j's initial head, augmented support and
    `Diagnostics`; all share one (rows, dim) and class count. Each head
    gets the bits `train_head` gives it alone. Returns per episode
    either the trained head or the EpisodeAbort that ended it: a
    non-finite loss (`head_loss_diverged`) at the epoch it happens;
    after training, an overflowed Adam second moment
    (`head_grad_overflow`) or a non-finite parameter. An epoch-to-epoch
    loss increase beyond LOSS_INCREASE_SLACK records a
    `head_loss_increase` in that episode's diagnostics, and training
    goes on. `augs` is read once, before the loop, which keeps only its
    stacked copy of the rows: rows handed over by an iterator are freed
    before the first step.
    """
    if not inits:
        return []
    feats, labels = zip(*((aug.features, aug.labels) for aug in augs))
    work = _Workspace(feats, labels, inits[0].weights.shape[0])
    del feats, labels
    params = np.stack([np.column_stack([head.weights, head.bias])
                       for head in inits])
    results: list[LinearHead | EpisodeAbort | None] = [None] * len(inits)
    # prev holds each head's last loss plus the slack. A NaN loss never
    # compares greater, so a diverged head records no increase.
    prev = np.full(len(inits), np.inf)
    rose = np.empty(len(inits), dtype=bool)

    def step(params):
        loss, grad = _step_loss_and_grad(params, work)
        np.greater(loss, prev, out=rose)
        if rose.any():
            for j in np.flatnonzero(rose):
                diags[j].record("head_loss_increase")
        np.add(loss, LOSS_INCREASE_SLACK, out=prev)
        return loss, grad

    def abort(j, loss, epoch):
        results[j] = EpisodeAbort("head_loss_diverged", f"loss={loss}")

    done = np.zeros(len(inits), dtype=bool)
    overflowed = train_stack(params, step, epochs, lr, done, abort,
                             np.empty_like(params))
    finite = np.isfinite(params).all(axis=(1, 2))
    for j in np.flatnonzero(~done):
        if overflowed[j]:
            results[j] = EpisodeAbort(
                "head_grad_overflow",
                "Adam second moment overflowed; training stalled")
        elif not finite[j]:
            results[j] = EpisodeAbort("head_params_nonfinite")
        else:
            results[j] = LinearHead(weights=params[j, :, :-1],
                                    bias=params[j, :, -1])
    return results


def train_head(aug: AugmentedSupport, epochs: int, lr: float,
               rng: np.random.Generator, diag: Diagnostics) -> LinearHead:
    """`train_heads` for one episode, from a head `init_head` draws from
    `rng`. Raises the EpisodeAbort that ends it."""
    if aug.features.shape[0] == 0:
        raise ValueError("empty augmented support")
    init = init_head(int(aug.labels.max()) + 1, aug.features.shape[1], rng)
    result, = train_heads([init], [aug], epochs, lr, [diag])
    if isinstance(result, EpisodeAbort):
        raise result
    return result
