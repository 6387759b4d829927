"""Class prototypes: mean baseline and training against a composite loss.

A prototype bank holds one vector per episode class. The baseline is the
arithmetic mean of each class's aggregated support rows. The trained
variant starts from random vectors and minimizes

    total = entropy_weight * entropy_term
          + class_weight   * classification_term
          + metric_term

with the frozen head supplying predictions for the first two terms and
class-wise cosine scores against the support rows driving the third.
Every term keeps the double 1/N normalization of its definition (one
factor from averaging rows, one inside each row's term); the weights can
absorb the rescaling, so it is implemented verbatim rather than
simplified.

The per-term `loss_*` functions and `loss_total` are the readable
definitions. Training runs `_step_loss_and_grad`, which computes the same
loss and its closed-form gradient with respect to the prototypes only
(head parameters and support features are constants during this phase)
for a stack of banks at once; the gradcheck suite gates that gradient
against central differences of `loss_total`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import EpisodeAbort
from .head import LinearHead, head_predict
from .optim import LOG_FLOOR, AdamState, adam_update, softmax


@dataclass
class PrototypeBank:
    """One prototype row per class; `trained` marks the optimized variant."""

    protos: np.ndarray  # (n_classes, e)
    trained: bool


@dataclass
class LossWeights:
    """Non-negative weights for the entropy and classification terms."""

    entropy_weight: float = 0.1
    class_weight: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.entropy_weight) and np.isfinite(self.class_weight)):
            raise ValueError("loss weights must be finite")
        if self.entropy_weight < 0 or self.class_weight < 0:
            raise ValueError("loss weights must be non-negative")


def mean_prototypes(support_feats: np.ndarray, labels: np.ndarray) -> PrototypeBank:
    """Per-class arithmetic mean of the aggregated support rows."""
    support_feats = np.asarray(support_feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    protos = np.empty((n_classes, support_feats.shape[1]))
    for c in range(n_classes):
        rows = support_feats[labels == c]
        if rows.shape[0] == 0:
            raise ValueError(f"class {c} has no support rows")
        protos[c] = rows.mean(axis=0)
    return PrototypeBank(protos=protos, trained=False)


def loss_class(protos: np.ndarray, head: LinearHead) -> float:
    """Cross-entropy of the head classifying each prototype as its own class."""
    n = protos.shape[0]
    probs = head_predict(head, protos)
    own = probs[np.arange(n), np.arange(n)]
    return float(np.sum(-np.log(np.maximum(own, LOG_FLOOR))) / (n * n))


def loss_entropy(protos: np.ndarray, head: LinearHead) -> float:
    """Mean entropy of the head's prediction for each prototype."""
    n = protos.shape[0]
    probs = head_predict(head, protos)
    ent = -np.sum(probs * np.log(np.maximum(probs, LOG_FLOOR)), axis=1)
    return float(np.sum(ent) / (n * n))


def _cosine_scores(rows: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Pairwise cosines of support rows against prototypes."""
    row_norms = np.linalg.norm(rows, axis=1)
    proto_norms = np.linalg.norm(protos, axis=1)
    if np.any(row_norms == 0.0):
        raise EpisodeAbort("zero_support_row",
                           "cosine undefined for a zero-norm support row")
    if np.any(proto_norms == 0.0):
        raise EpisodeAbort("zero_prototype_row",
                           "cosine undefined for a zero-norm prototype")
    unit_rows = rows / row_norms[:, None]
    unit_protos = protos / proto_norms[:, None]
    return np.clip(unit_rows @ unit_protos.T, -1.0, 1.0)


def loss_metric(protos: np.ndarray, support_feats: np.ndarray,
                labels: np.ndarray) -> float:
    """Cross-entropy of softmax over class-wise cosines, on support rows.

    Queries are unlabeled during task training, so the support rows stand
    in. The softmax runs over the N raw cosine values, no temperature.
    """
    support_feats = np.asarray(support_feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    scores = _cosine_scores(support_feats, protos)
    probs = softmax(scores, axis=1)
    n_rows, n_classes = probs.shape
    picked = probs[np.arange(n_rows), labels]
    return float(np.sum(-np.log(np.maximum(picked, LOG_FLOOR)))
                 / (n_rows * n_classes))


def loss_total(protos: np.ndarray, head: LinearHead,
               support_feats: np.ndarray, labels: np.ndarray,
               weights: LossWeights) -> float:
    """entropy_weight * entropy + class_weight * classification + metric."""
    return (weights.entropy_weight * loss_entropy(protos, head)
            + weights.class_weight * loss_class(protos, head)
            + loss_metric(protos, support_feats, labels))


def _step_loss_and_grad(protos: np.ndarray, head_weights: np.ndarray,
                        head_bias: np.ndarray, unit_rows: np.ndarray,
                        labels: np.ndarray, weights: LossWeights
                        ) -> tuple[np.ndarray, np.ndarray]:
    """loss_total and its gradient for a stack of B prototype banks.

    Shapes: protos and head_weights (B, n, e), head_bias (B, n),
    unit_rows (B, r, e) pre-normalized support rows, labels (B, r).
    Returns the (B,) losses and the (B, n, e) gradients. Shares the head
    pass and the cosine pass between value and gradient. The loss equals
    loss_total on each bank (unit-tested); the gradient is the one the
    gradcheck suite verifies. Per term, with p the head's softmax on a
    prototype and q the softmax over a support row's cosines:
    classification d/dz = p - onehot; entropy d/dz_k = -p_k (log p_k + H);
    metric d cos(f, p)/dp = (f_hat - cos * p_hat) / |p|.
    Every matmul runs one product per bank and every reduction runs
    within a bank in the same axis order, so a bank's result does not
    depend on the others in the stack. A bank with a zero-norm
    prototype row gets a NaN loss.
    """
    n_banks, n, _ = protos.shape
    logits = protos @ head_weights.transpose(0, 2, 1) + head_bias[:, None, :]
    logits -= logits.max(axis=2, keepdims=True)
    probs = np.exp(logits, out=logits)
    probs /= probs.sum(axis=2, keepdims=True)
    logp = np.log(np.maximum(probs, LOG_FLOOR))
    ent = -(probs * logp).sum(axis=2)
    own = np.diagonal(probs, axis1=1, axis2=2)
    log_own = np.log(np.maximum(own, LOG_FLOOR)).sum(axis=1)
    loss = (-weights.class_weight * log_own
            + weights.entropy_weight * ent.sum(axis=1)) / (n * n)
    delta = weights.class_weight * probs \
        - weights.entropy_weight * probs * (logp + ent[:, :, None])
    diag = np.arange(n)
    delta[:, diag, diag] -= weights.class_weight
    delta /= n * n
    grad = delta @ head_weights

    proto_norms = np.sqrt(np.einsum("bij,bij->bi", protos, protos))
    unit_protos = protos / proto_norms[:, :, None]
    scores = (unit_rows @ unit_protos.transpose(0, 2, 1)).clip(-1.0, 1.0)
    shifted = scores - scores.max(axis=2, keepdims=True)
    q = np.exp(shifted, out=shifted)
    q /= q.sum(axis=2, keepdims=True)
    n_rows = unit_rows.shape[1]
    picked = (np.arange(n_banks)[:, None], np.arange(n_rows), labels)
    loss += -np.log(np.maximum(q[picked], LOG_FLOOR)).sum(axis=1) \
        / (n_rows * n)
    t = q
    t[picked] -= 1.0
    t /= n_rows * n
    grad += (t.transpose(0, 2, 1) @ unit_rows
             - (t * scores).sum(axis=1)[:, :, None] * unit_protos) \
        / proto_norms[:, :, None]
    return loss, grad


def init_prototypes(n_classes: int, dim: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Starting point for training: random Gaussian rows.

    Entries have standard deviation 1/sqrt(dim) so initial row norms are
    O(1).
    """
    return rng.normal(0.0, 1.0 / np.sqrt(dim), (n_classes, dim))


def train_prototype_banks(heads: list[LinearHead],
                          support_feats: list[np.ndarray],
                          labels: list[np.ndarray], weights: LossWeights,
                          epochs: int, lr: float,
                          rngs: list[np.random.Generator],
                          trajectories: list[list[float]] | None = None
                          ) -> list[PrototypeBank | EpisodeAbort]:
    """Train one prototype bank per episode in a single batched Adam loop.

    Entry j holds episode j's frozen head, aggregated support rows,
    labels and generator; all episodes share one (rows, dim) and class
    count. Each bank gives the bits `train_prototypes` gives for it
    alone. Returns per episode either the trained bank or the
    EpisodeAbort that ended it: a zero-norm support row before training;
    a zero-norm prototype row or a non-finite loss at the epoch it
    happens, after which the bank leaves the stack and the rest go on;
    an overflowed Adam moment (`proto_grad_overflow`); or a degenerate
    final bank. Appends each bank's per-epoch loss (evaluated before
    each update) to `trajectories[j]` when given.
    """
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    results: list[PrototypeBank | EpisodeAbort | None] = [None] * len(heads)
    alive, inits, unit_rows, int_labels = [], [], [], []
    for j, (feats, lab, rng) in enumerate(zip(support_feats, labels, rngs)):
        feats = np.asarray(feats, dtype=np.float64)
        lab = np.asarray(lab, dtype=np.int64)
        row_norms = np.linalg.norm(feats, axis=1)
        if np.any(row_norms == 0.0):
            results[j] = EpisodeAbort(
                "zero_support_row",
                "cosine undefined for a zero-norm support row")
            continue
        alive.append(j)
        unit_rows.append(feats / row_norms[:, None])
        int_labels.append(lab)
        inits.append(init_prototypes(int(lab.max()) + 1, feats.shape[1], rng))
    if not alive:
        return results
    alive = np.array(alive)
    protos = np.stack(inits)
    head_weights = np.stack([heads[j].weights for j in alive])
    head_bias = np.stack([heads[j].bias for j in alive])
    unit_rows, int_labels = np.stack(unit_rows), np.stack(int_labels)
    state = AdamState.fresh(protos.shape, lr=lr)
    # A zero-norm row (0/0) or an overflowed logit (inf - inf) shows as a
    # NaN loss, which aborts that bank with a reason. A gradient entry
    # past ~1e154 overflows the second moment instead: the loss stays
    # finite but that coordinate never moves again. An inf moment stays
    # inf, so one check after the loop catches it.
    with np.errstate(divide="ignore", invalid="ignore"):
        for epoch in range(epochs):
            loss, grad = _step_loss_and_grad(protos, head_weights, head_bias,
                                             unit_rows, int_labels, weights)
            failed = ~np.isfinite(loss)
            if failed.any():
                for j in np.flatnonzero(failed):
                    # A zero row has zero squared norm, as in the fused step.
                    zero_row = not np.einsum("ij,ij->i", protos[j],
                                             protos[j]).all()
                    results[alive[j]] = EpisodeAbort(
                        "zero_prototype_row" if zero_row
                        else "proto_loss_diverged",
                        f"loss={loss[j]} at epoch {epoch}")
                keep = ~failed
                alive, protos, grad, loss = (alive[keep], protos[keep],
                                             grad[keep], loss[keep])
                head_weights, head_bias = head_weights[keep], head_bias[keep]
                unit_rows, int_labels = unit_rows[keep], int_labels[keep]
                state = replace(state, m=state.m[keep], v=state.v[keep])
                if not alive.size:
                    return results
            if trajectories is not None:
                for j, value in zip(alive, loss):
                    trajectories[j].append(float(value))
            state, protos = adam_update(state, protos, grad)
    overflowed = ~np.isfinite(state.v).all(axis=(1, 2))
    for j, bank, over in zip(alive, protos, overflowed):
        if over:
            results[j] = EpisodeAbort(
                "proto_grad_overflow",
                "Adam second moment overflowed; training stalled")
            continue
        try:
            validate_prototypes(bank)
            results[j] = PrototypeBank(protos=bank, trained=True)
        except EpisodeAbort as abort:
            results[j] = abort
    return results


def train_prototypes(head: LinearHead, support_feats: np.ndarray,
                     labels: np.ndarray, weights: LossWeights, epochs: int,
                     lr: float, rng: np.random.Generator,
                     trajectory: list[float] | None = None) -> PrototypeBank:
    """Full-batch Adam on loss_total with the prototypes as sole parameters.

    The head is frozen. This is train_prototype_banks for one episode.
    Appends the per-epoch loss (evaluated before each update) to
    `trajectory` when given. Raises EpisodeAbort on a zero-norm support
    row, a non-finite loss, an overflowed Adam moment or a degenerate
    final bank.
    """
    result, = train_prototype_banks(
        [head], [support_feats], [labels], weights, epochs, lr, [rng],
        None if trajectory is None else [trajectory])
    if isinstance(result, EpisodeAbort):
        raise result
    return result


def validate_prototypes(protos: np.ndarray) -> None:
    """Reject banks a cosine classifier cannot use."""
    if not np.all(np.isfinite(protos)):
        raise EpisodeAbort("proto_nonfinite")
    if np.any(np.linalg.norm(protos, axis=1) == 0.0):
        raise EpisodeAbort("zero_prototype_row")
