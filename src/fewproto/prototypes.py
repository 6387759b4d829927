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

from dataclasses import dataclass

import numpy as np

from .diagnostics import EpisodeAbort
from .head import LinearHead, head_predict
from .optim import (LOG_FLOOR, label_targets, row_norms, softmax,
                    stacked_nll, stacked_softmax, train_stack)


@dataclass
class PrototypeBank:
    """One prototype row per class."""

    protos: np.ndarray  # (n_classes, e)


@dataclass
class LossWeights:
    """Non-negative weights for the entropy and classification terms."""

    entropy_weight: float
    class_weight: float

    def __post_init__(self):
        if not (np.isfinite(self.entropy_weight) and np.isfinite(self.class_weight)):
            raise ValueError("loss weights must be finite")
        if self.entropy_weight < 0 or self.class_weight < 0:
            raise ValueError("loss weights must be non-negative")


def mean_prototypes(support_feats: np.ndarray, labels: np.ndarray) -> PrototypeBank:
    """Per-class arithmetic mean of the aggregated support rows: the
    one-episode case of `mean_prototype_stack`."""
    return PrototypeBank(protos=mean_prototype_stack(
        np.asarray(support_feats)[None], np.asarray(labels)[None])[0])


def mean_prototype_stack(support_feats: np.ndarray,
                         labels: np.ndarray) -> np.ndarray:
    """The (B, n, e) per-class means of B episodes' (B, r, e) aggregated
    support rows, with (B, r) labels.

    The rows must come in the layout `Episode` documents: grouped by
    class, class 0 first, the same count k per class, and the same in
    every episode of the stack. That is checked once for the stack, and
    the means are then one `reshape(B, n, k, e).mean(axis=2)`, with the
    bits of each class's own `rows.mean(axis=0)`. A class with no rows
    raises ValueError naming it; any other layout raises naming the
    labels.
    """
    support_feats = np.asarray(support_feats, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if support_feats.shape[:-1] != labels.shape:
        raise ValueError(f"support rows {support_feats.shape} do not match "
                         f"labels {labels.shape}")
    n_classes, k = _class_layout(labels[0])
    if not (labels == labels[0]).all():
        for row in labels[1:]:
            _class_layout(row)
        raise ValueError("the episodes of a stack have different support "
                         "labels")
    return support_feats.reshape(
        labels.shape[0], n_classes, k, -1).mean(axis=2)


def _class_layout(labels: np.ndarray) -> tuple[int, int]:
    """The class count n and per-class row count k of one episode's
    support `labels`, if they are n runs of k rows, class 0 first; else
    the ValueError `mean_prototype_stack` documents."""
    # All-negative labels report class 0 as empty below.
    n_classes = max(int(labels.max()) + 1, 1)
    k = labels.shape[0] // n_classes
    if not np.array_equal(labels, np.repeat(np.arange(n_classes), k)):
        present = np.isin(np.arange(n_classes), labels)
        if not present.all():
            raise ValueError(
                f"class {np.argmin(present)} has no support rows")
        raise ValueError(f"support labels {labels.tolist()} are not grouped "
                         "by class with the same count per class")
    return n_classes, k


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
    rows, norms = row_norms(rows)
    protos, proto_norms = row_norms(protos)
    if np.any(norms == 0.0):
        raise EpisodeAbort("zero_support_row",
                           "cosine undefined for a zero-norm support row")
    if np.any(proto_norms == 0.0):
        raise EpisodeAbort("zero_prototype_row",
                           "cosine undefined for a zero-norm prototype")
    unit_rows = rows / norms[:, None]
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
    probs = softmax(scores)
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


class _Workspace:
    """Constants and preallocated buffers of one batched prototype loop.

    Built from B banks' frozen inputs: heads, support rows (r, e) and
    labels (r,). Holds the stacked head weights (B, n, e) and unit-norm
    support rows unit_rows (B, r, e), the labels one-hot, the class
    weight times the n x n identity and the flat index of each row's
    own-class entry in a (B, r, n) array. Support norms come from
    `row_norms`. `zero_support` (B,) marks the banks with an all-zero
    support row, whose unit rows hold NaN.
    Every `_step_loss_and_grad` call writes the same buffers, through
    views made here, so a step allocates no array.
    """

    def __init__(self, heads: list[LinearHead],
                 support_feats: list[np.ndarray], labels: list[np.ndarray],
                 weights: LossWeights):
        self.head_weights = head_weights = np.stack(
            [head.weights for head in heads])
        feats, norms = row_norms(np.stack(support_feats, dtype=np.float64))
        n_banks, n, e = head_weights.shape
        r = feats.shape[1]
        self.zero_support = (norms == 0.0).any(axis=1)
        with np.errstate(invalid="ignore"):  # 0/0 in a zero_support bank
            self.unit_rows = feats / norms[:, :, None]
        self.weights = weights
        self.class_eye = weights.class_weight * np.eye(n)
        for name, shape in (
                ("grad", (n, e)), ("unit_protos", (n, e)), ("cross", (n, e)),
                ("probs", (n, n)), ("logp", (n, n)), ("prod", (n, n)),
                ("scores", (r, n)), ("q", (r, n)), ("picked", (r,)),
                ("per_proto", (n, 1)), ("per_row", (r, 1)), ("ent", (n, 1)),
                ("norms", (n, 1)), ("col_sum", (n, 1)), ("loss", ()),
                ("term", ())):
            setattr(self, name, np.empty((n_banks,) + shape))
        self.head_weights_t = head_weights.transpose(0, 2, 1)
        self.bias_3d = np.stack([head.bias for head in heads])[:, None, :]
        self.logp_diag = np.diagonal(self.logp, axis1=1, axis2=2)
        self.ent_2d = self.ent[:, :, 0]
        self.norms_2d = self.norms[:, :, 0]
        self.col_sum_2d = self.col_sum[:, :, 0]
        self.unit_protos_t = self.unit_protos.transpose(0, 2, 1)
        self.q_t = self.q.transpose(0, 2, 1)
        self.probs_cols = [self.probs[:, :, k] for k in range(n)]
        self.scores_cols = [self.scores[:, :, k] for k in range(n)]
        self.one_hot, self.picked_index = label_targets(labels, n)


def _step_loss_and_grad(protos: np.ndarray, work: _Workspace
                        ) -> tuple[np.ndarray, np.ndarray]:
    """loss_total and its gradient for a stack of B prototype banks.

    `protos` is (B, n, e); the frozen inputs come from `work`. Returns
    the (B,) losses and the (B, n, e) gradients, both buffers of `work`
    that the next call overwrites. Shares the head pass and the cosine
    pass between value and gradient. The loss equals loss_total on each
    bank (unit-tested); the gradient is the one the gradcheck suite
    verifies. Per term, with p the head's softmax on a prototype and q
    the softmax over a support row's cosines: classification
    d/dz = p - onehot; entropy d/dz_k = -p_k (log p_k + H); metric
    d cos(f, p)/dp = (f_hat - cos * p_hat) / |p|.
    Every matmul runs one product per bank and every reduction runs
    within a bank in the same axis order, so a bank's result does not
    depend on the others in the stack. Each operation is the one an
    allocating evaluation of these formulas runs, in the same order, so
    the bits match it: `np.add.reduce` is `sum`, clipping is max then
    min, both softmaxes are `stacked_softmax` and the metric term is
    `stacked_nll`, and subtracting the one-hot and the scaled identity
    over whole arrays changes only the picked entries, because
    x - 0.0 == x. A bank with a zero-norm prototype row gets a NaN loss.
    """
    w = work
    weights = w.weights
    n = protos.shape[1]
    n_rows = w.unit_rows.shape[1]
    loss, term = w.loss, w.term

    probs = w.probs
    np.matmul(protos, w.head_weights_t, out=probs)
    probs += w.bias_3d
    stacked_softmax(probs, w.probs_cols, w.per_proto, probs)
    logp, prod, ent = w.logp, w.prod, w.ent
    np.maximum(probs, LOG_FLOOR, out=logp)
    np.log(logp, out=logp)
    np.multiply(probs, logp, out=prod)
    np.add.reduce(prod, axis=2, keepdims=True, out=ent)
    np.negative(ent, out=ent)
    np.add.reduce(w.logp_diag, axis=1, out=loss)
    loss *= -weights.class_weight
    np.add.reduce(w.ent_2d, axis=1, out=term)
    term *= weights.entropy_weight
    loss += term
    loss /= n * n
    # delta = class_weight*p - (entropy_weight*p) * (log p + H), less
    # class_weight on the diagonal, over n^2; built in `probs`.
    logp += ent
    np.multiply(probs, weights.entropy_weight, out=prod)
    prod *= logp
    probs *= weights.class_weight
    probs -= prod
    probs -= w.class_eye
    probs /= n * n
    grad = w.grad
    np.matmul(probs, w.head_weights, out=grad)

    norms, unit_protos = w.norms, w.unit_protos
    np.einsum("bij,bij->bi", protos, protos, out=w.norms_2d)
    np.sqrt(norms, out=norms)
    np.divide(protos, norms, out=unit_protos)
    scores, q = w.scores, w.q
    np.matmul(w.unit_rows, w.unit_protos_t, out=scores)
    np.maximum(scores, -1.0, out=scores)
    np.minimum(scores, 1.0, out=scores)
    stacked_softmax(scores, w.scores_cols, w.per_row, q)
    stacked_nll(q, w.picked_index, w.picked, term)
    term /= n_rows * n
    loss += term
    # t = (q - onehot) / (r n), in `q`; then the metric gradient
    # (t^T f_hat - colsum(t * cos) p_hat) / |p|.
    q -= w.one_hot
    q /= n_rows * n
    cross = w.cross
    np.matmul(w.q_t, w.unit_rows, out=cross)
    scores *= q
    np.add.reduce(scores, axis=1, out=w.col_sum_2d)
    unit_protos *= w.col_sum
    cross -= unit_protos
    cross /= norms
    grad += cross
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
                          epochs: int, lr: float, inits: list[np.ndarray],
                          trajectories: list[list[float]] | None = None
                          ) -> list[PrototypeBank | EpisodeAbort]:
    """Train one prototype bank per episode, all in one `train_stack`
    loop.

    Entry j holds episode j's frozen head, aggregated support rows,
    labels and initial bank (n, dim), such as an `init_prototypes` draw;
    all episodes share one (rows, dim) and class count. The loop draws
    no random numbers, and each bank gets the bits it gets alone. Returns
    per episode either the trained bank or the EpisodeAbort that ended
    it: a zero-norm support row before training; a zero-norm prototype
    row or a non-finite loss at the epoch it happens; an overflowed Adam
    moment (`proto_grad_overflow`); or a degenerate final bank. An
    aborted bank stays in the stack: each operation of the step runs
    within one bank, so its NaNs reach no other bank. Any other
    exception ends the whole call; a run then trains each of its banks
    alone, so the exception stands at its own episode.
    Appends each bank's per-epoch loss (evaluated before each update)
    to `trajectories[j]` until it aborts, when given.
    """
    if not heads:
        return []
    work = _Workspace(heads, support_feats, labels, weights)
    # A bank with a zero-norm support row starts done.
    done = work.zero_support.copy()
    results: list[PrototypeBank | EpisodeAbort | None] = [
        EpisodeAbort("zero_support_row",
                     "cosine undefined for a zero-norm support row")
        if zero else None for zero in done]
    protos = np.stack(inits, dtype=np.float64)

    def step(protos):
        loss, grad = _step_loss_and_grad(protos, work)
        if trajectories is not None:
            for j in np.flatnonzero(~done & np.isfinite(loss)):
                trajectories[j].append(float(loss[j]))
        return loss, grad

    def abort(j, loss, epoch):
        # A zero-norm row (0/0) or an overflowed logit (inf - inf) shows
        # as a NaN loss.
        results[j] = EpisodeAbort(
            "zero_prototype_row" if not work.norms[j].all()
            else "proto_loss_diverged", f"loss={loss} at epoch {epoch}")

    # The step's cross-term buffer is free until the next step.
    overflowed = train_stack(protos, step, epochs, lr, done, abort,
                             work.cross)
    banks = banks_or_aborts(protos)
    for j in np.flatnonzero(~done):
        results[j] = (EpisodeAbort(
            "proto_grad_overflow",
            "Adam second moment overflowed; training stalled")
            if overflowed[j] else banks[j])
    return results


def train_prototypes(head: LinearHead, support_feats: np.ndarray,
                     labels: np.ndarray, weights: LossWeights, epochs: int,
                     lr: float, rng: np.random.Generator) -> PrototypeBank:
    """Full-batch Adam on loss_total with the prototypes as sole parameters.

    The head is frozen. This is train_prototype_banks for one episode,
    from a bank `init_prototypes` draws from `rng`. Raises EpisodeAbort
    on a zero-norm support row, a non-finite loss, an overflowed Adam
    moment or a degenerate final bank.
    """
    result, = train_prototype_banks(
        [head], [support_feats], [labels], weights, epochs, lr,
        [init_prototypes(*head.weights.shape, rng)])
    if isinstance(result, EpisodeAbort):
        raise result
    return result


def validate_prototypes(protos: np.ndarray) -> None:
    """Reject a bank with a non-finite entry or a row of zeros: the
    one-bank case of `banks_or_aborts`."""
    bank, = banks_or_aborts(np.asarray(protos)[None])
    if isinstance(bank, EpisodeAbort):
        raise bank


def banks_or_aborts(protos: np.ndarray) -> list[PrototypeBank | EpisodeAbort]:
    """Each bank of the (B, n, e) stack `protos` as a `PrototypeBank` (a
    view of the stack), or its abort: `proto_nonfinite` for a non-finite
    entry, else `zero_prototype_row` for a row of zeros."""
    finite = np.isfinite(protos).all(axis=(1, 2))
    full = protos.any(axis=2).all(axis=1)
    return [PrototypeBank(protos=bank) if ok and nonzero
            else EpisodeAbort("zero_prototype_row" if ok
                              else "proto_nonfinite")
            for bank, ok, nonzero in zip(protos, finite, full)]
