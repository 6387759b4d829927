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
from .optim import LOG_FLOOR, AdamState, adam_step, softmax


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


class _Workspace:
    """Constants and preallocated buffers of one batched prototype loop.

    Holds a stack of B banks' frozen inputs, head_weights (B, n, e),
    head_bias (B, n), pre-normalized support rows unit_rows (B, r, e)
    and their labels (B, r), plus what the step derives from them once:
    the labels one-hot, the class weight times the n x n identity and
    the flat index of each row's own-class entry in a (B, r, n) array.
    Every `_step_loss_and_grad` call writes the same buffers, through
    views made here, so a step allocates no array.
    """

    def __init__(self, head_weights: np.ndarray, head_bias: np.ndarray,
                 unit_rows: np.ndarray, labels: np.ndarray,
                 weights: LossWeights):
        n_banks, n, e = head_weights.shape
        r = unit_rows.shape[1]
        self.weights = weights
        self.class_eye = weights.class_weight * np.eye(n)
        self.head_weights, self.head_bias = head_weights, head_bias
        self.unit_rows, self.labels = unit_rows, labels
        # Each buffer becomes an attribute of its name, cut to the stack.
        self._buffers = {
            name: np.empty((n_banks,) + shape)
            for name, shape in (
                ("grad", (n, e)), ("unit_protos", (n, e)), ("cross", (n, e)),
                ("probs", (n, n)), ("logp", (n, n)), ("prod", (n, n)),
                ("scores", (r, n)), ("q", (r, n)), ("picked", (r,)),
                ("per_proto", (n, 1)), ("per_row", (r, 1)), ("ent", (n, 1)),
                ("norms", (n, 1)), ("col_sum", (n, 1)), ("loss", ()),
                ("term", ()))}
        self._bind()

    def _bind(self) -> None:
        """Point the buffers and their views at the first B banks and
        derive the label constants."""
        n_banks, r = self.labels.shape
        n = self.class_eye.shape[0]
        for name, buf in self._buffers.items():
            setattr(self, name, buf[:n_banks])
        self.head_weights_t = self.head_weights.transpose(0, 2, 1)
        self.bias_3d = self.head_bias[:, None, :]
        self.logp_diag = np.diagonal(self.logp, axis1=1, axis2=2)
        self.ent_2d = self.ent[:, :, 0]
        self.norms_2d = self.norms[:, :, 0]
        self.col_sum_2d = self.col_sum[:, :, 0]
        self.unit_protos_t = self.unit_protos.transpose(0, 2, 1)
        self.q_t = self.q.transpose(0, 2, 1)
        self.probs_cols = [self.probs[:, :, k] for k in range(n)]
        self.scores_cols = [self.scores[:, :, k] for k in range(n)]
        self.one_hot = (self.labels[:, :, None]
                        == np.arange(n)).astype(np.float64)
        self.picked_index = ((np.arange(n_banks)[:, None] * r
                              + np.arange(r)) * n + self.labels)

    def keep(self, keep: np.ndarray) -> None:
        """Shrink the stack to the banks where `keep` is True."""
        self.head_weights = self.head_weights[keep]
        self.head_bias = self.head_bias[keep]
        self.unit_rows = self.unit_rows[keep]
        self.labels = self.labels[keep]
        self._bind()


def _max_of_columns(columns: list[np.ndarray], out: np.ndarray) -> None:
    """Elementwise maximum of `columns`, the slices of an array along its
    last axis, into `out`.

    The value is that of `maximum.reduce` over that axis up to the sign
    of a zero result, which the exp after the softmax shift erases. On a
    short axis (n_ways entries) a chain of elementwise calls is several
    times faster than a reduce, which pays a fixed cost per row.
    """
    np.copyto(out, columns[0])
    for column in columns[1:]:
        np.maximum(out, column, out=out)


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
    min, the softmax shifts take their maxima column by column, and
    subtracting the one-hot and the scaled identity over whole arrays
    changes only the picked entries, because x - 0.0 == x. A bank with a
    zero-norm prototype row gets a NaN loss.
    """
    w = work
    weights = w.weights
    n = protos.shape[1]
    n_rows = w.unit_rows.shape[1]
    loss, term = w.loss, w.term

    probs, per_proto = w.probs, w.per_proto
    np.matmul(protos, w.head_weights_t, out=probs)
    probs += w.bias_3d
    _max_of_columns(w.probs_cols, per_proto[:, :, 0])
    probs -= per_proto
    np.exp(probs, out=probs)
    np.add.reduce(probs, axis=2, keepdims=True, out=per_proto)
    probs /= per_proto
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
    scores, q, per_row = w.scores, w.q, w.per_row
    np.matmul(w.unit_rows, w.unit_protos_t, out=scores)
    np.maximum(scores, -1.0, out=scores)
    np.minimum(scores, 1.0, out=scores)
    _max_of_columns(w.scores_cols, per_row[:, :, 0])
    np.subtract(scores, per_row, out=q)
    np.exp(q, out=q)
    np.add.reduce(q, axis=2, keepdims=True, out=per_row)
    q /= per_row
    picked = w.picked
    np.take(q, w.picked_index, out=picked, mode="clip")
    np.maximum(picked, LOG_FLOOR, out=picked)
    np.log(picked, out=picked)
    np.add.reduce(picked, axis=1, out=term)
    np.negative(term, out=term)
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
    work = _Workspace(np.stack([heads[j].weights for j in alive]),
                      np.stack([heads[j].bias for j in alive]),
                      np.stack(unit_rows), np.stack(int_labels), weights)
    state = AdamState.fresh(protos.shape, lr=lr)
    # A zero-norm row (0/0) or an overflowed logit (inf - inf) shows as a
    # NaN loss, which aborts that bank with a reason. A gradient entry
    # past ~1e154 overflows the second moment instead: the loss stays
    # finite but that coordinate never moves again. An inf moment stays
    # inf, so one check after the loop catches it. Each of these events
    # ends in a named abort, so the floating-point warnings are off.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for epoch in range(epochs):
            loss, grad = _step_loss_and_grad(protos, work)
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
                state.m, state.v = state.m[keep], state.v[keep]
                work.keep(keep)
                if not alive.size:
                    return results
            if trajectories is not None:
                for j, value in zip(alive, loss):
                    trajectories[j].append(float(value))
            # The step's cross-term buffer is free until the next step.
            adam_step(state, protos, grad, work.cross)
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
