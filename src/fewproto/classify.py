"""Query classification by attention-masked cosine distance to prototypes.

Each class gets a mask: a probability vector over feature dimensions,
softmax(scale * |prototype|). Before scoring a query against class n, the
query is corrected to boost * (query * mask_n) + query, elementwise; the
class with the highest cosine wins. With uniform masks the correction is
a uniform rescaling, which cosine ignores, so masked and unmasked
predictions coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import Diagnostics
from .embeddings import Episode
from .optim import row_norms, softmax
from .prototypes import PrototypeBank


@dataclass
class AttentionMasks:
    """Per-class probability vectors over feature dimensions.

    masks[n] sums to 1 with non-negative entries; `boost` weights the
    correction term at query time.
    """

    masks: np.ndarray  # (n_classes, e)
    boost: float


def build_masks(protos: PrototypeBank, scale: float,
                boost: float) -> AttentionMasks:
    """Mask row n = softmax over dimensions of scale * |proto_n|: the
    one-bank case of `mask_stack`."""
    return AttentionMasks(masks=mask_stack(protos.protos[None], scale)[0],
                          boost=boost)


def mask_stack(protos: np.ndarray, scale: float) -> np.ndarray:
    """The (B, n, e) masks of a (B, n, e) stack of prototype banks: row
    n of bank b is the softmax over dimensions of scale * |protos[b, n]|.

    The absolute value makes masks invariant to negating a prototype;
    scale=0 (or an all-zero prototype row) yields the uniform mask. A
    row whose scale * |proto_n| leaves float64 range takes the softmax's
    limit: equal weight on the entries where sign(scale) * |proto_n| is
    largest, 0 elsewhere. Every other row has the bits of its own
    `softmax`. Raises ValueError naming a non-finite `scale`, or on
    non-finite prototypes.
    """
    if not math.isfinite(scale):
        raise ValueError(f"mask scale={scale!r} must be finite")
    magnitudes = np.abs(np.asarray(protos, dtype=np.float64))
    top = float(magnitudes.max())
    if not math.isfinite(top):
        raise ValueError("prototypes must be finite")
    if math.isfinite(scale * top):  # then no entry's product overflows
        return softmax(scale * magnitudes)
    with np.errstate(over="ignore"):  # an overflowed row is replaced below
        z = scale * magnitudes
    lost = ~np.isfinite(z).all(axis=-1)
    z[lost] = 0.0
    masks = softmax(z)
    signed = np.sign(scale) * magnitudes[lost]
    peak = signed == signed.max(axis=-1, keepdims=True)
    masks[lost] = peak / np.count_nonzero(peak, axis=-1)[:, None]
    return masks


def classify_batch(queries: np.ndarray, protos: PrototypeBank,
                   masks: AttentionMasks | None, use_mask: bool,
                   diag: Diagnostics):
    """Predict each row of a (n_queries, e) matrix; returns the argmax
    indices and the (n_queries, n_classes) cosine scores: the one-bank
    case of `classify_stack`, which records a `zero_query` diagnostic
    for each zero query."""
    if use_mask and masks is None:
        raise ValueError("use_mask=True requires masks")
    predictions, scores, zero_queries = classify_stack(
        np.asarray(queries)[None], protos.protos[None],
        masks.masks[None] if use_mask else None,
        masks.boost if use_mask else 0.0)
    if zero_queries[0]:
        diag.record("zero_query", int(zero_queries[0]))
    return predictions[0], scores[0]


def classify_stack(queries: np.ndarray, protos: np.ndarray,
                   masks: np.ndarray | None, boost: float
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify the (B, Q, e) queries of B episodes against their (B, n,
    e) prototype banks; returns the (B, Q) predictions, the (B, Q, n)
    cosine scores and each episode's (B,) count of zero queries.

    score_n = cos(boost * query * masks[b, n] + query, proto_n) with
    masks, cos(query, proto_n) without (masks=None). Ties break toward
    the lowest class index. A zero query has no direction: all its
    scores are 0 and class 0 is predicted.

    The corrected queries of every class fill one (B, n, Q, e) buffer,
    (boost * query) * mask then + query, written in place (unmasked, the
    queries broadcast over classes): dot products with the unit
    prototypes by one batched matrix-vector `np.matmul`, norms as
    sqrt(sum(x * x)) along the feature axis. Every operation runs within
    one episode's rows, so each score has the bits of scoring its class
    alone with `rows @ unit_proto`, which `np.einsum` and `(a * b).sum`
    do not give, in any stack. Query and prototype norms come from
    `row_norms`. A corrected row whose norm overflows is rebuilt from
    its query divided by the query's largest |entry|, which changes none
    of its cosines, and scored through `row_norms`. Raises ValueError on
    a bad `boost`, unfit shapes or a zero-norm prototype row.
    """
    if not 0.0 <= boost < math.inf:  # and NaN
        raise ValueError(f"mask boost={boost!r} must be finite and >= 0")
    queries = np.asarray(queries, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    if queries.ndim != 3 or queries.shape[::2] != protos.shape[::2]:
        raise ValueError(f"queries {queries.shape} do not fit prototype "
                         f"banks {protos.shape}")
    if masks is not None and np.shape(masks) != protos.shape:
        raise ValueError(f"masks {np.shape(masks)} do not fit prototype "
                         f"banks {protos.shape}")
    p, proto_norms = row_norms(protos)
    queries, query_norms = row_norms(queries)
    if np.any(proto_norms == 0.0):
        raise ValueError("zero-norm prototype row; bank is unusable")
    unit_protos = (p / proto_norms[:, :, None])[:, :, :, None]
    if masks is not None:
        n_stack, n_queries, dim = queries.shape
        corrected = np.empty((n_stack, p.shape[1], n_queries, dim))
        with np.errstate(over="ignore", invalid="ignore"):  # rebuilt below
            # The masks copied over the queries axis, then multiplied in
            # place by boost * query (a product commutes bit for bit): a
            # multiply that broadcasts both operands iterates rows of e,
            # several times slower.
            np.copyto(corrected, masks[:, :, None])
            corrected *= (boost * queries)[:, None]
            corrected += queries[:, None]
            dots = np.matmul(corrected, unit_protos)[:, :, :, 0]
            # np.linalg.norm's own sqrt(sum(x * x)), squared in place:
            # one stack-sized temporary fewer.
            np.multiply(corrected, corrected, out=corrected)
            norms = np.sqrt(corrected.sum(axis=3))
        lost = ~np.isfinite(norms)
        if lost.any():
            stack, classes, rows = np.nonzero(lost)
            q = queries[stack, rows]
            q = q / np.abs(q).max(axis=1, keepdims=True)
            fixed, norms[lost] = row_norms(
                boost * q * masks[stack, classes] + q)
            dots[lost] = (fixed * unit_protos[stack, classes, :, 0]).sum(
                axis=1)
    else:
        dots = np.matmul(queries[:, None], unit_protos)[:, :, :, 0]
        norms = query_norms[:, None, :]
    # A zero query stays zero under correction, so its scores are all 0
    # and argmax falls through to class 0.
    dots /= np.where(norms == 0.0, 1.0, norms)
    np.maximum(dots, -1.0, out=dots)  # clip to [-1, 1]
    np.minimum(dots, 1.0, out=dots)
    scores = dots.transpose(0, 2, 1)
    return (np.argmax(scores, axis=2), scores,
            np.count_nonzero(query_norms == 0.0, axis=1))


def score_episode(episode: Episode, predictions: np.ndarray) -> float:
    """Fraction of queries whose prediction matches the hidden label:
    the one-episode case of `score_episodes`."""
    return float(score_episodes(episode.hidden_labels[None],
                                np.asarray(predictions)[None])[0])


def score_episodes(hidden_labels: np.ndarray,
                   predictions: np.ndarray) -> np.ndarray:
    """Each episode's fraction of queries whose prediction, a row of the
    (B, Q) `predictions`, matches its row of `hidden_labels`."""
    predictions = np.asarray(predictions, dtype=np.int64)
    if predictions.ndim != 2 or predictions.shape != np.shape(hidden_labels):
        raise ValueError(f"predictions {predictions.shape} do not match "
                         f"hidden labels {np.shape(hidden_labels)}")
    return np.mean(predictions == hidden_labels, axis=1)
