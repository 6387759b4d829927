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
    """Mask row n = softmax over dimensions of scale * |proto_n|.

    The absolute value makes masks invariant to negating a prototype;
    scale=0 (or an all-zero prototype row) yields the uniform mask. A
    row whose scale * |proto_n| leaves float64 range takes the softmax's
    limit: equal weight on the entries where sign(scale) * |proto_n| is
    largest, 0 elsewhere. Raises ValueError naming a non-finite `scale`
    or `boost` or a negative `boost`, or on non-finite prototypes.
    """
    for name, value in (("scale", scale), ("boost", boost)):
        if not math.isfinite(value):
            raise ValueError(f"mask {name}={value!r} must be finite")
    if boost < 0:
        raise ValueError(f"mask boost={boost!r} must be >= 0")
    magnitudes = np.abs(np.asarray(protos.protos, dtype=np.float64))
    top = float(magnitudes.max())
    if not math.isfinite(top):
        raise ValueError("prototypes must be finite")
    if math.isfinite(scale * top):  # then no entry's product overflows
        return AttentionMasks(masks=softmax(scale * magnitudes, axis=1),
                              boost=boost)
    with np.errstate(over="ignore"):  # an overflowed row is replaced below
        z = scale * magnitudes
    lost = ~np.isfinite(z).all(axis=1)
    z[lost] = 0.0
    masks = softmax(z, axis=1)
    signed = np.sign(scale) * magnitudes[lost]
    peak = signed == signed.max(axis=1, keepdims=True)
    masks[lost] = peak / np.count_nonzero(peak, axis=1)[:, None]
    return AttentionMasks(masks=masks, boost=boost)


def classify_batch(queries: np.ndarray, protos: PrototypeBank,
                   masks: AttentionMasks | None, use_mask: bool,
                   diag: Diagnostics):
    """Predict each row of a (n_queries, e) matrix; returns the argmax
    indices and the (n_queries, n_classes) cosine scores.

    score_n = cos(boost * query * mask_n + query, proto_n) when masking,
    cos(query, proto_n) otherwise. Ties break toward the lowest class
    index. A zero query has no direction: all its scores are 0, class 0
    is predicted, and a `zero_query` diagnostic is recorded.

    All classes are scored in one (n_classes, n_queries, e) stack of
    corrected queries (unmasked, the queries broadcast over classes):
    dot products with the unit prototypes by one batched matrix-vector
    `np.matmul`, row norms along the last axis. Each score has the bits
    of scoring its class alone with `rows @ unit_proto`, which
    `np.einsum` and `(a * b).sum` do not give. Query and prototype norms
    come from `row_norms`. A corrected row whose norm overflows is
    rebuilt from its query divided by the query's largest |entry|, which
    changes none of its cosines, and scored through `row_norms`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    p, proto_norms = row_norms(protos.protos)
    queries, query_norms = row_norms(queries)
    if np.any(proto_norms == 0.0):
        raise ValueError("zero-norm prototype row; bank is unusable")
    unit_protos = (p / proto_norms[:, None])[:, :, None]
    if use_mask:
        if masks is None:
            raise ValueError("use_mask=True requires masks")
        with np.errstate(over="ignore", invalid="ignore"):  # rebuilt below
            corrected = masks.boost * queries * masks.masks[:, None, :]
            corrected += queries
            dots = np.matmul(corrected, unit_protos)[:, :, 0]
            # np.linalg.norm's own sqrt(sum(x * x)), squared in place:
            # one stack-sized temporary fewer.
            np.multiply(corrected, corrected, out=corrected)
            norms = np.sqrt(corrected.sum(axis=2))
        lost = ~np.isfinite(norms)
        if lost.any():
            classes, rows = np.nonzero(lost)
            q = queries[rows]
            q = q / np.abs(q).max(axis=1, keepdims=True)
            fixed, norms[lost] = row_norms(
                masks.boost * q * masks.masks[classes] + q)
            dots[lost] = (fixed * unit_protos[classes, :, 0]).sum(axis=1)
    else:
        dots = np.matmul(queries, unit_protos)[:, :, 0]
        norms = query_norms
    # A zero query stays zero under correction, so its scores are all 0
    # and argmax falls through to class 0.
    safe = np.where(norms == 0.0, 1.0, norms)
    scores = np.clip(dots / safe, -1.0, 1.0).T
    zero_q = query_norms == 0.0
    if zero_q.any():
        diag.record("zero_query", int(zero_q.sum()))
    return np.argmax(scores, axis=1), scores


def score_episode(episode: Episode, predictions: np.ndarray) -> float:
    """Fraction of queries whose prediction matches the hidden label."""
    predictions = np.asarray(predictions, dtype=np.int64)
    truth = episode.hidden_labels
    if predictions.shape != truth.shape:
        raise ValueError(
            f"{predictions.shape[0] if predictions.ndim else 0} predictions "
            f"for {truth.shape[0]} queries")
    return float(np.mean(predictions == truth))
