"""Per-episode similarity graph and feature aggregation.

The episode's stacked features (support rows first, then query rows)
become graph vertices. Pairwise cosine similarity with a zero diagonal
gives a dense matrix, exactly symmetric as numpy's BLAS `syrk` returns
it; keeping each row's top-m entries (union with the transposed
selection, so the result stays symmetric) zeroes the rest; a symmetric
degree normalization turns it into the adjacency; features are then
smoothed by `rounds` applications of x <- self_weight*x + A x.
Smoothing that leaves float64 range (a large self_weight raised to the
power `rounds`) aborts the episode as `graph_overflow`.
An episode has n_ways*(k_shots+n_queries) vertices, about 100 in the
usual few-shot shapes, so every matrix here is a plain dense array.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import Diagnostics, EpisodeAbort
from .optim import row_norms


def build_similarity(v: np.ndarray, diag: Diagnostics) -> np.ndarray:
    """Dense pairwise cosine matrix clamped to [-1, 1], with zero diagonal,
    exactly symmetric as numpy takes `unit @ unit.T` (BLAS `syrk` mirrors a
    triangle, its own loop pairs the same products): `(s + s.T) / 2` is `s`.

    A zero-norm row has similarities 0 and records one `zero_vector_cosine`
    diagnostic instead of failing the episode. Norms come from `row_norms`.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    if not np.isfinite(v).all():
        raise ValueError("non-finite feature rows")
    v, norms = row_norms(v)
    zero = norms == 0.0
    if zero.any():
        diag.record("zero_vector_cosine", int(zero.sum()))
        norms = np.where(zero, 1.0, norms)
    unit = v / norms[:, None]
    s = unit @ unit.T
    np.maximum(s, -1.0, out=s)  # clip to [-1, 1]
    np.minimum(s, 1.0, out=s)
    s.flat[::s.shape[0] + 1] = 0.0  # the diagonal
    return s


def sparsify_top_m(s: np.ndarray, m: int) -> np.ndarray:
    """Keep entries in the top-m of their row or of their column; zero
    the rest.

    The union rule preserves symmetry and never isolates a vertex that
    some row still ranks highly. Ties break toward the lowest column
    index; the diagonal is excluded from ranking (it is structurally 0).
    Each row's m-th largest value comes from `np.partition`; the row
    keeps every entry above it and fills its remaining slots with the
    entries equal to it, lowest column first. A non-finite entry has no
    rank and raises ValueError naming its row and column.
    """
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    if s.shape != (n, n):
        raise ValueError("similarity matrix must be square")
    if not 1 <= m <= n - 1:
        raise ValueError(f"m must be in [1, {n - 1}], got {m}")
    finite = np.isfinite(s)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite similarity {s[row, col]} at row {row}, "
                         f"column {col}")
    ranked = s.copy()
    ranked.flat[::n + 1] = -np.inf
    # m <= n - 1 finite entries per row, so the m-th largest is finite.
    kth = np.partition(ranked, n - m, axis=1)[:, n - m, None]
    keep = ranked >= kth
    surplus = np.add.reduce(keep, axis=1) - m
    if surplus.any():
        # More entries tie with the m-th largest than slots are left for
        # them: keep the lowest-column ones.
        rows = np.flatnonzero(surplus)
        tied = ranked[rows] == kth[rows]
        slots = np.count_nonzero(tied, axis=1) - surplus[rows]
        keep[rows] = (ranked[rows] > kth[rows]) | (
            tied & (np.cumsum(tied, axis=1) <= slots[:, None]))
    # The diagonal holds -inf in `ranked`, below every finite kth, so
    # it is never kept.
    keep |= keep.T
    return np.where(keep, s, 0.0)


def normalize_adjacency(s: np.ndarray, diag: Diagnostics) -> np.ndarray:
    """Symmetric degree normalization D^{-1/2} S D^{-1/2}.

    Degrees are the row sums of the sparsified similarity. Negative
    cosines can push a degree to zero or below; such a vertex has no
    usable normalization, so its row and column are zeroed and an
    `isolated_vertex` diagnostic is recorded per vertex.
    """
    s = np.asarray(s, dtype=np.float64)
    degrees = s.sum(axis=1)
    usable = degrees > 0.0
    if usable.all():
        inv_sqrt = 1.0 / np.sqrt(degrees)
    else:
        diag.record("isolated_vertex", int((~usable).sum()))
        inv_sqrt = np.zeros_like(degrees)
        inv_sqrt[usable] = 1.0 / np.sqrt(degrees[usable])
    adjacency = s * inv_sqrt[:, None]
    adjacency *= inv_sqrt
    return adjacency


def propagate(v: np.ndarray, adjacency: np.ndarray,
              self_weight: float, rounds: int) -> np.ndarray:
    """Aggregate features: (self_weight*I + A)^rounds applied to v.

    Computed as `rounds` successive matrix-feature products
    x <- self_weight*x + A x, never forming the matrix power.
    rounds=0 returns v unchanged.
    """
    v = np.asarray(v, dtype=np.float64)
    if rounds < 0:
        raise ValueError("rounds must be non-negative")
    if adjacency.shape != (v.shape[0], v.shape[0]):
        raise ValueError(
            f"adjacency {adjacency.shape} incompatible with features {v.shape}")
    out = v.copy()
    for _ in range(rounds):
        nxt = adjacency @ out
        out *= self_weight
        out += nxt
    return out


def build_task_graph(support_x: np.ndarray, query_x: np.ndarray, m: int,
                     self_weight: float, rounds: int, diag: Diagnostics
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Run the full graph stage for one episode's features.

    Returns the aggregated (support rows, query rows). Raises
    EpisodeAbort("graph_overflow") when an aggregated entry is not finite.
    """
    v = np.concatenate([np.asarray(support_x, dtype=np.float64),
                        np.asarray(query_x, dtype=np.float64)])
    adjacency = normalize_adjacency(
        sparsify_top_m(build_similarity(v, diag), m), diag)
    with np.errstate(over="ignore", invalid="ignore"):  # aborted below
        aggregated = propagate(v, adjacency, self_weight, rounds)
    if not np.isfinite(aggregated).all():
        raise EpisodeAbort(
            "graph_overflow", f"aggregated features left float64 range at "
            f"self_weight={self_weight!r}, rounds={rounds}")
    n_support = support_x.shape[0]
    return aggregated[:n_support], aggregated[n_support:]
