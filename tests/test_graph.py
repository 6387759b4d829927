import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewproto.diagnostics import Diagnostics, EpisodeAbort
from fewproto.graph import (build_similarity, build_task_graph,
                            normalize_adjacency, propagate, sparsify_top_m)
from fewproto.optim import row_norms


def dense_normalize_oracle(s):
    """Explicit D^{-1/2} S D^{-1/2} with dense matrices."""
    d = s.sum(axis=1)
    inv = np.diag(1.0 / np.sqrt(d))
    return inv @ s @ inv


def dense_power_oracle(v, adjacency, self_weight, rounds):
    """Explicit (self_weight*I + A)^rounds @ V."""
    a = self_weight * np.eye(adjacency.shape[0]) + adjacency
    return np.linalg.matrix_power(a, rounds) @ v


def test_similarity_identical_unit_rows():
    s = build_similarity(np.array([[0.6, 0.8], [0.6, 0.8]]), Diagnostics())
    np.testing.assert_allclose(s, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_similarity_orthogonal_rows():
    s = build_similarity(np.array([[1.0, 0.0], [0.0, 1.0]]), Diagnostics())
    np.testing.assert_array_equal(s, np.zeros((2, 2)))


def test_similarity_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    for n in (3, 5, 9):
        v = rng.normal(size=(n, 7))
        s = build_similarity(v, Diagnostics())
        for i in range(n):
            for j in range(n):
                norms = np.linalg.norm(v[i]) * np.linalg.norm(v[j])
                want = 0.0 if i == j else v[i] @ v[j] / norms
                assert s[i, j] == pytest.approx(want, abs=1e-12)


def test_similarity_exactly_symmetric_zero_diagonal():
    # No pass re-symmetrizes the product: numpy must return it symmetric
    # in every layout and size `edge_features` covers.
    for v in edge_features(1):
        s = build_similarity(v, Diagnostics())
        assert np.array_equal(s, s.T)
        assert np.all(np.diag(s) == 0.0)
        assert s.min() >= -1.0 and s.max() <= 1.0


def test_similarity_zero_row_diagnostic():
    diag = Diagnostics()
    v = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
    s = build_similarity(v, diag)
    assert diag.counts["zero_vector_cosine"] == 1
    np.testing.assert_array_equal(s[0], np.zeros(3))


def test_sparsify_m_max_keeps_everything():
    rng = np.random.default_rng(2)
    v = rng.normal(size=(6, 4))
    s = build_similarity(v, Diagnostics())  # includes negative entries
    kept = sparsify_top_m(s, 5)
    np.testing.assert_array_equal(kept, s)


def test_sparsify_chain_union_rule():
    # Hand-enumerated: row tops are 0->1, 1->0, 2->1; the union keeps the
    # two chain edges 0-1 and 1-2 symmetrically and drops 0-2.
    s = np.array([
        [0.0, 0.9, 0.1],
        [0.9, 0.0, 0.5],
        [0.1, 0.5, 0.0],
    ])
    kept = sparsify_top_m(s, 1)
    want = np.array([
        [0.0, 0.9, 0.0],
        [0.9, 0.0, 0.5],
        [0.0, 0.5, 0.0],
    ])
    np.testing.assert_array_equal(kept, want)


def test_sparsify_tie_breaks_to_lowest_index():
    # All off-diagonal entries equal: each row keeps its lowest-index
    # neighbor (0 keeps 1, rows 1 and 2 keep 0), union symmetrizes.
    s = np.full((3, 3), 0.5)
    np.fill_diagonal(s, 0.0)
    kept = sparsify_top_m(s, 1)
    want = np.array([
        [0.0, 0.5, 0.5],
        [0.5, 0.0, 0.0],
        [0.5, 0.0, 0.0],
    ])
    np.testing.assert_array_equal(kept, want)
    assert np.max(np.abs(kept - kept.T)) == 0.0


def test_sparsify_symmetric_on_random_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        s = build_similarity(rng.normal(size=(n, 4)), Diagnostics())
        m = int(rng.integers(1, n))
        kept = sparsify_top_m(s, m)
        assert np.max(np.abs(kept - kept.T)) == 0.0
        assert np.all(np.diag(kept) == 0.0)


def top_m_oracle(s, m):
    """The documented rule in plain Python: each row ranks its
    off-diagonal entries by value descending, then by column ascending,
    and keeps the first m; an entry survives if its row or its column
    kept it."""
    n = len(s)
    keep = np.zeros((n, n), dtype=bool)
    for i in range(n):
        ranked = sorted((j for j in range(n) if j != i),
                        key=lambda j: (-s[i][j], j))
        for j in ranked[:m]:
            keep[i, j] = keep[j, i] = True
    return np.array([[s[i][j] if keep[i, j] else 0.0 for j in range(n)]
                     for i in range(n)])


TIED_VALUES = (-0.5, -0.0, 0.0, 0.1, 0.5, 1.0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 30), symmetric=st.booleans())
def test_sparsify_matches_tie_oracle(data, n, symmetric):
    # A handful of values, so ties are the norm rather than the exception.
    s = np.array(data.draw(st.lists(st.sampled_from(TIED_VALUES),
                                    min_size=n * n, max_size=n * n)),
                 dtype=np.float64).reshape(n, n)
    if symmetric:
        s = np.triu(s, 1) + np.triu(s, 1).T
    for m in range(1, n):
        np.testing.assert_array_equal(sparsify_top_m(s, m),
                                      top_m_oracle(s.tolist(), m))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sparsify_rejects_non_finite(bad):
    s = build_similarity(np.random.default_rng(10).normal(size=(6, 4)),
                         Diagnostics())
    s[4, 2] = bad
    s[5, 1] = bad
    with pytest.raises(ValueError, match="row 4, column 2"):
        sparsify_top_m(s, 3)


def test_sparsify_m_out_of_range():
    s = np.zeros((4, 4))
    with pytest.raises(ValueError):
        sparsify_top_m(s, 0)
    with pytest.raises(ValueError):
        sparsify_top_m(s, 4)


@pytest.mark.parametrize("call, message", [
    (lambda: build_similarity(np.ones((1, 3)), Diagnostics()),
     "at least two rows"),
    (lambda: build_similarity(np.array([[1.0, np.inf], [0.0, 1.0]]),
                              Diagnostics()), "non-finite feature rows"),
    (lambda: sparsify_top_m(np.zeros((3, 4)), 1), "must be square"),
    (lambda: propagate(np.ones((3, 2)), np.zeros((3, 3)), 1.0, -1),
     "rounds must be non-negative"),
    (lambda: propagate(np.ones((3, 2)), np.zeros((2, 2)), 1.0, 1),
     r"adjacency \(2, 2\) incompatible with features \(3, 2\)"),
])
def test_stage_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_normalize_unit_degrees():
    s = np.array([[0.0, 1.0], [1.0, 0.0]])
    e = normalize_adjacency(s, Diagnostics())
    np.testing.assert_allclose(e, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_scaling_cancels():
    s = np.array([[0.0, 2.0], [2.0, 0.0]])
    e = normalize_adjacency(s, Diagnostics())
    np.testing.assert_allclose(e, [[0.0, 1.0], [1.0, 0.0]], atol=1e-15)


def test_normalize_matches_dense_oracle():
    rng = np.random.default_rng(4)
    for _ in range(20):
        raw = rng.uniform(0.1, 1.0, size=(6, 6))
        s = (raw + raw.T) / 2
        np.fill_diagonal(s, 0.0)
        e = normalize_adjacency(s, Diagnostics())
        np.testing.assert_allclose(e, dense_normalize_oracle(s), atol=1e-12)


def test_normalize_isolated_vertex_zeroed():
    s = np.array([
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
    ])
    diag = Diagnostics()
    e = normalize_adjacency(s, diag)
    assert diag.counts["isolated_vertex"] == 1
    np.testing.assert_array_equal(e[0], np.zeros(3))
    np.testing.assert_array_equal(e[:, 0], np.zeros(3))
    assert e[1, 2] == pytest.approx(1.0)


def test_propagate_zero_rounds_is_identity():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(4, 3))
    adjacency = np.ones((4, 4)) - np.eye(4)
    np.testing.assert_array_equal(propagate(v, adjacency, 0.7, 0), v)


def test_propagate_swap_example():
    adjacency = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = np.eye(2)
    out = propagate(v, adjacency, 1.0, 1)
    np.testing.assert_allclose(out, np.ones((2, 2)), atol=1e-15)


def test_propagate_matches_dense_power_oracle():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(8, 5))
    s = build_similarity(rng.normal(size=(8, 5)) + 2.0, Diagnostics())
    adjacency = normalize_adjacency(sparsify_top_m(s, 3), Diagnostics())
    out = propagate(v, adjacency, 1.0, 3)
    want = dense_power_oracle(v, adjacency, 1.0, 3)
    np.testing.assert_allclose(out, want, atol=1e-10)


def test_propagate_linearity():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        s = build_similarity(rng.normal(size=(n, 4)) + 1.5, Diagnostics())
        adjacency = normalize_adjacency(sparsify_top_m(s, min(3, n - 1)),
                                        Diagnostics())
        v1 = rng.normal(size=(n, 6))
        v2 = rng.normal(size=(n, 6))
        a, b = rng.normal(size=2)
        left = propagate(a * v1 + b * v2, adjacency, 0.8, 3)
        right = a * propagate(v1, adjacency, 0.8, 3) \
            + b * propagate(v2, adjacency, 0.8, 3)
        np.testing.assert_allclose(left, right, atol=1e-9)


def test_propagate_oracle_all_small_sizes():
    rng = np.random.default_rng(8)
    for n in range(3, 13):
        feats = rng.normal(size=(n, 6)) + rng.normal(size=6)
        s = build_similarity(feats, Diagnostics())
        m = int(rng.integers(1, n))
        adjacency = normalize_adjacency(sparsify_top_m(s, m), Diagnostics())
        rounds = int(rng.integers(0, 5))
        sw = float(rng.uniform(0.2, 1.5))
        out = propagate(feats, adjacency, sw, rounds)
        want = dense_power_oracle(feats, adjacency, sw, rounds)
        np.testing.assert_allclose(out, want, atol=1e-10)


def test_task_graph_shapes_and_invariants():
    rng = np.random.default_rng(9)
    support = rng.normal(size=(10, 6)) + 1.0
    query = rng.normal(size=(30, 6)) + 1.0
    support_feats, query_feats = build_task_graph(support, query, 5, 1.0, 3,
                                                  Diagnostics())
    assert support_feats.shape == (10, 6)
    assert query_feats.shape == (30, 6)
    v = np.vstack([support, query])
    s = sparsify_top_m(build_similarity(v, Diagnostics()), 5)
    adjacency = normalize_adjacency(s, Diagnostics())
    assert np.max(np.abs(adjacency - adjacency.T)) <= 1e-12
    # adjacency reconstructs from the sparsified similarity
    np.testing.assert_allclose(adjacency, dense_normalize_oracle(s),
                               atol=1e-9)
    # the stage is the three steps in order, support rows first
    want = dense_power_oracle(v, adjacency, 1.0, 3)
    np.testing.assert_allclose(np.vstack([support_feats, query_feats]), want,
                               atol=1e-10)


@pytest.mark.parametrize("scale", [1e-170, 1e170])
def test_similarity_rows_beyond_norm_range_keep_their_direction(scale):
    # Squared norms of these rows under- or overflow float64.
    diag = Diagnostics()
    s = build_similarity(np.array([[scale, 0.0], [1.0, 0.0], [0.0, 2.0]]),
                         diag)
    np.testing.assert_array_equal(s, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                                      [0.0, 0.0, 0.0]])
    assert "zero_vector_cosine" not in diag.counts


def test_task_graph_aborts_when_aggregation_overflows():
    # 1e110 cubed passes float64 range. Any RuntimeWarning fails the test.
    rng = np.random.default_rng(8)
    support, query = rng.normal(size=(6, 4)), rng.normal(size=(9, 4))
    with pytest.raises(EpisodeAbort, match="self_weight=1e\\+110") as err:
        build_task_graph(support, query, 3, 1e110, 3, Diagnostics())
    assert err.value.reason == "graph_overflow"
    s, q = build_task_graph(support, query, 3, 1e100, 3, Diagnostics())
    assert np.isfinite(s).all() and np.isfinite(q).all()


# References for the graph stage: each function's formula written with
# numpy's wrappers (np.clip, np.fill_diagonal, np.count_nonzero,
# np.vstack) and a fresh array at each step. Every stage function must
# give their bits, diagnostics and errors.

def reference_similarity(v, diag):
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 2 or v.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least two rows")
    if not np.all(np.isfinite(v)):
        raise ValueError("non-finite feature rows")
    v, norms = row_norms(v)
    zero = norms == 0.0
    if zero.any():
        diag.record("zero_vector_cosine", int(zero.sum()))
        norms = np.where(zero, 1.0, norms)
    unit = v / norms[:, None]
    s = np.clip(unit @ unit.T, -1.0, 1.0)
    s = (s + s.T) / 2.0
    np.fill_diagonal(s, 0.0)
    return s


def reference_top_m(s, m):
    s = np.asarray(s, dtype=np.float64)
    n = s.shape[0]
    finite = np.isfinite(s)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite similarity {s[row, col]} at row {row}, "
                         f"column {col}")
    ranked = s.copy()
    np.fill_diagonal(ranked, -np.inf)
    kth = np.partition(ranked, n - m, axis=1)[:, n - m, None]
    keep = ranked >= kth
    surplus = np.count_nonzero(keep, axis=1) - m
    rows = np.flatnonzero(surplus)
    if rows.size:
        tied = ranked[rows] == kth[rows]
        slots = np.count_nonzero(tied, axis=1) - surplus[rows]
        keep[rows] = (ranked[rows] > kth[rows]) | (
            tied & (np.cumsum(tied, axis=1) <= slots[:, None]))
    keep |= keep.T
    np.fill_diagonal(keep, False)
    return np.where(keep, s, 0.0)


def reference_normalize(s, diag):
    s = np.asarray(s, dtype=np.float64)
    degrees = s.sum(axis=1)
    usable = degrees > 0.0
    if not usable.all():
        diag.record("isolated_vertex", int((~usable).sum()))
    inv_sqrt = np.zeros_like(degrees)
    inv_sqrt[usable] = 1.0 / np.sqrt(degrees[usable])
    return s * inv_sqrt[:, None] * inv_sqrt[None, :]


def reference_propagate(v, adjacency, self_weight, rounds):
    out = np.asarray(v, dtype=np.float64).copy()
    for _ in range(rounds):
        out = self_weight * out + adjacency @ out
    return out


def reference_task_graph(support_x, query_x, m, self_weight, rounds, diag):
    v = np.vstack([np.asarray(support_x, dtype=np.float64),
                   np.asarray(query_x, dtype=np.float64)])
    adjacency = reference_normalize(
        reference_top_m(reference_similarity(v, diag), m), diag)
    with np.errstate(over="ignore", invalid="ignore"):
        aggregated = reference_propagate(v, adjacency, self_weight, rounds)
    if not np.isfinite(aggregated).all():
        raise EpisodeAbort(
            "graph_overflow", f"aggregated features left float64 range at "
            f"self_weight={self_weight!r}, rounds={rounds}")
    n_support = support_x.shape[0]
    return aggregated[:n_support], aggregated[n_support:]


def edge_features(seed):
    """Feature matrices of 2 to 40 rows with the rows the stage treats
    specially: zero rows, rows whose squared norms over- or underflow,
    repeated and negated rows (cosines of exactly 1 and -1). Then, at
    2 to 257 rows of 1 to 640 columns, the layouts in which numpy could
    take `unit @ unit.T` by another path: C and Fortran order, a strided
    view, plain and with a zero row and rows scaled by 1e170 and 1e-170
    (which `row_norms` copies to C order), and float32."""
    rng = np.random.default_rng(seed)
    cases = [rng.normal(size=(int(n), int(e))) + rng.normal(size=int(e))
             for n, e in rng.integers([2, 1], [41, 17], size=(12, 2))]
    v = rng.normal(size=(20, 6))
    v[3] = 0.0
    v[4] = 0.0
    v[5] *= 1e170
    v[6] *= 1e-170
    v[7] = v[8]
    v[9] = -v[8]
    rows = rng.normal(size=(10, 6))  # some rounded cosines pass +-1
    cases += [v, np.vstack([rows, rows, -rows]), np.zeros((5, 3)),
              np.array([[1.0, 0.0], [1.0, 0.0]])]
    for n in (2, 9, 129, 257):
        for e in (1, 65, 640):
            v = rng.normal(size=(n, e)) + rng.normal(size=e)
            extreme = v.copy()
            extreme[0] = 0.0
            for row, scale in zip(range(1, n), (1e170, 1e-170)):
                extreme[row] *= scale
            cases.append(v.astype(np.float32))
            for w in (v, extreme):
                cases += [w, np.asfortranarray(w),
                          np.repeat(w, 2, axis=0)[::2]]
    return cases


def check_same(call, reference, *args):
    """`call` and `reference` on fresh `Diagnostics`: equal bits and
    counts, or the same exception type and text."""
    diags = Diagnostics(), Diagnostics()
    results = []
    for fn, diag in zip((call, reference), diags):
        try:
            results.append(fn(*args, diag))
        except (ValueError, EpisodeAbort) as err:
            results.append(err)
    got, want = results
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
    else:
        for g, w in zip(got if isinstance(got, tuple) else (got,),
                        want if isinstance(want, tuple) else (want,)):
            assert np.array_equal(g, w)
    assert diags[0].counts == diags[1].counts
    return got


def test_similarity_matches_the_wrapper_reference():
    for v in edge_features(60) + [np.array([[np.nan, 1.0], [1.0, 0.0]])]:
        check_same(build_similarity, reference_similarity, v)


def test_top_m_matches_the_wrapper_reference():
    rng = np.random.default_rng(61)
    matrices = [build_similarity(v, Diagnostics())
                for v in edge_features(61) if len(v) > 2]
    # Exact ties at the m-th largest: a few values, symmetric and not.
    for n in (3, 8, 25):
        tied = rng.choice(TIED_VALUES, size=(n, n))
        matrices += [tied, np.triu(tied, 1) + np.triu(tied, 1).T,
                     np.full((n, n), 0.25)]
    for s in matrices:
        n = len(s)
        for m in sorted({1, 2, n // 2, n - 1} - {0}):
            check_same(lambda s, diag: sparsify_top_m(s, m),
                       lambda s, diag: reference_top_m(s, m), s)
    bad = np.zeros((4, 4))
    bad[2, 1] = np.inf
    check_same(lambda s, diag: sparsify_top_m(s, 2),
               lambda s, diag: reference_top_m(s, 2), bad)


def test_normalize_matches_the_wrapper_reference():
    rng = np.random.default_rng(62)
    matrices = [sparsify_top_m(build_similarity(v, Diagnostics()), 1)
                for v in edge_features(62)]
    # Isolated vertices: degrees at zero and below.
    s = rng.uniform(0.1, 1.0, size=(7, 7))
    s = s + s.T
    s[2] = s[:, 2] = 0.0
    s[4] = s[:, 4] = -0.3
    matrices += [s, np.zeros((3, 3)), -np.ones((2, 2))]
    for s in matrices:
        check_same(normalize_adjacency, reference_normalize, s)


@pytest.mark.parametrize("rounds", range(5))
@pytest.mark.parametrize("self_weight", [1.0, 0.0, 0.5, 2.5, -1.0])
def test_propagate_matches_the_wrapper_reference(rounds, self_weight):
    for v in edge_features(63):
        adjacency = normalize_adjacency(sparsify_top_m(
            build_similarity(v, Diagnostics()), 1), Diagnostics())
        v_before = v.copy()
        check_same(lambda v, diag: propagate(v, adjacency, self_weight,
                                             rounds),
                   lambda v, diag: reference_propagate(v, adjacency,
                                                       self_weight, rounds),
                   v)
        np.testing.assert_array_equal(v, v_before)  # the input is kept


@pytest.mark.parametrize("self_weight, rounds",
                         [(1.0, 3), (0.5, 0), (2.5, 4), (1e110, 3)])
def test_task_graph_matches_the_wrapper_reference(self_weight, rounds):
    for v in edge_features(64):
        if len(v) < 4:
            continue
        k = len(v) // 3
        check_same(lambda q, diag: build_task_graph(
                       v[:k], q, 2, self_weight, rounds, diag),
                   lambda q, diag: reference_task_graph(
                       v[:k], q, 2, self_weight, rounds, diag), v[k:])
