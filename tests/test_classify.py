import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewproto import classify
from fewproto.classify import (AttentionMasks, build_masks, classify_batch,
                               classify_stack, mask_stack, score_episode,
                               score_episodes)
from fewproto.diagnostics import Diagnostics
from fewproto.embeddings import generate_synthetic, sample_episode
from fewproto.harness import SCORE_BYTES, RunConfig, score_width
from fewproto.optim import row_norms, softmax
from fewproto.prototypes import PrototypeBank


def bank_from(rows):
    return PrototypeBank(protos=np.asarray(rows, dtype=np.float64))


def test_masks_zero_prototype_row_uniform():
    masks = build_masks(bank_from([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]),
                        scale=2.5, boost=1e4)
    np.testing.assert_allclose(masks.masks[0], np.full(4, 0.25), atol=1e-15)


def test_masks_zero_scale_uniform():
    rng = np.random.default_rng(0)
    masks = build_masks(bank_from(rng.normal(size=(3, 8))), scale=0.0,
                        boost=1e4)
    np.testing.assert_allclose(masks.masks, np.full((3, 8), 0.125), atol=1e-15)


def test_masks_scalar_softmax_oracle():
    masks = build_masks(bank_from([[10.0, 0.0, 0.0, 0.0]]), scale=1.0,
                        boost=1e4)
    e = [math.exp(10.0), 1.0, 1.0, 1.0]
    want = np.array(e) / sum(e)
    np.testing.assert_allclose(masks.masks[0], want, atol=1e-12)
    # dominant entry is e^10/(e^10+3) ~ 0.99986
    assert masks.masks[0][0] == pytest.approx(0.9999, abs=2e-4)


def test_masks_rows_sum_to_one_and_negation_invariant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        protos = rng.normal(size=(5, 12))
        scale = rng.uniform(0.0, 3.0)
        masks = build_masks(bank_from(protos), scale=scale, boost=1e4)
        np.testing.assert_allclose(masks.masks.sum(axis=1), np.ones(5),
                                   atol=1e-12)
        assert np.all(masks.masks > 0)
        flipped = protos.copy()
        flipped[2] *= -1.0
        again = build_masks(bank_from(flipped), scale=scale, boost=1e4)
        np.testing.assert_allclose(again.masks, masks.masks, atol=1e-15)


def test_correct_query_zero_boost():
    rng = np.random.default_rng(2)
    protos = bank_from(rng.normal(size=(3, 6)))
    queries = rng.normal(size=(10, 6))
    masks = AttentionMasks(masks=np.full((3, 6), 1 / 6), boost=0.0)
    _, masked = classify_batch(queries, protos, masks, use_mask=True,
                               diag=Diagnostics())
    _, plain = classify_batch(queries, protos, None, use_mask=False,
                              diag=Diagnostics())
    np.testing.assert_array_equal(masked, plain)


def test_correct_query_uniform_mask_doubles():
    # boost equal to the dimension turns the uniform correction into
    # exactly query + query.
    protos = bank_from(np.random.default_rng(3).normal(size=(2, 4)))
    q = np.array([[1.0, -2.0, 3.0, 0.5]])
    masks = AttentionMasks(masks=np.full((2, 4), 0.25), boost=4.0)
    _, masked = classify_batch(q, protos, masks, use_mask=True,
                               diag=Diagnostics())
    _, doubled = classify_batch(2.0 * q, protos, None, use_mask=False,
                                diag=Diagnostics())
    np.testing.assert_array_equal(masked, doubled)


def test_correct_query_matches_elementwise_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        protos = rng.normal(size=(3, 9))
        queries = rng.normal(size=(4, 9))
        raw = rng.uniform(0.1, 1.0, size=(3, 9))
        masks = AttentionMasks(masks=raw / raw.sum(axis=1, keepdims=True),
                               boost=rng.uniform(0.0, 1e4))
        _, scores = classify_batch(queries, bank_from(protos), masks,
                                   use_mask=True, diag=Diagnostics())
        for i, q in enumerate(queries):
            for c, p in enumerate(protos):
                corrected = np.array([masks.boost * q[d] * masks.masks[c, d]
                                      + q[d] for d in range(9)])
                want = corrected @ p / (np.linalg.norm(corrected)
                                        * np.linalg.norm(p))
                assert scores[i, c] == pytest.approx(want, abs=1e-12)


def per_class_scores(queries, protos, masks, use_mask):
    """Scores one class at a time: cos(boost*q*mask_c + q, p_c) (or
    cos(q, p_c) unmasked) as `rows @ unit_proto` over each row's norm;
    a zero row scores 0."""
    p = protos.protos
    unit_protos = p / np.linalg.norm(p, axis=1)[:, None]
    scores = np.empty((queries.shape[0], p.shape[0]))
    for c in range(p.shape[0]):
        rows = (masks.boost * queries * masks.masks[c] + queries
                if use_mask else queries)
        norms = np.linalg.norm(rows, axis=1)
        safe = np.where(norms == 0.0, 1.0, norms)
        scores[:, c] = np.clip((rows @ unit_protos[c]) / safe, -1.0, 1.0)
    return scores


@pytest.mark.parametrize("n_ways, dim", [(5, 64), (20, 64), (5, 640),
                                         (20, 640)])
@pytest.mark.parametrize("scale", [0.0, 0.1, 1.0])
@pytest.mark.parametrize("use_mask", [False, True])
def test_classify_matches_per_class_oracle(n_ways, dim, scale, use_mask):
    # Bit for bit, on aggregated-feature magnitudes and with a zero query.
    rng = np.random.default_rng([n_ways, dim, int(10 * scale)])
    for _ in range(5):
        protos = bank_from(rng.normal(0.0, 10.0, size=(n_ways, dim)))
        masks = build_masks(protos, scale, 1e4)
        queries = rng.normal(0.0, 10.0, size=(15 * n_ways, dim))
        queries[7] = 0.0
        pred, scores = classify_batch(queries, protos, masks, use_mask,
                                      Diagnostics())
        want = per_class_scores(queries, protos, masks, use_mask)
        np.testing.assert_array_equal(scores, want)
        np.testing.assert_array_equal(pred, np.argmax(want, axis=1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), use_mask=st.booleans(),
       scale=st.sampled_from([0.0, 0.1, 1.0]),
       factors=st.lists(st.floats(1e-3, 1e3), min_size=30, max_size=30))
def test_classify_predictions_ignore_query_rescaling(seed, use_mask, scale,
                                                     factors):
    # Scaling a query by a positive factor scales each corrected row by
    # it too, so no cosine moves beyond rounding. Rows whose top two
    # scores are within rounding of each other may flip and are skipped.
    rng = np.random.default_rng(seed)
    protos = bank_from(rng.normal(0.0, 10.0, size=(5, 16)))
    masks = build_masks(protos, scale, 1e4)
    queries = rng.normal(0.0, 10.0, size=(30, 16))
    base, scores = classify_batch(queries, protos, masks, use_mask,
                                  Diagnostics())
    scaled, _ = classify_batch(queries * np.array(factors)[:, None], protos,
                               masks, use_mask, Diagnostics())
    top_two = np.sort(scores, axis=1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > 1e-9
    np.testing.assert_array_equal(scaled[clear], base[clear])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n_ways=st.integers(2, 8),
       dim=st.integers(1, 64),
       boost=st.one_of(st.just(0.0), st.floats(1e-3, 1e300)))
def test_classify_zero_scale_masks_keep_unmasked_predictions(seed, n_ways,
                                                             dim, boost):
    # At scale 0 every mask is uniform, so each corrected row is its
    # query times 1 + boost / dim and no cosine moves beyond rounding.
    # Rows whose top two scores are within rounding of each other may
    # flip and are skipped.
    rng = np.random.default_rng(seed)
    protos = bank_from(rng.normal(0.0, 10.0, size=(n_ways, dim)))
    queries = rng.normal(0.0, 10.0, size=(30, dim))
    masked, _ = classify_batch(queries, protos,
                               build_masks(protos, 0.0, boost), True,
                               Diagnostics())
    plain, scores = classify_batch(queries, protos, None, False, Diagnostics())
    top_two = np.sort(scores, axis=1)[:, -2:]
    clear = top_two[:, 1] - top_two[:, 0] > 1e-9
    np.testing.assert_array_equal(masked[clear], plain[clear])


def test_classify_query_equal_to_prototype():
    protos = bank_from(np.eye(4))
    pred, scores = classify_batch(np.eye(4)[2:3], protos, None,
                                  use_mask=False, diag=Diagnostics())
    assert pred[0] == 2
    assert scores[0, 2] == pytest.approx(1.0, abs=1e-15)


def test_classify_masked_keeps_aligned_query():
    protos = bank_from(np.eye(4) * 3.0)
    masks = build_masks(protos, scale=1.0, boost=10000.0)
    query = np.eye(4)[2:3]
    unmasked, _ = classify_batch(query, protos, None, use_mask=False,
                                 diag=Diagnostics())
    masked, _ = classify_batch(query, protos, masks, use_mask=True,
                               diag=Diagnostics())
    assert unmasked[0] == masked[0] == 2


def test_classify_uniform_masks_match_unmasked():
    rng = np.random.default_rng(4)
    protos = bank_from(rng.normal(size=(5, 16)))
    masks = build_masks(protos, scale=0.0, boost=10000.0)
    queries = rng.normal(size=(200, 16))
    pred_masked, _ = classify_batch(queries, protos, masks, use_mask=True,
                                    diag=Diagnostics())
    pred_plain, _ = classify_batch(queries, protos, None, use_mask=False,
                                   diag=Diagnostics())
    np.testing.assert_array_equal(pred_masked, pred_plain)


def test_classify_scale_invariance():
    rng = np.random.default_rng(5)
    protos = bank_from(rng.normal(size=(4, 10)))
    masks = build_masks(protos, scale=0.7, boost=1e4)
    q = rng.normal(size=(20, 10))
    for use_mask, m in ((False, None), (True, masks)):
        base, _ = classify_batch(q, protos, m, use_mask, Diagnostics())
        for factor in (0.001, 7.0, 4096.0):
            scaled, _ = classify_batch(factor * q, protos, m, use_mask,
                                       Diagnostics())
            np.testing.assert_array_equal(scaled, base)


def test_classify_zero_query():
    diag = Diagnostics()
    protos = bank_from(np.eye(3))
    pred, scores = classify_batch(np.zeros((1, 3)), protos, None,
                                  use_mask=False, diag=diag)
    assert pred[0] == 0
    np.testing.assert_array_equal(scores, np.zeros((1, 3)))
    assert diag.counts["zero_query"] == 1


def test_classify_tie_lowest_index():
    protos = bank_from([[1.0, 0.0], [0.0, 1.0]])
    pred, scores = classify_batch(np.array([[1.0, 1.0]]), protos, None,
                                  use_mask=False, diag=Diagnostics())
    assert scores[0, 0] == scores[0, 1]
    assert pred[0] == 0


def test_classify_rejects_zero_prototype():
    protos = bank_from([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        classify_batch(np.ones((1, 2)), protos, None, use_mask=False,
                       diag=Diagnostics())


def test_classify_masked_without_masks_raises():
    with pytest.raises(ValueError, match="use_mask=True requires masks"):
        classify_batch(np.ones((1, 2)), bank_from([[1.0, 0.0]]), None,
                       use_mask=True, diag=Diagnostics())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_masks_reject_nonfinite_prototypes(bad):
    with pytest.raises(ValueError, match="prototypes must be finite"):
        build_masks(bank_from([[1.0, 0.0], [0.5, bad]]), scale=0.1, boost=1e4)


@pytest.mark.parametrize("name, bad", [
    (name, bad) for name in ("boost", "scale")
    for bad in (-np.inf, np.inf, np.nan)] + [
    # RunConfig rejects mask.boost < 0; the library path does too.
    ("boost", -1e4)])
def test_masks_reject_a_nonfinite_scale_or_boost(name, bad):
    # build_masks names a bad scale; the boost, which only scoring
    # multiplies by, is named when the masks score.
    values = {"scale": 0.1, "boost": 1e4, name: bad}
    bank = bank_from([[1.0, 0.0], [0.5, 2.0]])
    with pytest.raises(ValueError, match=f"mask {name}={bad!r} must be "):
        masks = build_masks(bank, **values)
        classify_batch(np.ones((3, 2)), bank, masks, True, Diagnostics())


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e4])
def test_scoring_rejects_a_nonfinite_or_negative_boost(bad):
    # Unchecked, a NaN boost scores every query NaN and predicts class 0,
    # and a negative one turns the correction around.
    queries, protos = np.ones((2, 3, 4)), np.eye(4)[None, :2].repeat(2, 0)
    masks = mask_stack(protos, 0.1)
    with pytest.raises(ValueError, match=f"mask boost={bad!r} must be "):
        classify_stack(queries, protos, masks, bad)
    with pytest.raises(ValueError, match=f"mask boost={bad!r} must be "):
        classify_batch(queries[0], bank_from(protos[0]),
                       AttentionMasks(masks[0], bad), True, Diagnostics())


@pytest.mark.parametrize("scale, want", [
    (1.7e308, [0.5, 0.0, 0.5, 0.0]), (-1.7e308, [0.0, 0.0, 0.0, 1.0])])
def test_masks_past_float_range_take_the_softmax_limit(scale, want):
    # Row 0's scale * |p| overflows: its mask is the softmax's limit,
    # equal weight on the largest (or, below 0, smallest) |p|. Row 1's
    # stays finite and keeps the bits of its plain softmax.
    protos = [[3.0, -1.0, -3.0, 0.0], [1e-300, 2e-300, 0.0, -1e-300]]
    masks = build_masks(bank_from(protos), scale, 1e4).masks
    np.testing.assert_array_equal(masks[0], want)
    np.testing.assert_array_equal(
        masks[1], softmax(scale * np.abs(protos[1])))


def test_classify_batch_matches_single():
    rng = np.random.default_rng(6)
    protos = bank_from(rng.normal(size=(5, 8)))
    masks = build_masks(protos, scale=0.3, boost=1e4)
    queries = rng.normal(size=(40, 8))
    preds, scores = classify_batch(queries, protos, masks, use_mask=True,
                                   diag=Diagnostics())
    for i in range(40):
        p, s = classify_batch(queries[i:i + 1], protos, masks, use_mask=True,
                              diag=Diagnostics())
        assert p[0] == preds[i]
        np.testing.assert_allclose(s[0], scores[i], atol=1e-15)


def test_score_episode_extremes():
    pool = generate_synthetic(6, 30, 8, 5.0, 0.2, np.random.default_rng(7))
    ep = sample_episode(pool, 3, 2, 4, np.random.default_rng(8))
    assert score_episode(ep, ep.hidden_labels.copy()) == 1.0
    assert score_episode(ep, (ep.hidden_labels + 1) % 3) == 0.0


def test_score_episode_count_mismatch():
    pool = generate_synthetic(6, 30, 8, 5.0, 0.2, np.random.default_rng(9))
    ep = sample_episode(pool, 3, 2, 4, np.random.default_rng(10))
    with pytest.raises(ValueError):
        score_episode(ep, np.zeros(5, dtype=np.int64))


def test_score_episode_random_predictions_monte_carlo():
    # Monte-Carlo oracle: uniform random guesses over 5 classes converge
    # to accuracy 0.2.
    pool = generate_synthetic(12, 40, 8, 5.0, 0.2, np.random.default_rng(11))
    rng = np.random.default_rng(12)
    accs = []
    for seed in range(100):
        ep = sample_episode(pool, 5, 1, 15, np.random.default_rng(seed))
        preds = rng.integers(0, 5, size=75)
        accs.append(score_episode(ep, preds))
    assert np.mean(accs) == pytest.approx(0.2, abs=0.02)


def test_classify_tiny_query_keeps_its_direction():
    # The squared norm of [1e-170, 0] underflows to 0, yet the query
    # points along class 1's prototype.
    diag = Diagnostics()
    predictions, scores = classify_batch(
        np.array([[1e-170, 0.0]]), bank_from([[0.0, 1.0], [1.0, 0.0]]),
        None, use_mask=False, diag=diag)
    assert predictions.tolist() == [1]
    np.testing.assert_array_equal(scores, [[0.0, 1.0]])
    assert "zero_query" not in diag.counts


@pytest.mark.parametrize("use_mask", [False, True])
def test_classify_huge_rows_keep_their_predictions(use_mask):
    # Squared norms of 1e170 queries and 1e200 prototypes overflow.
    rng = np.random.default_rng(30)
    protos = rng.normal(size=(5, 16))
    queries = rng.normal(size=(40, 16))
    masks = build_masks(bank_from(protos), scale=0.1, boost=1e4)
    want, want_scores = classify_batch(queries, bank_from(protos), masks,
                                       use_mask, Diagnostics())
    for q_scale, p_scale in ((1e170, 1.0), (1.0, 1e200), (1e170, 1e200)):
        got, scores = classify_batch(q_scale * queries,
                                     bank_from(p_scale * protos), masks,
                                     use_mask, Diagnostics())
        np.testing.assert_array_equal(got, want)
        np.testing.assert_allclose(scores, want_scores, atol=1e-12)


def test_classify_corrected_rows_past_norm_range():
    # The query's own norm is finite, but its corrected rows (about
    # boost * 1e152) square past float64 range. Any RuntimeWarning fails.
    protos = bank_from([[0.0, 1.0], [1.0, 0.0]])
    masks = build_masks(protos, 0.1, 1e4)
    predictions, scores = classify_batch(np.array([[1e152, 5e151]]), protos,
                                         masks, True, Diagnostics())
    assert predictions.tolist() == [1]
    _, want = classify_batch(np.array([[1.0, 0.5]]), protos, masks, True,
                             Diagnostics())
    np.testing.assert_allclose(scores, want, rtol=1e-15)


def extreme_stack(n_ways, dim, seed):
    """Queries (3, 15 n, dim) and banks (3, n, dim) at aggregated-feature
    magnitudes, with a zero query, a query near 1e152 whose corrected
    rows square past float64 range, a tiny query and a bank row near
    1e303, whose scale * |p| leaves float64 range at scale 1e6."""
    rng = np.random.default_rng([n_ways, dim, seed])
    queries = rng.normal(0.0, 10.0, size=(3, 15 * n_ways, dim))
    protos = rng.normal(0.0, 10.0, size=(3, n_ways, dim))
    queries[0, 7] = 0.0
    queries[1, 4] *= 1e151
    queries[2, 2] *= 1e-170
    protos[1, 1] *= 1e302
    return queries, protos


@pytest.mark.parametrize("n_ways, dim", [(5, 64), (10, 64), (5, 640),
                                         (10, 640)])
@pytest.mark.parametrize("scale", [0.0, 0.1, 1.0, 1e6])
@pytest.mark.parametrize("use_mask", [False, True])
def test_stack_matches_each_episode_alone(n_ways, dim, scale, use_mask):
    # Bit for bit: masks, predictions, scores and zero-query counts of a
    # stack against each episode's own build_masks and classify_batch.
    queries, protos = extreme_stack(n_ways, dim, int(scale))
    masks = mask_stack(protos, scale)
    predictions, scores, zero_queries = classify_stack(
        queries, protos, masks if use_mask else None, 1e4)
    assert scores.shape == (3, 15 * n_ways, n_ways)
    assert zero_queries.tolist() == [1, 0, 0]
    for b in range(3):
        alone = build_masks(bank_from(protos[b]), scale, 1e4)
        np.testing.assert_array_equal(masks[b], alone.masks)
        diag = Diagnostics()
        want_pred, want_scores = classify_batch(
            queries[b], bank_from(protos[b]), alone, use_mask, diag)
        np.testing.assert_array_equal(predictions[b], want_pred)
        np.testing.assert_array_equal(scores[b], want_scores)
        assert diag.counts["zero_query"] == zero_queries[b]


@pytest.mark.parametrize("n_ways, dim", [(5, 64), (10, 640)])
@pytest.mark.parametrize("use_mask", [False, True])
def test_stack_matches_per_class_oracle(n_ways, dim, use_mask):
    # The stacked pass against scoring one class of one episode at a
    # time, on rows whose norms stay in range.
    rng = np.random.default_rng([n_ways, dim])
    queries = rng.normal(0.0, 10.0, size=(4, 15 * n_ways, dim))
    protos = rng.normal(0.0, 10.0, size=(4, n_ways, dim))
    queries[3, 0] = 0.0
    masks = mask_stack(protos, 0.1)
    predictions, scores, _ = classify_stack(
        queries, protos, masks if use_mask else None, 1e4)
    for b in range(4):
        want = per_class_scores(queries[b], bank_from(protos[b]),
                                AttentionMasks(masks[b], 1e4), use_mask)
        np.testing.assert_array_equal(scores[b], want)
        np.testing.assert_array_equal(predictions[b],
                                      np.argmax(want, axis=1))


def test_stack_rejects_what_one_bank_rejects():
    protos = np.ones((3, 2, 4))
    protos[1, 1] = 0.0
    with pytest.raises(ValueError, match="zero-norm prototype row"):
        classify_stack(np.ones((3, 5, 4)), protos, None, 1e4)
    protos[1, 1, 2] = np.nan
    with pytest.raises(ValueError, match="prototypes must be finite"):
        mask_stack(protos, 0.1)


@pytest.mark.parametrize("use_mask", [False, True])
def test_scoring_pass_memory_is_bounded(use_mask):
    # One pass at the bench shape (5-way, 15 queries, 64-d) holds the
    # widest stack SCORE_BYTES allows. Masked, it allocates its buffer
    # of corrected queries; both ways, at most one query-sized temporary
    # and score-sized arrays (64 KiB) beside it.
    config = RunConfig(n_ways=5, n_queries=15)
    width = score_width(config, 64)
    assert width == 5
    rng = np.random.default_rng(4)
    queries = rng.normal(0.0, 10.0, size=(width, 75, 64))
    protos = rng.normal(0.0, 10.0, size=(width, 5, 64))
    masks = mask_stack(protos, 0.1) if use_mask else None
    tracemalloc.start()
    try:
        classify_stack(queries, protos, masks, 1e4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = SCORE_BYTES if use_mask else 0
    assert peak <= bound + queries.nbytes + (1 << 16)


def test_score_episodes_match_each_episode():
    pool = generate_synthetic(6, 30, 8, 5.0, 0.2, np.random.default_rng(7))
    episodes = [sample_episode(pool, 3, 2, 4, np.random.default_rng(s))
                for s in range(3)]
    predictions = np.random.default_rng(8).integers(0, 3, size=(3, 12))
    got = score_episodes(np.stack([ep.hidden_labels for ep in episodes]),
                         predictions)
    assert got.tolist() == [score_episode(ep, row)
                            for ep, row in zip(episodes, predictions)]


@pytest.mark.parametrize("predictions", [np.zeros((2, 12), int),
                                         np.zeros(12, int)])
def test_score_episodes_name_both_shapes(predictions):
    labels = np.zeros((3 if predictions.ndim == 2 else 1, 12), int)
    with pytest.raises(ValueError, match=re.escape(
            f"predictions {predictions.shape} do not match hidden labels "
            f"{labels.shape}")):
        score_episodes(labels, predictions)


def test_stack_rejects_queries_that_do_not_fit_its_banks():
    # Three query stacks against one bank would broadcast over it.
    protos = np.eye(4)[None, :2]
    for masks in (None, mask_stack(protos, 0.1)):
        with pytest.raises(ValueError, match=re.escape(
                "queries (3, 5, 4) do not fit prototype banks (1, 2, 4)")):
            classify_stack(np.ones((3, 5, 4)), protos, masks, 1e4)


def test_stack_rejects_masks_that_do_not_fit_its_banks():
    # One bank's masks would broadcast over all three episodes.
    protos = np.ones((3, 2, 4))
    with pytest.raises(ValueError, match=re.escape(
            "masks (1, 2, 4) do not fit prototype banks (3, 2, 4)")):
        classify_stack(np.ones((3, 5, 4)), protos,
                       mask_stack(protos[:1], 0.1), 1e4)


def reference_softmax(z):
    """Reference: `softmax` through `np.max` and `np.sum`."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_classify_stack(queries, protos, masks, boost):
    """Reference: `classify_stack` with its scores divided and clipped
    through `np.clip` into a fresh array."""
    queries = np.asarray(queries, dtype=np.float64)
    p, proto_norms = row_norms(np.asarray(protos, dtype=np.float64))
    queries, query_norms = row_norms(queries)
    if np.any(proto_norms == 0.0):
        raise ValueError("zero-norm prototype row; bank is unusable")
    unit_protos = (p / proto_norms[:, :, None])[:, :, :, None]
    if masks is not None:
        n_stack, n_queries, dim = queries.shape
        corrected = np.empty((n_stack, p.shape[1], n_queries, dim))
        with np.errstate(over="ignore", invalid="ignore"):
            np.copyto(corrected, masks[:, :, None])
            corrected *= (boost * queries)[:, None]
            corrected += queries[:, None]
            dots = np.matmul(corrected, unit_protos)[:, :, :, 0]
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
    safe = np.where(norms == 0.0, 1.0, norms)
    scores = np.clip(dots / safe, -1.0, 1.0).transpose(0, 2, 1)
    return (np.argmax(scores, axis=2), scores,
            np.count_nonzero(query_norms == 0.0, axis=1))


@pytest.mark.parametrize("n_ways, dim", [(5, 64), (3, 2), (10, 640)])
@pytest.mark.parametrize("scale", [0.0, 0.1, -1.0, 1e6, 1e306])
def test_scoring_matches_the_wrapper_reference(monkeypatch, n_ways, dim,
                                               scale):
    # extreme_stack holds a zero query, a query whose corrected rows
    # overflow, a tiny query and a bank row whose scale * |p| overflows
    # from scale 1e6 on; the masks' softmax is checked against the
    # np.max / np.sum form of `softmax` on the same rows.
    queries, protos = extreme_stack(n_ways, dim, 7)
    queries[0, 3] = protos[0, 1]  # a cosine of exactly 1
    queries[0, 4] = -protos[0, 2]  # and of exactly -1
    masks = mask_stack(protos, scale)
    with monkeypatch.context() as patched:
        patched.setattr(classify, "softmax", reference_softmax)
        np.testing.assert_array_equal(masks, mask_stack(protos, scale))
    for stack_masks in (masks, None):
        got = classify_stack(queries, protos, stack_masks, 1e4)
        want = reference_classify_stack(queries, protos, stack_masks, 1e4)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
