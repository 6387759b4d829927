import copy
import math
import tracemalloc

import numpy as np
import pytest

from fewproto.diagnostics import Diagnostics, EpisodeAbort
from fewproto.head import (LOSS_INCREASE_SLACK, AugmentedSupport,
                           LinearHead, _Workspace, head_predict, init_head,
                           manifold_augment, train_head, train_heads)
from fewproto.optim import LOG_FLOOR, AdamState, adam_update, softmax
from fewproto.verification import check_head_gradient


def allocating_loss_and_grad(weights, bias, feats, labels):
    """The head's mean cross-entropy and its gradient, from allocating
    formulas: with p = softmax(F W^T + b) and g = (p - onehot) / r,
    dW = g^T F and db = the column sums of g."""
    p = softmax(feats @ weights.T + bias)
    rows = np.arange(len(labels))
    loss = -np.sum(np.log(np.maximum(p[rows, labels], LOG_FLOOR))) / len(
        labels)
    g = (p - np.eye(weights.shape[0])[labels]) / len(labels)
    return loss, g.T @ feats, g.sum(axis=0)


def allocating_train(init, aug, epochs, lr):
    """`init` trained by `allocating_loss_and_grad` and a plain
    `adam_update` loop on the weights and on the bias, with the
    `head_loss_increase` events it records."""
    weights, bias = init.weights, init.bias
    state_w = AdamState.fresh(weights.shape, lr=lr)
    state_b = AdamState.fresh(bias.shape, lr=lr)
    diag, prev = Diagnostics(), np.inf
    for _ in range(epochs):
        loss, gw, gb = allocating_loss_and_grad(weights, bias, aug.features,
                                                aug.labels)
        if loss > prev:
            diag.record("head_loss_increase")
        prev = loss + LOSS_INCREASE_SLACK
        state_w, weights = adam_update(state_w, weights, gw)
        state_b, bias = adam_update(state_b, bias, gb)
    return LinearHead(weights=weights, bias=bias), diag


def distance_to_segment(p, a, b):
    """Geometric oracle: distance from p to the segment [a, b]."""
    ab = b - a
    t = np.clip((p - a) @ ab / (ab @ ab), 0.0, 1.0)
    return np.linalg.norm(p - (a + t * ab))


def test_augment_zero_is_identity():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(6, 4))
    labels = np.repeat(np.arange(3), 2)
    aug = manifold_augment(feats, labels, 0, np.random.default_rng(1))
    np.testing.assert_array_equal(aug.features, feats)
    np.testing.assert_array_equal(aug.labels, labels)


def test_augment_singleton_class_duplicates():
    feats = np.array([[1.0, 2.0], [3.0, 4.0]])
    labels = np.array([0, 1])
    aug = manifold_augment(feats, labels, 3, np.random.default_rng(2))
    assert aug.features.shape == (8, 2)
    for c in range(2):
        rows = aug.features[aug.labels == c]
        assert rows.shape == (4, 2)
        for row in rows:
            np.testing.assert_array_equal(row, feats[c])


def test_augment_rows_lie_on_segment():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(4, 6))
    labels = np.array([0, 0, 1, 1])
    aug = manifold_augment(feats, labels, 100, np.random.default_rng(4))
    assert aug.features.shape == (204, 6)
    for c in range(2):
        a, b = feats[labels == c]
        extra = aug.features[4:][aug.labels[4:] == c]
        assert extra.shape[0] == 100
        for row in extra:
            assert distance_to_segment(row, a, b) < 1e-9


def test_augment_keeps_originals_first():
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(9, 3))
    labels = np.repeat(np.arange(3), 3)
    aug = manifold_augment(feats, labels, 7, np.random.default_rng(6))
    np.testing.assert_array_equal(aug.features[:9], feats)
    np.testing.assert_array_equal(aug.labels[:9], labels)
    for c in range(3):
        assert np.sum(aug.labels == c) == 3 + 7


def test_augment_deterministic():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(10, 5))
    labels = np.repeat(np.arange(2), 5)
    a = manifold_augment(feats, labels, 20, np.random.default_rng(42))
    b = manifold_augment(feats, labels, 20, np.random.default_rng(42))
    np.testing.assert_array_equal(a.features, b.features)


def test_augment_stays_in_convex_hull():
    # LP feasibility oracle: each augmented row must be a convex
    # combination of its class's original rows.
    from scipy.optimize import linprog
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(8, 3))
    labels = np.repeat(np.arange(2), 4)
    aug = manifold_augment(feats, labels, 30, np.random.default_rng(9))
    for c in range(2):
        originals = feats[labels == c]
        extra = aug.features[8:][aug.labels[8:] == c]
        a_eq = np.vstack([originals.T, np.ones(len(originals))])
        for row in extra:
            b_eq = np.concatenate([row, [1.0]])
            res = linprog(np.zeros(len(originals)), A_eq=a_eq, b_eq=b_eq,
                          bounds=(0, 1), method="highs")
            assert res.success, f"row outside hull of class {c}"


def test_head_predict_uniform_at_zero_params():
    head = LinearHead(weights=np.zeros((4, 6)), bias=np.zeros(4))
    probs = head_predict(head, np.random.default_rng(10).normal(size=(5, 6)))
    np.testing.assert_allclose(probs, np.full((5, 4), 0.25), atol=1e-15)


def test_head_predict_bias_only():
    head = LinearHead(weights=np.zeros((2, 3)), bias=np.array([math.log(2.0), 0.0]))
    probs = head_predict(head, np.ones((3, 3)))
    np.testing.assert_allclose(probs, np.tile([2 / 3, 1 / 3], (3, 1)),
                               atol=1e-12)


def test_head_predict_matches_direct_formula():
    rng = np.random.default_rng(11)
    head = LinearHead(weights=rng.normal(size=(5, 7)), bias=rng.normal(size=5))
    feats = rng.normal(size=(9, 7))
    probs = head_predict(head, feats)
    for i in range(9):
        want = softmax(head.weights @ feats[i] + head.bias)
        np.testing.assert_allclose(probs[i], want, atol=1e-12)


def test_head_predict_shape_mismatch():
    head = LinearHead(weights=np.zeros((2, 3)), bias=np.zeros(2))
    with pytest.raises(ValueError):
        head_predict(head, np.zeros((4, 5)))


def test_train_head_separable_two_classes():
    rng = np.random.default_rng(12)
    base = np.zeros(8)
    base[0] = 10.0
    feats = np.vstack([base + 0.1 * rng.normal(size=(5, 8)),
                       -base + 0.1 * rng.normal(size=(5, 8))])
    labels = np.repeat([0, 1], 5)
    aug = manifold_augment(feats, labels, 5, rng)
    head = train_head(aug, 11, 1e-2, rng, Diagnostics())
    preds = head_predict(head, feats).argmax(axis=1)
    np.testing.assert_array_equal(preds, labels)


def test_train_head_identical_features_floor():
    # Indistinguishable inputs: the loss cannot go below ln(N).
    feats = np.tile(np.array([1.0, -2.0, 0.5]), (4, 1))
    labels = np.arange(4)
    aug = manifold_augment(feats, labels, 0, np.random.default_rng(13))
    head = train_head(aug, 50, 1e-2, np.random.default_rng(14), Diagnostics())
    loss, _, _ = allocating_loss_and_grad(head.weights, head.bias, feats,
                                          labels)
    assert loss >= math.log(4.0) - 1e-3


def test_head_gradient_fifty_random_points():
    rng = np.random.default_rng(15)
    for _ in range(50):
        feats = rng.normal(size=(12, 6))
        labels = rng.integers(0, 4, size=12)
        w = rng.normal(0.0, 0.4, (4, 6))
        b = rng.normal(0.0, 0.2, 4)
        assert check_head_gradient(w, b, feats, labels) < 1e-4


def test_head_gradient_check_sets_up_one_workspace(monkeypatch):
    # The check differentiates the training step on one workspace, as
    # training steps on one workspace per loop.
    built = []
    init = _Workspace.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(_Workspace, "__init__", counting_init)
    rng = np.random.default_rng(15)
    check_head_gradient(rng.normal(0.0, 0.4, (4, 6)),
                        rng.normal(0.0, 0.2, 4), rng.normal(size=(12, 6)),
                        rng.integers(0, 4, size=12))
    assert len(built) == 1


def test_train_head_deterministic():
    rng = np.random.default_rng(16)
    feats = rng.normal(size=(10, 5))
    labels = np.repeat(np.arange(2), 5)
    heads = []
    for _ in range(2):
        r = np.random.default_rng(77)
        aug = manifold_augment(feats, labels, 5, r)
        heads.append(train_head(aug, 11, 1e-2, r, Diagnostics()))
    np.testing.assert_array_equal(heads[0].weights, heads[1].weights)
    np.testing.assert_array_equal(heads[0].bias, heads[1].bias)


def test_train_head_orthogonal_singletons():
    # Singleton classes at orthogonal positions with norm >= 5 must be
    # learned exactly.
    n = 5
    feats = 5.0 * np.eye(n)
    labels = np.arange(n)
    rng = np.random.default_rng(17)
    aug = manifold_augment(feats, labels, 3, rng)
    head = train_head(aug, 11, 1e-2, rng, Diagnostics())
    preds = head_predict(head, feats).argmax(axis=1)
    np.testing.assert_array_equal(preds, labels)


def test_train_head_rejects_bad_epochs():
    feats = np.ones((2, 2))
    labels = np.array([0, 1])
    aug = manifold_augment(feats, labels, 0, np.random.default_rng(18))
    with pytest.raises(ValueError):
        train_head(aug, 0, 1e-2, np.random.default_rng(19), Diagnostics())


@pytest.mark.parametrize("call, message", [
    (lambda: manifold_augment(np.ones((2, 2)), np.array([0, 1]), -1,
                              np.random.default_rng(0)),
     "n_aug must be non-negative"),
    (lambda: train_head(AugmentedSupport(np.empty((0, 2)),
                                         np.empty(0, dtype=np.int64)),
                        5, 1e-2, np.random.default_rng(0), Diagnostics()),
     "empty augmented support"),
])
def test_stage_rejects_bad_input(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("epochs, reason", [
    (3, "head_params_nonfinite"), (11, "head_loss_diverged")])
def test_train_head_names_a_step_past_float_range(epochs, reason):
    # At the largest learning rate, the third step takes the weights
    # past float range, and the next loss is NaN. A RuntimeWarning on
    # the way fails the test.
    feats = np.random.default_rng(23).normal(size=(12, 8)) * 1e-300
    aug = AugmentedSupport(features=feats, labels=np.repeat(np.arange(3), 4))
    with pytest.raises(EpisodeAbort) as caught:
        train_head(aug, epochs, 1.7e308, np.random.default_rng(24),
                   Diagnostics())
    assert caught.value.reason == reason


@pytest.mark.parametrize("ways, k_shots, dim", [
    (5, 5, 64), (5, 1, 640), (3, 2, 16), (10, 5, 64)],
    ids=["5-64", "1-640", "3way-2-16", "10way-5-64"])
def test_train_head_matches_allocating_adam(ways, k_shots, dim):
    # train_head steps in place on a stacked workspace; allocating
    # formulas and an allocating adam_update loop from the same init
    # must give the same bits.
    rng = np.random.default_rng(21)
    feats = rng.normal(size=(ways * k_shots, dim))
    labels = np.repeat(np.arange(ways), k_shots)
    aug = manifold_augment(feats, labels, 5, rng)
    head = train_head(aug, 11, 1e-2, np.random.default_rng(22), Diagnostics())
    want, _ = allocating_train(
        init_head(ways, dim, np.random.default_rng(22)), aug, 11, 1e-2)
    np.testing.assert_array_equal(head.weights, want.weights)
    np.testing.assert_array_equal(head.bias, want.bias)


def stacked_case(ways, shots, dim, n_heads, n_aug, seed):
    """`n_heads` episodes' augmented supports, with row scales that vary
    by episode, and each episode's generator, positioned after its
    augmentation, where `train_head` draws the head's init."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(ways), shots)
    augs, rngs = [], []
    for j in range(n_heads):
        feats = rng.normal(size=(ways * shots, dim)) * rng.uniform(0.1, 20.0)
        episode_rng = np.random.default_rng([seed, j])
        augs.append(manifold_augment(feats, labels, n_aug, episode_rng))
        rngs.append(episode_rng)
    return augs, rngs


def stacked_inits(augs, rngs):
    """The heads `train_head` would draw, from copies of the generators."""
    return [init_head(int(aug.labels.max()) + 1, aug.features.shape[1],
                      copy.deepcopy(rng)) for aug, rng in zip(augs, rngs)]


@pytest.mark.parametrize("ways, shots, dim, n_heads, n_aug, lr", [
    (5, 5, 64, 20, 5, 1e-2), (5, 1, 640, 14, 5, 1e-2),
    (3, 2, 16, 6, 0, 1e-2), (5, 5, 64, 20, 5, 3.0)])
def test_stacked_heads_match_train_head(ways, shots, dim, n_heads, n_aug,
                                        lr):
    # Each head of one stacked loop has the bits and the diagnostics of
    # the allocating reference. At lr=3.0 the loss rises, and each rise
    # is counted for its own episode.
    augs, rngs = stacked_case(ways, shots, dim, n_heads, n_aug, 31)
    inits = stacked_inits(augs, rngs)
    diags = [Diagnostics() for _ in augs]
    stacked = train_heads(inits, augs, 11, lr, diags)
    for init, aug, got, diag in zip(inits, augs, stacked, diags):
        want, alone = allocating_train(init, aug, 11, lr)
        np.testing.assert_array_equal(got.weights, want.weights)
        np.testing.assert_array_equal(got.bias, want.bias)
        assert diag.counts == alone.counts
    if lr == 3.0:  # episodes count different numbers of rises
        assert len({diag.counts["head_loss_increase"] for diag in diags}) > 1


def test_stacked_head_aborts_leave_the_other_heads():
    # Head 1 starts NaN, so its loss diverges at the first epoch; head 3's
    # rows are scaled by 1e180, so its gradient overflows Adam's second
    # moment while its loss stays finite. Each ends as it does alone, and
    # every other head keeps its bits.
    augs, rngs = stacked_case(5, 5, 64, 5, 5, 32)
    augs[3] = AugmentedSupport(augs[3].features * 1e180, augs[3].labels)
    inits = stacked_inits(augs, rngs)
    inits[1].weights[0, 0] = np.nan
    diags = [Diagnostics() for _ in augs]
    stacked = train_heads(inits, augs, 11, 1e-2, diags)
    assert [getattr(got, "reason", None) for got in stacked] == [
        None, "head_loss_diverged", None, "head_grad_overflow", None]
    with pytest.raises(EpisodeAbort, match="head_grad_overflow"):
        train_head(augs[3], 11, 1e-2, rngs[3], Diagnostics())
    for j in (0, 2, 4):
        alone = Diagnostics()
        head = train_head(augs[j], 11, 1e-2, rngs[j], alone)
        np.testing.assert_array_equal(stacked[j].weights, head.weights)
        np.testing.assert_array_equal(stacked[j].bias, head.bias)
        assert diags[j].counts == alone.counts


def test_stacked_head_loop_allocates_nothing_per_epoch():
    # The loop writes buffers allocated before it: ten times the epochs
    # leave the peak of traced memory where it was.
    augs, rngs = stacked_case(5, 5, 64, 8, 5, 33)
    inits = stacked_inits(augs, rngs)
    peaks = []
    for epochs in (5, 50):
        tracemalloc.start()
        try:
            train_heads(inits, augs, epochs, 1e-2,
                        [Diagnostics() for _ in augs])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
    assert peaks[1] <= peaks[0]
