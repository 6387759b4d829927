import math

import numpy as np
import pytest

from fewproto.diagnostics import EpisodeAbort
from fewproto.head import LinearHead
from fewproto.prototypes import (LossWeights, _step_loss_and_grad,
                                 _Workspace, init_prototypes, loss_class,
                                 loss_entropy, loss_metric, loss_total,
                                 mean_prototypes, train_prototype_banks,
                                 train_prototypes, validate_prototypes)
from fewproto.verification import check_proto_gradient


def manual_softmax(z):
    e = [math.exp(x - max(z)) for x in z]
    s = sum(e)
    return [x / s for x in e]


def oracle_loss_class(protos, head):
    """Direct double summation of the classification term."""
    n = len(protos)
    total = 0.0
    for i in range(n):
        pred = manual_softmax(head.weights @ protos[i] + head.bias)
        inner = sum(-math.log(pred[c]) for c in range(n) if c == i)
        total += inner / n
    return total / n


def oracle_loss_entropy(protos, head):
    n = len(protos)
    total = 0.0
    for i in range(n):
        pred = manual_softmax(head.weights @ protos[i] + head.bias)
        inner = sum(-p * math.log(p) for p in pred)
        total += inner / n
    return total / n


def oracle_loss_metric(protos, feats, labels):
    n = len(protos)
    rows = len(feats)
    total = 0.0
    for i in range(rows):
        cosines = [
            feats[i] @ protos[c]
            / (np.linalg.norm(feats[i]) * np.linalg.norm(protos[c]))
            for c in range(n)
        ]
        pred = manual_softmax(cosines)
        total += -math.log(pred[labels[i]]) / n
    return total / rows


def random_instance(rng, n=5, dim=16, shots=3):
    feats = rng.normal(size=(n * shots, dim))
    labels = np.repeat(np.arange(n), shots)
    head = LinearHead(weights=rng.normal(0.0, 0.3, (n, dim)),
                      bias=rng.normal(0.0, 0.1, n))
    protos = rng.normal(size=(n, dim))
    return protos, head, feats, labels


def test_mean_prototypes_single_shot():
    feats = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    bank = mean_prototypes(feats, np.array([0, 1, 2]))
    np.testing.assert_array_equal(bank.protos, feats)
    assert not bank.trained


def test_mean_prototypes_two_rows():
    bank = mean_prototypes(np.array([[1.0, 0.0], [0.0, 1.0]]),
                           np.array([0, 0]))
    np.testing.assert_allclose(bank.protos, [[0.5, 0.5]], atol=1e-15)


def test_mean_prototypes_matches_direct_mean():
    rng = np.random.default_rng(0)
    feats = rng.normal(size=(25, 8))
    labels = np.repeat(np.arange(5), 5)
    bank = mean_prototypes(feats, labels)
    for c in range(5):
        np.testing.assert_allclose(bank.protos[c],
                                   feats[labels == c].mean(axis=0),
                                   atol=1e-12)


def test_mean_prototypes_empty_class():
    with pytest.raises(ValueError, match="class 1"):
        mean_prototypes(np.ones((2, 3)), np.array([0, 2]))


def test_loss_class_exact_onehot_is_zero():
    # Saturated logits underflow the off-diagonal probabilities to exact
    # zero, so every prototype is predicted as its own class with p=1.
    n = 4
    protos = 10.0 * np.eye(n)
    head = LinearHead(weights=100.0 * np.eye(n), bias=np.zeros(n))
    assert loss_class(protos, head) == 0.0


def test_loss_entropy_onehot_is_zero():
    n = 4
    protos = 10.0 * np.eye(n)
    head = LinearHead(weights=100.0 * np.eye(n), bias=np.zeros(n))
    assert loss_entropy(protos, head) == 0.0


def test_uniform_head_gives_log_n_over_n():
    rng = np.random.default_rng(1)
    protos = rng.normal(size=(5, 16))
    head = LinearHead(weights=np.zeros((5, 16)), bias=np.zeros(5))
    want = math.log(5.0) / 5.0
    assert loss_class(protos, head) == pytest.approx(want, abs=1e-9)
    assert loss_entropy(protos, head) == pytest.approx(want, abs=1e-9)


def test_losses_match_double_summation_oracles():
    rng = np.random.default_rng(2)
    for _ in range(20):
        protos, head, feats, labels = random_instance(rng)
        assert loss_class(protos, head) == pytest.approx(
            oracle_loss_class(protos, head), abs=1e-12)
        assert loss_entropy(protos, head) == pytest.approx(
            oracle_loss_entropy(protos, head), abs=1e-12)
        assert loss_metric(protos, feats, labels) == pytest.approx(
            oracle_loss_metric(protos, feats, labels), abs=1e-12)


def test_loss_metric_orthogonal_supports():
    feats = np.eye(2)
    protos = np.eye(2)
    labels = np.array([0, 1])
    want = -math.log(math.e / (math.e + 1.0)) / 2.0  # ~0.15660
    assert loss_metric(protos, feats, labels) == pytest.approx(want,
                                                               abs=1e-12)


def test_loss_metric_identical_prototypes():
    rng = np.random.default_rng(3)
    for n in (2, 5, 7):
        feats = rng.normal(size=(n * 2, 6))
        labels = np.repeat(np.arange(n), 2)
        protos = np.tile(rng.normal(size=6), (n, 1))
        assert loss_metric(protos, feats, labels) == pytest.approx(
            math.log(n) / n, abs=1e-12)


def test_loss_total_weights():
    rng = np.random.default_rng(4)
    protos, head, feats, labels = random_instance(rng)
    metric_only = loss_total(protos, head, feats, labels, LossWeights(0.0, 0.0))
    assert metric_only == pytest.approx(loss_metric(protos, feats, labels),
                                        abs=1e-15)
    combined = loss_total(protos, head, feats, labels, LossWeights(1.0, 1.0))
    parts = (loss_entropy(protos, head) + loss_class(protos, head)
             + loss_metric(protos, feats, labels))
    assert combined == pytest.approx(parts, abs=1e-12)


def test_loss_weights_validation():
    with pytest.raises(ValueError):
        LossWeights(-0.1, 1.0)
    with pytest.raises(ValueError):
        LossWeights(0.1, float("inf"))


def test_losses_non_negative():
    rng = np.random.default_rng(5)
    for _ in range(50):
        protos, head, feats, labels = random_instance(rng, n=4, dim=9, shots=2)
        assert loss_class(protos, head) >= 0.0
        assert loss_entropy(protos, head) >= 0.0
        assert loss_metric(protos, feats, labels) >= 0.0


def test_class_and_entropy_permutation_invariance():
    rng = np.random.default_rng(6)
    protos, head, _, _ = random_instance(rng)
    perm = rng.permutation(5)
    permuted_head = LinearHead(weights=head.weights[perm],
                               bias=head.bias[perm])
    assert loss_class(protos[perm], permuted_head) == pytest.approx(
        loss_class(protos, head), abs=1e-12)
    assert loss_entropy(protos[perm], permuted_head) == pytest.approx(
        loss_entropy(protos, head), abs=1e-12)


def test_metric_loss_scale_invariance():
    rng = np.random.default_rng(7)
    feats = rng.normal(size=(5, 12))
    labels = np.arange(5)
    protos = feats.copy()
    base = loss_metric(protos, feats, labels)
    for c, factor in ((0, 3.7), (2, 0.01), (4, 250.0)):
        scaled = protos.copy()
        scaled[c] *= factor
        assert loss_metric(scaled, feats, labels) == pytest.approx(base,
                                                                   abs=1e-12)


def test_gradient_hundred_random_points():
    rng = np.random.default_rng(8)
    for trial in range(100):
        protos, head, feats, labels = random_instance(rng)
        if trial % 3 == 0:
            weights = LossWeights(0.1, 1.0)
        else:
            weights = LossWeights(*rng.uniform(0.0, 2.0, size=2))
        assert check_proto_gradient(protos, head, feats, labels,
                                    weights) < 1e-4


def test_fused_step_matches_public_functions():
    # The loss must equal the readable loss_total; the gradient is gated
    # against finite differences by check_proto_gradient, so here each
    # bank's gradient in a stack must be the bits it gets alone.
    rng = np.random.default_rng(9)

    def fused(instances, weights):
        protos, heads, feats, labels = zip(*instances)
        unit = [f / np.linalg.norm(f, axis=1, keepdims=True) for f in feats]
        work = _Workspace(np.stack([h.weights for h in heads]),
                          np.stack([h.bias for h in heads]), np.stack(unit),
                          np.stack(labels), weights)
        return _step_loss_and_grad(np.stack(protos), work)

    for trial in range(20):
        instances = [random_instance(rng) for _ in range(1 + 3 * (trial % 2))]
        weights = LossWeights(*rng.uniform(0.0, 2.0, size=2))
        fused_loss, fused_grad = fused(instances, weights)
        assert fused_loss.shape == (len(instances),)
        for j, (p, head, f, lab) in enumerate(instances):
            assert fused_loss[j] == pytest.approx(
                loss_total(p, head, f, lab, weights), abs=1e-12)
            _, alone = fused([instances[j]], weights)
            np.testing.assert_array_equal(fused_grad[j], alone[0])


def _batched_against_alone(instances, seeds, weights, epochs, lr):
    """Train `instances` in one stack and each alone; every bank must get
    the same loss trajectory and the same bits or the same abort.
    Returns each abort string or None."""
    _, heads, feats, labels = zip(*instances)
    trajectories = [[] for _ in instances]
    batched = train_prototype_banks(
        list(heads), list(feats), list(labels), weights, epochs, lr,
        [np.random.default_rng(seed) for seed in seeds], trajectories)
    reasons = []
    for (_, head, f, lab), seed, got, traj in zip(instances, seeds, batched,
                                                  trajectories):
        alone_traj = []
        try:
            alone = train_prototypes(head, f, lab, weights, epochs, lr,
                                     np.random.default_rng(seed), alone_traj)
        except EpisodeAbort as abort:
            assert isinstance(got, EpisodeAbort)
            assert str(got) == str(abort)
            assert traj == alone_traj
            reasons.append(str(abort))
            continue
        np.testing.assert_array_equal(got.protos, alone.protos)
        assert traj == alone_traj
        reasons.append(None)
    return reasons


def test_batched_abort_leaves_other_banks():
    # Bank 1's head is scaled so its logits overflow once training has
    # grown the prototypes (the loss goes NaN mid-loop); bank 2 has a
    # zero support row. The rest must train to the bits they get alone.
    rng = np.random.default_rng(14)
    instances = [random_instance(rng) for _ in range(4)]
    head = instances[1][1]
    head.weights = head.weights / np.abs(head.weights).max() * 1e308
    instances[2][2][0] = 0.0
    weights = LossWeights(0.0, 0.0)
    reasons = _batched_against_alone(instances, [20, 21, 22, 23], weights,
                                     60, 0.1)
    assert reasons[0] is None and reasons[3] is None
    assert reasons[1].startswith("proto_loss_diverged")
    diverged_at = int(reasons[1].rsplit(" ", 1)[1])
    assert diverged_at > 0  # aborted mid-loop
    assert reasons[2].startswith("zero_support_row")

    # The same bank dropping out of the middle of a 48-bank stack shrinks
    # the stack at the same epoch and leaves the other 47 banks' bits.
    others = [random_instance(rng) for _ in range(47)]
    stack = others[:24] + [instances[1]] + others[24:]
    seeds = [100 + k for k in range(24)] + [21] + [124 + k for k in range(23)]
    reasons = _batched_against_alone(stack, seeds, weights, 60, 0.1)
    assert reasons[24].startswith("proto_loss_diverged")
    assert int(reasons[24].rsplit(" ", 1)[1]) == diverged_at
    assert reasons[:24] + reasons[25:] == [None] * 47
    # Under the default weights the heads shape every gradient, so the
    # shrunk stack must keep each remaining bank's own head: a NaN bias
    # drops bank 24 at epoch 0.
    nan_bias = random_instance(rng)
    nan_bias[1].bias[0] = np.nan
    stack[24] = nan_bias
    reasons = _batched_against_alone(stack, seeds, LossWeights(), 60, 0.1)
    assert reasons[24] == "proto_loss_diverged: loss=nan at epoch 0"
    assert reasons[:24] + reasons[25:] == [None] * 47


def test_train_leaves_inputs_unchanged():
    # The batched loop writes into preallocated buffers; none of them may
    # alias the caller's head or support features.
    rng = np.random.default_rng(16)
    for n_banks in (1, 3):
        instances = [random_instance(rng) for _ in range(n_banks)]
        _, heads, feats, labels = zip(*instances)
        before = [(h.weights.copy(), h.bias.copy(), f.copy(), lab.copy())
                  for _, h, f, lab in instances]
        train_prototype_banks(
            list(heads), list(feats), list(labels), LossWeights(), 30, 1e-2,
            [np.random.default_rng(40 + j) for j in range(n_banks)])
        for (_, h, f, lab), old in zip(instances, before):
            for arr, want in zip((h.weights, h.bias, f, lab), old):
                np.testing.assert_array_equal(arr, want)


def test_grad_overflow_aborts_serial_and_batched():
    # A head scaled by 1e300 pushes gradient entries past ~1e154, so
    # Adam's second moment overflows to inf: the loss stays finite but the
    # bank stops moving. Alone and in a stack, that bank must abort with
    # the same reason and leave the others untouched, and no overflow
    # warning escapes (RuntimeWarnings fail the suite).
    rng = np.random.default_rng(15)
    instances = [random_instance(rng) for _ in range(3)]
    instances[1][1].weights *= 1e300
    _, heads, feats, labels = zip(*instances)
    batched = train_prototype_banks(
        list(heads), list(feats), list(labels), LossWeights(), 200,
        1e-2, [np.random.default_rng(30 + j) for j in range(3)])
    reasons = []
    for j, (_, head, f, lab) in enumerate(instances):
        traj = []
        try:
            alone = train_prototypes(head, f, lab, LossWeights(), 200,
                                     1e-2, np.random.default_rng(30 + j),
                                     trajectory=traj)
        except EpisodeAbort as abort:
            assert str(batched[j]) == str(abort)
            assert len(traj) == 200 and np.all(np.isfinite(traj))
            reasons.append(abort.reason)
            continue
        np.testing.assert_array_equal(batched[j].protos, alone.protos)
        reasons.append(None)
    assert reasons == [None, "proto_grad_overflow", None]


def test_train_reaches_support_equal_bound():
    # Oracle bound: with metric loss alone, prototypes equal to the
    # orthogonal singleton supports are a feasible configuration; training
    # from random init must do at least as well (within slack).
    n, dim = 5, 16
    feats = np.eye(n, dim)
    labels = np.arange(n)
    head = LinearHead(weights=np.zeros((n, dim)), bias=np.zeros(n))
    bound = loss_metric(feats.copy(), feats, labels)
    bank = train_prototypes(head, feats, labels, LossWeights(0.0, 0.0),
                            1000, 1e-2, np.random.default_rng(10))
    final = loss_metric(bank.protos, feats, labels)
    assert final <= bound + 1e-3
    assert bank.trained


def test_train_deterministic():
    rng = np.random.default_rng(11)
    protos, head, feats, labels = random_instance(rng)
    banks = [
        train_prototypes(head, feats, labels, LossWeights(), 50, 1e-2,
                         np.random.default_rng(123))
        for _ in range(2)
    ]
    np.testing.assert_array_equal(banks[0].protos, banks[1].protos)


def test_train_records_trajectory():
    rng = np.random.default_rng(12)
    protos, head, feats, labels = random_instance(rng)
    traj = []
    train_prototypes(head, feats, labels, LossWeights(), 40, 1e-2,
                     np.random.default_rng(0), trajectory=traj)
    assert len(traj) == 40
    assert all(np.isfinite(traj))


def test_trajectory_non_increasing_after_warmup():
    # Empirical oracle run on the standard synthetic task: after epoch 50
    # the loss may wiggle by at most 1e-4 per epoch.
    from fewproto.embeddings import generate_synthetic, sample_episode
    from fewproto.graph import build_task_graph
    from fewproto.head import manifold_augment, train_head

    pool = generate_synthetic(20, 50, 64, 10.0, 0.1, np.random.default_rng(100))
    rng = np.random.default_rng(101)
    ep = sample_episode(pool, 5, 5, 15, rng)
    support, _ = build_task_graph(ep.support_x, ep.query_x, 10, 1.0, 3)
    aug = manifold_augment(support, ep.support_y, 5, rng)
    head = train_head(aug, 11, 1e-2, rng)
    traj = []
    train_prototypes(head, support, ep.support_y, LossWeights(0.1, 1.0),
                     1000, 1e-2, rng, trajectory=traj)
    arr = np.asarray(traj)
    jumps = arr[51:] - arr[50:-1]
    assert jumps.max() <= 1e-4


def test_train_zero_support_row_aborts():
    head = LinearHead(weights=np.zeros((2, 3)), bias=np.zeros(2))
    feats = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(EpisodeAbort, match="zero_support_row"):
        train_prototypes(head, feats, np.array([0, 1]), LossWeights(), 10,
                         1e-2, np.random.default_rng(1))


def test_loss_metric_zero_prototype_aborts():
    feats = np.eye(2)
    protos = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(EpisodeAbort, match="zero_prototype_row"):
        loss_metric(protos, feats, np.array([0, 1]))


def test_validate_prototypes():
    with pytest.raises(EpisodeAbort):
        validate_prototypes(np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(EpisodeAbort):
        validate_prototypes(np.array([[1.0, np.nan]]))
    validate_prototypes(np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_init_prototypes_modes():
    random_init = init_prototypes(5, 6, np.random.default_rng(1))
    assert random_init.shape == (5, 6)
    np.testing.assert_array_equal(
        random_init, np.random.default_rng(1).normal(0.0, 1.0 / np.sqrt(6),
                                                     (5, 6)))
