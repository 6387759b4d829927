import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewproto import prototypes
from fewproto.diagnostics import Diagnostics, EpisodeAbort
from fewproto.head import LinearHead
from fewproto.optim import (LOG_FLOOR, AdamState, adam_update, row_norms,
                            softmax)
from fewproto.prototypes import (LossWeights, _step_loss_and_grad,
                                 _Workspace, init_prototypes, loss_class,
                                 loss_entropy, loss_metric, loss_total,
                                 mean_prototype_stack, mean_prototypes,
                                 train_prototype_banks, validate_prototypes)
from fewproto.verification import check_proto_gradient

# The composite loss's term weights at their run defaults.
WEIGHTS = LossWeights(0.1, 1.0)


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


def test_mean_prototypes_two_rows():
    bank = mean_prototypes(np.array([[1.0, 0.0], [0.0, 1.0]]),
                           np.array([0, 0]))
    np.testing.assert_allclose(bank.protos, [[0.5, 0.5]], atol=1e-15)


def test_mean_prototypes_matches_direct_mean():
    # Bit for bit against each class's own rows.mean(axis=0).
    rng = np.random.default_rng(0)
    for k in (1, 5, 7):
        for dim in (64, 640):
            feats = rng.normal(0.0, 10.0, size=(5 * k, dim))
            labels = np.repeat(np.arange(5), k)
            bank = mean_prototypes(feats, labels)
            for c in range(5):
                np.testing.assert_array_equal(
                    bank.protos[c], feats[labels == c].mean(axis=0))


def test_mean_prototypes_empty_class():
    with pytest.raises(ValueError, match="class 1"):
        mean_prototypes(np.ones((2, 3)), np.array([0, 2]))


@pytest.mark.parametrize("labels", [[0, 1, 0, 1], [0, 0, 1], [1, 1, 0, 0],
                                    [0, 0, 1, 1, -1, -1]])
def test_mean_prototypes_rejects_other_layouts(labels):
    # Rows must come grouped by class, class 0 first, the same count each.
    with pytest.raises(ValueError, match=re.escape(str(labels))):
        mean_prototypes(np.ones((len(labels), 3)), np.array(labels))


def test_mean_prototypes_rejects_row_count_mismatch():
    with pytest.raises(ValueError, match=re.escape(
            "support rows (1, 3, 2) do not match labels (1, 4)")):
        mean_prototypes(np.ones((3, 2)), np.array([0, 0, 1, 1]))


@pytest.mark.parametrize("n_ways, k", [(5, 1), (5, 5), (10, 3)])
@pytest.mark.parametrize("dim", [64, 640])
def test_mean_stack_matches_each_episode_alone(n_ways, k, dim):
    # Bit for bit, with a middle bank that aborts: a non-finite support
    # row gives proto_nonfinite, a class of zero rows zero_prototype_row.
    rng = np.random.default_rng([n_ways, k, dim])
    labels = np.repeat(np.arange(n_ways), k)
    for kind, reason in (("nan", "proto_nonfinite"),
                         ("zero", "zero_prototype_row")):
        feats = rng.normal(0.0, 10.0, size=(3, n_ways * k, dim))
        feats[2, 0] *= 1e300
        if kind == "nan":
            feats[1, -1, 3] = np.nan
        else:
            feats[1, :k] = 0.0
        means = mean_prototype_stack(feats, np.stack([labels] * 3))
        for b in range(3):
            np.testing.assert_array_equal(
                means[b], mean_prototypes(feats[b], labels).protos)
        first, middle, last = prototypes.banks_or_aborts(means)
        assert isinstance(middle, EpisodeAbort) and middle.reason == reason
        with pytest.raises(EpisodeAbort, match=reason):
            validate_prototypes(means[1])
        for bank, b in ((first, 0), (last, 2)):
            np.testing.assert_array_equal(bank.protos, means[b])
            for c in range(n_ways):
                np.testing.assert_array_equal(
                    bank.protos[c], feats[b][labels == c].mean(axis=0))


def test_mean_stack_rejects_a_layout_by_episode():
    # Each episode's own error; equal layouts are required across the
    # stack.
    good = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError, match=re.escape("[1, 1, 0, 0]")):
        mean_prototype_stack(np.ones((2, 4, 3)),
                             np.stack([good, [1, 1, 0, 0]]))
    with pytest.raises(ValueError, match="different support labels"):
        mean_prototype_stack(np.ones((2, 4, 3)),
                             np.stack([good, [0, 0, 0, 0]]))
    with pytest.raises(ValueError, match=re.escape(
            "support rows (2, 4, 3) do not match labels (2, 3)")):
        mean_prototype_stack(np.ones((2, 4, 3)), np.zeros((2, 3), int))
    # One episode's rows against two episodes' labels: equal row counts.
    with pytest.raises(ValueError, match=re.escape(
            "support rows (1, 4, 3) do not match labels (2, 4)")):
        mean_prototype_stack(np.ones((1, 4, 3)), np.zeros((2, 4), int))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(1, 7), dim=st.sampled_from([3, 64, 640]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_mean_prototypes_support_order_within_class(k, dim, seed):
    # Reordering a class's rows changes only the summation order, so each
    # prototype moves by at most a few ulps of its largest entry.
    rng = np.random.default_rng(seed)
    feats = rng.normal(rng.normal(0.0, 5.0, size=dim), 2.0, size=(5 * k, dim))
    labels = np.repeat(np.arange(5), k)
    order = np.concatenate([c * k + rng.permutation(k) for c in range(5)])
    base = mean_prototypes(feats, labels).protos
    moved = mean_prototypes(feats[order], labels).protos
    for c in range(5):
        assert (np.abs(moved[c] - base[c]).max()
                <= 1e-12 * np.abs(base[c]).max())


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
        work = _Workspace(heads, feats, labels, weights)
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


def allocating_loss_and_grad(protos, head, feats, labels, weights):
    """loss_total of one bank and its gradient from allocating formulas,
    each in the order the stacked step runs it. With p the head's
    softmax on a prototype, H its entropy and q the softmax over a
    support row's cosines:
    delta = (cw p - (ew p)(log p + H) - cw I) / n^2, t = (q - onehot)
    / (r n), grad = delta W + (t^T f_hat - colsum(t cos) p_hat) / |p|."""
    n, r = len(protos), len(feats)
    feats, norms = row_norms(feats)
    unit_rows = feats / norms[:, None]
    p = softmax(protos @ head.weights.T + head.bias)
    logp = np.log(np.maximum(p, LOG_FLOOR))
    ent = -np.sum(p * logp, axis=1, keepdims=True)
    loss = (np.sum(np.diagonal(logp)) * -weights.class_weight
            + np.sum(ent) * weights.entropy_weight) / (n * n)
    delta = ((p * weights.class_weight
              - (p * weights.entropy_weight) * (logp + ent)
              - weights.class_weight * np.eye(n)) / (n * n))
    proto_norms = np.sqrt(np.einsum("ij,ij->i", protos, protos))[:, None]
    unit_protos = protos / proto_norms
    cos = np.minimum(np.maximum(unit_rows @ unit_protos.T, -1.0), 1.0)
    q = softmax(cos)
    picked = q[np.arange(r), labels]
    loss += -np.sum(np.log(np.maximum(picked, LOG_FLOOR))) / (r * n)
    t = (q - np.eye(n)[labels]) / (r * n)
    metric = (t.T @ unit_rows
              - unit_protos * np.sum(cos * t, axis=0)[:, None]) / proto_norms
    return loss, delta @ head.weights + metric


@pytest.mark.parametrize("ways, shots, dim", [
    (5, 5, 64), (5, 1, 640), (3, 2, 16), (10, 5, 64)],
    ids=["5-64", "1-640", "3way-2-16", "10way-5-64"])
def test_banks_match_allocating_adam(ways, shots, dim):
    # Each bank of one stacked loop, steps and Adam in place, has the
    # losses and bits of the allocating formulas and an allocating
    # adam_update loop from the same init.
    rng = np.random.default_rng(23)
    instances = [random_instance(rng, ways, dim, shots) for _ in range(4)]
    _, heads, feats, labels = zip(*instances)
    feats = [f * scale for f, scale in zip(feats, (1.0, 0.1, 7.0, 30.0))]
    weights = LossWeights(*rng.uniform(0.0, 2.0, size=2))
    trajectories = [[] for _ in heads]
    banks = train_prototype_banks(
        list(heads), feats, list(labels), weights, 25, 3e-2,
        draws(heads, range(60, 64)), trajectories)
    for j, (head, f, lab) in enumerate(zip(heads, feats, labels)):
        protos = init_prototypes(ways, dim, np.random.default_rng(60 + j))
        state = AdamState.fresh(protos.shape, lr=3e-2)
        losses = []
        for _ in range(25):
            loss, grad = allocating_loss_and_grad(protos, head, f, lab,
                                                  weights)
            losses.append(loss)
            state, protos = adam_update(state, protos, grad)
        assert trajectories[j] == losses
        np.testing.assert_array_equal(banks[j].protos, protos)


def draws(heads, seeds):
    """An `init_prototypes` draw for each head's bank, on the generator
    seeded with its seed."""
    return [init_prototypes(*head.weights.shape, np.random.default_rng(seed))
            for head, seed in zip(heads, seeds)]


def _train_alone(head, feats, labels, weights, epochs, lr, rng):
    """One bank trained alone, in a stack of one, from its init drawn
    from `rng`: its bank or abort, and its per-epoch losses."""
    trajectory = []
    result, = train_prototype_banks(
        [head], [feats], [labels], weights, epochs, lr,
        [init_prototypes(*head.weights.shape, rng)], [trajectory])
    return result, trajectory


def _batched_against_alone(instances, seeds, weights, epochs, lr):
    """Train `instances` in one stack and each alone; every bank must get
    the same loss trajectory and the same bits or the same abort.
    Returns each abort string or None."""
    _, heads, feats, labels = zip(*instances)
    trajectories = [[] for _ in instances]
    batched = train_prototype_banks(
        list(heads), list(feats), list(labels), weights, epochs, lr,
        draws(heads, seeds), trajectories)
    reasons = []
    for (_, head, f, lab), seed, got, traj in zip(instances, seeds, batched,
                                                  trajectories):
        alone, alone_traj = _train_alone(head, f, lab, weights, epochs, lr,
                                         np.random.default_rng(seed))
        assert traj == alone_traj
        if isinstance(alone, EpisodeAbort):
            assert isinstance(got, EpisodeAbort)
            assert str(got) == str(alone)
            reasons.append(str(alone))
            continue
        np.testing.assert_array_equal(got.protos, alone.protos)
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

    # The same bank aborting in the middle of a 48-bank stack stops at
    # the same epoch and leaves the other 47 banks' bits.
    others = [random_instance(rng) for _ in range(47)]
    stack = others[:24] + [instances[1]] + others[24:]
    seeds = [100 + k for k in range(24)] + [21] + [124 + k for k in range(23)]
    reasons = _batched_against_alone(stack, seeds, weights, 60, 0.1)
    assert reasons[24].startswith("proto_loss_diverged")
    assert int(reasons[24].rsplit(" ", 1)[1]) == diverged_at
    assert reasons[:24] + reasons[25:] == [None] * 47
    # Under the default weights the heads shape every gradient, so each
    # bank must keep reading its own head next to an aborted one: a NaN
    # bias aborts bank 24 at epoch 0.
    nan_bias = random_instance(rng)
    nan_bias[1].bias[0] = np.nan
    stack[24] = nan_bias
    reasons = _batched_against_alone(stack, seeds, WEIGHTS, 60, 0.1)
    assert reasons[24] == "proto_loss_diverged: loss=nan at epoch 0"
    assert reasons[:24] + reasons[25:] == [None] * 47


def test_aborted_bank_keeps_its_finite_losses():
    # A bank whose loss diverges at epoch k keeps the k finite losses
    # before it; the banks beside it keep one per epoch.
    rng = np.random.default_rng(14)
    instances = [random_instance(rng) for _ in range(3)]
    _broken(instances[1], "huge_head")
    _, heads, feats, labels = zip(*instances)
    trajectories = [[] for _ in instances]
    banks = train_prototype_banks(
        list(heads), list(feats), list(labels), LossWeights(0.0, 0.0), 60,
        0.1, draws(heads, range(20, 23)), trajectories)
    assert banks[1].reason == "proto_loss_diverged"
    diverged_at = int(str(banks[1]).rsplit(" ", 1)[1])
    assert 0 < diverged_at < 60
    assert [len(traj) for traj in trajectories] == [60, diverged_at, 60]
    assert all(np.isfinite(traj).all() for traj in trajectories)


def _broken(instance, kind):
    """`instance` set up to abort: a NaN head (loss NaN at epoch 0), a
    zero support row (before training) or a huge head (loss diverges
    once the prototypes grow)."""
    _, head, feats, _ = instance
    if kind == "nan_head":
        head.bias[0] = np.nan
    elif kind == "zero_row":
        feats[0] = 0.0
    elif kind == "huge_head":
        head.weights = head.weights / np.abs(head.weights).max() * 1e308
    return instance


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), dim=st.integers(2, 6), shots=st.integers(1, 2),
       neighbours=st.lists(st.sampled_from(
           ["clean", "nan_head", "zero_row", "huge_head"]), max_size=5),
       position=st.integers(0, 5), seed=st.integers(0, 2 ** 32 - 1),
       entropy_weight=st.sampled_from([0.0, 0.1, 1.5]),
       class_weight=st.sampled_from([0.0, 1.0]))
def test_bank_independent_of_its_stack(n, dim, shots, neighbours, position,
                                       seed, entropy_weight, class_weight):
    # Batch-size independence: a bank's bits, trajectory and abort do not
    # depend on the stack's size, its position in it, or neighbours that
    # abort before or during training.
    rng = np.random.default_rng(seed)
    stack = [_broken(random_instance(rng, n, dim, shots), kind)
             for kind in neighbours]
    stack.insert(min(position, len(stack)),
                 random_instance(rng, n, dim, shots))
    _batched_against_alone(stack, [seed + k for k in range(len(stack))],
                           LossWeights(entropy_weight, class_weight), 25, 0.3)


@pytest.mark.parametrize("weights, huge_head_reason", [
    (LossWeights(0.0, 0.0), "proto_loss_diverged"),  # all abort in the loop
    (WEIGHTS, "proto_grad_overflow"),  # the last one after it
])
def test_chunk_where_every_bank_aborts(weights, huge_head_reason):
    rng = np.random.default_rng(17)
    stack = [_broken(random_instance(rng), kind)
             for kind in ("nan_head", "zero_row", "huge_head", "zero_row")]
    reasons = _batched_against_alone(stack, [50, 51, 52, 53], weights, 60,
                                     0.1)
    assert reasons[0] == "proto_loss_diverged: loss=nan at epoch 0"
    assert reasons[1].startswith("zero_support_row")
    assert reasons[2].startswith(huge_head_reason)
    assert reasons[3].startswith("zero_support_row")


def test_empty_chunk():
    assert train_prototype_banks([], [], [], WEIGHTS, 10, 0.1, [],
                                 []) == []


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
            list(heads), list(feats), list(labels), WEIGHTS, 30, 1e-2,
            draws(heads, range(40, 40 + n_banks)))
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
        list(heads), list(feats), list(labels), WEIGHTS, 200,
        1e-2, draws(heads, range(30, 33)))
    reasons = []
    for j, (_, head, f, lab) in enumerate(instances):
        alone, traj = _train_alone(head, f, lab, WEIGHTS, 200, 1e-2,
                                   np.random.default_rng(30 + j))
        if isinstance(alone, EpisodeAbort):
            assert str(batched[j]) == str(alone)
            assert len(traj) == 200 and np.all(np.isfinite(traj))
            reasons.append(alone.reason)
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
    bank, _ = _train_alone(head, feats, labels, LossWeights(0.0, 0.0),
                           1000, 1e-2, np.random.default_rng(10))
    final = loss_metric(bank.protos, feats, labels)
    assert final <= bound + 1e-3


def test_train_deterministic():
    rng = np.random.default_rng(11)
    protos, head, feats, labels = random_instance(rng)
    banks = [
        _train_alone(head, feats, labels, WEIGHTS, 50, 1e-2,
                     np.random.default_rng(123))[0]
        for _ in range(2)
    ]
    np.testing.assert_array_equal(banks[0].protos, banks[1].protos)


def test_train_records_trajectory():
    rng = np.random.default_rng(12)
    protos, head, feats, labels = random_instance(rng)
    _, traj = _train_alone(head, feats, labels, WEIGHTS, 40, 1e-2,
                           np.random.default_rng(0))
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
    support, _ = build_task_graph(ep.support_x, ep.query_x, 10, 1.0, 3,
                                  Diagnostics())
    aug = manifold_augment(support, ep.support_y, 5, rng)
    head = train_head(aug, 11, 1e-2, rng, Diagnostics())
    _, traj = _train_alone(head, support, ep.support_y, LossWeights(0.1, 1.0),
                           1000, 1e-2, rng)
    arr = np.asarray(traj)
    jumps = arr[51:] - arr[50:-1]
    assert jumps.max() <= 1e-4


def test_train_zero_support_row_aborts():
    head = LinearHead(weights=np.zeros((2, 3)), bias=np.zeros(2))
    feats = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    result, _ = _train_alone(head, feats, np.array([0, 1]), WEIGHTS, 10,
                             1e-2, np.random.default_rng(1))
    assert isinstance(result, EpisodeAbort)
    assert result.reason == "zero_support_row"


def test_train_banks_need_an_epoch():
    _, head, feats, labels = random_instance(np.random.default_rng(13))
    with pytest.raises(ValueError, match="epochs must be >= 1"):
        train_prototype_banks([head], [feats], [labels], WEIGHTS, 0, 1e-2,
                              draws([head], [0]))


def test_loss_metric_zero_support_row_aborts():
    feats = np.array([[0.0, 0.0], [0.0, 1.0]])
    with pytest.raises(EpisodeAbort, match="zero_support_row"):
        loss_metric(np.eye(2), feats, np.array([0, 1]))


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
    # Squared norms under- and overflow, yet neither row is zero.
    validate_prototypes(np.array([[1e-170, 0.0], [0.0, 1e200]]))


def test_init_prototypes_modes():
    random_init = init_prototypes(5, 6, np.random.default_rng(1))
    assert random_init.shape == (5, 6)
    np.testing.assert_array_equal(
        random_init, np.random.default_rng(1).normal(0.0, 1.0 / np.sqrt(6),
                                                     (5, 6)))


def test_zero_init_row_aborts_only_its_bank():
    # A zero prototype row shows up inside the loop, at epoch 0, as a
    # zero norm in the step; the other banks of the stack keep the bits
    # they get alone.
    rng = np.random.default_rng(31)
    _, heads, feats, labels = zip(*(random_instance(rng) for _ in range(3)))
    seeds, weights = (40, 41, 42), WEIGHTS
    inits = draws(heads, seeds)
    inits[1][3] = 0.0
    banks = train_prototype_banks(
        list(heads), list(feats), list(labels), weights, 30, 1e-2, inits)
    assert isinstance(banks[1], EpisodeAbort)
    assert banks[1].reason == "zero_prototype_row"
    assert str(banks[1]).endswith("at epoch 0")
    for j in (0, 2):
        alone, _ = _train_alone(heads[j], feats[j], labels[j], weights, 30,
                                1e-2, np.random.default_rng(seeds[j]))
        np.testing.assert_array_equal(banks[j].protos, alone.protos)


@pytest.mark.parametrize("scale", [1e155, 1e-170])
def test_workspace_keeps_support_directions_beyond_norm_range(scale):
    # Squared norms of these rows over- or underflow float64; the unit
    # rows, the loss oracle and the step must still see their
    # directions. Any RuntimeWarning fails the test.
    rng = np.random.default_rng(12)
    feats = rng.normal(size=(25, 64))
    labels = np.repeat(np.arange(5), 5)
    head = LinearHead(rng.normal(size=(5, 64)), rng.normal(size=5))
    protos = rng.normal(size=(5, 64))
    weights = WEIGHTS
    want = _Workspace([head], [feats], [labels], weights)
    got = _Workspace([head], [scale * feats], [labels], weights)
    assert not got.zero_support.any()
    np.testing.assert_allclose(got.unit_rows, want.unit_rows, rtol=0,
                               atol=1e-15)
    loss, _ = _step_loss_and_grad(protos[None], got)
    assert loss[0] == pytest.approx(
        loss_total(protos, head, scale * feats, labels, weights), rel=1e-12)
    assert loss_metric(protos, scale * feats, labels) == pytest.approx(
        loss_metric(protos, feats, labels), rel=1e-12)
