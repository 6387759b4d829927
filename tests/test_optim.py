import math

import numpy as np
import pytest

from fewproto.optim import (AdamState, adam_step, adam_update, grad_check,
                            row_norms, softmax, sorted_unique, train_stack)


def test_softmax_uniform_pair():
    np.testing.assert_allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5],
                               atol=1e-15)


def test_softmax_analytic_two_thirds():
    out = softmax(np.array([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(np.array([1000.0, 0.0]))
    assert np.all(np.isfinite(out))
    assert out[0] > 1.0 - 1e-12 and out[1] < 1e-12


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(200):
        z = rng.normal(scale=rng.uniform(0.1, 50.0), size=rng.integers(2, 20))
        p = softmax(z)
        assert np.all(p > 0)
        assert abs(p.sum() - 1.0) < 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = rng.normal(size=8)
        shift = rng.uniform(-100, 100)
        np.testing.assert_allclose(softmax(z + shift), softmax(z), atol=1e-12)


def test_adam_zero_gradient_is_noop():
    state = AdamState.fresh(3, lr=0.5)
    param = np.array([1.0, -2.0, 3.0])
    new_state, new_param = adam_update(state, param, np.zeros(3))
    np.testing.assert_array_equal(new_param, param)
    assert new_state.step == 1


def test_adam_first_step_is_signed_lr():
    # With bias correction, m_hat/sqrt(v_hat) = g/|g| on the first step.
    state = AdamState.fresh(4, lr=1e-3)
    param = np.zeros(4)
    grad = np.array([2.0, -0.5, 10.0, -7.0])
    _, new_param = adam_update(state, param, grad)
    np.testing.assert_allclose(new_param, -1e-3 * np.sign(grad), rtol=1e-6)


def test_adam_matches_reference_recurrence_and_converges():
    # Reference oracle: the textbook scalar recurrence, written out
    # independently of adam_update.
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x_ref = np.array([1.0, 1.0])
    m = np.zeros(2)
    v = np.zeros(2)
    for t in range(1, 101):
        g = 2.0 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        x_ref = x_ref - lr * m_hat / (np.sqrt(v_hat) + eps)

    state = AdamState.fresh(2, lr=lr)
    x = np.array([1.0, 1.0])
    for _ in range(100):
        state, x = adam_update(state, x, 2.0 * x)
        assert np.all(state.v >= 0.0)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12)
    assert np.linalg.norm(x) < 0.1
    assert state.step == 100


def test_adam_deterministic():
    rng = np.random.default_rng(3)
    param = rng.normal(size=7)
    grad = rng.normal(size=7)
    state = AdamState.fresh(7, lr=0.01)
    s1, p1 = adam_update(state, param, grad)
    s2, p2 = adam_update(state, param, grad)
    np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(s1.m, s2.m)
    np.testing.assert_array_equal(s1.v, s2.v)


def test_adam_step_in_place_matches_allocating_forms():
    # 400 steps on a (B, n, e) stack: the in-place kernel must give the
    # bits of adam_update and of the allocating expression, in this
    # operation order; adam_update must leave its arguments unchanged.
    # From step 356 on, 1 - b1^t rounds to 1.0 and the kernel skips the
    # divide by it.
    rng = np.random.default_rng(4)
    shape = (6, 5, 16)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    assert 1.0 - b1 ** 355 < 1.0 == 1.0 - b1 ** 356
    start = rng.normal(size=shape)
    grads = rng.normal(scale=rng.uniform(1e-3, 1e3, size=(400, 1, 1, 1)),
                       size=(400,) + shape)
    ref_state = AdamState.fresh(shape, lr=lr)
    ref = start.copy()
    state = AdamState.fresh(shape, lr=lr)
    param = start.copy()
    scratch = np.empty(shape)
    x, m, v = start.copy(), np.zeros(shape), np.zeros(shape)
    for t, g in enumerate(grads, start=1):
        before = (ref_state.step, ref_state.m.copy(), ref_state.v.copy(),
                  ref.copy(), g.copy())
        new_state, new_ref = adam_update(ref_state, ref, g)
        assert ref_state.step == before[0]
        for arr, old in zip((ref_state.m, ref_state.v, ref, g), before[1:]):
            np.testing.assert_array_equal(arr, old)
        ref_state, ref = new_state, new_ref

        adam_step(state, param, g.copy(), scratch)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        x = x - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t))
                                              + eps)
        assert state.step == ref_state.step == t
        for got in (param, ref):
            np.testing.assert_array_equal(got, x)
        for got in (state, ref_state):
            np.testing.assert_array_equal(got.m, m)
            np.testing.assert_array_equal(got.v, v)


def test_adam_shape_mismatch():
    state = AdamState.fresh(3, lr=1e-3)
    with pytest.raises(ValueError):
        adam_update(state, np.zeros(3), np.zeros(4))


def quadratic_step(targets, nan_from=None, spike=None):
    """A `train_stack` step on the members' losses 0.5 |x_j - c_j|^2.
    `nan_from=(j, k)` turns member j's loss and gradient NaN from epoch k
    on; `spike=j` sets one of member j's gradient entries to 1e160 at
    epoch 0, with its loss left finite."""
    epochs = []

    def step(param):
        grad = param - targets
        loss = 0.5 * np.sum(grad * grad, axis=(1, 2))
        if nan_from is not None and len(epochs) >= nan_from[1]:
            loss[nan_from[0]] = grad[nan_from[0]] = np.nan
        if spike is not None and not epochs:
            grad[spike, 0, 0] = 1e160
        epochs.append(len(epochs))
        return loss, grad

    return step


def run_stack(targets, epochs=10, done=None, **faults):
    """`targets` trained by `train_stack` from zeros at lr 0.1: the
    parameters, the overflow flags, `done` and each abort call."""
    param = np.zeros_like(targets)
    done = np.zeros(len(targets), dtype=bool) if done is None else done
    calls = []
    flags = train_stack(param, quadratic_step(targets, **faults), epochs,
                        0.1, done, lambda *call: calls.append(call),
                        np.empty_like(param))
    return param, flags, done, calls


STACK_TARGETS = np.random.default_rng(5).normal(size=(3, 2, 4))


def test_train_stack_is_adam_on_each_member():
    # A clean stack never calls abort, and each member gets the bits of
    # an allocating adam_update loop.
    param, flags, done, calls = run_stack(STACK_TARGETS)
    assert calls == [] and not done.any() and not flags.any()
    want = np.zeros_like(STACK_TARGETS)
    state = AdamState.fresh(want.shape, lr=0.1)
    for _ in range(10):
        state, want = adam_update(state, want, want - STACK_TARGETS)
    np.testing.assert_array_equal(param, want)


def test_train_stack_reports_a_nan_member_once():
    # Member 1's loss turns NaN at epoch 4: one abort call, at that
    # epoch, and the other members keep the bits of a clean stack.
    clean, *_ = run_stack(STACK_TARGETS)
    param, flags, done, calls = run_stack(STACK_TARGETS, nan_from=(1, 4))
    assert [(j, epoch) for j, _, epoch in calls] == [(1, 4)]
    assert math.isnan(calls[0][1])
    np.testing.assert_array_equal(done, [False, True, False])
    np.testing.assert_array_equal(param[[0, 2]], clean[[0, 2]])
    assert not flags[[0, 2]].any()


def test_train_stack_never_reports_a_member_done_at_the_start():
    done = np.array([False, True, False])
    clean, *_ = run_stack(STACK_TARGETS)
    param, _, done, calls = run_stack(STACK_TARGETS, done=done,
                                      nan_from=(1, 0))
    assert calls == []
    np.testing.assert_array_equal(done, [False, True, False])
    np.testing.assert_array_equal(param[[0, 2]], clean[[0, 2]])


def test_train_stack_flags_an_overflowed_second_moment():
    # A gradient entry past 1e154 squares past float64 range: the loss
    # stays finite, no abort is called, and only that member is flagged.
    # Any RuntimeWarning fails the test.
    _, flags, done, calls = run_stack(STACK_TARGETS, spike=1)
    assert calls == [] and not done.any()
    np.testing.assert_array_equal(flags, [False, True, False])


def test_grad_check_exact_gradient():
    err = grad_check(lambda x: float(np.sum(x ** 2)), lambda x: 2.0 * x,
                     np.array([0.3, -1.2, 2.0]))
    assert err < 1e-6


def test_grad_check_flags_scaled_gradient():
    err = grad_check(lambda x: float(np.sum(x ** 2)), lambda x: 4.0 * x,
                     np.array([0.3, -1.2, 2.0]))
    assert err == pytest.approx(1.0, abs=1e-4)


def test_grad_check_nonfinite_loss():
    def bad_loss(x):
        return float("nan")

    with pytest.raises(FloatingPointError):
        grad_check(bad_loss, lambda x: x, np.ones(2))


def test_grad_check_rejects_a_gradient_of_the_wrong_shape():
    with pytest.raises(ValueError, match="does not match x"):
        grad_check(lambda x: float(np.sum(x ** 2)), lambda x: 2.0 * x[:2],
                   np.ones(3))


def test_row_norms_returns_its_input_when_every_norm_is_usable():
    x = np.random.default_rng(4).normal(size=(3, 7, 5))
    got, norms = row_norms(x)
    assert got is x
    np.testing.assert_array_equal(norms, np.linalg.norm(x, axis=-1))


def test_row_norms_rescales_only_the_lost_rows():
    # Squared norms of the first two rows under- and overflow; the zero
    # row has no direction and keeps norm 0. Any RuntimeWarning fails.
    x = np.array([[3e-170, 4e-170], [3e170, -4e170], [0.0, 0.0], [3.0, 4.0]])
    got, norms = row_norms(x)
    np.testing.assert_array_equal(got, [[0.75, 1.0], [0.75, -1.0],
                                        [0.0, 0.0], [3.0, 4.0]])
    np.testing.assert_array_equal(norms, [1.25, 1.25, 0.0, 5.0])
    assert x[0, 0] == 3e-170  # the input is left as it was


@pytest.mark.parametrize("values", [[], [3], [2, 2, 2], [5, -1, 3, -1, 5, 0],
                                    list(range(40, 0, -3)) * 2])
def test_sorted_unique_matches_np_unique(values):
    values = np.array(values, dtype=np.int64)
    got = sorted_unique(values)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.unique(values))


def reference_softmax(z):
    """Reference: `softmax` through numpy's `np.max` and `np.sum`
    wrappers, with a fresh array at each step."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def reference_row_norms(x):
    """Reference: `row_norms` with its norms from `np.linalg.norm`."""
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(x, axis=-1)
    if np.isfinite(norms).all() and norms.all():
        return x, norms
    lost = (norms == 0.0) | ~np.isfinite(norms)
    lost[lost] = x[lost].any(axis=-1)
    x = x.copy()
    rows = x[lost]
    rows /= np.abs(rows).max(axis=-1, keepdims=True)
    x[lost] = rows
    norms[lost] = np.linalg.norm(rows, axis=-1)
    return x, norms


def test_softmax_matches_the_wrapper_reference():
    rng = np.random.default_rng(41)
    cases = [rng.normal(size=(6, 9)), rng.normal(size=(9, 6)).T,  # strided
             rng.normal(0.0, 1e3, size=(3, 5, 64)),
             np.moveaxis(rng.normal(size=(3, 5, 64)), 1, -1),
             np.zeros((4, 7)),                    # uniform rows
             np.array([[1e300, -1e300, 0.0]]),    # exp underflows
             np.ones((2, 1)), np.empty((0, 4)), np.array([3.0, -1.0])]
    for z in cases:
        np.testing.assert_array_equal(softmax(z), reference_softmax(z))


def test_row_norms_match_the_wrapper_reference():
    rng = np.random.default_rng(42)
    mixed = rng.normal(size=(8, 6))
    mixed[1] = 0.0                  # a zero row keeps norm 0
    mixed[2] *= 1e170               # squared norm overflows
    mixed[3] *= 1e-170              # squared norm underflows
    mixed[4] = [1e308, 1e308, 0, 0, 0, 0]
    cases = [rng.normal(size=(7, 5)), rng.normal(size=(3, 4, 6)), mixed,
             rng.normal(size=(2, 3, 6)) * 1e160, np.zeros((3, 4)),
             np.empty((0, 5)), rng.normal(size=(5, 6)).astype(np.float32)]
    for x in cases:
        got, norms = row_norms(x)
        want, want_norms = reference_row_norms(x)
        assert norms.dtype == want_norms.dtype
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(norms, want_norms)
