import math

import numpy as np
import pytest

from fewproto.optim import AdamState, adam_step, adam_update, grad_check, softmax


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

    state = AdamState.fresh(2, lr=lr, beta1=b1, beta2=b2, eps=eps)
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
    # 200 steps on a (B, n, e) stack: the in-place kernel must give the
    # bits of adam_update and of the allocating expression, in this
    # operation order; adam_update must leave its arguments unchanged.
    rng = np.random.default_rng(4)
    shape = (6, 5, 16)
    lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
    start = rng.normal(size=shape)
    grads = rng.normal(scale=rng.uniform(1e-3, 1e3, size=(200, 1, 1, 1)),
                       size=(200,) + shape)
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
    state = AdamState.fresh(3)
    with pytest.raises(ValueError):
        adam_update(state, np.zeros(3), np.zeros(4))


def test_grad_check_exact_gradient():
    err = grad_check(lambda x: float(np.sum(x ** 2)), lambda x: 2.0 * x,
                     np.array([0.3, -1.2, 2.0]), h=1e-5)
    assert err < 1e-6


def test_grad_check_flags_scaled_gradient():
    err = grad_check(lambda x: float(np.sum(x ** 2)), lambda x: 4.0 * x,
                     np.array([0.3, -1.2, 2.0]), h=1e-5)
    assert err == pytest.approx(1.0, abs=1e-4)


def test_grad_check_nonfinite_loss():
    def bad_loss(x):
        return float("nan")

    with pytest.raises(FloatingPointError):
        grad_check(bad_loss, lambda x: x, np.ones(2))
