"""Shared numerical core: softmax, Adam, finite-difference checks.

Everything here runs in float64; the training loops in `head` and
`prototypes` rely on that for gradient checks at 1e-4 tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax via max-subtraction; rows sum to 1."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - np.max(z, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


@dataclass
class AdamState:
    """Adam moments and hyperparameters for one parameter array.

    step counts completed updates; m and v hold the first and second
    moment running averages (same shape as the parameter).
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def fresh(cls, shape, lr: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(step=0, m=np.zeros(shape), v=np.zeros(shape),
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)


def adam_step(state: AdamState, param: np.ndarray, grad: np.ndarray,
              scratch: np.ndarray) -> None:
    """One bias-corrected Adam step, in place and without allocating.

    m <- b1*m + (1-b1)*g         m_hat = m / (1 - b1^t)
    v <- b2*v + ((1-b2)*g)*g     v_hat = v / (1 - b2^t)
    param <- param - (lr * m_hat) / (sqrt(v_hat) + eps)

    Updates `state` (step, m, v) and `param`; `grad` and `scratch`, a
    float64 array of the parameter's shape, are overwritten. Every
    product and sum runs in the order written above, so the bits match
    a step that allocates fresh arrays.
    """
    t = state.step + 1
    m, v = state.m, state.v
    m *= state.beta1
    np.multiply(grad, 1.0 - state.beta1, out=scratch)
    m += scratch
    np.multiply(grad, 1.0 - state.beta2, out=scratch)
    scratch *= grad
    v *= state.beta2
    v += scratch
    np.divide(m, 1.0 - state.beta1 ** t, out=grad)
    grad *= state.lr
    np.divide(v, 1.0 - state.beta2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += state.eps
    grad /= scratch
    param -= grad
    state.step = t


def adam_update(state: AdamState, param: np.ndarray,
                grad: np.ndarray) -> tuple[AdamState, np.ndarray]:
    """One Adam step (`adam_step`) on copies; returns the new state and
    parameters and leaves the arguments unchanged."""
    param = np.array(param, dtype=np.float64)
    grad = np.array(grad, dtype=np.float64)
    if param.shape != grad.shape or param.shape != state.m.shape:
        raise ValueError(
            f"shape mismatch: param {param.shape}, grad {grad.shape}, "
            f"state {state.m.shape}")
    new = AdamState(state.step, state.m.copy(), state.v.copy(), state.lr,
                    state.beta1, state.beta2, state.eps)
    adam_step(new, param, grad, np.empty_like(param))
    return new, param


def grad_check(loss_fn, grad_fn, x: np.ndarray, h: float = 1e-5) -> float:
    """Compare an analytic gradient to central finite differences.

    Returns the worst per-coordinate relative error
    |analytic - fd| / max(|fd|, 1e-8). Raises if the loss goes non-finite
    at any probe point.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(grad_fn(x), dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("grad_fn output shape does not match x")
    worst = 0.0
    for i in range(x.size):
        probe = x.copy()
        probe.flat[i] = x.flat[i] + h
        up = loss_fn(probe)
        probe.flat[i] = x.flat[i] - h
        down = loss_fn(probe)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(f"non-finite loss near coordinate {i}")
        fd = (up - down) / (2.0 * h)
        rel = abs(analytic.flat[i] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst
