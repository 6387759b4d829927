"""Shared numerical core: softmax, Adam, finite-difference checks.

Everything here runs in float64; the training steps in `head` and
`prototypes` rely on that for gradient checks at 1e-4 tolerance. Both
take their softmax cross-entropies from `stacked_softmax` and
`stacked_nll`, which write preallocated buffers, and both train through
the one Adam loop `train_stack`.
`grad_check` takes central differences with the fixed step FD_STEP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOG_FLOOR = 1e-12
# Adam's decay rates and denominator guard, as Kingma & Ba set them.
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
FD_STEP = 1e-5


def softmax(z: np.ndarray) -> np.ndarray:
    """Stable softmax over the last axis by max-subtraction; rows sum to 1."""
    z = np.asarray(z, dtype=np.float64)
    e = z - np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def row_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`x` and the norms of its rows along the last axis. Each nonzero
    row whose squared norm under- or overflowed (norm 0 or inf; entries
    beyond about 1e+-154) is divided by its largest |entry|, which
    changes none of its cosines. Other rows keep their bits; when every
    norm is finite and nonzero, `x` itself comes back. A norm is
    sqrt(sum(x * x)), the formula `np.linalg.norm(x, axis=-1)` runs for
    float `x`, without its wrapper."""
    with np.errstate(over="ignore"):  # an inf norm is rescaled below
        norms = np.sqrt(np.add.reduce(x * x, axis=-1))
    if np.isfinite(norms).all() and norms.all():
        return x, norms
    lost = (norms == 0.0) | ~np.isfinite(norms)
    lost[lost] = x[lost].any(axis=-1)  # a zero row stays zero
    x = x.copy()
    rows = x[lost]
    rows /= np.abs(rows).max(axis=-1, keepdims=True)
    x[lost] = rows
    norms[lost] = np.sqrt(np.add.reduce(rows * rows, axis=-1))
    return x, norms


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct entries of 1-D `values` in ascending order, as
    `np.unique` gives them, by a sort and a compare of neighbours.
    `np.unique` imports `numpy.ma`, about 17 ms in a fresh process."""
    values = np.sort(values)
    keep = np.empty(values.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def label_targets(labels: list[np.ndarray], n_classes: int
                  ) -> tuple[np.ndarray, np.ndarray]:
    """B equal-length label arrays as their (B, r, n) one-hot stack and
    the flat index of each label's entry in a (B, r, n) array, the
    `index` of `stacked_nll`."""
    labels = np.asarray(np.stack(labels), dtype=np.int64)
    n_stack, r = labels.shape
    one_hot = (labels[:, :, None] == np.arange(n_classes)).astype(np.float64)
    return one_hot, ((np.arange(n_stack)[:, None] * r + np.arange(r))
                     * n_classes + labels)


def stacked_softmax(logits: np.ndarray, columns: list[np.ndarray],
                    sums: np.ndarray, out: np.ndarray) -> None:
    """Softmax along the last axis of the (B, r, n) stack `logits` into
    `out`, which may be `logits`; `columns` are the n slices of `logits`
    along that axis and `sums` a (B, r, 1) buffer. Each row gets the
    bits of `softmax`. The shift's maximum is a chain of elementwise
    calls over the columns, several times faster on a short axis than
    `maximum.reduce`, which pays a fixed cost per row; they differ only
    in the sign of a zero, which the exp erases."""
    top = sums[:, :, 0]
    np.copyto(top, columns[0])
    for column in columns[1:]:
        np.maximum(top, column, out=top)
    np.subtract(logits, sums, out=out)
    np.exp(out, out=out)
    np.add.reduce(out, axis=2, keepdims=True, out=sums)
    out /= sums


def stacked_nll(probs: np.ndarray, index: np.ndarray, picked: np.ndarray,
                out: np.ndarray) -> None:
    """Sum over the rows of each entry of the (B, r, n) stack `probs` of
    -log(max(p, LOG_FLOOR)), p the row's own-label probability, into
    `out` (B,). `index` (B, r) holds the flat index of each such entry
    in `probs`, and `picked` is a (B, r) buffer."""
    np.take(probs, index, out=picked, mode="clip")
    np.maximum(picked, LOG_FLOOR, out=picked)
    np.log(picked, out=picked)
    np.add.reduce(picked, axis=1, out=out)
    np.negative(out, out=out)


@dataclass
class AdamState:
    """Adam moments and learning rate for one parameter array.

    step counts completed updates; m and v hold the first and second
    moment running averages (same shape as the parameter).
    """

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float

    @classmethod
    def fresh(cls, shape, lr: float) -> "AdamState":
        return cls(step=0, m=np.zeros(shape), v=np.zeros(shape), lr=lr)


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
    m *= ADAM_BETA1
    np.multiply(grad, 1.0 - ADAM_BETA1, out=scratch)
    m += scratch
    np.multiply(grad, 1.0 - ADAM_BETA2, out=scratch)
    scratch *= grad
    v *= ADAM_BETA2
    v += scratch
    correction = 1.0 - ADAM_BETA1 ** t
    if correction == 1.0:  # from t = 356 on; m / 1.0 is m bit for bit
        np.multiply(m, state.lr, out=grad)
    else:
        np.divide(m, correction, out=grad)
        grad *= state.lr
    np.divide(v, 1.0 - ADAM_BETA2 ** t, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch += ADAM_EPS
    grad /= scratch
    param -= grad
    state.step = t


def train_stack(param: np.ndarray, step, epochs: int, lr: float,
                done: np.ndarray, abort, scratch: np.ndarray) -> np.ndarray:
    """Full-batch Adam (`adam_step`) on the stack `param`, in place, for
    `epochs` epochs; axis 0 holds one member per episode.

    `step(param)` returns the (B,) losses and the gradient, of `param`'s
    shape, at `param`; `scratch` is a buffer of that shape. A member
    whose loss is not finite is retired at that epoch: `abort(j,
    loss_j, epoch)` records why, once, and `done[j]` is set. A member
    `done` at the start is never reported. A retired member stays in
    the stack, so each step must keep its members apart; the loop ends
    early once every member is done. Returns the (B,) flags of members
    whose Adam second moment overflowed: a gradient entry past ~1e154
    leaves the loss finite but freezes its coordinate, and an inf
    moment stays inf, so one check after the loop catches it. Raises
    ValueError on `epochs` < 1."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    state = AdamState.fresh(param.shape, lr=lr)
    # A zero norm (0/0), an overflow and the inf - inf or 0 * inf it
    # leads to each end in a non-finite loss or moment, which the
    # caller names, so the floating-point warnings are off.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for epoch in range(epochs):
            loss, grad = step(param)
            # A clean epoch marks nothing; a stack holding a retired
            # member, whose loss stays NaN, marks every epoch.
            if not np.isfinite(loss).all():
                failed = ~(done | np.isfinite(loss))
                for j in np.flatnonzero(failed):
                    abort(j, loss[j], epoch)
                done |= failed
                if done.all():
                    break
            adam_step(state, param, grad, scratch)
    return ~np.isfinite(state.v).all(axis=tuple(range(1, param.ndim)))


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
    new = AdamState(state.step, state.m.copy(), state.v.copy(), state.lr)
    adam_step(new, param, grad, np.empty_like(param))
    return new, param


def grad_check(loss_fn, grad_fn, x: np.ndarray) -> float:
    """Compare an analytic gradient to central differences of step FD_STEP.

    Returns the worst per-coordinate relative error
    |analytic - fd| / max(|fd|, 1e-8). Raises if the loss goes non-finite
    at any probe point.
    """
    x = np.asarray(x, dtype=np.float64)
    analytic = np.asarray(grad_fn(x), dtype=np.float64)
    if analytic.shape != x.shape:
        raise ValueError("grad_fn output shape does not match x")
    worst = 0.0
    for i in range(x.size):
        probe = x.copy()
        probe.flat[i] = x.flat[i] + FD_STEP
        up = loss_fn(probe)
        probe.flat[i] = x.flat[i] - FD_STEP
        down = loss_fn(probe)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise FloatingPointError(f"non-finite loss near coordinate {i}")
        fd = (up - down) / (2.0 * FD_STEP)
        rel = abs(analytic.flat[i] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, rel)
    return worst
