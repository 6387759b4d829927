"""Finite-difference verification of every exported analytic gradient.

Each trial draws a random head, random support features, and random
prototypes, then compares the closed-form gradients of the head loss and
of the composite prototype loss against central differences. The
prototype gradient checked is the one training runs: the batched fused
step for a single bank, against differences of `loss_total`. The
composite loss is checked under the default term weights and a fixed set
of random weight pairs. This suite is the primary correctness gate for
the training code; the CLI exposes it as the `gradcheck` subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .head import LinearHead, head_loss_and_grad
from .optim import grad_check
from .prototypes import (LossWeights, _step_loss_and_grad, _Workspace,
                         loss_total)


@dataclass
class GradCheckReport:
    trials: int
    tolerance: float
    max_error: float = 0.0
    n_checks: int = 0
    failures: list[tuple[str, int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.n_checks > 0


def check_head_gradient(weights, bias, feats, labels, h: float = 1e-5) -> float:
    """Worst relative error of the head's analytic gradient at (W, b)."""
    w_size = weights.size

    def unpack(x):
        return x[:w_size].reshape(weights.shape), x[w_size:]

    def loss_fn(x):
        w, b = unpack(x)
        return head_loss_and_grad(w, b, feats, labels)[0]

    def grad_fn(x):
        w, b = unpack(x)
        _, gw, gb = head_loss_and_grad(w, b, feats, labels)
        return np.concatenate([gw.ravel(), gb])

    return grad_check(loss_fn, grad_fn,
                      np.concatenate([weights.ravel(), bias]), h)


def check_proto_gradient(protos, head, feats, labels, weights: LossWeights,
                         h: float = 1e-5) -> float:
    """Worst relative error of the training step's prototype gradient
    (`_step_loss_and_grad` on one bank) against central differences of
    loss_total at the given prototypes."""
    feats = np.asarray(feats, dtype=np.float64)
    unit_rows = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    labels = np.asarray(labels, dtype=np.int64)

    def loss_fn(x):
        return loss_total(x.reshape(protos.shape), head, feats, labels, weights)

    work = _Workspace(head.weights[None], head.bias[None], unit_rows[None],
                      labels[None], weights)

    def grad_fn(x):
        _, grad = _step_loss_and_grad(x.reshape((1,) + protos.shape), work)
        return grad.ravel()

    return grad_check(loss_fn, grad_fn, protos.ravel(), h)


def run_gradcheck_suite(trials: int = 100, tolerance: float = 1e-4,
                        seed: int = 0, n_ways: int = 5, dim: int = 16,
                        shots: int = 3, h: float = 1e-5) -> GradCheckReport:
    """Run `trials` random instances of every gradient check.

    The composite-loss weights cycle through the defaults (0.1, 1.0) and
    five random pairs drawn once per suite run.
    """
    rng = np.random.default_rng(seed)
    weight_pairs = [LossWeights(0.1, 1.0)]
    weight_pairs += [LossWeights(*rng.uniform(0.0, 2.0, size=2))
                     for _ in range(5)]
    report = GradCheckReport(trials=trials, tolerance=tolerance)

    def record(name, trial, err):
        report.n_checks += 1
        report.max_error = max(report.max_error, err)
        if err >= tolerance:
            report.failures.append((name, trial, err))

    for trial in range(trials):
        feats = rng.normal(size=(n_ways * shots, dim))
        labels = np.repeat(np.arange(n_ways), shots)
        w = rng.normal(0.0, 0.3, (n_ways, dim))
        b = rng.normal(0.0, 0.1, n_ways)
        record("head_loss", trial,
               check_head_gradient(w, b, feats, labels, h))
        head = LinearHead(weights=w, bias=b)
        protos = rng.normal(size=(n_ways, dim))
        record("total_loss", trial,
               check_proto_gradient(protos, head, feats, labels,
                                    weight_pairs[trial % len(weight_pairs)], h))
    return report
