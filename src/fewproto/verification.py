"""Finite-difference verification of every exported analytic gradient.

Each trial draws a random head, random support features, and random
prototypes, then compares the closed-form gradients of the head loss and
of the composite prototype loss against central differences. Each
gradient checked is the one training runs, for a single head or bank,
over one flat vector: the head step, whose parameters are the weights
with the bias as last column, against differences of its own loss, and
the prototype step against differences of `loss_total`. Each check's
gradient is a copy, as the next probe's step overwrites the step's
buffer. The composite loss is checked under the
default term weights and a fixed set of random weight pairs. This suite
is the primary correctness gate for the training code; the CLI exposes
it as the `gradcheck` subcommand.
It has no settings: TRIALS trials drawn from seed SEED, each error
checked against TOLERANCE, with `grad_check`'s step `optim.FD_STEP`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .harness import ProtoConfig
from .head import (LinearHead, _step_loss_and_grad as _head_step,
                   _Workspace as _HeadWorkspace)
from .optim import grad_check
from .prototypes import (LossWeights, _step_loss_and_grad as _proto_step,
                         _Workspace as _ProtoWorkspace, loss_total)

# Each suite trial: a SUITE_WAYS-way episode, SUITE_SHOTS rows per class.
SUITE_WAYS, SUITE_SHOTS, SUITE_DIM = 5, 3, 16
# The gate: trials per run, the seed of their draws, and the bound each
# relative error must stay below.
TRIALS, SEED, TOLERANCE = 100, 0, 1e-4


@dataclass
class GradCheckReport:
    max_error: float = 0.0
    n_checks: int = 0
    failures: list[tuple[str, int, float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures and self.n_checks > 0


def check_head_gradient(weights, bias, feats, labels) -> float:
    """Worst relative error of the head's analytic gradient at (W, b):
    the training step on one head, set up as training sets it up,
    against central differences of its own loss."""
    work = _HeadWorkspace([feats], [labels], weights.shape[0])
    params = np.column_stack([weights, bias])

    def loss_fn(x):
        return float(_head_step(x.reshape((1,) + params.shape), work)[0][0])

    def grad_fn(x):
        return _head_step(x.reshape((1,) + params.shape), work)[1].flatten()

    return grad_check(loss_fn, grad_fn, params.ravel())


def check_proto_gradient(protos, head, feats, labels,
                         weights: LossWeights) -> float:
    """Worst relative error of the training step's prototype gradient
    (`_step_loss_and_grad` on one bank, set up as training sets it up)
    against central differences of loss_total at the given prototypes."""
    work = _ProtoWorkspace([head], [feats], [labels], weights)

    def loss_fn(x):
        return loss_total(x.reshape(protos.shape), head, feats, labels, weights)

    def grad_fn(x):
        return _proto_step(x.reshape((1,) + protos.shape), work)[1].flatten()

    return grad_check(loss_fn, grad_fn, protos.ravel())


def run_gradcheck_suite() -> GradCheckReport:
    """Run TRIALS random instances of every gradient check.

    The composite-loss weights cycle through `ProtoConfig`'s defaults and
    five random pairs drawn once per suite run.
    """
    rng = np.random.default_rng(SEED)
    proto = ProtoConfig()
    weight_pairs = [LossWeights(proto.entropy_weight, proto.class_weight)]
    weight_pairs += [LossWeights(*rng.uniform(0.0, 2.0, size=2))
                     for _ in range(5)]
    report = GradCheckReport()

    def record(name, trial, err):
        report.n_checks += 1
        report.max_error = max(report.max_error, err)
        if err >= TOLERANCE:
            report.failures.append((name, trial, err))

    for trial in range(TRIALS):
        feats = rng.normal(size=(SUITE_WAYS * SUITE_SHOTS, SUITE_DIM))
        labels = np.repeat(np.arange(SUITE_WAYS), SUITE_SHOTS)
        w = rng.normal(0.0, 0.3, (SUITE_WAYS, SUITE_DIM))
        b = rng.normal(0.0, 0.1, SUITE_WAYS)
        record("head_loss", trial, check_head_gradient(w, b, feats, labels))
        head = LinearHead(weights=w, bias=b)
        protos = rng.normal(size=(SUITE_WAYS, SUITE_DIM))
        record("total_loss", trial,
               check_proto_gradient(protos, head, feats, labels,
                                    weight_pairs[trial % len(weight_pairs)]))
    return report
