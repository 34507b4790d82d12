"""Mini-batch training loop and the quadratic-anchor (EWC) machinery.

One loop serves every strategy: shuffle, batch, backprop, optimizer step,
with an optional penalty hook that contributes extra loss and gradients.
Elastic weight consolidation plugs in through that hook; its Fisher
information is estimated with labels sampled from the model's own
predictive distribution, not the true labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .benchmarks import LabeledSet
from .errors import NumericError, ValidationError
from .optim import OptimizerState, apply_step
from .rng import make_rng


@dataclass
class TrainLog:
    epoch_losses: np.ndarray
    n_steps: int = 0


def train_classifier(model: nn.Classifier, data: LabeledSet, *, epochs: int,
                     batch_size: int, opt: OptimizerState, seed: int,
                     penalty=None) -> TrainLog:
    """Stochastic training with a fixed shuffle stream.

    penalty, if given, is called once per batch as penalty(model) and must
    return (extra_loss, grad) with grad in the layout of ``model.params``;
    both are added before the optimizer step. The log records the mean
    total loss (data + penalty) per epoch. epochs=0 is a no-op that leaves
    the model untouched.
    """
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if len(data) == 0:
        raise ValidationError("cannot train on an empty dataset")
    if (data.y < 0).any() or (data.y >= model.n_outputs).any():
        raise ValidationError(f"labels outside model output range [0, {model.n_outputs})")

    rng = make_rng(seed, "shuffle")
    n = len(data)
    epoch_losses = np.empty(epochs)
    steps = 0
    # a diverging run overflows before its loss turns non-finite; the
    # NumericError below reports it, so NumPy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = rng.permutation(n)
            total, batches = 0.0, 0
            for b, start in enumerate(range(0, n, batch_size)):
                idx = order[start:start + batch_size]
                loss, grad = nn.loss_and_grad(model, data.X[idx], data.y[idx])
                if penalty is not None:
                    ploss, pgrad = penalty(model)
                    loss += ploss
                    grad = grad + pgrad
                if not np.isfinite(loss):
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}")
                apply_step(model, grad, opt)
                total += loss
                batches += 1
                steps += 1
            epoch_losses[epoch] = total / batches
    return TrainLog(epoch_losses, steps)


# ---------------------------------------------------------------------------
# Elastic weight consolidation
# ---------------------------------------------------------------------------


def estimate_fisher_diag(model: nn.Classifier, data: LabeledSet, seed: int,
                         n_samples: int = None):
    """Diagonal empirical Fisher: mean squared gradient of the log-likelihood
    of labels drawn from the model's own predictions.

    Returns one vector in the layout of ``model.params``, entrywise >= 0.
    """
    if len(data) == 0:
        raise ValidationError("cannot estimate Fisher on an empty dataset")
    rng = make_rng(seed, "fisher")
    n = len(data)
    if n_samples is None or n_samples == n:
        idx = np.arange(n)
    elif 1 <= n_samples < n:
        idx = rng.choice(n, size=n_samples, replace=False)
    else:
        raise ValidationError(f"n_samples must be in [1, {n}], got {n_samples}")
    X = data.X[idx]
    probs = nn.softmax(nn.forward(model, X))   # checks X once for every row
    fisher = np.zeros_like(model.params)
    grad = np.empty_like(model.params)
    views = nn.layer_views(model, grad)
    for i, row in enumerate(probs):
        y_hat = np.array([rng.choice(model.n_outputs, p=row)])
        # single-sample cross-entropy gradient == gradient of -log p(y_hat|x)
        nn._loss_and_grad_into(model, X[i:i + 1], y_hat, views)
        fisher += grad ** 2
    return fisher / len(idx)


def ewc_penalty(model: nn.Classifier, anchors, lam: float):
    """Quadratic pull toward every anchor, weighted by its Fisher diagonal.

    anchors is a list of (parameter snapshot, diagonal Fisher) pairs of
    vectors in the layout of ``model.params``, one per finished domain.

    loss = (lam / 2) * sum_a sum_i F_a_i (theta_i - theta*_a_i)^2
    grad = lam * sum_a F_a (theta - theta*_a)
    """
    if lam < 0:
        raise ValidationError(f"penalty strength must be >= 0, got {lam}")
    grad = np.zeros_like(model.params)
    if lam == 0 or not anchors:
        return 0.0, grad
    loss = 0.0
    for anchor, fisher in anchors:
        if anchor.shape != model.params.shape:
            raise ValidationError("anchor shapes do not match the model")
        d = model.params - anchor
        loss += 0.5 * lam * float((fisher * d ** 2).sum())
        grad += lam * fisher * d
    return loss, grad
