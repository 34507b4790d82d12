"""Mini-batch training loop and the quadratic-anchor (EWC) machinery.

One loop serves every strategy: shuffle, batch, backprop, optimizer step,
with an optional penalty hook that contributes extra loss and gradients.
The loop trains S same-shaped models in lockstep, one stacked step for all
of them, and S = 1 is the ordinary path. Elastic weight consolidation
plugs in through the hook; its Fisher information is estimated with
labels sampled from the model's own predictive distribution, not the true
labels.
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
class TrainRequest:
    """One model to train: what train_classifier needs for it, with the
    optimizer given by kind and learning rate."""

    model: nn.Classifier
    data: LabeledSet
    epochs: int
    batch_size: int
    optimizer: str
    learning_rate: float
    seed: int
    penalty: object = None


@dataclass
class TrainLog:
    epoch_losses: np.ndarray   # (S, epochs): each model's mean loss per epoch
    n_steps: int = 0           # lockstep steps; each one steps all S models


def train_classifier(models, datas, *, epochs: int, batch_size: int,
                     opt: OptimizerState, seeds, penalty=None) -> TrainLog:
    """Stochastic training of S models in lockstep, each on a fixed
    shuffle stream.

    Model s trains on datas[s], shuffled by make_rng(seeds[s], "shuffle").
    The models share one layer_dims and the sets one row count, so every
    step is one batch per model: one stacked loss_and_grad and one stacked
    apply_step on the models' shared (S, P) parameter matrix (nn.stack).
    Each model ends with the bits it would get if trained alone, and S = 1
    steps the model itself. opt is one fresh OptimizerState for all S.

    penalty, if given, needs S = 1. It is called once per batch as
    penalty(model) and must return (extra_loss, grad) with grad in the
    layout of ``model.params``; both are added before the optimizer step.
    The log records each model's mean total loss (data + penalty) per
    epoch. epochs=0 is a no-op that leaves the models untouched.
    """
    S = len(models)
    if S == 0 or len(datas) != S or len(seeds) != S:
        raise ValidationError(f"need one set and one seed per model, got {S} models, "
                              f"{len(datas)} sets and {len(seeds)} seeds")
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    n = len(datas[0])
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    if any(len(data) != n for data in datas):
        raise ValidationError(f"lockstep training needs sets of one size, got "
                              f"{[len(data) for data in datas]}")
    if penalty is not None and S != 1:
        raise ValidationError(f"a penalty trains one model at a time, got {S}")
    # S = 1 trains the model itself, on batches without the seed axis
    stacked, seed_axis = (models[0], 0) if S == 1 else (nn.stack(models), slice(None))
    X = np.stack([data.X for data in datas])
    Y = np.stack([data.y for data in datas])
    # checked once here, so that every step skips loss_and_grad's checks
    nn._check_labels(stacked, nn._check_batch(stacked, X[seed_axis]), Y[seed_axis])

    rngs = [make_rng(seed, "shuffle") for seed in seeds]
    slices = np.arange(S)[:, None]
    epoch_losses = np.empty((S, epochs))
    steps = 0
    # a diverging run overflows before its loss turns non-finite; the
    # NumericError below reports it, so NumPy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(epochs):
            order = np.stack([rng.permutation(n) for rng in rngs])
            X_epoch, Y_epoch = X[slices, order], Y[slices, order]
            total, batches = np.zeros(S), 0
            for b, start in enumerate(range(0, n, batch_size)):
                batch = seed_axis, slice(start, start + batch_size)
                loss, grad = nn.loss_and_grad(stacked, X_epoch[batch], Y_epoch[batch],
                                              checked=True)
                if penalty is not None:
                    ploss, pgrad = penalty(models[0])
                    loss += ploss
                    grad += pgrad
                if not np.isfinite(loss).all():
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}")
                apply_step(stacked, grad, opt)
                total += loss
                batches += 1
                steps += 1
            epoch_losses[:, epoch] = total / batches
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
