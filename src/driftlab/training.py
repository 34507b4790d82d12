"""Mini-batch training loop and the quadratic-anchor (EWC) machinery.

One loop serves every strategy: shuffle, batch, backprop, optimizer step,
with an optional penalty hook that contributes extra loss and gradients.
The loop trains S same-shaped models in lockstep, one stacked step for all
of them, and S = 1 is the ordinary path. Elastic weight consolidation
plugs in through the hook (ewc_hook stacks each model's anchors); its
Fisher information is a Monte-Carlo estimate with labels sampled from the
model's own predictive distribution, not the true labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .benchmarks import LabeledSet
from .errors import NumericError, ValidationError
from .optim import OptimizerState, apply_step
from .rng import make_rng

# Fisher rows backpropagated per stacked call: bounds the (rows, P) buffer
FISHER_BLOCK = 64


@dataclass
class TrainRequest:
    """One model to train: what train_classifier needs for it, with the
    optimizer given by kind and learning rate, and its EWC penalty as data:
    the (params, fisher) anchors it is pulled toward, with strength lam."""

    model: nn.Classifier
    data: LabeledSet
    epochs: int
    batch_size: int
    optimizer: str
    learning_rate: float
    seed: int
    anchors: list = ()
    lam: float = 0.0


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

    penalty, if given, is called once per step as penalty(stack), with the
    model itself at S = 1, and must return (extra_loss, grad) shaped like
    the step's loss and ``stack.params``; both are added before the
    optimizer step (ewc_hook builds one).
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
                    ploss, pgrad = penalty(stacked)
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
    """Monte-Carlo diagonal Fisher: mean squared gradient of the
    log-likelihood of labels drawn from the model's own predictions (the
    empirical Fisher would use the true labels instead).

    Each row draws its label as ``rng.choice(C, p=row)`` would, from one
    uniform of the "fisher" stream, and backprops alone: a block of rows is
    one stack of one-row batches, so every row runs the kernels of a
    one-row loss_and_grad, and the squares add up row by row in row order.
    Returns one vector in the layout of ``model.params``, entrywise >= 0.
    Raises NumericError if a row's predictions are not a distribution.
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
    # an overflowing model gives NaN probabilities, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        probs = nn.softmax(nn.forward(model, X))   # checks X once for every row
    # rng.choice's checks: entries >= 0 (so no NaN), a sum within sqrt(eps) of 1
    ok = (probs >= 0).all(axis=1) \
        & (np.abs(probs.sum(axis=1) - 1.0) <= np.sqrt(np.finfo(float).eps))
    if not ok.all():
        row = int(idx[np.argmin(ok)])
        raise NumericError(f"Fisher estimate: the predicted probabilities of row {row} "
                           f"are not a distribution")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    y_hat = (cdf <= rng.random(len(idx))[:, None]).sum(axis=1)

    fisher = np.zeros_like(model.params)
    grad = np.empty((FISHER_BLOCK, model.params.size))
    for start in range(0, len(idx), FISHER_BLOCK):
        x = X[start:start + FISHER_BLOCK, None, :]   # a stack of one-row batches
        block = grad[:len(x)]
        # single-sample cross-entropy gradient == gradient of -log p(y_hat|x)
        nn._loss_and_grad_into(model, x, y_hat[start:start + len(x), None],
                               nn.layer_views(model, block))
        block **= 2
        block[0] += fisher
        fisher = np.add.accumulate(block, axis=0)[-1]
    return fisher / len(idx)


def ewc_penalty(model: nn.Classifier, anchors, lam):
    """Quadratic pull toward every anchor, weighted by its Fisher diagonal.

    anchors is a list of (parameter snapshot, diagonal Fisher) pairs shaped
    like ``model.params``, one per finished domain. For a stack of S models
    these are (S, P) matrices, lam is an (S,) vector and loss one value per
    model; each slice is what the model alone would get.

    loss = (lam / 2) * sum_a sum_i F_a_i (theta_i - theta*_a_i)^2
    grad = lam * sum_a F_a (theta - theta*_a)
    """
    lam = np.asarray(lam, dtype=float)
    if (lam < 0).any():
        raise ValidationError(f"penalty strength must be >= 0, got {lam}")
    loss = np.zeros(model.params.shape[:-1])
    grad = np.zeros_like(model.params)
    for anchor, fisher in anchors:
        if anchor.shape != model.params.shape or fisher.shape != model.params.shape:
            raise ValidationError("anchor shapes do not match the model")
        d = model.params - anchor
        loss += 0.5 * lam * (fisher * d ** 2).sum(axis=-1)
        grad += lam[..., None] * fisher * d
    return loss, grad


def ewc_hook(anchors, lams):
    """The EWC penalties of S models as one train_classifier penalty.

    anchors[s] is model s's list of (params, fisher) pairs and lams[s] its
    strength; every model needs the same anchor count. Returns None if
    there are no anchors, else a hook that calls ewc_penalty on the stacked
    anchors (the model's own vectors at S = 1, as train_classifier steps a
    lone model itself).
    """
    if len({len(pairs) for pairs in anchors}) != 1:
        raise ValidationError(f"stacked EWC penalties need one anchor count, got "
                              f"{[len(pairs) for pairs in anchors]}")
    if not anchors[0]:
        return None
    pick = 0 if len(anchors) == 1 else slice(None)
    stacked = [tuple(np.stack(arrays)[pick] for arrays in zip(*domain))
               for domain in zip(*anchors)]
    lam = np.asarray(lams, dtype=float)[pick]
    return lambda model: ewc_penalty(model, stacked, lam)
