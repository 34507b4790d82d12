"""Mini-batch training loop and the quadratic-anchor (EWC) machinery.

One loop serves every strategy: shuffle, batch, backprop, optimizer step.
A TrainRequest describes one training, and train_classifier trains a list
of them in lockstep, one stacked step on a scratch copy for all; one model
is a stack of one. stack_key says which requests may share a stack.
Elastic weight consolidation is data on the request (anchors and lam)
that the loop adds through ewc_penalty; its Fisher information is a
Monte-Carlo estimate with labels sampled from the model's own predictive
distribution, not the true labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .benchmarks import LabeledSet
from .errors import NumericError, ShapeError, ValidationError
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


def stack_key(req: TrainRequest) -> tuple:
    """What requests must share to train in one stack: layer dims, row
    count, epochs, batch size, optimizer, learning rate and anchor count."""
    return (tuple(req.model.layer_dims), len(req.data), req.epochs, req.batch_size,
            req.optimizer, req.learning_rate, len(req.anchors))


def train_classifier(requests) -> TrainLog:
    """Stochastic training of S requests in lockstep, each model on a fixed
    shuffle stream.

    The requests must share one stack_key; a layer-dims mismatch raises
    ShapeError and any other one ValidationError, before a model is
    touched. Request s trains its model on its data, shuffled by
    make_rng(seed, "shuffle"). Every step is one batch per model: one
    stacked loss_and_grad and one stacked apply_step on a scratch (S, P)
    copy of the models' parameters (nn.stack), with one fresh
    OptimizerState for all S. With anchors, each step adds ewc_penalty of
    every model's own anchors and lam to its loss and gradient. At the end,
    each model's own params takes the bits it would get if trained alone,
    because batched np.matmul runs the same BLAS call on every slice (a
    BLAS that blocks a stacked product otherwise fails the oracle tests);
    a raise leaves the models as they were. The log records each model's
    mean total loss (data + penalty) per epoch.
    """
    keys = {stack_key(req) for req in requests}
    if len(keys) != 1:
        error = ShapeError if len({key[0] for key in keys}) > 1 else ValidationError
        raise error(f"cannot train in one stack requests keyed {sorted(keys)} (layer dims, "
                    f"rows, epochs, batch size, optimizer, learning rate, anchor count)")
    S, first = len(requests), requests[0]
    epochs, batch_size, n = first.epochs, first.batch_size, len(first.data)
    if epochs < 0:
        raise ValidationError(f"epochs must be >= 0, got {epochs}")
    if batch_size < 1:
        raise ValidationError(f"batch_size must be >= 1, got {batch_size}")
    if n == 0:
        raise ValidationError("cannot train on an empty dataset")
    opt = OptimizerState(first.optimizer, first.learning_rate)
    stacked = nn.stack([req.model for req in requests])
    X = np.stack([req.data.X for req in requests])
    Y = np.stack([req.data.y for req in requests])
    # checked once here, so that every step skips loss_and_grad's checks;
    # one workspace for the full batches and one for a ragged last batch
    nn._check_labels(stacked, nn._check_batch(stacked, X), Y)
    spaces = {k: nn.Workspace(stacked, (S, k))
              for k in {min(batch_size, n), (n - 1) % batch_size + 1}}
    anchors = [tuple(np.stack(arrays) for arrays in zip(*domain))
               for domain in zip(*(req.anchors for req in requests))]
    lam = np.array([req.lam for req in requests], dtype=float)
    penalty = PenaltyWorkspace(stacked, anchors, lam) if anchors else None

    rngs = [make_rng(req.seed, "shuffle") for req in requests]
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
                rows = slice(start, start + batch_size)
                loss, grad = nn.loss_and_grad(stacked, X_epoch[:, rows], Y_epoch[:, rows],
                                              workspace=spaces[min(batch_size, n - start)])
                if penalty is not None:
                    ploss, pgrad = ewc_penalty(stacked, anchors, lam, workspace=penalty)
                    loss += ploss
                    grad += pgrad
                if not np.isfinite(loss).all():
                    raise NumericError(f"non-finite loss at epoch {epoch}, batch {b}")
                apply_step(stacked, grad, opt)
                total += loss
                batches += 1
                steps += 1
            epoch_losses[:, epoch] = total / batches
    for req, row in zip(requests, stacked.params):
        req.model.params[...] = row
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

    fisher, ws = np.zeros_like(model.params), None
    for start in range(0, len(idx), FISHER_BLOCK):
        x = X[start:start + FISHER_BLOCK, None, :]   # a stack of one-row batches
        if ws is None or len(ws.grad) != len(x):   # full blocks share one, a ragged last not
            ws = nn.Workspace(model, x.shape[:-1])
        # single-sample cross-entropy gradient == gradient of -log p(y_hat|x)
        nn._loss_and_grad_into(model, x, y_hat[start:start + len(x), None], ws)
        ws.grad **= 2
        ws.grad[0] += fisher
        fisher = np.add.accumulate(ws.grad, axis=0)[-1]
    return fisher / len(idx)


class PenaltyWorkspace:
    """What ewc_penalty computes with, for one model or stack and its
    anchors and lam, checked and built once: the snapshots and Fishers
    stacked to (A, *params.shape), ``0.5 * lam`` and ``lam * F``, and the
    buffers that every call overwrites."""

    def __init__(self, model: nn.Classifier, anchors, lam):
        lam = np.asarray(lam, dtype=float)
        if (lam < 0).any():
            raise ValidationError(f"penalty strength must be >= 0, got {lam}")
        shape = model.params.shape
        self.snapshots = np.empty((len(anchors), *shape))
        self.fisher = np.empty((len(anchors), *shape))
        for a, (anchor, fisher) in enumerate(anchors):
            if anchor.shape != shape or fisher.shape != shape:
                raise ValidationError("anchor shapes do not match the model")
            self.snapshots[a], self.fisher[a] = anchor, fisher
        self.half_lam = 0.5 * lam
        self.lam_fisher = lam[..., None] * self.fisher
        self.diff = np.empty_like(self.snapshots)
        self.grad_terms = np.empty_like(self.snapshots)
        self.grad = np.empty(shape)
        # row 0 stays 0.0, rows 1..A take each anchor's loss
        self.loss_terms = np.zeros((len(anchors) + 1, *shape[:-1]))
        self.loss_sums = np.empty_like(self.loss_terms)


def ewc_penalty(model: nn.Classifier, anchors, lam, *, workspace: PenaltyWorkspace = None):
    """Quadratic pull toward every anchor, weighted by its Fisher diagonal.

    anchors is a list of (parameter snapshot, diagonal Fisher) pairs shaped
    like ``model.params``, one per finished domain. For a stack of S models
    these are (S, P) matrices, lam is an (S,) vector and loss one value per
    model; each slice is what the model alone would get.

    loss = (lam / 2) * sum_a sum_i F_a_i (theta_i - theta*_a_i)^2
    grad = lam * sum_a F_a (theta - theta*_a)

    Every anchor is computed at once, and the terms add in anchor order
    from 0.0, so each bit is the one a loop over the anchors gives: the
    gradient's reduce runs its inner loop over the P > 1 parameters, and
    the loss, whose anchor axis a reduce may sum pairwise, accumulates
    from a zero row. A caller that passes a workspace, built from these
    anchors and lam, gets loss and grad in its buffers, overwritten by the
    next call on it; without one, the anchors and lam are checked and a
    one-off workspace is built.
    """
    ws = workspace if workspace is not None else PenaltyWorkspace(model, anchors, lam)
    d = np.subtract(model.params, ws.snapshots, out=ws.diff)
    np.multiply(ws.lam_fisher, d, out=ws.grad_terms)
    np.add.reduce(ws.grad_terms, axis=0, out=ws.grad, initial=0.0)
    np.multiply(d, d, out=d)
    np.multiply(ws.fisher, d, out=d)
    terms = ws.loss_terms[1:]
    np.add.reduce(d, axis=-1, out=terms)
    np.multiply(ws.half_lam, terms, out=terms)
    np.add.accumulate(ws.loss_terms, axis=0, out=ws.loss_sums)
    return ws.loss_sums[-1], ws.grad
