"""Central-difference validation of analytic gradients.

This is the independent check that backpropagation (and any penalty terms
added to it) differentiates what it claims to. It re-evaluates the loss at
theta +/- h per coordinate and never looks at how the analytic gradient was
produced.
"""

from __future__ import annotations

import numpy as np

from . import nn
from .errors import ValidationError
from .rng import make_rng

# Loss values are O(1) (cross-entropy of a few classes), so gradients below
# this scale are treated as zero when forming the relative error. Without a
# floor, rounding noise of ~1e-12 in the difference quotient would dominate
# the ratio for dead parameters.
REL_FLOOR = 1e-3


def finite_diff_check(model, batch, labels, h: float = 1e-5, *,
                      loss_fn=None, max_params: int = 2000, seed: int = 0) -> float:
    """Max relative discrepancy between analytic and central-difference gradients.

    ``loss_fn(model) -> (loss, grad)``, with grad in the layout of
    ``model.params``, defaults to mean cross-entropy on (batch, labels);
    pass a custom one to check an augmented loss. All parameters are
    checked when the model has at most ``max_params``; otherwise a seeded
    random subset of max(100, max_params) coordinates.

    Relative error per coordinate is |a - n| / max(|a|, |n|, REL_FLOOR).
    """
    if not (0.0 < h <= 1e-2):
        raise ValidationError(f"perturbation h must lie in (0, 1e-2], got {h}")
    if loss_fn is None:
        x = np.asarray(batch, dtype=float)
        y = np.asarray(labels)
        if x.shape[0] == 0:
            raise ValidationError("empty batch")

        def loss_fn(m):
            return nn.loss_and_grad(m, x, y)

    _, analytic = loss_fn(model)
    params = model.params
    coords = range(params.size)
    if params.size > max_params:
        rng = make_rng(seed, "gradcheck")
        coords = sorted(rng.choice(params.size, size=max(100, max_params), replace=False))

    worst = 0.0
    for k in coords:
        original = params[k]
        params[k] = original + h
        loss_plus, _ = loss_fn(model)
        params[k] = original - h
        loss_minus, _ = loss_fn(model)
        params[k] = original

        numeric = (loss_plus - loss_minus) / (2.0 * h)
        a = analytic[k]
        rel = abs(a - numeric) / max(abs(a), abs(numeric), REL_FLOOR)
        if rel > worst:
            worst = rel
    return worst
