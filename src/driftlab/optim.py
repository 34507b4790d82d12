"""SGD and Adam steps over a Classifier's flat parameter vector."""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError
from .nn import Classifier, layer_views

# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class OptimizerState:
    """Per-model optimizer state.

    kind is "sgd" or "adam". Adam keeps first/second moments shaped like
    ``Classifier.params`` (an (S, P) matrix for a stack of S models), two
    buffers of that shape for each step's temporaries, and a step counter;
    SGD keeps only the counter. The counter increments by
    exactly one per applied step.
    """

    def __init__(self, kind: str, learning_rate: float):
        if kind not in ("sgd", "adam"):
            raise ValidationError(f"unknown optimizer kind {kind!r}; expected 'sgd' or 'adam'")
        if learning_rate <= 0:
            raise ValidationError(f"learning_rate must be positive, got {learning_rate}")
        self.kind = kind
        self.learning_rate = float(learning_rate)
        self.step_count = 0
        self.m = None
        self.v = None
        self.scratch = None


def apply_step(model: Classifier, grad: np.ndarray, state: OptimizerState) -> Classifier:
    """One in-place step on ``model.params`` with a gradient in its layout.

    SGD: theta <- theta - lr * g. Adam: bias-corrected,
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps). Every operation is
    elementwise, so a stack's (S, P) step gives each row the bits of that
    model's own step.
    """
    if not isinstance(grad, np.ndarray) or grad.shape != model.params.shape:
        raise ValidationError(f"expected a gradient of shape {model.params.shape}")
    if not np.isfinite(grad).all():
        size = grad.shape[-1]
        bad = np.flatnonzero(~np.isfinite(grad))[0] % size
        index = layer_views(model, np.arange(size))
        layer = next(i for i, (_, b) in enumerate(index) if bad <= b[-1])
        raise NumericError(f"non-finite gradient at layer {layer}")
    state.step_count += 1
    if state.kind == "sgd":
        model.params -= state.learning_rate * grad
        return model
    if state.m is None:
        state.m, state.v = np.zeros_like(grad), np.zeros_like(grad)
        state.scratch = np.empty_like(grad), np.empty_like(grad)
    t = state.step_count
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPS
    m, v, (num, den) = state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(1 - b1, grad, out=num)
    v *= b2
    v += np.multiply(np.multiply(1 - b2, grad, out=num), grad, out=num)
    # params -= (lr * (m / c1)) / (sqrt(v / c2) + eps), in that order
    np.multiply(lr, np.divide(m, 1.0 - b1 ** t, out=num), out=num)
    np.sqrt(np.divide(v, 1.0 - b2 ** t, out=den), out=den)
    den += eps
    model.params -= np.divide(num, den, out=num)
    return model
