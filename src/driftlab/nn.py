"""Dense feedforward classifier with analytic backpropagation.

The one network family used everywhere: experts, domain routers, and every
baseline classifier are instances of ``Classifier``. Hidden layers use a
rectifier, the output layer is linear (logits), and the loss is mean softmax
cross-entropy. Everything is float64; softmax subtracts the row max before
exponentiating so gradient checks stay tight.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError
from .rng import make_rng


class Classifier:
    """An MLP: ``layer_dims = [d, h1, ..., C]``, weights[i] of shape (dims[i], dims[i+1]).

    Hidden activations are ReLU; the final layer emits raw logits.
    Instances are mutated only by optimizer steps.
    """

    def __init__(self, layer_dims, weights, biases):
        if len(layer_dims) < 2:
            raise ValidationError(f"layer_dims needs at least [input, output], got {layer_dims}")
        self.layer_dims = [int(d) for d in layer_dims]
        self.weights = weights
        self.biases = biases

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def copy(self) -> "Classifier":
        return Classifier(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


def init_classifier(layer_dims, seed: int) -> Classifier:
    """He-scaled normal weights, zero biases, drawn from a derived stream."""
    rng = make_rng(seed, "init")
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return Classifier(layer_dims, weights, biases)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    return exps / exps.sum(axis=1, keepdims=True)


def _check_batch(model: Classifier, batch: np.ndarray) -> np.ndarray:
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != model.n_inputs:
        raise ShapeError(
            f"expected batch of shape (n, {model.n_inputs}), got {batch.shape}"
        )
    return batch


def forward(model: Classifier, batch: np.ndarray) -> np.ndarray:
    """Logits for a batch, shape (n, C). Deterministic; no dropout anywhere."""
    a = _check_batch(model, batch)
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def loss_and_grad(model: Classifier, batch: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy and its exact gradients.

    Forward caches post-activation values per layer; backward applies the
    standard recursion. At the output, dL/dlogits = (softmax - onehot) / n.

    Returns (loss, grads) with grads a list of (dW, db) shaped like the
    parameters.
    """
    x = _check_batch(model, batch)
    y = np.asarray(labels)
    n = x.shape[0]
    if n == 0:
        raise ValidationError("empty batch")
    if y.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {y.shape}")
    c = model.n_outputs
    if y.min() < 0 or y.max() >= c:
        raise ValidationError(f"labels must lie in [0, {c}), got range [{y.min()}, {y.max()}]")

    last = model.n_layers - 1
    activations = [x]
    a = x
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
        activations.append(a)

    logits = activations[-1]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -log_probs[np.arange(n), y].mean()

    delta = np.exp(log_probs)
    delta[np.arange(n), y] -= 1.0
    delta /= n

    grads = [None] * model.n_layers
    for i in range(last, -1, -1):
        a_prev = activations[i]
        grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
        if i > 0:
            delta = (delta @ model.weights[i].T) * (activations[i] > 0.0)
    return loss, grads


def predict(model: Classifier, batch: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(forward(model, batch), axis=1)
