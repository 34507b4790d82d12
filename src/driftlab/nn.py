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

    Hidden activations are ReLU; the final layer emits raw logits. All
    parameters live in one float64 vector ``params`` laid out W0, b0, W1,
    b1, ...; ``weights[i]`` and ``biases[i]`` are views into it, and it
    owns its memory. ``stack`` copies S models of the same dims into one
    (S, P) matrix, whose weights and biases carry a leading seed axis;
    training writes each trained row back into its model's ``params``.
    """

    def __init__(self, layer_dims, weights, biases):
        if len(layer_dims) < 2:
            raise ValidationError(f"layer_dims needs at least [input, output], got {layer_dims}")
        self.layer_dims = [int(d) for d in layer_dims]
        arrays = [np.asarray(a, dtype=float) for pair in zip(weights, biases) for a in pair]
        self._bind(np.concatenate([a.ravel() for a in arrays]))
        if [a.shape for a in arrays] != [v.shape for pair in zip(self.weights, self.biases)
                                         for v in pair]:
            raise ShapeError(f"parameter shapes {[a.shape for a in arrays]} do not fit "
                             f"layer_dims {self.layer_dims}")

    def _bind(self, params: np.ndarray):
        """Make ``params`` (a vector, or an (S, P) matrix for a stack) this
        model's parameters, with weights and biases as views into it."""
        views = layer_views(self, params)
        self.params = params
        self.weights = [w for w, _ in views]
        self.biases = [b for _, b in views]

    def __reduce__(self):
        return Classifier, (self.layer_dims, self.weights, self.biases)

    @property
    def n_inputs(self) -> int:
        return self.layer_dims[0]

    @property
    def n_outputs(self) -> int:
        return self.layer_dims[-1]

    @property
    def n_layers(self) -> int:
        return len(self.layer_dims) - 1

    def copy(self) -> "Classifier":
        return Classifier(self.layer_dims, self.weights, self.biases)

    def predict(self, batch: np.ndarray) -> np.ndarray:
        return predict(self, batch)

    def arrays(self, tag: str):
        """(name, array) per layer, ``<tag>.W<i>`` then ``<tag>.b<i>``: the
        checkpoint blocks of this model."""
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            yield f"{tag}.W{i}", w
            yield f"{tag}.b{i}", b


def layer_views(model: Classifier, vec: np.ndarray):
    """[(W, b), ...] per layer: reshaped views into a vector in the layout
    of ``model.params``, so writing a view writes the vector. An (S, P)
    matrix of S such vectors gives views with a leading seed axis."""
    dims = model.layer_dims
    size = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    if vec.ndim not in (1, 2) or vec.shape[-1] != size:
        raise ShapeError(f"expected a vector of {size} parameters, got shape {vec.shape}")
    lead = vec.shape[:-1]
    views, start = [], 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        mid = start + fan_in * fan_out
        views.append((vec[..., start:mid].reshape(*lead, fan_in, fan_out),
                      vec[..., mid:mid + fan_out]))
        start = mid + fan_out
    return views


def stack(models) -> Classifier:
    """One Classifier over S models of the same layer_dims.

    Its ``params`` is an (S, P) matrix holding a copy of models[s].params
    in row s; the models are left alone. Batches for it carry the same
    leading seed axis.
    """
    dims = models[0].layer_dims
    if any(m.layer_dims != dims for m in models):
        raise ShapeError(f"cannot stack models of layer_dims "
                         f"{sorted({tuple(m.layer_dims) for m in models})}")
    stacked = Classifier.__new__(Classifier)
    stacked.layer_dims = list(dims)
    stacked._bind(np.stack([m.params for m in models]))
    return stacked


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
    want = (*model.params.shape[:-1], "n", model.n_inputs)
    if batch.ndim != len(want) or batch.shape[:-2] != want[:-2] \
            or batch.shape[-1] != model.n_inputs:
        raise ShapeError(f"expected batch of shape ({', '.join(map(str, want))}), "
                         f"got {batch.shape}")
    return batch


def _check_labels(model: Classifier, x: np.ndarray, labels) -> np.ndarray:
    y = np.asarray(labels)
    if y.dtype.kind not in "iu":
        raise ValidationError(f"labels must be integers, got dtype {y.dtype}")
    if x.shape[-2] == 0:
        raise ValidationError("empty batch")
    if y.shape != x.shape[:-1]:
        raise ShapeError(f"expected labels of shape {x.shape[:-1]}, got {y.shape}")
    c = model.n_outputs
    if y.min() < 0 or y.max() >= c:
        raise ValidationError(f"labels must lie in [0, {c}), got range [{y.min()}, {y.max()}]")
    return y


def _activations(model: Classifier, x: np.ndarray, out=None) -> list:
    """Post-activation values of every layer: the input first, logits last;
    written into ``out``, one buffer per layer, when it is given."""
    acts = [x]
    last = model.n_layers - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.matmul(acts[-1], w, out=None if out is None else out[i])
        a += b[..., None, :]
        if i < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def forward(model: Classifier, batch: np.ndarray) -> np.ndarray:
    """Logits for a batch, shape (n, C). Deterministic; no dropout anywhere."""
    return _activations(model, _check_batch(model, batch))[-1]


class Workspace:
    """Buffers for backprop on batches of one shape, (n,) for one model,
    (S, n) for a stack, (rows, 1) for a stack of one-row batches: each
    layer's activations, the exps and deltas, the ReLU masks, and ``grad``,
    (*shape[:-1], P), with its layer ``views``. Each use overwrites them."""

    def __init__(self, model: Classifier, shape):
        hidden = model.layer_dims[1:-1]
        self.grad = np.empty((*shape[:-1], model.params.shape[-1]))
        self.views = layer_views(model, self.grad)
        self.acts = [np.empty((*shape, d)) for d in model.layer_dims[1:]]
        self.deltas = [np.empty((*shape, d)) for d in hidden]
        self.masks = [np.empty((*shape, d), dtype=bool) for d in hidden]
        self.exps = np.empty((*shape, model.n_outputs))
        self.col = np.empty((*shape, 1))
        # where each row starts in the logits flattened to one vector
        self.starts = np.arange(np.prod(shape, dtype=np.intp)) * model.n_outputs


def loss_and_grad(model: Classifier, batch: np.ndarray, labels: np.ndarray, *,
                  workspace: Workspace = None):
    """Mean softmax cross-entropy and its exact gradients.

    Returns (loss, grad) with grad one vector in the layout of
    ``model.params``. For a stack of S models, batch is (S, n, d), labels
    (S, n), loss an (S,) vector and grad an (S, P) matrix; each slice is
    computed exactly as the single model would compute it. A caller that
    passes a workspace, built for the labels' shape, has checked the sets
    its batches come from: the checks are skipped, and grad is the
    workspace's buffer, overwritten by the next call on it. Without one,
    the batch and labels are checked and grad is a fresh array.

    Forward caches post-activation values per layer; backward applies the
    standard recursion. At the output, dL/dlogits = (softmax - onehot) / n.
    """
    ws = workspace
    if ws is None:
        batch = _check_batch(model, batch)
        labels = _check_labels(model, batch, labels)
        ws = Workspace(model, labels.shape)
    n, c = batch.shape[-2], model.n_outputs
    activations = _activations(model, batch, ws.acts)
    # the logits turn into log-probabilities in place; the row max is exact,
    # and a -0.0/0.0 tie cannot outlive the log-sum-exp, so any order serves
    logits, col = activations[-1], ws.col
    np.maximum(logits[..., :1], logits[..., -1:], out=col)
    for j in range(1, c - 1):
        np.maximum(col, logits[..., j:j + 1], out=col)
    np.subtract(logits, col, out=logits)
    np.add.reduce(np.exp(logits, out=ws.exps), axis=-1, keepdims=True, out=col)
    np.subtract(logits, np.log(col, out=col), out=logits)
    # each row's label entry, over every slice's logits flattened to one vector
    picked = np.add(ws.starts, labels.reshape(-1), dtype=np.intp)
    loss = -np.add.reduce(logits.reshape(-1)[picked].reshape(labels.shape), axis=-1) / n

    delta = np.exp(logits, out=ws.exps)
    delta.reshape(-1)[picked] -= 1.0
    delta /= n

    for i in range(model.n_layers - 1, -1, -1):
        dw, db = ws.views[i]
        np.matmul(activations[i].mT, delta, out=dw)
        np.add.reduce(delta, axis=-2, out=db)
        if i > 0:
            delta = np.matmul(delta, model.weights[i].mT, out=ws.deltas[i - 1])
            delta *= np.greater(activations[i], 0.0, out=ws.masks[i - 1])
    return loss, ws.grad


def predict(model: Classifier, batch: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties resolve to the lowest index."""
    return np.argmax(forward(model, batch), axis=1)
