"""The flat parameter layout: a Classifier's weight and bias views tile its
one ``params`` vector, survive every way a model is copied, and are what
gradients and checkpoints are cut by."""

import copy
import pickle
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import nn
from driftlab.config import StrategyConfig
from driftlab.strategies import read_arrays, save_checkpoint, strategy_dispatch

layer_dims = st.lists(st.integers(1, 8), min_size=2, max_size=4)


def per_layer_arrays(dims, seed):
    """Independent (W, b) arrays shaped the way the layers were before the
    flat layout: W of (dims[i], dims[i+1]), b of (dims[i+1],)."""
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(fan_in, fan_out)), rng.normal(size=fan_out))
            for fan_in, fan_out in zip(dims[:-1], dims[1:])]


def assert_views_tile(model):
    """Numbering params 0..P-1 must show up in the views as W0, b0, W1, ...
    each index exactly once, and writes through params must reach them."""
    saved = model.params.copy()
    model.params[:] = np.arange(model.params.size)
    seen = np.concatenate([a.ravel() for w, b in zip(model.weights, model.biases)
                           for a in (w, b)])
    assert np.array_equal(seen, np.arange(model.params.size))
    model.params[:] = saved


@settings(max_examples=40, deadline=None)
@given(dims=layer_dims, seed=st.integers(0, 2 ** 16))
def test_views_tile_params_and_survive_every_copy(dims, seed):
    layers = per_layer_arrays(dims, seed)
    model = nn.Classifier(dims, [w for w, _ in layers], [b for _, b in layers])
    assert model.params.dtype == np.float64 and model.params.flags.c_contiguous
    assert_views_tile(model)
    for (w, b), (w0, b0) in zip(zip(model.weights, model.biases), layers):
        assert np.array_equal(w, w0) and np.array_equal(b, b0)

    for twin in (model.copy(), copy.deepcopy(model), pickle.loads(pickle.dumps(model))):
        assert twin.layer_dims == model.layer_dims
        assert not np.shares_memory(twin.params, model.params)
        assert np.array_equal(twin.params, model.params)
        assert_views_tile(twin)
        twin.weights[-1][...] += 1.0
        assert not np.array_equal(twin.params, model.params)


@settings(max_examples=40, deadline=None)
@given(dims=layer_dims, seed=st.integers(0, 2 ** 16))
def test_gradient_views_have_the_per_layer_shapes(dims, seed):
    model = nn.init_classifier(dims, seed)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(5, dims[0]))
    y = rng.integers(0, dims[-1], size=5)
    _, grad = nn.loss_and_grad(model, X, y)
    assert grad.shape == model.params.shape
    shapes = [(dw.shape, db.shape) for dw, db in nn.layer_views(model, grad)]
    assert shapes == [((fan_in, fan_out), (fan_out,))
                      for fan_in, fan_out in zip(dims[:-1], dims[1:])]


@settings(max_examples=25, deadline=None)
@given(dims=layer_dims, seed=st.integers(0, 2 ** 16))
def test_checkpoint_blocks_are_the_per_layer_arrays(dims, seed):
    layers = per_layer_arrays(dims, seed)
    anchor_layers = per_layer_arrays(dims, seed + 1)
    fisher_layers = per_layer_arrays(dims, seed + 2)
    flat = lambda pairs: np.concatenate([a.ravel() for pair in pairs for a in pair])

    strategy = strategy_dispatch("ewc", 0, dims[0], dims[-1], StrategyConfig())
    strategy.model = nn.Classifier(dims, [w for w, _ in layers], [b for _, b in layers])
    strategy.anchors.append((flat(anchor_layers), flat(fisher_layers)))
    with tempfile.TemporaryDirectory() as out:
        save_checkpoint(strategy, out)
        arrays = read_arrays(Path(out) / "checkpoint.txt")

    want = {}
    for i, (w, b) in enumerate(layers):
        want.update({f"model.W{i}": w, f"model.b{i}": b})
    for i, ((w, b), (fw, fb)) in enumerate(zip(anchor_layers, fisher_layers)):
        want.update({f"anchor0.W{i}": w, f"anchor0.b{i}": b,
                     f"anchor0.FW{i}": fw, f"anchor0.Fb{i}": fb})
    assert list(arrays) == list(want)
    for name, arr in want.items():
        assert arrays[name].dtype == arr.dtype and arrays[name].shape == arr.shape
        assert np.array_equal(arrays[name], arr), name
