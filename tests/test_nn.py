"""Classifier forward/backward against an independent reference implementation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab import nn
from driftlab.errors import ShapeError, ValidationError
from driftlab.optim import OptimizerState, apply_step

import oracles


def small_model(dims=(3, 5, 4), seed=11):
    return nn.init_classifier(list(dims), seed)


def random_batch(model, n=6, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, model.n_inputs))
    y = rng.integers(0, model.n_outputs, size=n)
    return X, y


def test_init_shapes_and_zero_biases():
    model = small_model((4, 7, 3))
    assert [w.shape for w in model.weights] == [(4, 7), (7, 3)]
    assert [b.shape for b in model.biases] == [(7,), (3,)]
    assert all(not b.any() for b in model.biases)


def test_init_deterministic_in_seed():
    a = small_model(seed=3)
    b = small_model(seed=3)
    c = small_model(seed=4)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_he_scale():
    # std of a fan_in=200 layer should sit near sqrt(2/200)
    model = nn.init_classifier([200, 300], 0)
    std = model.weights[0].std()
    assert 0.8 * np.sqrt(2 / 200) < std < 1.2 * np.sqrt(2 / 200)


def test_forward_matches_reference():
    model = small_model()
    X, _ = random_batch(model)
    got = nn.forward(model, X)
    want = oracles.mlp_logits(model.weights, model.biases, X)
    assert np.array_equal(got, want)


def test_forward_rejects_bad_shapes():
    model = small_model()
    with pytest.raises(ShapeError):
        nn.forward(model, np.zeros((4, model.n_inputs + 1)))
    with pytest.raises(ShapeError):
        nn.forward(model, np.zeros(model.n_inputs))


def test_softmax_rows_sum_to_one_and_survive_huge_logits():
    logits = np.array([[1e4, 0.0, -1e4], [3.0, 3.0, 3.0]])
    probs = nn.softmax(logits)
    assert np.isfinite(probs).all()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs[0, 0] > 0.999


def test_loss_matches_reference_cross_entropy():
    model = small_model()
    X, y = random_batch(model)
    loss, _ = nn.loss_and_grad(model, X, y)
    want = oracles.mlp_cross_entropy(model.weights, model.biases, X, y)
    assert abs(loss - want) < 1e-12


def test_grads_match_independent_finite_differences():
    model = small_model((3, 4, 3), seed=21)
    X, y = random_batch(model, n=5, seed=9)
    _, grad = nn.loss_and_grad(model, X, y)
    numeric = oracles.numeric_mlp_grads(model.weights, model.biases, X, y)
    for (dw, db), (nw, nb) in zip(nn.layer_views(model, grad), numeric):
        assert np.allclose(dw, nw, atol=1e-7)
        assert np.allclose(db, nb, atol=1e-7)


def test_grad_shapes_mirror_parameters():
    model = small_model()
    X, y = random_batch(model)
    _, grad = nn.loss_and_grad(model, X, y)
    assert grad.shape == model.params.shape
    views = nn.layer_views(model, grad)
    assert len(views) == model.n_layers
    for (dw, db), w, b in zip(views, model.weights, model.biases):
        assert dw.shape == w.shape and db.shape == b.shape


def test_loss_and_grad_validates_labels_and_batches():
    model = small_model()
    X, y = random_batch(model)
    with pytest.raises(ValidationError):
        nn.loss_and_grad(model, X[:0], y[:0])
    with pytest.raises(ValidationError):
        nn.loss_and_grad(model, X, np.full(len(y), model.n_outputs))
    with pytest.raises(ShapeError):
        nn.loss_and_grad(model, X, y[:-1])
    # float labels would fail as indices; bool labels would pass as 0 and 1
    for labels in (y.astype(float), y == 1):
        with pytest.raises(ValidationError, match="integers"):
            nn.loss_and_grad(model, X, labels)


def test_predict_is_argmax_of_forward():
    model = small_model()
    X, _ = random_batch(model, n=20)
    assert np.array_equal(nn.predict(model, X), np.argmax(nn.forward(model, X), axis=1))


def test_copy_is_independent():
    model = small_model()
    clone = model.copy()
    clone.weights[0][0, 0] += 1.0
    assert model.weights[0][0, 0] != clone.weights[0][0, 0]


def test_no_hidden_layer_model_is_linear():
    model = nn.init_classifier([4, 3], 2)
    X = np.random.default_rng(0).normal(size=(5, 4))
    assert np.allclose(nn.forward(model, X), X @ model.weights[0] + model.biases[0])


@given(data=st.data(), S=st.integers(1, 4),
       hidden=st.lists(st.integers(1, 6), min_size=0, max_size=2),
       d=st.integers(1, 5), n_classes=st.integers(2, 4), batch_size=st.integers(2, 9),
       kind=st.sampled_from(["sgd", "adam"]), seed=st.integers(0, 2 ** 16))
def test_reused_workspaces_match_the_allocating_kernels(data, S, hidden, d, n_classes,
                                                        batch_size, kind, seed):
    # full batches and ragged ones take turns, each shape on one workspace,
    # so a value left over from an earlier step would show; the last is ragged
    ragged = data.draw(st.integers(1, batch_size - 1))
    sizes = [*data.draw(st.lists(st.sampled_from([batch_size, ragged]), min_size=1,
                                 max_size=5)), ragged]
    dims = [d, *hidden, n_classes]
    rng = np.random.default_rng(seed)
    stacked = nn.stack([nn.init_classifier(dims, seed + s) for s in range(S)])
    alone = nn.stack([nn.init_classifier(dims, seed + s) for s in range(S)])
    spaces = {k: nn.Workspace(stacked, (S, k)) for k in (batch_size, ragged)}
    opt, moments = OptimizerState(kind, 0.05), [np.zeros_like(alone.params) for _ in "mv"]
    for t, k in enumerate(sizes, start=1):
        x = rng.normal(size=(S, k, d)) * 2.0
        y = rng.integers(0, n_classes, size=(S, k))
        loss, grad = nn.loss_and_grad(stacked, x, y, workspace=spaces[k])
        want_loss, want_grad = oracles.loss_and_grad_allocating(alone, x, y)
        assert np.array_equal(loss, want_loss) and np.array_equal(grad, want_grad)
        apply_step(stacked, grad, opt)
        oracles.step_allocating(alone.params, want_grad, kind, 0.05, moments, t)
        assert np.array_equal(stacked.params, alone.params)
