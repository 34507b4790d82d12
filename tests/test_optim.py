"""Optimizer steps: exact SGD arithmetic, Adam against a textbook reference."""

import numpy as np
import pytest

from driftlab import nn
from driftlab.errors import NumericError, ValidationError
from driftlab.optim import ADAM_EPS, OptimizerState, apply_step

import oracles


def tiny_model(fill=0.5):
    w = np.full((2, 2), fill)
    b = np.zeros(2)
    return nn.Classifier([2, 2], [w], [b])


def constant_grads(model, value=1.0):
    return np.full_like(model.params, value)


def test_sgd_step_exact():
    model = tiny_model(fill=1.0)
    state = OptimizerState("sgd", learning_rate=0.1)
    apply_step(model, constant_grads(model, 2.0), state)
    assert np.allclose(model.weights[0], 1.0 - 0.1 * 2.0)
    assert np.allclose(model.biases[0], -0.2)
    assert state.step_count == 1
    assert state.m is None  # sgd never allocates moments


def test_adam_first_step_closed_form():
    # with constant gradient g, bias correction makes the first step
    # exactly -lr * g / (|g| + eps)
    model = tiny_model(fill=0.0)
    state = OptimizerState("adam", learning_rate=0.05)
    g = 2.0
    apply_step(model, constant_grads(model, g), state)
    expected = -0.05 * g / (abs(g) + ADAM_EPS)
    assert np.allclose(model.weights[0], expected, atol=1e-15)
    assert state.step_count == 1


def test_adam_trajectory_matches_reference():
    # quadratic bowl: grad(theta) = theta - target
    target = np.array([1.0, -2.0])
    model = nn.Classifier([1, 2], [np.zeros((1, 2))], [np.zeros(2)])
    state = OptimizerState("adam", learning_rate=0.1)
    steps = 7
    got = []
    for _ in range(steps):
        grad = np.zeros_like(model.params)
        nn.layer_views(model, grad)[0][1][:] = model.biases[0] - target
        apply_step(model, grad, state)
        got.append(model.biases[0].copy())
    want = oracles.reference_adam_trajectory(
        np.zeros(2), lambda th: th - target, lr=0.1, steps=steps)
    for g_step, w_step in zip(got, want):
        assert np.allclose(g_step, w_step, atol=1e-12)


def test_apply_step_dispatches_on_kind():
    m1, m2 = tiny_model(1.0), tiny_model(1.0)
    apply_step(m1, constant_grads(m1, 2.0), OptimizerState("sgd", 0.1))
    adam = OptimizerState("adam", 0.1)
    apply_step(m2, constant_grads(m2, 2.0), adam)
    start = tiny_model(1.0).params
    assert np.array_equal(m1.params, start - 0.1 * 2.0)
    assert np.array_equal(m2.params, start - 0.1 * 2.0 / (2.0 + ADAM_EPS))


def test_non_finite_gradient_is_rejected_naming_the_layer():
    model = tiny_model()
    grad = constant_grads(model)
    nn.layer_views(model, grad)[0][0][0, 0] = np.nan
    with pytest.raises(NumericError, match="layer 0"):
        apply_step(model, grad, OptimizerState("sgd", 0.1))
    deep = nn.init_classifier([2, 3, 2], 0)
    for layer, part in ((0, 1), (1, 0), (1, 1)):
        grad = constant_grads(deep)
        nn.layer_views(deep, grad)[layer][part][-1] = np.inf
        before = deep.params.copy()
        with pytest.raises(NumericError, match=f"layer {layer}"):
            apply_step(deep, grad, OptimizerState("sgd", 0.1))
        assert np.array_equal(deep.params, before)


def test_gradient_shape_mismatch_is_rejected():
    model = tiny_model()
    for grad in (np.zeros(model.params.size + 1), np.zeros((2, 3)),
                 [np.zeros((2, 2)), np.zeros(2)]):
        with pytest.raises(ValidationError):
            apply_step(model, grad, OptimizerState("sgd", 0.1))


def test_bad_constructor_args():
    with pytest.raises(ValidationError):
        OptimizerState("rmsprop", 0.1)
    with pytest.raises(ValidationError):
        OptimizerState("sgd", 0.0)


def test_step_count_increments_once_per_step():
    model = tiny_model()
    state = OptimizerState("adam", 0.01)
    for expected in (1, 2, 3):
        apply_step(model, constant_grads(model), state)
        assert state.step_count == expected
