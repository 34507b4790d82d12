"""The finite-difference checker itself: accepts correct gradients, flags wrong ones."""

import numpy as np
import pytest

from driftlab import nn
from driftlab.errors import ValidationError

from oracles import finite_diff_check


def make_case(seed=0, dims=(4, 6, 3), n=8):
    model = nn.init_classifier(list(dims), seed)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(n, dims[0]))
    y = rng.integers(0, dims[-1], size=n)
    return model, X, y


def test_correct_gradients_pass_tightly():
    model, X, y = make_case()
    assert finite_diff_check(model, X, y, h=1e-5) < 1e-6


def test_sabotaged_gradient_is_detected():
    model, X, y = make_case(seed=2)

    def bad_loss_fn(m):
        loss, grad = nn.loss_and_grad(m, X, y)
        nn.layer_views(m, grad)[0][0][...] += 1e-2
        return loss, grad

    assert finite_diff_check(model, X, y, loss_fn=bad_loss_fn) > 1e-3


def test_custom_loss_fn_with_quadratic_penalty():
    model, X, y = make_case(seed=3)
    anchor = model.params + 0.1

    def loss_fn(m):
        loss, grad = nn.loss_and_grad(m, X, y)
        d = m.params - anchor
        return loss + 0.5 * float((d ** 2).sum()), grad + d

    assert finite_diff_check(model, X, y, loss_fn=loss_fn) < 1e-6


def test_subsampling_kicks_in_for_large_models():
    model, X, y = make_case(seed=4, dims=(10, 40, 5))
    # 10*40 + 40 + 40*5 + 5 = 685 coords; cap below that forces sampling
    err_a = finite_diff_check(model, X, y, max_params=200, seed=7)
    err_b = finite_diff_check(model, X, y, max_params=200, seed=7)
    assert err_a == err_b  # the sampled coordinate subset is seeded
    assert err_a < 1e-6


def test_perturbation_size_is_validated():
    model, X, y = make_case()
    with pytest.raises(ValidationError):
        finite_diff_check(model, X, y, h=0.0)
    with pytest.raises(ValidationError):
        finite_diff_check(model, X, y, h=0.5)


def test_empty_batch_is_rejected():
    model, X, y = make_case()
    with pytest.raises(ValidationError):
        finite_diff_check(model, X[:0], y[:0])


def test_check_leaves_parameters_untouched():
    model, X, y = make_case(seed=5)
    before = model.params.copy()
    finite_diff_check(model, X, y)
    assert np.array_equal(before, model.params)
