"""Training loop semantics, Fisher estimation, and the anchor penalty."""

import numpy as np
import pytest

from driftlab import nn
from driftlab.benchmarks import LabeledSet
from driftlab.errors import NumericError, ValidationError
from driftlab.optim import OptimizerState
from driftlab.benchmarks import BenchmarkConfig, StreamGuard, build_stream
from driftlab.config import StrategyConfig
from driftlab.strategies import strategy_dispatch
from driftlab.training import (estimate_fisher_diag, ewc_penalty,
                               train_classifier)

import oracles


def separable_data(seed=0, n=80):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal((-2.0, 0.0), 0.5, (n // 2, 2)),
                   rng.normal((2.0, 0.0), 0.5, (n // 2, 2))])
    y = np.repeat([0, 1], n // 2)
    return LabeledSet(X, y)


def fresh_model(seed=1, dims=(2, 8, 2)):
    return nn.init_classifier(list(dims), seed)


def test_zero_epochs_is_a_no_op():
    model = fresh_model()
    before = model.params.copy()
    log = train_classifier(model, separable_data(), epochs=0, batch_size=16,
                           opt=OptimizerState("adam", 0.01), seed=0)
    assert log.n_steps == 0
    assert log.epoch_losses.shape == (0,)
    assert np.array_equal(before, model.params)


def test_training_is_deterministic_in_seed():
    data = separable_data()
    m1, m2, m3 = fresh_model(), fresh_model(), fresh_model()
    for m, seed in ((m1, 5), (m2, 5), (m3, 6)):
        train_classifier(m, data, epochs=3, batch_size=16,
                         opt=OptimizerState("adam", 0.01), seed=seed)
    assert np.array_equal(m1.params, m2.params)
    assert not np.array_equal(m1.weights[0], m3.weights[0])


def test_loss_falls_on_separable_data():
    model = fresh_model()
    log = train_classifier(model, separable_data(), epochs=10, batch_size=16,
                           opt=OptimizerState("adam", 0.01), seed=1)
    assert log.epoch_losses[-1] < log.epoch_losses[0]
    assert log.epoch_losses[-1] < 0.1
    assert log.n_steps == 10 * 5  # 80 samples / batch 16


def test_labels_outside_model_range_are_rejected():
    model = fresh_model()
    data = LabeledSet(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
    with pytest.raises(ValidationError):
        train_classifier(model, data, epochs=1, batch_size=2,
                         opt=OptimizerState("adam", 0.01), seed=0)


def test_zero_penalty_hook_changes_nothing():
    data = separable_data()
    plain, hooked = fresh_model(), fresh_model()
    zero = lambda m: (0.0, np.zeros_like(m.params))
    train_classifier(plain, data, epochs=3, batch_size=16,
                     opt=OptimizerState("adam", 0.01), seed=2)
    train_classifier(hooked, data, epochs=3, batch_size=16,
                     opt=OptimizerState("adam", 0.01), seed=2, penalty=zero)
    assert np.array_equal(plain.params, hooked.params)


def test_penalty_gradients_are_applied():
    data = separable_data()
    plain, hooked = fresh_model(), fresh_model()
    pull = lambda m: (0.0, np.full_like(m.params, 0.1))
    train_classifier(plain, data, epochs=1, batch_size=80,
                     opt=OptimizerState("sgd", 0.5), seed=2)
    train_classifier(hooked, data, epochs=1, batch_size=80,
                     opt=OptimizerState("sgd", 0.5), seed=2, penalty=pull)
    assert not np.array_equal(plain.weights[0], hooked.weights[0])


def test_non_finite_loss_is_reported_with_location():
    model = fresh_model()
    bad = lambda m: (np.inf, np.zeros_like(m.params))
    with pytest.raises(NumericError, match="epoch 0, batch 0"):
        train_classifier(model, separable_data(), epochs=1, batch_size=16,
                         opt=OptimizerState("adam", 0.01), seed=0, penalty=bad)


# ---------------------------------------------------------------------------
# Fisher estimation
# ---------------------------------------------------------------------------


def test_fisher_is_nonnegative_and_shaped_like_params():
    model = fresh_model()
    data = separable_data()
    fisher = estimate_fisher_diag(model, data, seed=3)
    assert fisher.shape == model.params.shape
    assert (fisher >= 0).all()


def test_fisher_with_deterministic_predictive_matches_closed_form():
    # a linear model with huge logit separation: the sampled label is the
    # argmax with probability ~1, so the estimate equals the closed-form
    # single-sample gradient squares
    W = np.array([[30.0, -30.0], [0.0, 0.0]])
    b = np.zeros(2)
    model = nn.Classifier([2, 2], [W.copy()], [b.copy()])
    X = np.array([[1.0, 0.2], [-1.0, -0.4], [2.0, 1.0]])
    data = LabeledSet(X, np.zeros(3, dtype=int))
    fisher = estimate_fisher_diag(model, data, seed=0)
    want_w = np.zeros_like(W)
    want_b = np.zeros_like(b)
    for x in X:
        y_hat = int(np.argmax(x @ W + b))
        gw, gb = oracles.linear_softmax_grad(W, b, x, y_hat)
        want_w += gw ** 2
        want_b += gb ** 2
    (fw, fb), = nn.layer_views(model, fisher)
    assert np.allclose(fw, want_w / 3, atol=1e-12)
    assert np.allclose(fb, want_b / 3, atol=1e-12)


def test_fisher_approaches_expected_fisher_on_large_samples():
    rng = np.random.default_rng(8)
    W = rng.normal(size=(2, 2)) * 0.5
    b = rng.normal(size=2) * 0.1
    X = rng.normal(size=(1500, 2))
    model = nn.Classifier([2, 2], [W.copy()], [b.copy()])
    fisher = estimate_fisher_diag(model, LabeledSet(X, np.zeros(1500, dtype=int)), seed=4)
    want_w, want_b = oracles.expected_fisher_linear_softmax(W, b, X)
    (fw, fb), = nn.layer_views(model, fisher)
    assert np.allclose(fw, want_w, rtol=0.15, atol=0.01)
    assert np.allclose(fb, want_b, rtol=0.15, atol=0.01)


def test_fisher_subsample_bounds():
    model = fresh_model()
    data = separable_data(n=20)
    estimate_fisher_diag(model, data, seed=0, n_samples=5)
    with pytest.raises(ValidationError):
        estimate_fisher_diag(model, data, seed=0, n_samples=0)
    with pytest.raises(ValidationError):
        estimate_fisher_diag(model, data, seed=0, n_samples=21)


# ---------------------------------------------------------------------------
# Anchor penalty
# ---------------------------------------------------------------------------


def unit_fisher(model):
    return np.ones_like(model.params)


def test_penalty_worked_example():
    # theta - theta* = (1, -1), unit fisher, lam = 1 -> loss exactly 1.0
    model = nn.Classifier([1, 2], [np.array([[1.0, -1.0]])], [np.zeros(2)])
    anchor = nn.Classifier([1, 2], [np.array([[0.0, 0.0]])], [np.zeros(2)])
    loss, grad = ewc_penalty(model, [(anchor.params.copy(), unit_fisher(anchor))], 1.0)
    assert loss == 1.0
    assert np.array_equal(grad, np.array([1.0, -1.0, 0.0, 0.0]))


def test_penalty_vanishes_at_lam_zero_or_without_anchors():
    model = fresh_model()
    loss, grad = ewc_penalty(model, [], 5.0)
    assert loss == 0.0
    assert grad.shape == model.params.shape and not grad.any()
    loss, grad = ewc_penalty(model, [(model.params + 1.0, unit_fisher(model))], 0.0)
    assert loss == 0.0
    assert grad.shape == model.params.shape and not grad.any()


def test_penalty_sums_over_anchors():
    model = nn.Classifier([1, 1], [np.array([[2.0]])], [np.zeros(1)])
    anchor = nn.Classifier([1, 1], [np.array([[0.0]])], [np.zeros(1)])
    anchors = [(anchor.params.copy(), unit_fisher(anchor))] * 2
    loss, grad = ewc_penalty(model, anchors, 1.0)
    assert loss == 2.0 * (0.5 * 4.0)  # two identical anchors
    assert np.array_equal(grad, [4.0, 0.0])


def test_penalty_rejects_mismatched_anchor_shapes():
    model = fresh_model(dims=(2, 4, 2))
    other = fresh_model(dims=(2, 6, 2))
    with pytest.raises(ValidationError):
        ewc_penalty(model, [(other.params.copy(), unit_fisher(other))], 1.0)


def test_penalty_negative_lam_rejected():
    model = fresh_model()
    with pytest.raises(ValidationError):
        ewc_penalty(model, [], -0.5)


def test_snapshot_is_decoupled_from_the_live_model():
    # ewc's anchor for domain 0 must not follow the model through domain 1
    bench = BenchmarkConfig(n_domains=2, class_means=[[0.0, -1.5], [0.0, 1.5]],
                            domain_shift=[6.0, 0.0], n_train=40, n_val=10, n_test=10)
    stream = build_stream(bench, seed=3)
    ewc = strategy_dispatch("ewc", 5, stream.dim, stream.n_classes,
                            StrategyConfig(hidden=[4], epochs=2, batch_size=16))
    guard = StreamGuard(stream)
    guard.advance(0)
    ewc.train_on_domain(0, guard)
    anchor, _ = ewc.anchors[0]
    after_domain0 = ewc.model.params.copy()
    assert np.array_equal(anchor, after_domain0)
    guard.advance(1)
    ewc.train_on_domain(1, guard)
    assert np.array_equal(anchor, after_domain0)
    assert not np.array_equal(anchor, ewc.model.params)
