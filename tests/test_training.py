"""Training loop semantics, Fisher estimation, and the anchor penalty."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import nn
from driftlab.benchmarks import LabeledSet
from driftlab.errors import NumericError, ShapeError, ValidationError
from driftlab.optim import OptimizerState
from driftlab.benchmarks import BenchmarkConfig, StreamGuard, build_stream
from driftlab.config import StrategyConfig
from driftlab.strategies import strategy_dispatch
from driftlab.training import (PenaltyWorkspace, TrainRequest, estimate_fisher_diag,
                               ewc_penalty, train_classifier)

import oracles


def separable_data(seed=0, n=80):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal((-2.0, 0.0), 0.5, (n // 2, 2)),
                   rng.normal((2.0, 0.0), 0.5, (n // 2, 2))])
    y = np.repeat([0, 1], n // 2)
    return LabeledSet(X, y)


def fresh_model(seed=1, dims=(2, 8, 2)):
    return nn.init_classifier(list(dims), seed)


def request(model, data, *, epochs=1, batch_size=16, optimizer="adam", learning_rate=0.01,
            seed=0, anchors=(), lam=0.0):
    return TrainRequest(model, data, epochs, batch_size, optimizer, learning_rate, seed,
                        anchors, lam)


def test_zero_epochs_is_a_no_op():
    model = fresh_model()
    before = model.params.copy()
    log = train_classifier([request(model, separable_data(), epochs=0)])
    assert log.n_steps == 0
    assert log.epoch_losses.shape == (1, 0)
    assert np.array_equal(before, model.params)


def test_training_is_deterministic_in_seed():
    data = separable_data()
    m1, m2, m3 = fresh_model(), fresh_model(), fresh_model()
    for m, seed in ((m1, 5), (m2, 5), (m3, 6)):
        train_classifier([request(m, data, epochs=3, seed=seed)])
    assert np.array_equal(m1.params, m2.params)
    assert not np.array_equal(m1.weights[0], m3.weights[0])


def test_loss_falls_on_separable_data():
    model = fresh_model()
    log = train_classifier([request(model, separable_data(), epochs=10, seed=1)])
    losses, = log.epoch_losses
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.1
    assert log.n_steps == 10 * 5  # 80 samples / batch 16


def test_labels_outside_model_range_are_rejected():
    model = fresh_model()
    data = LabeledSet(np.zeros((4, 2)), np.array([0, 1, 2, 0]))
    with pytest.raises(ValidationError):
        train_classifier([request(model, data, batch_size=2)])


def test_anchors_at_zero_lam_change_nothing():
    data = separable_data()
    plain, anchored = fresh_model(), fresh_model()
    anchors = [(fresh_model(seed=7).params, unit_fisher(plain))]
    train_classifier([request(plain, data, epochs=3, seed=2)])
    train_classifier([request(anchored, data, epochs=3, seed=2, anchors=anchors, lam=0.0)])
    assert np.array_equal(plain.params, anchored.params)


def test_penalty_gradients_are_applied():
    data = separable_data()
    plain, anchored = fresh_model(), fresh_model()
    anchors = [(fresh_model(seed=7).params, unit_fisher(plain))]
    sgd = dict(epochs=1, batch_size=80, optimizer="sgd", learning_rate=0.5, seed=2)
    train_classifier([request(plain, data, **sgd)])
    train_classifier([request(anchored, data, **sgd, anchors=anchors, lam=1.0)])
    assert not np.array_equal(plain.weights[0], anchored.weights[0])


def test_non_finite_loss_is_reported_with_location():
    model = fresh_model()
    anchors = [(model.params + 1.0, np.full_like(model.params, np.inf))]
    with pytest.raises(NumericError, match="epoch 0, batch 0"):
        train_classifier([request(model, separable_data(), anchors=anchors, lam=1.0)])


@settings(max_examples=80, deadline=None)
@given(data=st.data(), S=st.integers(1, 4),
       dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       n_classes=st.integers(2, 4), batch_size=st.integers(2, 9),
       full_batches=st.integers(0, 3), epochs=st.integers(0, 3),
       kind=st.sampled_from(["sgd", "adam"]), seed=st.integers(0, 2 ** 16),
       n_anchors=st.integers(0, 3))
def test_lockstep_matches_the_per_model_loop(data, S, dims, n_classes, batch_size,
                                             full_batches, epochs, kind, seed, n_anchors):
    # the last batch is ragged: 1 to batch_size - 1 rows
    n = full_batches * batch_size + data.draw(st.integers(1, batch_size - 1))
    dims = [*dims, n_classes]
    rng = np.random.default_rng(seed)
    sets = [LabeledSet(rng.normal(size=(n, dims[0])), rng.integers(0, n_classes, n))
            for _ in range(S)]
    seeds = [seed + s for s in range(S)]
    # an EWC penalty with a lam and n_anchors anchors of its own per model
    size = nn.init_classifier(dims, 0).params.size
    anchors = [[(rng.normal(size=size), rng.uniform(0.0, 2.0, size))
                for _ in range(n_anchors)] for _ in range(S)]
    lams = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.5, 2.0]), min_size=S, max_size=S))
    rate = 0.05 if kind == "sgd" else 0.01

    lockstep = [nn.init_classifier(dims, s) for s in seeds]
    log = train_classifier([
        request(model, train, epochs=epochs, batch_size=batch_size, optimizer=kind,
                learning_rate=rate, seed=seeds[s], anchors=anchors[s], lam=lams[s])
        for s, (model, train) in enumerate(zip(lockstep, sets))])
    assert log.epoch_losses.shape == (S, epochs)
    assert log.n_steps == epochs * -(-n // batch_size)
    for s, (model, train) in enumerate(zip(lockstep, sets)):
        alone = nn.init_classifier(dims, seeds[s])
        penalty = None
        if n_anchors:
            penalty = lambda m, s=s: ewc_penalty(m, anchors[s], lams[s])
        losses = oracles.train_one_at_a_time(alone, train, epochs=epochs,
                                             batch_size=batch_size,
                                             opt=OptimizerState(kind, rate),
                                             seed=seeds[s], penalty=penalty)
        assert np.array_equal(model.params, alone.params)
        assert np.array_equal(log.epoch_losses[s], losses)


def test_lockstep_rejects_what_cannot_stack():
    model = fresh_model()
    anchor = (fresh_model(seed=7).params, unit_fisher(model))
    # one request differs from the other in one stack_key field
    for field, other, error in [
        ("epochs", 2, ValidationError), ("batch_size", 8, ValidationError),
        ("optimizer", "sgd", ValidationError), ("learning_rate", 0.02, ValidationError),
        ("data", separable_data(n=40), ValidationError),
        ("anchors", [anchor], ValidationError),
        ("model", fresh_model(dims=(2, 4, 2)), ShapeError),
    ]:
        requests = [request(fresh_model(), separable_data(), seed=s) for s in range(2)]
        setattr(requests[1], field, other)
        params = [req.model.params for req in requests]
        with pytest.raises(error, match="cannot train in one stack"):
            train_classifier(requests)
        # rejected before any model is touched: not even rebound into a stack
        assert all(req.model.params is p for req, p in zip(requests, params)), field
    with pytest.raises(ValidationError):
        train_classifier([])


def test_each_model_owns_its_parameters_through_a_stacked_training():
    models = [fresh_model(seed=1), fresh_model(seed=2)]
    params = [model.params for model in models]
    before = [p.copy() for p in params]
    stacked = nn.stack(models)
    stacked.params += 1.0
    assert all(model.params is p for model, p in zip(models, params))
    assert all(np.array_equal(p, b) for p, b in zip(params, before))
    assert not any(np.shares_memory(stacked.params, p) for p in params)

    train_classifier([request(model, separable_data(), seed=s)
                      for s, model in enumerate(models)])
    for model, p, b in zip(models, params, before):
        assert model.params is p and p.base is None
        assert not np.array_equal(p, b)
        assert all(np.shares_memory(w, p) for w in model.weights)
    assert not np.shares_memory(params[0], params[1])


def test_a_penalised_stack_trains_each_model_as_alone():
    # two models, two anchors each, and a lam per model, through one stack
    data, other = separable_data(), separable_data(seed=4)
    models = [fresh_model(seed=1), fresh_model(seed=2)]
    size = models[0].params.size
    anchors = [[(fresh_model(seed=10 + 2 * s + a).params, np.full(size, a + 0.5))
                for a in range(2)] for s in range(2)]
    lams = [0.5, 5.0]
    sgd = dict(epochs=2, optimizer="sgd", learning_rate=0.05)
    log = train_classifier([request(model, train, **sgd, seed=3 + s, anchors=anchors[s],
                                    lam=lams[s])
                            for s, (model, train) in enumerate(zip(models, [data, other]))])
    for s, train in enumerate([data, other]):
        alone = fresh_model(seed=1 + s)
        losses = oracles.train_one_at_a_time(
            alone, train, epochs=2, batch_size=16, opt=OptimizerState("sgd", 0.05),
            seed=3 + s, penalty=lambda m: ewc_penalty(m, anchors[s], lams[s]))
        assert np.array_equal(models[s].params, alone.params)
        assert np.array_equal(log.epoch_losses[s], losses)
    assert not np.array_equal(models[0].params, fresh_model(seed=1).params)


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


@settings(max_examples=40, deadline=None)
@given(data=st.data(), dims=st.lists(st.integers(1, 6), min_size=0, max_size=2),
       d=st.integers(1, 5), n_classes=st.integers(2, 4), n=st.integers(1, 700),
       subsample=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_fisher_matches_the_per_row_loop(data, dims, d, n_classes, n, subsample, seed):
    dims = [d, *dims, n_classes]   # 1 to 3 layers
    rng = np.random.default_rng(seed)
    model = nn.init_classifier(dims, seed)
    rows = LabeledSet(rng.normal(size=(n, d)) * 2.0, rng.integers(0, n_classes, n))
    n_samples = data.draw(st.integers(1, n)) if subsample else None
    fisher = estimate_fisher_diag(model, rows, seed=seed + 1, n_samples=n_samples)
    want = oracles.fisher_one_row_at_a_time(model, rows, seed + 1, n_samples=n_samples)
    assert np.array_equal(fisher, want)


@pytest.mark.filterwarnings("error")
def test_fisher_rejects_predictions_that_are_not_a_distribution():
    # row 1's logits overflow to +-inf, so its softmax is NaN
    model = nn.Classifier([2, 2], [np.array([[1e308, -1e308], [0.0, 0.0]])], [np.zeros(2)])
    rows = LabeledSet(np.array([[0.0, 1.0], [2.0, 0.0], [3.0, 0.0]]), np.zeros(3, dtype=int))
    with pytest.raises(NumericError, match="row 1 "):
        estimate_fisher_diag(model, rows, seed=0)


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


@settings(max_examples=120, deadline=None)
@given(data=st.data(), A=st.integers(1, 12), S=st.integers(1, 4), stacked=st.booleans(),
       dims=st.lists(st.integers(1, 5), min_size=2, max_size=3), seed=st.integers(0, 2 ** 16))
def test_penalty_matches_the_per_anchor_loop_bit_for_bit(data, A, S, stacked, dims, seed):
    # one model, or a stack of S; every magnitude from 1e-8 to 1e8, and
    # exact zeros in the Fisher and in the difference, so that -0.0 terms
    # occur; two calls take turns on one workspace, half the params moving
    rng = np.random.default_rng(seed)
    model = nn.init_classifier(dims, seed)
    if stacked:
        model = nn.stack([nn.init_classifier(dims, seed + s) for s in range(S)])

    def values(keep=None):
        sign = rng.choice([-1.0, 1.0], size=model.params.shape)
        new = sign * 10.0 ** rng.uniform(-8.0, 8.0, size=model.params.shape)
        return new if keep is None else np.where(rng.random(new.shape) < 0.5, keep, new)

    model.params[...] = values()
    anchors = [(values(keep=model.params), np.abs(values(keep=0.0))) for _ in range(A)]
    lams = st.sampled_from([0.0, 1e-8, 0.5, 5.0, 1e8])
    lam = np.array(data.draw(st.lists(lams, min_size=S, max_size=S))) if stacked \
        else data.draw(lams)
    workspace = PenaltyWorkspace(model, anchors, lam)
    for _ in range(2):
        expected = oracles.ewc_penalty_per_anchor(model, anchors, lam)
        for got in (ewc_penalty(model, anchors, lam),
                    ewc_penalty(model, anchors, lam, workspace=workspace)):
            assert [np.asarray(a).tobytes() for a in got] == [a.tobytes() for a in expected]
        model.params[...] = values(keep=model.params)


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
