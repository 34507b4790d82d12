"""The accuracy scorer, averages, backward transfer, routing scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import nn
from driftlab.benchmarks import LabeledSet
from driftlab.errors import ContractError, ValidationError
from driftlab.metrics import average_accuracy, bwt, evaluate_accuracy, routing_accuracy

import oracles


def test_evaluate_accuracy_with_callable_and_with_classifier():
    data = LabeledSet(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))
    rule = lambda X: (X[:, 0] >= 2).astype(int)
    assert evaluate_accuracy(rule, data) == 1.0
    assert evaluate_accuracy(lambda X: np.array([1, 0, 1, 0]), data) == 0.5

    model = nn.Classifier([1, 2], [np.array([[-1.0, 1.0]])], [np.array([3.0, 0.0])])
    # logits cross at x = 1.5: predicts 0 below, 1 above
    assert evaluate_accuracy(lambda X: nn.predict(model, X), data) == 1.0
    with pytest.raises(ValidationError):
        evaluate_accuracy(rule, LabeledSet(np.zeros((0, 1)), np.zeros(0, dtype=int)))
    # a column of predictions would broadcast against the labels; a short
    # vector would not broadcast at all
    with pytest.raises(ValidationError, match=r"shape \(4,\)"):
        evaluate_accuracy(lambda X: rule(X)[:, None], data)
    with pytest.raises(ValidationError):
        evaluate_accuracy(lambda X: rule(X)[:-1], data)


def test_record_alpha_computes_the_fraction():
    # the value the harness writes into an accuracy-matrix cell is the
    # fraction of predictions that match the labels
    X = np.zeros((4, 1))
    data = LabeledSet(X, np.array([1, 1, 1, 0]))
    assert evaluate_accuracy(lambda X: np.array([1, 0, 1, 1]), data) == 0.5
    with pytest.raises(ValidationError):
        evaluate_accuracy(lambda X: np.array([1]), LabeledSet(np.zeros((2, 1)), np.array([1, 0])))
    with pytest.raises(ValidationError):
        evaluate_accuracy(lambda X: np.array([]), LabeledSet(np.zeros((0, 1)), np.zeros(0, dtype=int)))


def accuracy_matrix(cells, T):
    """A (T, T) accuracy matrix holding cells {(s, t): value}, NaN elsewhere."""
    m = np.full((T, T), np.nan)
    for (s, t), v in cells.items():
        m[s, t] = v
    return m


def test_average_accuracy_worked_examples():
    m = accuracy_matrix({(0, 1): 0.6, (1, 1): 0.9}, 2)
    assert average_accuracy(m, 1) == 0.75

    ones = accuracy_matrix({(s, t): 1.0 for t in range(3) for s in range(t + 1)}, 3)
    assert average_accuracy(ones, 2) == 1.0


def test_average_accuracy_names_missing_rows():
    m = accuracy_matrix({(0, 2): 0.5, (2, 2): 0.5}, 3)
    with pytest.raises(ContractError, match=r"missing rows \[1\]"):
        average_accuracy(m, 2)
    with pytest.raises(ContractError):
        average_accuracy(m, 5)


def test_bwt_hand_computed_example():
    m = accuracy_matrix({(0, 0): 0.9, (1, 1): 0.8, (2, 2): 0.95,
                        (0, 2): 0.7, (1, 2): 0.75}, 3)
    # ((0.7 - 0.9) + (0.75 - 0.8)) / 2
    assert abs(bwt(m) - (-0.125)) < 1e-12


def test_bwt_needs_two_domains_and_filled_cells():
    with pytest.raises(ContractError):
        bwt(accuracy_matrix({(0, 0): 0.9}, 1))
    with pytest.raises(ContractError):
        bwt(accuracy_matrix({(0, 0): 0.9}, 2))


def test_routing_accuracy_and_per_domain_shares():
    true = np.array([0, 0, 0, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 1, 0])
    report = routing_accuracy(pred, true, 2)
    assert abs(report.accuracy - 4 / 6) < 1e-12
    assert np.allclose(report.per_domain, [2 / 3, 2 / 3])


@st.composite
def routing_batches(draw):
    """(predicted, true, T) with every one of the T domains present."""
    T = draw(st.integers(1, 6))
    domain = st.integers(0, T - 1)
    extra = draw(st.lists(domain, max_size=40))
    true = draw(st.permutations(list(range(T)) + extra))
    predicted = draw(st.lists(domain, min_size=len(true), max_size=len(true)))
    return np.array(predicted), np.array(true), T


@settings(max_examples=200, deadline=None)
@given(routing_batches())
def test_per_domain_shares_match_the_confusion_matrix(batch):
    predicted, true, T = batch
    got = routing_accuracy(predicted, true, T).per_domain
    want = oracles.routing_shares_from_confusion(predicted, true, T)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_routing_accuracy_requires_every_domain_present():
    with pytest.raises(ValidationError, match=r"domains \[2\]"):
        routing_accuracy(np.zeros(4, dtype=int), np.array([0, 0, 1, 1]), 3)
    with pytest.raises(ValidationError):
        routing_accuracy(np.array([0, 3]), np.array([0, 1]), 2)
    with pytest.raises(ValidationError):
        routing_accuracy(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 1)
