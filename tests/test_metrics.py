"""Accuracy matrix bookkeeping, averages, backward transfer, routing scores."""

import numpy as np
import pytest

from driftlab import nn
from driftlab.benchmarks import LabeledSet
from driftlab.errors import ContractError, ValidationError
from driftlab.metrics import (AccuracyMatrix, average_accuracy, bwt,
                              evaluate_accuracy, routing_accuracy)


def test_evaluate_accuracy_with_callable_and_with_classifier():
    data = LabeledSet(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 0, 1, 1]))
    rule = lambda X: (X[:, 0] >= 2).astype(int)
    assert evaluate_accuracy(rule, data) == 1.0

    model = nn.Classifier([1, 2], [np.array([[-1.0, 1.0]])], [np.array([3.0, 0.0])])
    # logits cross at x = 1.5: predicts 0 below, 1 above
    assert evaluate_accuracy(lambda X: nn.predict(model, X), data) == 1.0
    with pytest.raises(ValidationError):
        evaluate_accuracy(rule, LabeledSet(np.zeros((0, 1)), np.zeros(0, dtype=int)))


def test_record_is_overwrite_idempotent():
    m = AccuracyMatrix(3)
    m.record(0, 1, 0.5)
    m.record(0, 1, 0.5)
    assert m.entry(0, 1) == 0.5
    m.record(0, 1, 0.75)  # re-recording overwrites
    assert m.entry(0, 1) == 0.75


def test_record_rejects_upper_triangle_and_bad_ranges():
    m = AccuracyMatrix(3)
    with pytest.raises(ContractError, match="above the diagonal"):
        m.record(2, 1, 0.5)
    with pytest.raises(ContractError):
        m.record(0, 3, 0.5)
    with pytest.raises(ValidationError):
        m.record(0, 0, 1.5)


def test_record_alpha_computes_the_fraction():
    m = AccuracyMatrix(2)
    m.record_alpha(0, 0, np.array([1, 0, 1, 1]), np.array([1, 1, 1, 0]))
    assert m.entry(0, 0) == 0.5
    with pytest.raises(ValidationError):
        m.record_alpha(0, 1, np.array([1]), np.array([1, 0]))
    with pytest.raises(ValidationError):
        m.record_alpha(0, 1, np.array([]), np.array([]))


def test_unrecorded_entry_raises():
    m = AccuracyMatrix(2)
    with pytest.raises(ContractError, match="never recorded"):
        m.entry(0, 0)


def test_average_accuracy_worked_examples():
    m = AccuracyMatrix(2)
    m.record(0, 1, 0.6)
    m.record(1, 1, 0.9)
    assert average_accuracy(m, 1) == 0.75

    ones = AccuracyMatrix(3)
    for t in range(3):
        for s in range(t + 1):
            ones.record(s, t, 1.0)
    assert average_accuracy(ones, 2) == 1.0


def test_average_accuracy_names_missing_rows():
    m = AccuracyMatrix(3)
    m.record(0, 2, 0.5)
    m.record(2, 2, 0.5)
    with pytest.raises(ContractError, match=r"missing rows \[1\]"):
        average_accuracy(m, 2)
    with pytest.raises(ContractError):
        average_accuracy(m, 5)


def test_bwt_hand_computed_example():
    m = AccuracyMatrix(3)
    for s, t, v in [(0, 0, 0.9), (1, 1, 0.8), (2, 2, 0.95),
                    (0, 2, 0.7), (1, 2, 0.75)]:
        m.record(s, t, v)
    # ((0.7 - 0.9) + (0.75 - 0.8)) / 2
    assert abs(bwt(m) - (-0.125)) < 1e-12


def test_bwt_needs_two_domains_and_filled_cells():
    with pytest.raises(ContractError):
        bwt(AccuracyMatrix(1))
    m = AccuracyMatrix(2)
    m.record(0, 0, 0.9)
    with pytest.raises(ContractError):
        bwt(m)


def test_routing_accuracy_and_confusion():
    true = np.array([0, 0, 0, 1, 1, 1])
    pred = np.array([0, 0, 1, 1, 1, 0])
    report = routing_accuracy(pred, true, 2)
    assert abs(report.accuracy - 4 / 6) < 1e-12
    assert report.confusion.tolist() == [[2, 1], [1, 2]]
    assert np.allclose(report.per_domain, [2 / 3, 2 / 3])


def test_routing_accuracy_requires_every_domain_present():
    with pytest.raises(ValidationError, match=r"domains \[2\]"):
        routing_accuracy(np.zeros(4, dtype=int), np.array([0, 0, 1, 1]), 3)
    with pytest.raises(ValidationError):
        routing_accuracy(np.array([0, 3]), np.array([0, 1]), 2)
    with pytest.raises(ValidationError):
        routing_accuracy(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 1)
