"""Continual-learning metrics: the one accuracy scorer, the summaries of
the accuracy matrix, and domain-routing accuracy.

The accuracy matrix is a (T, T) float array: entry (s, t) is the test
accuracy on domain s of the model state right after training through
domain t, and every cell with s > t (a domain not yet seen at step t)
holds NaN. Average accuracy after step t is the column mean over s <= t,
and backward transfer compares each domain's final-column entry against
its diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import LabeledSet
from .errors import ContractError, ValidationError


def evaluate_accuracy(predictor, data: LabeledSet) -> float:
    """Fraction of correct predictions; predictor maps (n, d) features to
    one label per row, and predictions of another shape raise."""
    if len(data) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    predictions = np.asarray(predictor(data.X))
    if predictions.shape != data.y.shape:
        raise ValidationError(f"expected predictions of shape {data.y.shape}, "
                              f"got {predictions.shape}")
    return float(np.mean(predictions == data.y))


def average_accuracy(matrix: np.ndarray, t: int) -> float:
    """Mean test accuracy over all domains seen through step t; a NaN
    cell among them raises."""
    if not 0 <= t < len(matrix):
        raise ContractError(f"step {t} outside a {len(matrix)}-domain stream")
    col = matrix[: t + 1, t]
    if np.isnan(col).any():
        missing = np.flatnonzero(np.isnan(col)).tolist()
        raise ContractError(f"column {t} is incomplete; missing rows {missing}")
    return float(col.mean())


def bwt(matrix: np.ndarray) -> float:
    """Backward transfer: mean of final accuracy minus same-step accuracy
    over all non-final domains. Negative values measure forgetting."""
    T = len(matrix)
    if T < 2:
        raise ContractError("backward transfer needs at least 2 domains")
    last = matrix[: T - 1, T - 1]
    diag = np.diag(matrix)[: T - 1]
    if np.isnan(last).any() or np.isnan(diag).any():
        raise ContractError("backward transfer needs the diagonal and the final column")
    return float((last - diag).mean())


@dataclass
class RoutingReport:
    accuracy: float
    per_domain: np.ndarray     # per true domain, the share of its samples routed to it


def routing_accuracy(predicted, true, n_domains: int) -> RoutingReport:
    """Share of samples routed to their true domain, overall and per
    domain."""
    predicted = np.asarray(predicted, dtype=int)
    true = np.asarray(true, dtype=int)
    if predicted.shape != true.shape or predicted.ndim != 1:
        raise ValidationError(
            f"predicted and true must be equal-length vectors, "
            f"got {predicted.shape} and {true.shape}"
        )
    if len(true) == 0:
        raise ValidationError("cannot score an empty routing batch")
    if (true < 0).any() or (true >= n_domains).any():
        raise ValidationError(f"true domain ids outside [0, {n_domains})")
    if (predicted < 0).any() or (predicted >= n_domains).any():
        raise ValidationError(f"predicted domain ids outside [0, {n_domains})")
    present = np.unique(true)
    if len(present) < n_domains:
        missing = sorted(set(range(n_domains)) - set(present.tolist()))
        raise ValidationError(f"no test samples for domains {missing}")
    hits = predicted == true
    per_domain = np.bincount(true, weights=hits, minlength=n_domains) / np.bincount(true)
    return RoutingReport(float(np.mean(hits)), per_domain)
