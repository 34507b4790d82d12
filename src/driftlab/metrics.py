"""Continual-learning metrics: the lower-triangular accuracy matrix, its
summary statistics, and domain-routing accuracy.

Entry (s, t) of the accuracy matrix is the test accuracy on domain s of the
model state right after training through domain t; only s <= t is ever
written. Average accuracy after step t is the column mean over s <= t, and
backward transfer compares each domain's final-column entry against its
diagonal entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .benchmarks import LabeledSet
from .errors import ContractError, ValidationError


def evaluate_accuracy(predictor, data: LabeledSet) -> float:
    """Fraction of correct predictions; predictor maps (n, d) features to
    labels."""
    if len(data) == 0:
        raise ValidationError("cannot evaluate on an empty dataset")
    return float(np.mean(np.asarray(predictor(data.X)) == data.y))


class AccuracyMatrix:
    """Lower-triangular store of per-domain test accuracies.

    Re-recording a cell overwrites it, so recording is idempotent under
    identical inputs; writing above the diagonal is a contract violation.
    """

    def __init__(self, n_domains: int):
        if n_domains < 1:
            raise ValidationError(f"n_domains must be >= 1, got {n_domains}")
        self.n_domains = n_domains
        self.values = np.full((n_domains, n_domains), np.nan)

    def record(self, s: int, t: int, acc: float):
        T = self.n_domains
        if not (0 <= s < T and 0 <= t < T):
            raise ContractError(f"indices ({s}, {t}) outside a {T}-domain matrix")
        if s > t:
            raise ContractError(
                f"entry ({s}, {t}) is above the diagonal: domain {s} is not "
                f"yet part of the stream at step {t}"
            )
        if not 0.0 <= acc <= 1.0:
            raise ValidationError(f"accuracy must be in [0, 1], got {acc}")
        self.values[s, t] = acc

    def record_alpha(self, s: int, t: int, predictions, labels):
        """Record the fraction of correct predictions as entry (s, t)."""
        predictions = np.asarray(predictions)
        labels = np.asarray(labels)
        if predictions.shape != labels.shape or predictions.ndim != 1:
            raise ValidationError(
                f"predictions and labels must be equal-length vectors, "
                f"got {predictions.shape} and {labels.shape}"
            )
        if len(labels) == 0:
            raise ValidationError("cannot record accuracy of an empty evaluation")
        self.record(s, t, float(np.mean(predictions == labels)))

    def entry(self, s: int, t: int) -> float:
        v = self.values[s, t]
        if np.isnan(v):
            raise ContractError(f"entry ({s}, {t}) was never recorded")
        return float(v)


def average_accuracy(matrix: AccuracyMatrix, t: int) -> float:
    """Mean test accuracy over all domains seen through step t."""
    if not 0 <= t < matrix.n_domains:
        raise ContractError(f"step {t} outside a {matrix.n_domains}-domain stream")
    col = matrix.values[: t + 1, t]
    if np.isnan(col).any():
        missing = np.flatnonzero(np.isnan(col)).tolist()
        raise ContractError(f"column {t} is incomplete; missing rows {missing}")
    return float(col.mean())


def bwt(matrix: AccuracyMatrix) -> float:
    """Backward transfer: mean of final accuracy minus same-step accuracy
    over all non-final domains. Negative values measure forgetting."""
    T = matrix.n_domains
    if T < 2:
        raise ContractError("backward transfer needs at least 2 domains")
    last = matrix.values[: T - 1, T - 1]
    diag = np.diag(matrix.values)[: T - 1]
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
