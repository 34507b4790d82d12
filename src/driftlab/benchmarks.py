"""Synthetic domain-incremental benchmark streams.

A stream is an ordered sequence of domains over one fixed label space and
feature dimension. Each domain draws features from per-class Gaussians with
diagonal covariance, so the per-domain Bayes rule is known in closed form
and every downstream claim can be checked against a nearest-mean oracle.

Three kinds of shift are supported:

* ``covariate_shift`` -- class means translate per domain, labeling rule
  follows along (classes keep their clusters).
* ``conditional_flip`` -- the feature mixture is reproduced but cluster
  labels are permuted (swap for two classes, cyclic shift otherwise):
  the same feature region carries different labels in different domains.
* ``rotation`` -- class means rotate in the first two coordinates.

The benchmark section of a config (``BenchmarkConfig``) is the only
description of a stream: ``validate_benchmark`` holds every rule it must
satisfy, and ``build_stream`` samples it after checking those rules.

All sampling is hierarchically seeded: stream seed -> per-domain seed ->
per-split seed, so streams are reproducible bit-for-bit.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataAccessError, ShapeError
from .rng import derive, make_rng

BENCHMARK_KINDS = ("covariate_shift", "conditional_flip", "rotation")
# fields a kind's stream never reads; setting one is a violation, not a no-op
_IGNORED_FIELDS = {"covariate_shift": ("flip_domains", "angles"),
                   "conditional_flip": ("angles",),
                   "rotation": ("domain_shift", "flip_domains")}
SPLIT_NAMES = ("train", "val", "test")


@dataclass
class BenchmarkConfig:
    kind: str = "covariate_shift"
    n_domains: int = 2
    class_means: list = field(default_factory=lambda: [[0.0, 0.0], [0.0, 6.0]])
    variance: object = 1.0
    domain_shift: list = None
    flip_domains: list = field(default_factory=list)
    angles: list = None
    n_train: int = 500
    n_val: int = 100
    n_test: int = 200


@dataclass
class LabeledSet:
    """Feature matrix (n, d) with integer class labels (n,)."""

    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2 or self.y.shape != (self.X.shape[0],):
            raise ShapeError(f"inconsistent set: X {self.X.shape}, y {self.y.shape}")

    def __len__(self) -> int:
        return self.X.shape[0]

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    def subset(self, idx) -> "LabeledSet":
        return LabeledSet(self.X[idx], self.y[idx])


def _is_number(v) -> bool:
    """A finite int or float; a bool is not a number here."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= sys.float_info.max)


def _is_count(v, minimum=1) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= minimum


def validate_benchmark(bench: BenchmarkConfig, problems):
    """Append every violation of the benchmark section to problems.

    Returns the smallest class count of a training split (the balanced
    split gives the remainder to the lower classes), or None when the
    section is too broken to tell.
    """
    where = "benchmark"
    before = len(problems)
    if bench.kind not in BENCHMARK_KINDS:
        problems.append(f"{where}.kind: {bench.kind!r} is not one of {', '.join(BENCHMARK_KINDS)}")
    for name in _IGNORED_FIELDS.get(bench.kind, ()):
        if getattr(bench, name) not in (None, []):
            problems.append(f"{where}.{name}: a {bench.kind} stream ignores this field")
    if not _is_count(bench.n_domains):
        problems.append(f"{where}.n_domains: expected integer >= 1, got {bench.n_domains!r}")
        return None
    means = bench.class_means
    dim = None
    if (not isinstance(means, list) or len(means) < 2
            or not all(isinstance(row, list) and row for row in means)):
        problems.append(f"{where}.class_means: expected >= 2 rows of numbers")
    else:
        dim = len(means[0])
        if any(len(row) != dim for row in means):
            problems.append(f"{where}.class_means: rows have unequal lengths")
            dim = None
        if not all(_is_number(v) for row in means for v in row):
            problems.append(f"{where}.class_means: entries must be finite numbers")
    if bench.kind == "rotation" and dim is not None and dim < 2:
        problems.append(f"{where}.class_means: rotation needs at least 2 features, got {dim}")
    variances = bench.variance if isinstance(bench.variance, list) else [bench.variance]
    if isinstance(bench.variance, list) and dim is not None and len(variances) != dim:
        problems.append(f"{where}.variance: expected {dim} entries, got {len(variances)}")
    if not variances or not all(_is_number(v) and v > 0 for v in variances):
        problems.append(f"{where}.variance: expected positive finite numbers, "
                        f"got {bench.variance!r}")
    shift = bench.domain_shift
    if shift is not None and dim is not None:
        nested = isinstance(shift, list) and all(isinstance(row, list) for row in shift)
        rows = shift if nested else [shift]
        if not isinstance(shift, list) or not shift:
            problems.append(f"{where}.domain_shift: expected a vector or one vector per domain")
        elif nested and len(shift) != bench.n_domains:
            problems.append(f"{where}.domain_shift: need one vector per domain")
        elif any(len(row) != dim for row in rows):
            problems.append(f"{where}.domain_shift: vector must have length {dim}")
        elif not all(_is_number(v) for row in rows for v in row):
            problems.append(f"{where}.domain_shift: entries must be finite numbers")
    flips = bench.flip_domains
    if not isinstance(flips, list):
        problems.append(f"{where}.flip_domains: expected a list of indices, got {flips!r}")
        flips = []
    for t in flips:
        if not _is_count(t, minimum=0) or t >= bench.n_domains:
            problems.append(f"{where}.flip_domains: index {t!r} outside [0, {bench.n_domains})")
    angles = bench.angles
    if bench.kind == "rotation" and (not isinstance(angles, list)
                                     or len(angles) != bench.n_domains):
        problems.append(f"{where}.angles: rotation needs one angle per domain")
    elif angles is not None and not isinstance(angles, list):
        problems.append(f"{where}.angles: expected a list of numbers, got {angles!r}")
    for a in angles if isinstance(angles, list) else []:
        if not _is_number(a):
            problems.append(f"{where}.angles: expected finite numbers, got {a!r}")
    for name in ("n_train", "n_val", "n_test"):
        v = getattr(bench, name)
        if not _is_count(v):
            problems.append(f"{where}.{name}: expected integer >= 1, got {v!r}")
    if dim is None or not _is_count(bench.n_train, minimum=0):
        return None
    if bench.n_train < 5 * len(means):
        problems.append(f"{where}.n_train: {bench.n_train} is below 5 per class "
                        f"for {len(means)} classes")
    if len(problems) == before:
        with np.errstate(over="ignore", invalid="ignore"):
            for t, (domain_means, _) in enumerate(_domains(bench)):
                if not np.isfinite(domain_means).all():
                    problems.append(f"{where}: the class means of domain {t} overflow")
    return bench.n_train // len(means)


def _domains(bench: BenchmarkConfig):
    """Yields each domain's (class means, cluster -> label) pair, for a
    section that passed validate_benchmark."""
    base = np.asarray(bench.class_means, dtype=float)
    n_classes, dim = base.shape
    identity = np.arange(n_classes)
    if bench.kind == "rotation":
        for angle in bench.angles:
            means = base.copy()
            if angle != 0.0:
                c, s = np.cos(angle), np.sin(angle)
                means[:, :2] = means[:, :2] @ np.array([[c, s], [-s, c]])
            yield means, identity
        return
    shift = np.asarray(bench.domain_shift if bench.domain_shift is not None else [0.0] * dim,
                       dtype=float)
    if shift.ndim == 1:
        # one direction, applied cumulatively: domain t is shifted by t * shift
        shift = np.outer(np.arange(bench.n_domains), shift)
    # swap for two classes, cyclic shift otherwise
    flipped = (identity + 1) % n_classes
    for t in range(bench.n_domains):
        yield base + shift[t], (flipped if t in bench.flip_domains else identity)


@dataclass
class DomainDataset:
    domain_id: int
    train: LabeledSet
    val: LabeledSet
    test: LabeledSet


@dataclass
class DomainStream:
    domains: list
    dim: int
    n_classes: int

    @property
    def n_domains(self) -> int:
        return len(self.domains)


def _balanced_labels(n: int, n_classes: int) -> np.ndarray:
    """Class counts within +/-1 of an even split; lower classes get the remainder."""
    counts = np.full(n_classes, n // n_classes)
    counts[: n % n_classes] += 1
    return np.repeat(np.arange(n_classes), counts)


def _sample_split(means, labels, sigma, n: int, rng: np.random.Generator) -> LabeledSet:
    clusters = _balanced_labels(n, means.shape[0])
    X = means[clusters] + rng.normal(size=(n, means.shape[1])) * sigma
    y = labels[clusters]
    order = rng.permutation(n)
    return LabeledSet(X[order], y[order])


def build_stream(bench: BenchmarkConfig, seed: int) -> DomainStream:
    """Materialize a stream: one dataset per domain, deterministic in seed.
    Raises ConfigError carrying every violation of the section."""
    problems = []
    validate_benchmark(bench, problems)
    if problems:
        raise ConfigError(problems)
    n_classes, dim = len(bench.class_means), len(bench.class_means[0])
    sigma = np.sqrt(np.full(dim, bench.variance, dtype=float))
    sizes = (bench.n_train, bench.n_val, bench.n_test)
    domains = []
    for t, (means, labels) in enumerate(_domains(bench)):
        dseed = derive(seed, "domain", t)
        splits = [
            _sample_split(means, labels, sigma, n, make_rng(dseed, name))
            for name, n in zip(SPLIT_NAMES, sizes)
        ]
        domains.append(DomainDataset(t, *splits))
    return DomainStream(domains, dim, n_classes)


# ---------------------------------------------------------------------------
# Access control
# ---------------------------------------------------------------------------


class StreamGuard:
    """Hands strategies their training data while enforcing the no-back-access rule.

    A plain guard exposes only the current domain's train/val splits;
    reading any other domain raises DataAccessError. A privileged guard
    (oracle baselines) may read any domain up to the current one, never
    beyond. Test splits are not reachable through the guard at all.
    """

    def __init__(self, stream: DomainStream, privileged: bool = False):
        self._stream = stream
        self.privileged = privileged
        self._current = -1

    def advance(self, t: int):
        if t != self._current + 1:
            raise DataAccessError(f"domains arrive in order; expected {self._current + 1}, got {t}")
        self._current = t

    def _check(self, t: int):
        if t > self._current:
            raise DataAccessError(f"domain {t} has not arrived yet (current is {self._current})")
        if t < self._current and not self.privileged:
            raise DataAccessError(
                f"real data of past domain {t} is not accessible at step {self._current}"
            )

    def train(self, t: int) -> LabeledSet:
        self._check(t)
        return self._stream.domains[t].train

    def val(self, t: int) -> LabeledSet:
        self._check(t)
        return self._stream.domains[t].val
