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

All sampling is hierarchically seeded: stream seed -> per-domain seed ->
per-split seed, so streams are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataAccessError, ShapeError
from .rng import derive, make_rng

RECIPE_KINDS = ("covariate_shift", "conditional_flip", "rotation")
SPLIT_NAMES = ("train", "val", "test")


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


@dataclass
class DomainRecipe:
    """Generative description of one domain."""

    kind: str
    class_means: np.ndarray        # (C, d)
    variances: np.ndarray          # (d,) strictly positive
    rotation_angle: float = 0.0    # radians, applied to means in coords (0, 1)
    flip_labels: bool = False
    n_train: int = 500
    n_val: int = 100
    n_test: int = 200

    def __post_init__(self):
        if self.kind not in RECIPE_KINDS:
            raise ConfigError(f"unknown recipe kind {self.kind!r}; expected one of {RECIPE_KINDS}")
        self.class_means = np.asarray(self.class_means, dtype=float)
        self.variances = np.asarray(self.variances, dtype=float)
        if self.class_means.ndim != 2:
            raise ConfigError(f"class_means must be (C, d), got shape {self.class_means.shape}")
        if self.variances.shape != (self.class_means.shape[1],):
            raise ConfigError("variances must have one entry per feature dimension")
        if (self.variances <= 0).any():
            raise ConfigError("variances must be strictly positive")
        if self.rotation_angle != 0.0 and self.class_means.shape[1] < 2:
            raise ConfigError("rotation requires feature dimension >= 2")

    @property
    def n_classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def dim(self) -> int:
        return self.class_means.shape[1]

    def effective_means(self) -> np.ndarray:
        """Class means after rotating coords (0, 1) by rotation_angle."""
        means = self.class_means.copy()
        if self.rotation_angle != 0.0:
            c, s = np.cos(self.rotation_angle), np.sin(self.rotation_angle)
            xy = means[:, :2] @ np.array([[c, s], [-s, c]])
            means[:, :2] = xy
        return means

    def label_permutation(self) -> np.ndarray:
        """Cluster index -> label. Identity unless the domain is flipped."""
        c = self.n_classes
        if not self.flip_labels:
            return np.arange(c)
        if c == 2:
            return np.array([1, 0])
        return (np.arange(c) + 1) % c  # cyclic shift for C > 2


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


def _sample_split(recipe: DomainRecipe, n: int, rng: np.random.Generator) -> LabeledSet:
    clusters = _balanced_labels(n, recipe.n_classes)
    means = recipe.effective_means()
    sigma = np.sqrt(recipe.variances)
    X = means[clusters] + rng.normal(size=(n, recipe.dim)) * sigma
    y = recipe.label_permutation()[clusters]
    order = rng.permutation(n)
    return LabeledSet(X[order], y[order])


def build_stream(recipes, seed: int) -> DomainStream:
    """Materialize a stream: one dataset per recipe, deterministic in seed."""
    if not recipes:
        raise ConfigError("need at least one recipe")
    dim, n_classes = recipes[0].dim, recipes[0].n_classes
    problems = []
    for t, recipe in enumerate(recipes):
        if recipe.dim != dim or recipe.n_classes != n_classes:
            problems.append(
                f"recipe {t}: dims/classes ({recipe.dim}, {recipe.n_classes}) "
                f"differ from recipe 0 ({dim}, {n_classes})"
            )
        if recipe.n_train < 5 * n_classes:
            problems.append(f"recipe {t}: n_train={recipe.n_train} below 5 per class")
    if problems:
        raise ConfigError(problems)

    domains = []
    for t, recipe in enumerate(recipes):
        dseed = derive(seed, "domain", t)
        sizes = (recipe.n_train, recipe.n_val, recipe.n_test)
        splits = [
            _sample_split(recipe, n, make_rng(dseed, name))
            for name, n in zip(SPLIT_NAMES, sizes)
        ]
        domains.append(DomainDataset(t, *splits))
    return DomainStream(domains, dim, n_classes)


# ---------------------------------------------------------------------------
# Recipe builders
# ---------------------------------------------------------------------------


def _per_domain_shifts(shifts, dim: int, n_domains: int) -> np.ndarray:
    arr = np.asarray(shifts, dtype=float)
    if arr.ndim == 1:
        # one direction, applied cumulatively: domain t is shifted by t * arr
        if arr.shape != (dim,):
            raise ConfigError(f"shift vector must have length {dim}, got {arr.shape}")
        return np.outer(np.arange(n_domains), arr)
    if arr.shape != (n_domains, dim):
        raise ConfigError(f"expected {n_domains} shift vectors of length {dim}, got {arr.shape}")
    return arr


def recipe_covariate_shift(base_means, shifts, variance, *, n_domains=None,
                           n_train=500, n_val=100, n_test=200):
    """Domains whose class means translate while the labeling rule follows.

    ``shifts`` is either a per-domain (T, d) array or a single direction
    applied cumulatively (domain t shifted by t * shifts).
    """
    base = np.asarray(base_means, dtype=float)
    var = _as_variances(variance, base.shape[1])
    shift_arr = np.asarray(shifts, dtype=float)
    if n_domains is None:
        if shift_arr.ndim != 2:
            raise ConfigError("n_domains is required when a single shift direction is given")
        n_domains = shift_arr.shape[0]
    per_domain = _per_domain_shifts(shifts, base.shape[1], n_domains)
    return [
        DomainRecipe("covariate_shift", base + per_domain[t], var,
                     n_train=n_train, n_val=n_val, n_test=n_test)
        for t in range(n_domains)
    ]


def recipe_conditional_flip(base_means, variance, flip_domains, n_domains, *,
                            shifts=None, n_train=500, n_val=100, n_test=200):
    """Domains sharing a feature mixture, with labels permuted in flip_domains.

    With ``shifts=None`` the feature distribution is identical across
    domains (maximal interference); an optional shift separates domains in
    feature space while keeping the flip.
    """
    base = np.asarray(base_means, dtype=float)
    var = _as_variances(variance, base.shape[1])
    flips = set(int(t) for t in flip_domains)
    bad = [t for t in flips if t >= n_domains or t < 0]
    if bad:
        raise ConfigError(f"flip domain indices {sorted(bad)} outside [0, {n_domains})")
    if shifts is None:
        per_domain = np.zeros((n_domains, base.shape[1]))
    else:
        per_domain = _per_domain_shifts(shifts, base.shape[1], n_domains)
    return [
        DomainRecipe("conditional_flip", base + per_domain[t], var,
                     flip_labels=(t in flips),
                     n_train=n_train, n_val=n_val, n_test=n_test)
        for t in range(n_domains)
    ]


def recipe_rotation(base_means, variance, angles, *, n_train=500, n_val=100, n_test=200):
    """Domains whose class means rotate in the first two coordinates."""
    base = np.asarray(base_means, dtype=float)
    var = _as_variances(variance, base.shape[1])
    return [
        DomainRecipe("rotation", base.copy(), var, rotation_angle=float(a),
                     n_train=n_train, n_val=n_val, n_test=n_test)
        for a in angles
    ]


def _as_variances(variance, dim: int) -> np.ndarray:
    arr = np.asarray(variance, dtype=float)
    if arr.ndim == 0:
        return np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ConfigError(f"variance must be scalar or length {dim}, got {arr.shape}")
    return arr


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
