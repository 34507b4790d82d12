"""Per-class diagonal Gaussian mixtures and the synthetic buffers they emit.

Each domain gets one generator: a class-conditional mixture of diagonal
Gaussians fitted by EM on the domain's training split. Once the stream has
moved on, the real data is gone; the generator's samples stand in for it.
A drawn buffer is a plain LabeledSet, deterministic in (generator, seed),
so every consumer of replayed data (the replay classifier and the domain
router alike) can be shown to use the exact same synthetic samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import LabeledSet
from .errors import NumericError, ShapeError, ValidationError
from .kmeans import kmeans_pp_init
from .rng import make_rng

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FitConfig:
    n_components: int = 2
    max_iter: int = 200
    tol: float = 1e-8          # stop when the log-likelihood gain drops below this
    var_floor: float = 1e-6    # variances are floored, not inflated

    def __post_init__(self):
        if self.n_components < 1:
            raise ValidationError(f"n_components must be >= 1, got {self.n_components}")
        if self.max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.tol < 0 or self.var_floor <= 0:
            raise ValidationError("tol must be >= 0 and var_floor > 0")


@dataclass
class Mixture:
    """Weights (K,), means (K, d), diagonal variances (K, d)."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_prob_matrix(mix: Mixture, X: np.ndarray) -> np.ndarray:
    """(n, K) matrix of log w_k + log N(x_i; mu_k, diag(v_k))."""
    diff = X[:, None, :] - mix.means[None, :, :]          # (n, K, d)
    quad = (diff ** 2 / mix.variances[None, :, :]).sum(axis=2)
    norm = (np.log(mix.variances) + LOG_2PI).sum(axis=1)  # (K,)
    return np.log(mix.weights)[None, :] - 0.5 * (quad + norm[None, :])


def log_likelihood(mix: Mixture, X: np.ndarray) -> float:
    """Total log density of X under the mixture, via log-sum-exp per row."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != mix.dim:
        raise ShapeError(f"expected batch of shape (n, {mix.dim}), got {X.shape}")
    lp = _log_prob_matrix(mix, X)
    top = lp.max(axis=1)
    return float((top + np.log(np.exp(lp - top[:, None]).sum(axis=1))).sum())


def fit_em(X: np.ndarray, config: FitConfig, rng: np.random.Generator):
    """EM for a diagonal-covariance mixture.

    Returns (Mixture, ll_trace). The trace is the total log-likelihood after
    each M-step and is non-decreasing to within accumulation error. Means
    start from k-means++ seeds; a component that loses all its responsibility
    mass is re-seeded on the point the model currently explains worst, which
    restarts the trace.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected (n, d) data, got shape {X.shape}")
    n, d = X.shape
    k = config.n_components
    if n < k:
        raise ValidationError(f"need at least {k} samples to fit {k} components, got {n}")

    global_var = np.maximum(X.var(axis=0), config.var_floor)
    mix = Mixture(
        weights=np.full(k, 1.0 / k),
        means=kmeans_pp_init(X, k, rng),
        variances=np.tile(global_var, (k, 1)),
    )

    trace = []
    prev = -np.inf
    for _ in range(config.max_iter):
        lp = _log_prob_matrix(mix, X)
        top = lp.max(axis=1)
        log_norm = top + np.log(np.exp(lp - top[:, None]).sum(axis=1))
        resp = np.exp(lp - log_norm[:, None])             # (n, K)

        mass = resp.sum(axis=0)                           # (K,)
        dead = mass < 1e-12
        if dead.any():
            worst = np.argmin(log_norm)
            for j in np.flatnonzero(dead):
                mix.means[j] = X[worst]
                mix.variances[j] = global_var
                mix.weights[j] = 1.0 / n
            mix.weights /= mix.weights.sum()
            trace = []                                    # ascent restarts after a rescue
            prev = -np.inf
            continue

        mix.weights = mass / n
        mix.means = (resp.T @ X) / mass[:, None]
        ex2 = (resp.T @ (X ** 2)) / mass[:, None]
        mix.variances = np.maximum(ex2 - mix.means ** 2, config.var_floor)

        ll = log_likelihood(mix, X)
        if not np.isfinite(ll):
            raise NumericError("non-finite log-likelihood during EM")
        trace.append(ll)
        if ll - prev <= config.tol and len(trace) > 1:
            break
        prev = ll
    return mix, np.asarray(trace)


@dataclass
class GmmGenerator:
    """Class-conditional generator for a single domain."""

    domain_id: int
    mixtures: list = field(default_factory=list)   # one Mixture per class
    ll_traces: list = field(default_factory=list)

    @property
    def n_classes(self) -> int:
        return len(self.mixtures)

    @property
    def dim(self) -> int:
        return self.mixtures[0].dim


def fit_generator(trainset: LabeledSet, domain_id: int, n_classes: int,
                  config: FitConfig, seed: int) -> GmmGenerator:
    """Fit one diagonal GMM per class on a domain's training split."""
    gen = GmmGenerator(domain_id)
    for c in range(n_classes):
        Xc = trainset.X[trainset.y == c]
        if Xc.shape[0] < config.n_components:
            raise ValidationError(
                f"class {c} has {Xc.shape[0]} samples, fewer than "
                f"{config.n_components} mixture components"
            )
        mix, trace = fit_em(Xc, config, make_rng(seed, "class", c))
        gen.mixtures.append(mix)
        gen.ll_traces.append(trace)
    return gen


def sample_buffer(gen: GmmGenerator, n_per_class: int, seed: int) -> LabeledSet:
    """Draw a class-balanced synthetic buffer: n_per_class samples per class.

    Components are chosen by mixture weight, then features drawn from the
    chosen diagonal Gaussian. Deterministic in (generator, seed).
    """
    if n_per_class < 1:
        raise ValidationError(f"n_per_class must be >= 1, got {n_per_class}")
    rng = make_rng(seed, "sample")
    blocks, labels = [], []
    for c, mix in enumerate(gen.mixtures):
        comp = rng.choice(mix.n_components, size=n_per_class, p=mix.weights)
        noise = rng.normal(size=(n_per_class, mix.dim))
        blocks.append(mix.means[comp] + noise * np.sqrt(mix.variances[comp]))
        labels.append(np.full(n_per_class, c))
    return LabeledSet(np.vstack(blocks), np.concatenate(labels))
