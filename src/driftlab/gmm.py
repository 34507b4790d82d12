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
from .kmeans import kmeans_pp_init, sum_axis0
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
        # a NaN fails every comparison, so test finiteness first: tol=nan
        # would switch off convergence, var_floor=nan would poison variances
        if not (np.isfinite(self.tol) and self.tol >= 0):
            raise ValidationError(f"tol must be finite and >= 0, got {self.tol}")
        if not (np.isfinite(self.var_floor) and self.var_floor > 0):
            raise ValidationError(f"var_floor must be finite and > 0, got {self.var_floor}")


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


def _log_prob_matrix(mix: Mixture, XT: np.ndarray) -> np.ndarray:
    """(K, n) matrix of log w_k + log N(x_i; mu_k, diag(v_k)) from (d, n) data.

    Feature-major: the (d, K, n) terms run along the contiguous n axis and
    sum_axis0 adds them over d in NumPy's pairwise order, so each entry has
    the bits of the row-major (n, K, d) sum over its last axis.
    """
    quad = XT[:, None, :] - mix.means.T[:, :, None]       # (d, K, n)
    np.square(quad, out=quad)
    quad /= mix.variances.T[:, :, None]
    norm = (np.log(mix.variances) + LOG_2PI).sum(axis=1)  # (K,)
    return np.log(mix.weights)[:, None] - 0.5 * (sum_axis0(quad) + norm[:, None])


def _log_norm(lp: np.ndarray) -> np.ndarray:
    """Per-column log-sum-exp of a (K, n) log-probability matrix: log p(x_i)."""
    top = lp.max(axis=0)
    return top + np.log(sum_axis0(np.exp(lp - top)))


def fit_em(X: np.ndarray, config: FitConfig, rng: np.random.Generator):
    """EM for a diagonal-covariance mixture.

    Returns (Mixture, ll_trace). The trace is the total log-likelihood after
    each M-step and is non-decreasing to within accumulation error. Means
    start from k-means++ seeds; a component that loses all its responsibility
    mass is re-seeded on the point the model currently explains worst, which
    restarts the trace.

    The log-probability pass runs on a feature-major copy of X; the
    responsibilities go back to row-major (n, K) for the M-step, whose
    sums over rows and products with X keep their row-major bits.
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

    # the E-step normaliser of one iteration is the log-likelihood pass of
    # the M-step before it, so each iteration builds lp once
    XT = X.T.copy()
    X2 = X ** 2
    lp = _log_prob_matrix(mix, XT)
    log_norm = _log_norm(lp)
    trace = []
    prev = -np.inf
    for _ in range(config.max_iter):
        resp = np.exp(lp - log_norm).T.copy()             # (n, K)

        mass = resp.sum(axis=0)                           # (K,)
        dead = mass < 1e-12
        if dead.any():
            worst = np.argmin(log_norm)
            for j in np.flatnonzero(dead):
                mix.means[j] = X[worst]
                mix.variances[j] = global_var
                mix.weights[j] = 1.0 / n
            mix.weights /= mix.weights.sum()
            lp = _log_prob_matrix(mix, XT)
            log_norm = _log_norm(lp)
            trace = []                                    # ascent restarts after a rescue
            prev = -np.inf
            continue

        mix.weights = mass / n
        mix.means = (resp.T @ X) / mass[:, None]
        ex2 = (resp.T @ X2) / mass[:, None]
        mix.variances = np.maximum(ex2 - mix.means ** 2, config.var_floor)

        lp = _log_prob_matrix(mix, XT)
        log_norm = _log_norm(lp)
        ll = float(log_norm.sum())
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
