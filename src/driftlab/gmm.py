"""Per-class diagonal Gaussian mixtures and the synthetic buffers they emit.

Each domain gets one generator: a class-conditional mixture of diagonal
Gaussians fitted by EM on the domain's training split. The classes of a
domain fit as one EM stack, and each class gets the bits it would get
fitted alone. Once the stream has moved on, the real data is gone; the
generator's samples stand in for it.
A drawn buffer is a plain LabeledSet, deterministic in (generator, seed),
so every consumer of replayed data (the replay classifier and the domain
router alike) can be shown to use the exact same synthetic samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .benchmarks import LabeledSet
from .errors import NumericError, ValidationError
from .kmeans import kmeans_pp_init
from .rng import make_rng

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class FitConfig:
    n_components: int = 2
    max_iter = 200      # unannotated, so a constant like kmeans.MAX_ITER, not a field
    tol = 1e-8          # stop when the log-likelihood gain drops below this
    var_floor = 1e-6    # variances are floored, not inflated

    def __post_init__(self):
        if self.n_components < 1:
            raise ValidationError(f"n_components must be >= 1, got {self.n_components}")


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


def _log_prob_matrix(weights, means, variances, XT):
    """(K, S, n) matrix of log w_k + log N(x_i; mu_k, diag(v_k)) for S
    stacked mixtures, weights (S, K) and means and variances (S, K, d),
    on feature-major (d, S, n) data.

    The (d, K, S, n) terms run along the contiguous n axis and add over d
    left to right, one vectorised add per feature. NumPy adds a contiguous
    last axis that way only below 8 terms, so for d < 8 these are the bits
    of the row-major (n, K, d) sum, and from d = 8 on the last bit may
    differ. A leading-axis sum turns pairwise only when K = S = n = 1,
    where every term is 0.
    """
    quad = XT[:, None] - means.transpose(2, 1, 0)[..., None]     # (d, K, S, n)
    np.square(quad, out=quad)
    quad /= variances.transpose(2, 1, 0)[..., None]
    norm = (np.log(variances) + LOG_2PI).sum(axis=2)              # (S, K)
    return np.log(weights).T[..., None] - 0.5 * (quad.sum(axis=0) + norm.T[..., None])


def _log_norm(lp: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the K axis of a (K, ...) log-probability matrix:
    log p(x_i), its K terms added left to right as in _log_prob_matrix."""
    top = lp.max(axis=0)
    return top + np.log(np.exp(lp - top).sum(axis=0))


def _m_step(resp, X, X2, mass, var_floor):
    """Weights, means and floored variances of S slices from (S, n, K)
    responsibilities; each sum and product runs on one slice at a time."""
    respT = resp.transpose(0, 2, 1)
    means = (respT @ X) / mass[..., None]
    ex2 = (respT @ X2) / mass[..., None]
    return mass / resp.shape[1], means, np.maximum(ex2 - means ** 2, var_floor)


def fit_em_stack(X: np.ndarray, config: FitConfig, rngs) -> list:
    """EM on S equal-shaped data sets at once: X is (S, n, d), rngs holds
    one generator per slice. Returns one (Mixture, ll_trace) per slice; a
    trace is the log-likelihood after each M-step, non-decreasing to within
    accumulation error, and restarts when a dead component is re-seeded on
    the point the model explains worst.

    Each slice is the fit its data would get alone, bit for bit: it has
    its own k-means++ seeds, floored global variance, trace and stopping
    test. The log-probabilities of all slices form one feature-major
    (K, S, n) pass; the responsibilities go back to a row-major (S, n, K)
    array, so every sum over rows and every BLAS product is one slice's.
    A slice with a dead component skips its M-step while the others take
    theirs, and a slice that stops is frozen: it stays in the stack, but
    takes no further M-step and its trace ends. One data set X is a stack
    of one: fit_em_stack(X[None], config, [rng])[0].
    """
    S, n, _ = X.shape
    k = config.n_components
    global_var = np.stack([np.maximum(x.var(axis=0), config.var_floor) for x in X])
    weights = np.full((S, k), 1.0 / k)
    means = np.stack([kmeans_pp_init(x, k, rng) for x, rng in zip(X, rngs)])
    variances = np.repeat(global_var[:, None], k, axis=1)

    # the E-step normaliser of one iteration is the log-likelihood pass of
    # the M-step before it, so each iteration builds lp once
    XT = X.transpose(2, 0, 1).copy()                      # (d, S, n)
    X2 = X ** 2
    lp = _log_prob_matrix(weights, means, variances, XT)
    log_norm = _log_norm(lp)                              # (S, n)
    traces = [[] for _ in range(S)]
    prev = [-np.inf] * S
    active = [True] * S                                   # False once a slice stops
    for _ in range(config.max_iter):
        resp = np.exp(lp - log_norm).transpose(1, 2, 0).copy()   # (S, n, K)
        mass = resp.sum(axis=1)                                   # (S, K)
        dead = mass < 1e-12
        rescued = dead.any(axis=1)
        if all(active) and not rescued.any():             # every slice steps
            weights, means, variances = _m_step(resp, X, X2, mass, config.var_floor)
        else:
            rescued &= active
            step = active & ~rescued
            weights[step], means[step], variances[step] = _m_step(
                resp[step], X[step], X2[step], mass[step], config.var_floor)
            for s in np.flatnonzero(rescued):
                worst = np.argmin(log_norm[s])
                means[s, dead[s]] = X[s, worst]
                variances[s, dead[s]] = global_var[s]
                weights[s, dead[s]] = 1.0 / n
                weights[s] /= weights[s].sum()
                traces[s] = []                            # ascent restarts after a rescue
                prev[s] = -np.inf

        lp = _log_prob_matrix(weights, means, variances, XT)
        log_norm = _log_norm(lp)
        for s, ll in enumerate(log_norm.sum(axis=1).tolist()):
            if rescued[s] or not active[s]:
                continue
            if not math.isfinite(ll):
                raise NumericError("non-finite log-likelihood during EM")
            traces[s].append(ll)
            if ll - prev[s] <= config.tol and len(traces[s]) > 1:
                active[s] = False
            prev[s] = ll
        if not any(active):
            break
    return [_finish(weights[s], means[s], variances[s], traces[s]) for s in range(S)]


def _finish(weights, means, variances, trace):
    """One slice's fit, detached from the stack."""
    return Mixture(weights.copy(), means.copy(), variances.copy()), np.asarray(trace)


@dataclass
class GmmGenerator:
    """Class-conditional generator for a single domain."""

    mixtures: list = field(default_factory=list)   # one Mixture per class
    ll_traces: list = field(default_factory=list)


def fit_generator(trainset: LabeledSet, n_classes: int, config: FitConfig,
                  seed: int) -> GmmGenerator:
    """Fit one diagonal GMM per class on a domain's training split.

    Every class size is checked before any fit. Classes with the same row
    count then fit as one EM stack, each from its own make_rng(seed,
    "class", c); balanced labels give at most two stacks.
    """
    splits = [trainset.X[trainset.y == c] for c in range(n_classes)]
    for c, Xc in enumerate(splits):
        if Xc.shape[0] < config.n_components:
            raise ValidationError(
                f"class {c} has {Xc.shape[0]} samples, fewer than "
                f"{config.n_components} mixture components"
            )
    by_size = {}
    for c, Xc in enumerate(splits):
        by_size.setdefault(Xc.shape[0], []).append(c)
    fits = [None] * n_classes
    for classes in by_size.values():
        stack = fit_em_stack(np.stack([splits[c] for c in classes]), config,
                             [make_rng(seed, "class", c) for c in classes])
        for c, fit in zip(classes, stack):
            fits[c] = fit
    gen = GmmGenerator()
    for mix, trace in fits:
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
