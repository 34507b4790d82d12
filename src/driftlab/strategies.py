"""The strategy roster: one interface, eight ways to survive a domain stream.

Every strategy sees domains strictly in order through a StreamGuard and must
answer predict(x) with no domain identity attached. The roster:

* seqft            -- one classifier, finetuned domain after domain.
* ewc              -- seqft plus a quadratic anchor per past domain,
                      weighted by diagonal Fisher information.
* er               -- rehearsal on a buffer of real past samples
                      (per-class quota per domain).
* gen_replay       -- rehearsal on synthetic samples from per-domain
                      generators; the classifier trains on past synthetic
                      plus current real data.
* g2d              -- per-domain frozen experts plus a domain router trained
                      purely on the synthetic buffers (labels = domain ids);
                      inference routes each point to one expert.
* oracle_router    -- g2d's expert bank, but the router trains on real past
                      data (privileged upper bound for routing).
* centroid_router  -- g2d's expert bank with a k-means/KNN router.
* mtl              -- retrained from scratch on the union of all seen
                      domains (privileged upper bound for accuracy).

gen_replay and g2d draw their synthetic buffers from identically seeded
generators, so both consume bit-identical synthetic samples; the two
strategies differ only in what the samples are used for.

Seeds derive from (run seed, domain index, role) and never from the strategy
name, which makes the documented degenerate equalities exact: ewc with
lam=0 walks seqft's trajectory bit for bit, and mtl on a one-domain stream
is seqft.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass

import numpy as np

from . import nn
from .benchmarks import LabeledSet, StreamGuard
from .errors import ConfigError, ContractError, ValidationError
from .gmm import FitConfig, fit_generator, sample_buffer
from .kmeans import CentroidRouter
from .memory import (ReplayBuffer, build_router_trainset,
                     compose_replay_trainset, concat_sets,
                     update_replay_buffer)
from .optim import OptimizerState
from .rng import derive, make_rng
from .training import (EwcState, estimate_fisher_diag, ewc_penalty,
                       train_classifier)

STRATEGY_NAMES = ("seqft", "ewc", "er", "gen_replay", "g2d",
                  "oracle_router", "centroid_router", "mtl")

EXPERT_INIT_MODES = ("sequential", "fresh")


@dataclass
class Hyperparams:
    """Resolved (scalar) training knobs for one strategy on one domain.

    hidden and router_hidden are architecture lists and are fixed for the
    life of a strategy; every other field may vary per domain when the
    config supplies a grid.
    """

    hidden: tuple = (32,)
    epochs: int = 40
    batch_size: int = 32
    learning_rate: float = 0.01
    optimizer: str = "adam"
    lam: float = 1.0               # anchor penalty strength
    fisher_samples: int = None     # None = use the whole train split
    quota: int = 15                # real samples kept per class per domain
    n_per_class: int = 15          # synthetic samples drawn per class per domain
    gmm_components: int = 1
    router_hidden: tuple = (32,)
    router_epochs: int = 80
    router_learning_rate: float = 0.01
    n_centroids: int = 5
    n_neighbors: int = 1
    expert_init: str = "sequential"

    def __post_init__(self):
        self.hidden = tuple(int(h) for h in self.hidden)
        self.router_hidden = tuple(int(h) for h in self.router_hidden)
        if self.expert_init not in EXPERT_INIT_MODES:
            raise ValidationError(
                f"expert_init must be one of {EXPERT_INIT_MODES}, got {self.expert_init!r}"
            )


class Strategy:
    """Base contract: train_on_domain(t, guard) in stream order, then
    predict(x) without domain identity."""

    name = "base"
    privileged = False    # may the guard reveal past domains' real data?
    router_kind = None    # set by strategies that self-route

    def __init__(self, seed: int, dim: int, n_classes: int, hp: Hyperparams = None):
        self.seed = int(seed)
        self.dim = int(dim)
        self.n_classes = int(n_classes)
        self.hp = hp if hp is not None else Hyperparams()
        self.last_trained = -1

    def _enter(self, t: int):
        if t != self.last_trained + 1:
            raise ContractError(
                f"domains must arrive in order: expected {self.last_trained + 1}, got {t}"
            )

    def train_on_domain(self, t: int, guard: StreamGuard, hp: Hyperparams = None):
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def route(self, X: np.ndarray) -> np.ndarray:
        raise ContractError(f"strategy {self.name!r} has no domain router")

    def clone(self) -> "Strategy":
        """Deep copy used by per-domain hyperparameter selection."""
        return copy.deepcopy(self)


class _SingleModel(Strategy):
    """Shared plumbing for strategies that keep one classifier."""

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.model = None

    def _fresh_model(self, hp: Hyperparams) -> nn.Classifier:
        dims = [self.dim, *hp.hidden, self.n_classes]
        return nn.init_classifier(dims, derive(self.seed, "init"))

    def _fit(self, data: LabeledSet, t: int, hp: Hyperparams, penalty=None):
        opt = OptimizerState(hp.optimizer, hp.learning_rate)
        train_classifier(self.model, data, epochs=hp.epochs, batch_size=hp.batch_size,
                         opt=opt, seed=derive(self.seed, "domain", t, "train"),
                         penalty=penalty)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise ContractError("predict before any training")
        return nn.predict(self.model, X)


class SeqFT(_SingleModel):
    """Sequential finetuning: nothing protects past domains."""

    name = "seqft"

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        if self.model is None:
            self.model = self._fresh_model(hp)
        self._fit(guard.train(t), t, hp)
        self.last_trained = t


class Ewc(_SingleModel):
    """Sequential finetuning with a quadratic pull toward per-domain anchors."""

    name = "ewc"

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.ewc = EwcState()

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        if self.model is None:
            self.model = self._fresh_model(hp)
        data = guard.train(t)
        penalty = None
        if hp.lam > 0 and len(self.ewc) > 0:
            lam = hp.lam
            penalty = lambda m: ewc_penalty(m, self.ewc, lam)
        self._fit(data, t, hp, penalty=penalty)
        fisher = estimate_fisher_diag(
            self.model, data, derive(self.seed, "domain", t, "fisher"),
            n_samples=hp.fisher_samples,
        )
        self.ewc.add_anchor(self.model.params.copy(), fisher)
        self.last_trained = t


class Er(_SingleModel):
    """Experience replay: rehearse real samples kept under per-class quotas."""

    name = "er"

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.buffer = ReplayBuffer(source="real")

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        if self.model is None:
            self.model = self._fresh_model(hp)
        data = guard.train(t)
        self._fit(compose_replay_trainset(data, self.buffer), t, hp)
        update_replay_buffer(self.buffer, data, t, hp.quota,
                             derive(self.seed, "domain", t, "reservoir"))
        self.last_trained = t


class _GeneratorMixin:
    """Fit a per-domain generator and freeze one synthetic buffer draw.

    The seeds depend only on (run seed, domain), so every strategy holding
    this mixin draws byte-identical buffers under the same run seed.
    """

    def _draw_buffer(self, data: LabeledSet, t: int, hp: Hyperparams):
        gen = fit_generator(
            data, t, self.n_classes, FitConfig(n_components=hp.gmm_components),
            derive(self.seed, "domain", t, "generator"),
        )
        buf = sample_buffer(gen, hp.n_per_class, derive(self.seed, "domain", t, "buffer"))
        self.generators.append(gen)
        self.synthetic.append(buf)
        return buf


class GenReplay(_SingleModel, _GeneratorMixin):
    """Generative replay: past domains are rehearsed through synthetic
    samples; the current domain contributes its real training split."""

    name = "gen_replay"

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.generators = []
        self.synthetic = []
        self.buffer = ReplayBuffer(source="synthetic")

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        if self.model is None:
            self.model = self._fresh_model(hp)
        data = guard.train(t)
        self._fit(compose_replay_trainset(data, self.buffer), t, hp)
        buf = self._draw_buffer(data, t, hp)
        # quota equals the per-class draw, so the whole buffer is stored
        update_replay_buffer(self.buffer, buf.data, t, hp.n_per_class,
                             derive(self.seed, "domain", t, "reservoir"))
        self.last_trained = t


class _ExpertBank(Strategy):
    """Shared plumbing for router strategies: a frozen expert per domain.

    Expert t starts from expert t-1's checkpoint by default (a config flag
    switches to fresh initialization) and is never touched again after its
    domain finishes.
    """

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.experts = []

    def _train_expert(self, data: LabeledSet, t: int, hp: Hyperparams):
        dims = [self.dim, *hp.hidden, self.n_classes]
        if t == 0:
            model = nn.init_classifier(dims, derive(self.seed, "init"))
        elif hp.expert_init == "sequential":
            model = self.experts[-1].copy()
        else:
            model = nn.init_classifier(dims, derive(self.seed, "domain", t, "init"))
        opt = OptimizerState(hp.optimizer, hp.learning_rate)
        train_classifier(model, data, epochs=hp.epochs, batch_size=hp.batch_size,
                         opt=opt, seed=derive(self.seed, "domain", t, "train"))
        self.experts.append(model)

    def route(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self.experts:
            raise ContractError("predict before any training")
        X = np.asarray(X, dtype=float)
        routed = self.route(X)
        out = np.empty(X.shape[0], dtype=int)
        for t in np.unique(routed):
            mask = routed == t
            out[mask] = nn.predict(self.experts[t], X[mask])
        return out


class _MlpRouted(_ExpertBank):
    """Expert bank routed by a softmax classifier over domain ids.

    The router is retrained from scratch after each domain with output
    arity equal to the number of seen domains; with a single domain it is
    the constant function.
    """

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.router = None

    def _router_trainset(self, t: int, guard: StreamGuard) -> LabeledSet:
        raise NotImplementedError

    def _retrain_router(self, t: int, guard: StreamGuard, hp: Hyperparams):
        if t == 0:
            self.router = None    # one domain: routing is constant
            return
        trainset = self._router_trainset(t, guard)
        dims = [self.dim, *hp.router_hidden, t + 1]
        self.router = nn.init_classifier(dims, derive(self.seed, "domain", t, "router_init"))
        opt = OptimizerState(hp.optimizer, hp.router_learning_rate)
        train_classifier(self.router, trainset, epochs=hp.router_epochs,
                         batch_size=hp.batch_size, opt=opt,
                         seed=derive(self.seed, "domain", t, "router"))

    def route(self, X: np.ndarray) -> np.ndarray:
        if not self.experts:
            raise ContractError("route before any training")
        X = np.asarray(X, dtype=float)
        if self.router is None:
            return np.zeros(X.shape[0], dtype=int)
        return nn.predict(self.router, X)


class G2d(_MlpRouted, _GeneratorMixin):
    """Frozen experts routed by a discriminator trained only on synthetic
    buffers: each finished domain leaves behind a generator, and routing
    learns to tell the buffers apart by their domain of origin (the current
    domain's buffer included)."""

    name = "g2d"
    router_kind = "synthetic"

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.generators = []
        self.synthetic = []

    def _router_trainset(self, t, guard):
        return build_router_trainset(self.synthetic)

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        data = guard.train(t)
        self._train_expert(data, t, hp)
        self._draw_buffer(data, t, hp)
        self._retrain_router(t, guard, hp)
        self.last_trained = t


class OracleRouter(_MlpRouted):
    """g2d with the router trained on real data of every seen domain.

    Privileged: quantifies how much routing accuracy the synthetic buffers
    give away. The expert bank is seeded identically to g2d's."""

    name = "oracle_router"
    router_kind = "oracle"
    privileged = True

    def _router_trainset(self, t, guard):
        return build_router_trainset([(i, guard.train(i)) for i in range(t + 1)])

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        self._train_expert(guard.train(t), t, hp)
        self._retrain_router(t, guard, hp)
        self.last_trained = t


class CentroidRouted(_ExpertBank):
    """g2d's expert bank with a k-means/KNN router over raw features."""

    name = "centroid_router"
    router_kind = "centroid"

    def __init__(self, seed, dim, n_classes, hp=None):
        super().__init__(seed, dim, n_classes, hp)
        self.router = None

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        data = guard.train(t)
        self._train_expert(data, t, hp)
        if self.router is None:
            self.router = CentroidRouter(hp.n_centroids, hp.n_neighbors)
        self.router.add_domain(data.X, make_rng(self.seed, "domain", t, "centroids"))
        self.last_trained = t

    def route(self, X: np.ndarray) -> np.ndarray:
        if self.router is None:
            raise ContractError("route before any training")
        return self.router.predict(X)


class Mtl(_SingleModel):
    """Joint training on every seen domain, retrained from scratch per step.

    Privileged upper bound: after the final domain it has trained on the
    union of all training splits simultaneously."""

    name = "mtl"
    privileged = True

    def train_on_domain(self, t, guard, hp=None):
        self._enter(t)
        hp = hp or self.hp
        self.model = self._fresh_model(hp)
        union = concat_sets([guard.train(i) for i in range(t + 1)])
        self._fit(union, t, hp)
        self.last_trained = t


_REGISTRY = {cls.name: cls for cls in
             (SeqFT, Ewc, Er, GenReplay, G2d, OracleRouter, CentroidRouted, Mtl)}


def strategy_dispatch(name: str, seed: int, dim: int, n_classes: int,
                      hp: Hyperparams = None) -> Strategy:
    """Instantiate a strategy by its registered name."""
    if name not in _REGISTRY:
        raise ConfigError(
            f"unknown strategy {name!r}; valid names: {', '.join(STRATEGY_NAMES)}"
        )
    return _REGISTRY[name](seed, dim, n_classes, hp)


# ---------------------------------------------------------------------------
# Checkpoints: one text file of named array blocks, exact float round-trip
# ---------------------------------------------------------------------------


def _classifier_arrays(tag: str, model: nn.Classifier):
    for i, (w, b) in enumerate(nn.layer_views(model, model.params)):
        yield f"{tag}.W{i}", w
        yield f"{tag}.b{i}", b


def _checkpoint_arrays(strategy: Strategy):
    """(name, array) for every piece of learned state a checkpoint keeps:
    the model or the experts, the router, the synthetic buffers and the
    anchors. A constant router has no state; real replay data is not
    model state and never leaves the run."""
    if isinstance(strategy, _ExpertBank):
        for t, expert in enumerate(strategy.experts):
            yield from _classifier_arrays(f"expert{t}", expert)
        router = strategy.router
        if isinstance(router, CentroidRouter):
            yield "router.k", np.array(router.n_centroids)
            yield "router.knn", np.array(router.n_neighbors)
            yield "router.centroids", router.centroids
            yield "router.domain_ids", router.domain_ids
        elif router is not None:
            yield from _classifier_arrays("router", router)
    elif strategy.model is not None:
        yield from _classifier_arrays("model", strategy.model)
    for buf in getattr(strategy, "synthetic", ()):
        yield f"buffer{buf.domain_id}.X", buf.data.X
        yield f"buffer{buf.domain_id}.y", buf.data.y
    if isinstance(strategy, Ewc):
        model = strategy.model
        for a, (params, fisher) in enumerate(strategy.ewc.anchors):
            for i, ((w, b), (fw, fb)) in enumerate(zip(nn.layer_views(model, params),
                                                       nn.layer_views(model, fisher))):
                for label, arr in (("W", w), ("b", b), ("FW", fw), ("Fb", fb)):
                    yield f"anchor{a}.{label}{i}", arr


def save_checkpoint(strategy: Strategy, out_dir):
    """Write the strategy's learned state to <out_dir>/checkpoint.txt.

    Each array is one block: a header line ``<name> <dtype> shape=<d0>x<d1>``
    (an empty shape for a scalar), then one line of its values in row-major
    order, each written with repr so that read_arrays restores it exactly.
    """
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "checkpoint.txt"), "w") as fh:
        for name, arr in _checkpoint_arrays(strategy):
            shape = "x".join(str(d) for d in arr.shape)
            fh.write(f"{name} {arr.dtype.name} shape={shape}\n")
            fh.write(" ".join(repr(v) for v in arr.ravel().tolist()) + "\n")


def read_arrays(path) -> dict:
    """Parse a checkpoint file into {name: ndarray}, bit-exact in dtype,
    shape and values."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if len(lines) % 2:
        raise ValidationError(f"{path}: the last block has no values line")
    arrays = {}
    for i in range(0, len(lines), 2):
        head = lines[i].split(" ")
        if len(head) != 3 or not head[2].startswith("shape="):
            raise ValidationError(f"{path}: bad block header on line {i + 1}: {lines[i]!r}")
        name, dtype, dims = head[0], np.dtype(head[1]), head[2][len("shape="):]
        shape = tuple(int(d) for d in dims.split("x")) if dims else ()
        parse = int if dtype.kind in "iu" else float
        values = [parse(v) for v in lines[i + 1].split()]
        if len(values) != int(np.prod(shape)) or name in arrays:
            raise ValidationError(f"{path}: block {name!r} on line {i + 1} is repeated "
                                  f"or does not hold {shape} values")
        arrays[name] = np.array(values, dtype=dtype).reshape(shape)
    return arrays
