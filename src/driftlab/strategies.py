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
lam=0 walks seqft's trajectory bit for bit, mtl on a one-domain stream is
seqft, and under sequential expert init expert t of every expert bank is
seqft's model after domain t.
"""

from __future__ import annotations

import copy
import os

import numpy as np

from . import nn
from .benchmarks import LabeledSet, StreamGuard
from .errors import ConfigError, ContractError, ValidationError
from .gmm import FitConfig, fit_generator, sample_buffer
from .kmeans import CentroidRouter
from .memory import (build_router_trainset, compose_replay_trainset,
                     concat_sets, update_replay_buffer)
from .optim import OptimizerState
from .rng import derive, make_rng
from .training import TrainRequest, estimate_fisher_diag, ewc_hook, train_classifier

STRATEGY_NAMES = ("seqft", "ewc", "er", "gen_replay", "g2d",
                  "oracle_router", "centroid_router", "mtl")

EXPERT_INIT_MODES = ("sequential", "fresh")

# the router_kind of every self-routing strategy, in report column order:
# non-parametric baseline, synthetic-trained discriminator, real-data bound
ROUTER_KINDS = ("centroid", "synthetic", "oracle")


class Strategy:
    """Base contract: train_on_domain(t, guard) in stream order, then
    predict(x) without domain identity.

    train_on_domain is learn followed by consolidate. learn(t) does
    everything that can change predict; consolidate(t) keeps what the
    finished domain leaves behind for later domains (an EWC anchor, a
    replay admission, a generator's buffer) and changes no prediction.
    Per-domain model selection learns every grid candidate and
    consolidates only the winner. What domains leave behind is kept in
    plain lists whose position is the domain id.

    hp is a config.StrategyConfig whose grid fields hold one scalar each
    (one point of config.expand_grid). The base keeps one classifier,
    ``model``; every model a strategy trains, expert and router included,
    is built by _new_model and trained by _train. _train yields the
    training as a list of one TrainRequest, so learn_steps lets a caller
    train the requests of several runs in lockstep (lockstep); learn
    trains its own one at a time.
    """

    name = "base"
    privileged = False    # may the guard reveal past domains' real data?
    router_kind = None    # set by strategies that self-route

    def __init__(self, seed: int, dim: int, n_classes: int, hp):
        self.seed = int(seed)
        self.dim = int(dim)
        self.n_classes = int(n_classes)
        self.hp = hp
        self.last_trained = -1
        self.last_consolidated = -1
        self.model = None

    def train_on_domain(self, t: int, guard: StreamGuard, hp=None):
        self.learn(t, guard, hp)
        self.consolidate(t, guard, hp)

    def learn(self, t: int, guard: StreamGuard, hp=None):
        """Train on domain t; the previous domain must be consolidated."""
        run_lockstep([self.learn_steps(t, guard, hp)])

    def learn_steps(self, t: int, guard: StreamGuard, hp=None):
        """learn as a generator that yields each training as a list of
        TrainRequests and expects their models trained before it is
        resumed."""
        if self.last_trained != self.last_consolidated:
            raise ContractError(f"learn({t}) before domain {self.last_trained} "
                                f"is consolidated")
        if t != self.last_trained + 1:
            raise ContractError(
                f"domains must arrive in order: expected {self.last_trained + 1}, got {t}"
            )
        yield from self._learn(t, guard, hp or self.hp)
        self.last_trained = t

    def consolidate(self, t: int, guard: StreamGuard, hp=None):
        """Keep what domain t leaves behind; t must be the domain just learned."""
        if t != self.last_trained or t == self.last_consolidated:
            raise ContractError(f"consolidate({t}) needs domain {t} learned and not yet "
                                f"consolidated (learned up to {self.last_trained}, "
                                f"consolidated up to {self.last_consolidated})")
        self._consolidate(t, guard, hp or self.hp)
        self.last_consolidated = t

    def _learn(self, t: int, guard: StreamGuard, hp):
        raise NotImplementedError

    def _consolidate(self, t: int, guard: StreamGuard, hp):
        pass

    def _new_model(self, hidden, n_outputs: int, *seed_labels) -> nn.Classifier:
        dims = [self.dim, *hidden, n_outputs]
        return nn.init_classifier(dims, derive(self.seed, *seed_labels))

    def _train(self, model: nn.Classifier, data: LabeledSet, t: int, role: str,
               epochs: int, learning_rate: float, hp, anchors=(), lam=0.0):
        """Yield the request that trains model on data; return the model."""
        yield [TrainRequest(model, data, epochs, hp.batch_size, hp.optimizer, learning_rate,
                            derive(self.seed, "domain", t, role), anchors, lam)]
        return model

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise ContractError("predict before any training")
        return nn.predict(self.model, X)

    def route(self, X: np.ndarray) -> np.ndarray:
        raise ContractError(f"strategy {self.name!r} has no domain router")

    def clone(self) -> "Strategy":
        """Deep copy used by per-domain hyperparameter selection."""
        return copy.deepcopy(self)


class SeqFT(Strategy):
    """Sequential finetuning: nothing protects past domains."""

    name = "seqft"

    def _learn(self, t, guard, hp):
        if self.model is None:
            self.model = self._new_model(hp.hidden, self.n_classes, "init")
        yield from self._train(self.model, guard.train(t), t, "train",
                               hp.epochs, hp.learning_rate, hp)


class Ewc(Strategy):
    """Sequential finetuning with a quadratic pull toward per-domain anchors."""

    name = "ewc"

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.anchors = []     # (params, fisher) per finished domain

    def _learn(self, t, guard, hp):
        if self.model is None:
            self.model = self._new_model(hp.hidden, self.n_classes, "init")
        # lam = 0 is no penalty at all: the model trains as seqft's does
        anchors = self.anchors if hp.lam > 0 else []
        yield from self._train(self.model, guard.train(t), t, "train",
                               hp.epochs, hp.learning_rate, hp, anchors, hp.lam)

    def _consolidate(self, t, guard, hp):
        fisher = estimate_fisher_diag(
            self.model, guard.train(t), derive(self.seed, "domain", t, "fisher"),
            n_samples=hp.fisher_samples,
        )
        self.anchors.append((self.model.params.copy(), fisher))


class Er(Strategy):
    """Experience replay: rehearse real samples kept under per-class quotas."""

    name = "er"

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.buffer = []      # reservoir admission per finished domain

    def _learn(self, t, guard, hp):
        if self.model is None:
            self.model = self._new_model(hp.hidden, self.n_classes, "init")
        data = guard.train(t)
        yield from self._train(self.model, compose_replay_trainset(data, self.buffer), t,
                               "train", hp.epochs, hp.learning_rate, hp)

    def _consolidate(self, t, guard, hp):
        update_replay_buffer(self.buffer, guard.train(t), t, hp.quota,
                             derive(self.seed, "domain", t, "reservoir"))


def _draw_buffer(seed: int, n_classes: int, data: LabeledSet, t: int, hp):
    """Fit domain t's generator and freeze one synthetic buffer draw.

    The seeds depend only on (run seed, domain), so gen_replay and g2d draw
    byte-identical buffers under the same run seed.
    """
    gen = fit_generator(data, t, n_classes, FitConfig(n_components=hp.gmm_components),
                        derive(seed, "domain", t, "generator"))
    return sample_buffer(gen, hp.n_per_class, derive(seed, "domain", t, "buffer"))


class GenReplay(Strategy):
    """Generative replay: past domains are rehearsed through synthetic
    samples; the current domain contributes its real training split."""

    name = "gen_replay"

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.synthetic = []   # one synthetic draw per finished domain

    def _learn(self, t, guard, hp):
        if self.model is None:
            self.model = self._new_model(hp.hidden, self.n_classes, "init")
        data = guard.train(t)
        yield from self._train(self.model, compose_replay_trainset(data, self.synthetic), t,
                               "train", hp.epochs, hp.learning_rate, hp)

    def _consolidate(self, t, guard, hp):
        draw = _draw_buffer(self.seed, self.n_classes, guard.train(t), t, hp)
        # quota equals the per-class draw, so the whole draw is admitted
        update_replay_buffer(self.synthetic, draw, t, hp.n_per_class,
                             derive(self.seed, "domain", t, "reservoir"))


class _ExpertBank(Strategy):
    """Router strategies: a frozen expert per domain and a router that
    sends each point to one of them.

    Expert t starts from expert t-1's checkpoint by default (a config flag
    switches to fresh initialization) and is never touched again after its
    domain finishes. The router is None while a single domain has been seen
    (routing is constant), a Classifier over domain ids retrained from
    scratch after each later domain, or a CentroidRouter.
    """

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.experts = []
        self.router = None

    def _train_expert(self, data: LabeledSet, t: int, hp):
        if t == 0:
            model = self._new_model(hp.hidden, self.n_classes, "init")
        elif hp.expert_init == "sequential":
            model = self.experts[-1].copy()
        else:
            model = self._new_model(hp.hidden, self.n_classes, "domain", t, "init")
        self.experts.append((yield from self._train(model, data, t, "train",
                                                     hp.epochs, hp.learning_rate, hp)))

    def _train_router(self, trainset: LabeledSet, t: int, hp):
        router = self._new_model(hp.router_hidden, t + 1, "domain", t, "router_init")
        self.router = yield from self._train(router, trainset, t, "router",
                                             hp.router_epochs, hp.router_learning_rate, hp)

    def route(self, X: np.ndarray) -> np.ndarray:
        if not self.experts:
            raise ContractError("route before any training")
        X = np.asarray(X, dtype=float)
        if self.router is None:
            return np.zeros(X.shape[0], dtype=int)
        if isinstance(self.router, CentroidRouter):
            return self.router.predict(X)
        return nn.predict(self.router, X)

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


class G2d(_ExpertBank):
    """Frozen experts routed by a discriminator trained only on synthetic
    buffers: each finished domain leaves behind a buffer, and routing
    learns to tell the buffers apart by their domain of origin (the current
    domain's buffer included)."""

    name = "g2d"
    router_kind = "synthetic"

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.synthetic = []

    def _learn(self, t, guard, hp):
        # the buffer is drawn here, not in consolidate: the router trains on it
        data = guard.train(t)
        yield from self._train_expert(data, t, hp)
        self.synthetic.append(_draw_buffer(self.seed, self.n_classes, data, t, hp))
        if t > 0:
            yield from self._train_router(build_router_trainset(self.synthetic), t, hp)


class OracleRouter(_ExpertBank):
    """g2d with the router trained on real data of every seen domain.

    Privileged: quantifies how much routing accuracy the synthetic buffers
    give away. The expert bank is seeded identically to g2d's."""

    name = "oracle_router"
    router_kind = "oracle"
    privileged = True

    def _learn(self, t, guard, hp):
        yield from self._train_expert(guard.train(t), t, hp)
        if t > 0:
            trainset = build_router_trainset([guard.train(i) for i in range(t + 1)])
            yield from self._train_router(trainset, t, hp)


class CentroidRouted(_ExpertBank):
    """g2d's expert bank with a k-means/KNN router over raw features."""

    name = "centroid_router"
    router_kind = "centroid"

    def _learn(self, t, guard, hp):
        data = guard.train(t)
        yield from self._train_expert(data, t, hp)
        if self.router is None:
            self.router = CentroidRouter(hp.n_centroids, hp.n_neighbors)
        self.router.add_domain(data.X, make_rng(self.seed, "domain", t, "centroids"))


class Mtl(Strategy):
    """Joint training on every seen domain, retrained from scratch per step.

    Privileged upper bound: after the final domain it has trained on the
    union of all training splits simultaneously."""

    name = "mtl"
    privileged = True

    def _learn(self, t, guard, hp):
        self.model = self._new_model(hp.hidden, self.n_classes, "init")
        union = concat_sets([guard.train(i) for i in range(t + 1)])
        yield from self._train(self.model, union, t, "train",
                               hp.epochs, hp.learning_rate, hp)


_REGISTRY = {cls.name: cls for cls in
             (SeqFT, Ewc, Er, GenReplay, G2d, OracleRouter, CentroidRouted, Mtl)}


def train_lockstep(requests):
    """Train every request, stacking into one train_classifier call those
    whose layer dims, row count, epochs, batch size, optimizer, learning
    rate and anchor count match; each keeps its own anchors and lam."""
    groups = {}
    for req in requests:
        key = (tuple(req.model.layer_dims), len(req.data), req.epochs, req.batch_size,
               req.optimizer, req.learning_rate, len(req.anchors))
        groups.setdefault(key, []).append(req)
    for group in groups.values():
        first = group[0]
        train_classifier([req.model for req in group], [req.data for req in group],
                         epochs=first.epochs, batch_size=first.batch_size,
                         opt=OptimizerState(first.optimizer, first.learning_rate),
                         seeds=[req.seed for req in group],
                         penalty=ewc_hook([req.anchors for req in group],
                                          [req.lam for req in group]))


def lockstep(runs):
    """Step generators that yield lists of TrainRequests (learn_steps, or
    anything built on it) together, until each returns; return their
    return values in order.

    A generator itself: each round it yields the pending requests of every
    run as one list, and resumes each run once that list is trained.
    Nested, it stacks grid candidates within a run and runs across seeds.
    """
    results = [None] * len(runs)
    pending = {}

    def advance(i):
        try:
            pending[i] = next(runs[i])
        except StopIteration as done:
            pending.pop(i, None)
            results[i] = done.value

    for i in range(len(runs)):
        advance(i)
    while pending:
        yield [req for reqs in pending.values() for req in reqs]
        for i in list(pending):
            advance(i)
    return results


def run_lockstep(runs) -> list:
    """Drive lockstep(runs) to the end, training each round in one
    train_lockstep call; return the runs' return values in order."""
    rounds = lockstep(runs)
    while True:
        try:
            requests = next(rounds)
        except StopIteration as done:
            return done.value
        train_lockstep(requests)


def strategy_dispatch(name: str, seed: int, dim: int, n_classes: int, hp) -> Strategy:
    """Instantiate a strategy by its registered name; hp is a
    config.StrategyConfig with scalar grid fields."""
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
    for t, buf in enumerate(getattr(strategy, "synthetic", ())):
        yield f"buffer{t}.X", buf.X
        yield f"buffer{t}.y", buf.y
    if isinstance(strategy, Ewc):
        model = strategy.model
        for a, (params, fisher) in enumerate(strategy.anchors):
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
