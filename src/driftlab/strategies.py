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
                      data (a privileged baseline for routing).
* centroid_router  -- g2d's expert bank with a k-means/KNN router.
* mtl              -- retrained from scratch on the union of all seen
                      domains (a privileged baseline for accuracy).

gen_replay and g2d draw their synthetic buffers from identically seeded
generators, so both consume bit-identical synthetic samples; the two
strategies differ only in what the samples are used for.

Seeds derive from (run seed, domain index, role) and never from the strategy
name, which makes the documented degenerate equalities exact: ewc with
lam=0 walks seqft's trajectory bit for bit and mtl on a one-domain stream
is seqft. Expert t of every expert bank is seqft's model after domain t by
construction."""

from __future__ import annotations

import contextlib
import copy
import hashlib

import numpy as np

from . import nn
from .benchmarks import LabeledSet, StreamGuard
from .errors import ConfigError, ContractError, ValidationError
from .files import write_text
from .gmm import FitConfig, fit_generator, sample_buffer
from .kmeans import CentroidRouter
from .memory import (build_router_trainset, compose_replay_trainset,
                     concat_sets, update_replay_buffer)
from .rng import derive, make_rng
from .training import TrainRequest, estimate_fisher_diag, stack_key, train_classifier

# the router_kind of every self-routing strategy, in report column order:
# non-parametric baseline, synthetic-trained discriminator, real-data bound
ROUTER_KINDS = ("centroid", "synthetic", "oracle")
# the hp fields of a router trained as a classifier over domain ids
_ROUTER_FIELDS = ("router_hidden", "router_epochs", "router_learning_rate")


class Strategy:
    """Base contract: train_on_domain(t, guard) in stream order, then
    predict(x) without domain identity.

    train_on_domain is learn, then train_requests, then consolidate.
    learn(t) returns domain t's TrainRequests, which never read each
    other's result; training them does everything that can change
    predict. consolidate(t) keeps what the finished domain leaves behind
    for later domains (an EWC anchor, a replay admission, a generator's
    buffer) and changes no prediction. Per-domain model selection
    (harness._select_and_train) learns every grid candidate of every run
    of a task, trains all their requests in one train_requests call, and
    consolidates only each run's winner. What domains
    leave behind is kept in plain lists whose position is the domain id.

    hp, the one source of the hyperparameters, is a config.StrategyConfig
    whose grid fields hold one scalar each (one point of
    config.expand_grid); every hook reads it as self.hp. The base keeps
    one classifier, ``model``, and its _learn requests its training on two
    hooks: _trainset (replay composes, mtl takes the union afresh) and
    _penalty (ewc's anchors and lam). Every model, expert and router
    included, is built by _new_model and requested by _request, so a
    caller can train the requests of several candidates and runs that
    share a stack_key as one stack. arrays() names the checkpoint blocks,
    and hp_fields the config fields that the hooks read.
    """

    name = "base"
    hp_fields = ("hidden", "epochs", "batch_size", "learning_rate", "optimizer")
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

    def train_on_domain(self, t: int, guard: StreamGuard):
        train_requests(self.learn(t, guard))
        self.consolidate(t, guard)

    def learn(self, t: int, guard: StreamGuard) -> list:
        """Domain t's TrainRequests; the previous domain must be
        consolidated. Every request must be trained (train_requests)
        before predict or consolidate is called."""
        if self.last_trained != self.last_consolidated:
            raise ContractError(f"learn({t}) before domain {self.last_trained} "
                                f"is consolidated")
        if t != self.last_trained + 1:
            raise ContractError(f"domains must arrive in order: "
                                f"expected {self.last_trained + 1}, got {t}")
        requests = self._learn(t, guard)
        self.last_trained = t
        return requests

    def consolidate(self, t: int, guard: StreamGuard):
        """Keep what domain t leaves behind; t must be the domain just learned."""
        if t != self.last_trained or t == self.last_consolidated:
            raise ContractError(f"consolidate({t}) needs domain {t} learned and not yet "
                                f"consolidated (learned up to {self.last_trained}, "
                                f"consolidated up to {self.last_consolidated})")
        self._consolidate(t, guard)
        self.last_consolidated = t

    def _learn(self, t: int, guard: StreamGuard):
        data = self._trainset(t, guard)
        if self.model is None:
            self.model = self._new_model(self.hp.hidden, self.n_classes, "init")
        return [self._request(self.model, data, t, "train", self.hp.epochs,
                              self.hp.learning_rate, *self._penalty())]

    def _trainset(self, t: int, guard: StreamGuard) -> LabeledSet:
        return guard.train(t)

    def _penalty(self):
        return (), 0.0

    def _consolidate(self, t: int, guard: StreamGuard):
        pass

    def _new_model(self, hidden, n_outputs: int, *seed_labels) -> nn.Classifier:
        dims = [self.dim, *hidden, n_outputs]
        return nn.init_classifier(dims, derive(self.seed, *seed_labels))

    def _request(self, model: nn.Classifier, data: LabeledSet, t: int, role: str,
                 epochs: int, learning_rate: float, anchors=(), lam=0.0) -> TrainRequest:
        """The request that trains model on data, seeded by (domain, role)."""
        return TrainRequest(model, data, epochs, self.hp.batch_size, self.hp.optimizer,
                            learning_rate, derive(self.seed, "domain", t, role), anchors, lam)

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.model is None:
            raise ContractError("predict before any training")
        return nn.predict(self.model, X)

    def route(self, X: np.ndarray) -> np.ndarray:
        raise ContractError(f"strategy {self.name!r} has no domain router")

    def clone(self) -> "Strategy":
        """Deep copy used by per-domain hyperparameter selection."""
        return copy.deepcopy(self)

    def arrays(self):
        """(name, array) per checkpoint block; real replay data stays in the run."""
        if self.model is not None:
            yield from self.model.arrays("model")


def _buffer_blocks(synthetic):
    return ((f"buffer{t}.{a}", arr) for t, buf in enumerate(synthetic)
            for a, arr in (("X", buf.X), ("y", buf.y)))


class SeqFT(Strategy):
    """Sequential finetuning: nothing protects past domains."""

    name = "seqft"


class Ewc(Strategy):
    """Sequential finetuning with a quadratic pull toward per-domain anchors."""

    name = "ewc"
    hp_fields = Strategy.hp_fields + ("lam", "fisher_samples")

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.anchors = []     # (params, fisher) per finished domain

    def _penalty(self):
        # lam = 0 is no penalty at all: the model trains as seqft's does
        return (self.anchors, self.hp.lam) if self.hp.lam > 0 else ((), 0.0)

    def _consolidate(self, t, guard):
        fisher = estimate_fisher_diag(
            self.model, guard.train(t), derive(self.seed, "domain", t, "fisher"),
            n_samples=self.hp.fisher_samples,
        )
        self.anchors.append((self.model.params.copy(), fisher))

    def arrays(self):
        yield from super().arrays()
        for a, (params, fisher) in enumerate(self.anchors):
            for i, ((w, b), (fw, fb)) in enumerate(zip(nn.layer_views(self.model, params),
                                                       nn.layer_views(self.model, fisher))):
                for label, arr in (("W", w), ("b", b), ("FW", fw), ("Fb", fb)):
                    yield f"anchor{a}.{label}{i}", arr


class Er(Strategy):
    """Experience replay: rehearse real samples kept under per-class quotas."""

    name = "er"
    hp_fields = Strategy.hp_fields + ("quota",)

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.buffer = []      # reservoir admission per finished domain

    def _trainset(self, t, guard):
        return compose_replay_trainset(guard.train(t), self.buffer)

    def _consolidate(self, t, guard):
        update_replay_buffer(self.buffer, guard.train(t), self.hp.quota,
                             derive(self.seed, "domain", t, "reservoir"))


_fits = None       # {fit inputs: GmmGenerator} while shared_work is open
_trained = None    # {training inputs: trained params} while shared_work is open


@contextlib.contextmanager
def shared_work():
    """Within the block, _draw_buffer fits each distinct generator once and
    train_requests trains each distinct request once. The memos start
    empty and go however the block ends; they keep fits and trained
    parameter rows, never data."""
    global _fits, _trained
    _fits, _trained = {}, {}
    try:
        yield
    finally:
        _fits = _trained = None


def _digests(*arrays) -> tuple:
    """The shape, dtype and SHA-256 of the bytes of each array: a memo key part."""
    return tuple((a.shape, a.dtype.str, hashlib.sha256(a.tobytes()).digest()) for a in arrays)


def _draw_buffer(seed: int, n_classes: int, data: LabeledSet, t: int, hp):
    """Fit domain t's generator and draw one synthetic buffer from it.

    The seeds depend only on (run seed, domain), so gen_replay and g2d draw
    byte-identical buffers under the same run seed. Within shared_work, a
    fit whose every input (not n_per_class, which it never reads) was seen
    before reuses the stored generator; outside it, every call fits. Each
    call samples a buffer of its own.
    """
    config = FitConfig(n_components=hp.gmm_components)
    key = (seed, t, n_classes, repr(config), *_digests(data.X, data.y))
    fits = {} if _fits is None else _fits
    if key not in fits:   # config by keyword: perfbench's fit_generator span reads it there
        fits[key] = fit_generator(data, n_classes, config=config,
                                  seed=derive(seed, "domain", t, "generator"))
    return sample_buffer(fits[key], hp.n_per_class, derive(seed, "domain", t, "buffer"))


class GenReplay(Strategy):
    """Generative replay: past domains are rehearsed through synthetic
    samples; the current domain contributes its real training split."""

    name = "gen_replay"
    hp_fields = Strategy.hp_fields + ("n_per_class", "gmm_components")

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.synthetic = []   # one synthetic draw per finished domain

    def _trainset(self, t, guard):
        return compose_replay_trainset(guard.train(t), self.synthetic)

    def _consolidate(self, t, guard):
        draw = _draw_buffer(self.seed, self.n_classes, guard.train(t), t, self.hp)
        # quota equals the per-class draw, so the whole draw is admitted
        update_replay_buffer(self.synthetic, draw, self.hp.n_per_class,
                             derive(self.seed, "domain", t, "reservoir"))

    def arrays(self):
        yield from super().arrays()
        yield from _buffer_blocks(self.synthetic)


class _OneDomain:
    """The router of a bank that has seen one domain: every point goes to
    expert 0, and there is no state to keep."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        return np.zeros(X.shape[0], dtype=int)

    def arrays(self, tag: str):
        return ()


class _ExpertBank(Strategy):
    """Router strategies: a frozen expert per domain and a router that
    sends each point to one of them.

    Expert t is seqft's model after domain t: the base _learn trains
    ``model``, and each later domain first replaces it by a copy, so
    finished experts stay frozen. Every router answers predict(X) with
    domain ids and arrays(tag) with its checkpoint blocks: _OneDomain
    until the strategy's own router replaces it, which is a Classifier
    over domain ids retrained from scratch after each later domain or a
    CentroidRouter.
    """

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.experts = []
        self.router = _OneDomain()

    def _learn(self, t, guard):
        if self.experts:
            self.model = self.model.copy()
        requests = super()._learn(t, guard)
        self.experts.append(self.model)
        return requests

    def _router_request(self, trainset: LabeledSet, t: int) -> TrainRequest:
        """Replace the router by a fresh model over t + 1 domains; return
        the request that trains it."""
        self.router = self._new_model(self.hp.router_hidden, t + 1, "domain", t, "router_init")
        return self._request(self.router, trainset, t, "router",
                             self.hp.router_epochs, self.hp.router_learning_rate)

    def route(self, X: np.ndarray) -> np.ndarray:
        if not self.experts:
            raise ContractError("route before any training")
        return self.router.predict(np.asarray(X, dtype=float))

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

    def arrays(self):
        for t, expert in enumerate(self.experts):
            yield from expert.arrays(f"expert{t}")
        yield from self.router.arrays("router")


class G2d(_ExpertBank):
    """Frozen experts routed by a discriminator trained only on synthetic
    buffers: each finished domain leaves behind a buffer, and routing
    learns to tell the buffers apart by their domain of origin (the current
    domain's buffer included)."""

    name = "g2d"
    hp_fields = GenReplay.hp_fields + _ROUTER_FIELDS
    router_kind = "synthetic"

    def __init__(self, seed, dim, n_classes, hp):
        super().__init__(seed, dim, n_classes, hp)
        self.synthetic = []

    def _learn(self, t, guard):
        requests = super()._learn(t, guard)
        # the buffer is drawn here, not in consolidate: the router trains on it
        self.synthetic.append(_draw_buffer(self.seed, self.n_classes, guard.train(t), t, self.hp))
        if t > 0:
            requests.append(self._router_request(build_router_trainset(self.synthetic), t))
        return requests

    def arrays(self):
        yield from super().arrays()
        yield from _buffer_blocks(self.synthetic)


class OracleRouter(_ExpertBank):
    """g2d with the router trained on real data of every seen domain.

    Privileged: quantifies how much routing accuracy the synthetic buffers
    give away. The expert bank is seeded identically to g2d's."""

    name = "oracle_router"
    hp_fields = Strategy.hp_fields + _ROUTER_FIELDS
    router_kind = "oracle"
    privileged = True

    def _learn(self, t, guard):
        requests = super()._learn(t, guard)
        if t > 0:
            trainset = build_router_trainset([guard.train(i) for i in range(t + 1)])
            requests.append(self._router_request(trainset, t))
        return requests


class CentroidRouted(_ExpertBank):
    """g2d's expert bank with a k-means/KNN router over raw features."""

    name = "centroid_router"
    hp_fields = Strategy.hp_fields + ("n_centroids", "n_neighbors")
    router_kind = "centroid"

    def _learn(self, t, guard):
        requests = super()._learn(t, guard)
        if t == 0:
            self.router = CentroidRouter(self.hp.n_centroids, self.hp.n_neighbors)
        self.router.add_domain(guard.train(t).X, make_rng(self.seed, "domain", t, "centroids"))
        return requests


class Mtl(Strategy):
    """Joint training on every seen domain, retrained from scratch per step.

    A privileged baseline: after the final domain it has trained on the
    union of all training splits simultaneously."""

    name = "mtl"
    privileged = True

    def _trainset(self, t, guard):
        self.model = None    # a fresh init at every domain
        return concat_sets([guard.train(i) for i in range(t + 1)])


_REGISTRY = {cls.name: cls for cls in
             (SeqFT, Ewc, Er, GenReplay, G2d, OracleRouter, CentroidRouted, Mtl)}
STRATEGY_NAMES = tuple(_REGISTRY)
STRATEGY_FIELDS = {name: cls.hp_fields for name, cls in _REGISTRY.items()}


def train_requests(requests):
    """Train independent requests: those that share a stack_key train as
    one stack in one train_classifier call, each with its own anchors and
    lam. A request is keyed by every input it has: stack_key, seed, lam
    (0 without anchors, where training never reads it) and the bytes of
    its initial params, data and anchors. The first request of each key
    trains, unless within shared_work an earlier call trained the key,
    and every request takes its key's trained row, the bits it would
    train to."""
    trained = {} if _trained is None else _trained
    keyed, groups = [], {}
    for req in requests:
        key = (stack_key(req), req.seed, req.lam if req.anchors else 0.0,
               *_digests(req.model.params, req.data.X, req.data.y,
                         *[a for anchor in req.anchors for a in anchor]))
        keyed.append((key, req))
        if key not in trained:
            groups.setdefault(stack_key(req), {}).setdefault(key, req)
    for group in groups.values():
        train_classifier(list(group.values()))
        for key, req in group.items():
            trained[key] = req.model.params.copy()
    for key, req in keyed:
        req.model.params[...] = trained[key]


def strategy_dispatch(name: str, seed: int, dim: int, n_classes: int, hp) -> Strategy:
    """Instantiate a strategy by its registered name; hp is a
    config.StrategyConfig with scalar grid fields."""
    if name not in _REGISTRY:
        raise ConfigError(f"unknown strategy {name!r}; "
                          f"valid names: {', '.join(STRATEGY_NAMES)}")
    return _REGISTRY[name](seed, dim, n_classes, hp)


# ---------------------------------------------------------------------------
# Checkpoints: one text file of named array blocks, exact float round-trip
# ---------------------------------------------------------------------------


def save_checkpoint(strategy: Strategy, out_dir):
    """Write strategy.arrays() to <out_dir>/checkpoint.txt, replacing a failure.txt.

    Each array is one block: a header line ``<name> <dtype> shape=<d0>x<d1>``
    (an empty shape for a scalar), then one line of its values in row-major
    order, each written with repr so that read_arrays restores it exactly.
    """
    text = "".join(f"{name} {arr.dtype.name} shape={'x'.join(map(str, arr.shape))}\n"
                   + " ".join(map(repr, arr.ravel().tolist())) + "\n"
                   for name, arr in strategy.arrays())
    write_text(out_dir, "checkpoint.txt", text, replaces="failure.txt")


def read_arrays(path) -> dict:
    """Parse a checkpoint file into {name: ndarray}, bit-exact in dtype,
    shape and values. Only the float and integer dtypes save_checkpoint
    writes load; any malformed block is a ValidationError naming its line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) % 2:
        raise ValidationError(f"{path}: the last block has no values line")
    arrays = {}
    for i in range(0, len(lines), 2):
        head = lines[i].split(" ")
        if len(head) != 3 or not head[2].startswith("shape="):
            raise ValidationError(f"{path}: bad block header on line {i + 1}: {lines[i]!r}")
        try:
            name, dtype, dims = head[0], np.dtype(head[1]), head[2][len("shape="):]
            if dtype.kind not in "fiu":
                raise TypeError(f"save_checkpoint writes no {dtype.name} blocks")
            shape = tuple(int(d) for d in dims.split("x")) if dims else ()
            if any(d < 0 for d in shape):
                raise ValueError(f"negative dimension in shape {dims}")
            parse = int if dtype.kind in "iu" else float
            array = np.array([parse(v) for v in lines[i + 1].split()], dtype=dtype)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: bad block on line {i + 1}: {exc}") from None
        if array.size != int(np.prod(shape)) or name in arrays:
            raise ValidationError(f"{path}: block {name!r} on line {i + 1} is repeated "
                                  f"or does not hold {shape} values")
        arrays[name] = array.reshape(shape)
    return arrays
