"""Strategy roster contracts: ordering, routing, frozen experts, degenerate
equalities, checkpoint round-trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import nn, strategies
from driftlab.benchmarks import BenchmarkConfig, LabeledSet, StreamGuard, build_stream
from driftlab.config import StrategyConfig
from driftlab.errors import ConfigError, ContractError, ValidationError
from driftlab.memory import compose_replay_trainset, concat_sets
from driftlab.strategies import (ROUTER_KINDS, STRATEGY_NAMES, read_arrays, save_checkpoint,
                                 strategy_dispatch, train_requests)

import oracles


def small_stream(n_domains=3, seed=11, shift=6.0, n_train=60):
    bench = BenchmarkConfig(n_domains=n_domains, class_means=[[0.0, -1.5], [0.0, 1.5]],
                            domain_shift=[shift, 0.0], n_train=n_train, n_val=20, n_test=30)
    return build_stream(bench, seed)


def small_hp(**overrides):
    base = dict(hidden=[8], epochs=4, batch_size=16, learning_rate=0.02,
                router_hidden=[8], router_epochs=8, n_per_class=10, quota=8)
    base.update(overrides)
    return StrategyConfig(**base)


def run_stream(name, stream, seed=3, hp=None):
    hp = hp or small_hp()
    strategy = strategy_dispatch(name, seed, stream.dim, stream.n_classes, hp)
    guard = StreamGuard(stream, privileged=strategy.privileged)
    for t in range(stream.n_domains):
        guard.advance(t)
        strategy.train_on_domain(t, guard)
    return strategy


def params_equal(a, b):
    return all(np.array_equal(wa, wb) for wa, wb in zip(a.weights, b.weights)) and \
        all(np.array_equal(ba, bb) for ba, bb in zip(a.biases, b.biases))


def test_dispatch_knows_the_whole_roster():
    stream = small_stream(n_domains=1)
    for name in STRATEGY_NAMES:
        strategy = strategy_dispatch(name, 0, stream.dim, stream.n_classes, small_hp())
        assert strategy.name == name


def test_dispatch_rejects_unknown_names_listing_valid_ones():
    with pytest.raises(ConfigError) as err:
        strategy_dispatch("g2dd", 0, 2, 2, small_hp())
    for name in STRATEGY_NAMES:
        assert name in str(err.value)


def test_domains_must_arrive_in_order():
    stream = small_stream()
    strategy = strategy_dispatch("seqft", 0, stream.dim, stream.n_classes, small_hp())
    guard = StreamGuard(stream)
    guard.advance(0)
    with pytest.raises(ContractError, match="expected 0, got 1"):
        strategy.train_on_domain(1, guard)


def test_consolidate_needs_the_domain_just_learned():
    stream = small_stream()
    for name in STRATEGY_NAMES:
        strategy = strategy_dispatch(name, 0, stream.dim, stream.n_classes, small_hp())
        guard = StreamGuard(stream, privileged=strategy.privileged)
        guard.advance(0)
        with pytest.raises(ContractError, match="consolidate"):
            strategy.consolidate(0, guard)
        train_requests(strategy.learn(0, guard))
        with pytest.raises(ContractError, match="before domain 0 is consolidated"):
            strategy.learn(1, guard)
        strategy.consolidate(0, guard)
        with pytest.raises(ContractError, match="consolidate"):
            strategy.consolidate(0, guard)
        guard.advance(1)
        with pytest.raises(ContractError, match="consolidate"):
            strategy.consolidate(1, guard)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
def test_a_domains_requests_train_in_any_order(name, tmp_path):
    """The requests of one domain hold distinct models and never read each
    other's result: trained one at a time in reverse order, they leave the
    checkpoint train_requests leaves."""
    stream = small_stream()
    together, reversed_ = (strategy_dispatch(name, 5, stream.dim, stream.n_classes, small_hp())
                           for _ in range(2))
    guard = StreamGuard(stream, privileged=together.privileged)
    for t in range(stream.n_domains):
        guard.advance(t)
        requests = together.learn(t, guard)
        assert len({id(req.model) for req in requests}) == len(requests)
        train_requests(requests)
        for req in reversed(reversed_.learn(t, guard)):
            strategies.train_classifier([req])
        for strategy, tag in ((together, "together"), (reversed_, "reversed")):
            strategy.consolidate(t, guard)
            save_checkpoint(strategy, tmp_path / f"{tag}{t}")
        assert (tmp_path / f"together{t}" / "checkpoint.txt").read_text() == \
            (tmp_path / f"reversed{t}" / "checkpoint.txt").read_text()


def test_predict_before_training_is_a_contract_error():
    for name in ("seqft", "g2d", "centroid_router"):
        strategy = strategy_dispatch(name, 0, 2, 2, small_hp())
        with pytest.raises(ContractError):
            strategy.predict(np.zeros((2, 2)))


def test_route_is_only_for_router_strategies():
    stream = small_stream(n_domains=1)
    seqft = run_stream("seqft", stream)
    with pytest.raises(ContractError, match="no domain router"):
        seqft.route(np.zeros((2, 2)))


def test_expert_bank_prediction_decomposes_through_the_router():
    stream = small_stream()
    g2d = run_stream("g2d", stream)
    X = np.vstack([d.test.X for d in stream.domains])
    routed = g2d.route(X)
    want = np.empty(len(X), dtype=int)
    for i, r in enumerate(routed):
        want[i] = nn.predict(g2d.experts[r], X[i : i + 1])[0]
    assert np.array_equal(g2d.predict(X), want)


def test_routing_is_invariant_to_positive_logit_scaling():
    stream = small_stream()
    g2d = run_stream("g2d", stream)
    X = stream.domains[1].test.X
    before = g2d.route(X)
    g2d.router.weights[-1] *= 3.0
    g2d.router.biases[-1] *= 3.0
    assert np.array_equal(g2d.route(X), before)


def test_experts_are_frozen_once_their_domain_ends():
    stream = small_stream()
    strategy = strategy_dispatch("g2d", 3, stream.dim, stream.n_classes, small_hp())
    guard = StreamGuard(stream)
    snapshots = []
    for t in range(stream.n_domains):
        guard.advance(t)
        strategy.train_on_domain(t, guard)
        snapshots.append(strategy.experts[t].copy())
    for t, snap in enumerate(snapshots):
        assert params_equal(strategy.experts[t], snap)


def router_blocks(path):
    return [(key, arr) for key, arr in read_arrays(path / "checkpoint.txt").items()
            if key.startswith("router.")]


@pytest.mark.parametrize("name", ["g2d", "oracle_router", "centroid_router"])
def test_router_checkpoint_blocks_are_its_arrays(name, tmp_path):
    """After one domain routing is constant and no router block is
    written; after two, the router.* blocks are router.arrays("router")."""
    stream = small_stream(n_domains=1)
    one = run_stream(name, stream)
    assert (one.route(stream.domains[0].test.X) == 0).all()
    save_checkpoint(one, tmp_path / "one")
    assert router_blocks(tmp_path / "one") == []

    two = run_stream(name, small_stream(n_domains=2))
    save_checkpoint(two, tmp_path / "two")
    blocks, held = router_blocks(tmp_path / "two"), list(two.router.arrays("router"))
    assert held and [key for key, _ in blocks] == [key for key, _ in held]
    for (_, got), (_, want) in zip(blocks, held):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sequential_experts_are_seqft_snapshots():
    stream = small_stream()
    seqft = strategy_dispatch("seqft", 3, stream.dim, stream.n_classes, small_hp())
    guard = StreamGuard(stream)
    snapshots = []
    for t in range(stream.n_domains):
        guard.advance(t)
        seqft.train_on_domain(t, guard)
        snapshots.append(seqft.model.copy())
    for name in ("g2d", "centroid_router"):
        bank = run_stream(name, stream, seed=3)
        assert len(bank.experts) == len(snapshots)
        for t, snap in enumerate(snapshots):
            assert np.array_equal(bank.experts[t].params, snap.params), (name, t)


def test_ewc_with_zero_lambda_walks_seqft_bit_for_bit():
    stream = small_stream()
    seqft = run_stream("seqft", stream, seed=9)
    ewc = run_stream("ewc", stream, seed=9, hp=small_hp(lam=0.0))
    assert params_equal(seqft.model, ewc.model)


def test_ewc_with_positive_lambda_leaves_the_seqft_trajectory():
    stream = small_stream()
    seqft = run_stream("seqft", stream, seed=9)
    ewc = run_stream("ewc", stream, seed=9, hp=small_hp(lam=50.0))
    assert not params_equal(seqft.model, ewc.model)
    assert len(ewc.anchors) == stream.n_domains


def test_mtl_first_domain_equals_seqft_first_domain():
    stream = small_stream(n_domains=1)
    seqft = run_stream("seqft", stream, seed=4)
    mtl = run_stream("mtl", stream, seed=4)
    assert params_equal(seqft.model, mtl.model)


def test_er_with_unlimited_quota_composes_the_mtl_trainset():
    stream = small_stream()
    T = stream.n_domains
    hp = small_hp(quota=stream.domains[0].train.X.shape[0])
    er = strategy_dispatch("er", 5, stream.dim, stream.n_classes, hp)
    guard = StreamGuard(stream)
    for t in range(T - 1):
        guard.advance(t)
        er.train_on_domain(t, guard)
    guard.advance(T - 1)
    er_trainset = compose_replay_trainset(guard.train(T - 1), er.buffer)
    mtl_trainset = concat_sets([stream.domains[t].train for t in range(T)])
    order_a = np.lexsort((er_trainset.y, *er_trainset.X.T))
    order_b = np.lexsort((mtl_trainset.y, *mtl_trainset.X.T))
    assert np.array_equal(er_trainset.X[order_a], mtl_trainset.X[order_b])
    assert np.array_equal(er_trainset.y[order_a], mtl_trainset.y[order_b])


def test_g2d_and_gen_replay_draw_bit_identical_buffers(monkeypatch):
    # outside harness.run_experiment nothing is shared: each strategy fits
    # its own generators, so this stays an independent check that the two
    # draws match, which is what lets an experiment fit each draw once
    fits = []
    fit_generator = strategies.fit_generator

    def counted(*args, **kwargs):
        fits.append(args)
        return fit_generator(*args, **kwargs)

    monkeypatch.setattr(strategies, "fit_generator", counted)
    stream = small_stream()
    g2d = run_stream("g2d", stream, seed=7)
    gen = run_stream("gen_replay", stream, seed=7)
    assert len(fits) == 2 * stream.n_domains
    assert [oracles.buffer_fingerprint(b) for b in g2d.synthetic] == \
        [oracles.buffer_fingerprint(b) for b in gen.synthetic]
    for a, b in zip(g2d.synthetic, gen.synthetic):
        assert a is not b and not np.shares_memory(a.X, b.X)
        assert np.array_equal(a.X, b.X)


def test_a_fit_is_shared_only_when_every_fit_input_matches(monkeypatch):
    fits = []
    fit_generator = strategies.fit_generator

    def counted(*args, **kwargs):
        fits.append(args)
        return fit_generator(*args, **kwargs)

    monkeypatch.setattr(strategies, "fit_generator", counted)
    data = small_stream().domains[0].train
    hp = small_hp(gmm_components=1)
    with strategies.shared_fits():
        first = strategies._draw_buffer(7, 2, data, 0, hp)
        same = strategies._draw_buffer(7, 2, LabeledSet(data.X.copy(), data.y.copy()), 0, hp)
        assert len(fits) == 1
        assert np.array_equal(same.X, first.X) and np.array_equal(same.y, first.y)
        # n_per_class sizes the buffer and does not enter the fit
        bigger = strategies._draw_buffer(7, 2, data, 0, small_hp(gmm_components=1,
                                                                  n_per_class=11))
        assert len(fits) == 1 and len(bigger) == 22 != len(first)
        refits = [(8, data, 0, hp),
                  (7, LabeledSet(data.X + 1.0, data.y), 0, hp),
                  (7, LabeledSet(data.X, data.y[::-1]), 0, hp),
                  (7, data, 1, hp),
                  (7, data, 0, small_hp(gmm_components=2))]
        for n, (seed, split, t, other) in enumerate(refits, start=2):
            strategies._draw_buffer(seed, 2, split, t, other)
            assert len(fits) == n, (seed, t, other.gmm_components)


def arrays_held(obj, seen=None):
    """Every distinct ndarray reachable from obj through attributes, lists,
    tuples and dicts."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        yield obj
        return
    if isinstance(obj, dict):
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        children = getattr(obj, "__dict__", {}).values()
    for child in children:
        yield from arrays_held(child, seen)


def test_gen_replay_holds_each_synthetic_draw_once():
    stream = small_stream()
    gen = run_stream("gen_replay", stream, seed=7)
    g2d = run_stream("g2d", stream, seed=7)
    assert len(gen.synthetic) == stream.n_domains
    held = list(arrays_held(gen))
    # labels repeat from domain to domain; the features of a draw do not
    for draw in g2d.synthetic:
        copies = [a for a in held if a.shape == draw.X.shape and np.array_equal(a, draw.X)]
        assert len(copies) == 1


def test_router_kinds_are_the_roster_router_kinds():
    stream = small_stream(n_domains=1)
    kinds = [strategy_dispatch(name, 0, stream.dim, stream.n_classes, small_hp()).router_kind
             for name in STRATEGY_NAMES]
    assert sorted(k for k in kinds if k is not None) == sorted(ROUTER_KINDS)


@pytest.mark.parametrize("name", STRATEGY_NAMES)
@settings(max_examples=10, deadline=None)
@given(kind=st.sampled_from(["covariate_shift", "conditional_flip"]),
       n_domains=st.integers(1, 3), n_classes=st.integers(2, 3), dim=st.integers(1, 3),
       seed=st.integers(0, 2 ** 16), n_per_class=st.integers(1, 4),
       n_centroids=st.integers(1, 3), n_neighbors=st.integers(1, 3))
def test_roster_outputs_stay_in_range_on_random_streams(name, kind, n_domains, n_classes,
                                                       dim, seed, n_per_class, n_centroids,
                                                       n_neighbors):
    means = (3.0 * np.eye(n_classes, dim)).tolist()
    bench = BenchmarkConfig(kind=kind, n_domains=n_domains, class_means=means,
                            domain_shift=[4.0] * dim, n_train=6 * n_classes, n_val=4,
                            n_test=4,
                            flip_domains=list(range(1, n_domains, 2)) if kind == "conditional_flip"
                            else [])
    stream = build_stream(bench, seed)
    hp = small_hp(hidden=[4], epochs=1, router_hidden=[4], router_epochs=1,
                  n_per_class=n_per_class, n_centroids=n_centroids,
                  n_neighbors=n_neighbors)
    strategy = strategy_dispatch(name, seed, stream.dim, stream.n_classes, hp)
    # a plain guard raises DataAccessError on any read of a past domain
    guard = StreamGuard(stream, privileged=strategy.privileged)
    X = np.vstack([d.test.X for d in stream.domains])
    for t in range(n_domains):
        guard.advance(t)
        strategy.train_on_domain(t, guard)
        labels = strategy.predict(X)
        assert ((0 <= labels) & (labels < n_classes)).all()
        if strategy.router_kind is not None:
            routed = strategy.route(X)
            assert ((0 <= routed) & (routed <= t)).all()


def test_g2d_router_trains_on_current_domain_buffer_too():
    stream = small_stream(n_domains=2)
    g2d = run_stream("g2d", stream)
    assert len(g2d.synthetic) == 2
    assert g2d.router.n_outputs == 2


def test_oracle_router_reads_only_seen_domains():
    stream = small_stream()
    oracle = run_stream("oracle_router", stream)
    assert oracle.privileged
    assert oracle.router_kind == "oracle"
    assert oracle.router.n_outputs == stream.n_domains


def test_routers_separate_well_spread_domains():
    stream = small_stream(shift=10.0, n_train=100)
    X = np.vstack([d.test.X for d in stream.domains])
    true = np.concatenate([np.full(len(d.test), t) for t, d in enumerate(stream.domains)])
    for name in ("g2d", "oracle_router", "centroid_router"):
        strategy = run_stream(name, stream, hp=small_hp(
            epochs=6, router_epochs=60, n_per_class=25))
        assert np.mean(strategy.route(X) == true) > 0.95


def test_clone_is_independent_of_the_original():
    stream = small_stream(n_domains=2)
    strategy = strategy_dispatch("seqft", 2, stream.dim, stream.n_classes, small_hp())
    guard = StreamGuard(stream)
    guard.advance(0)
    strategy.train_on_domain(0, guard)
    frozen = [w.copy() for w in strategy.model.weights]
    clone = strategy.clone()
    guard.advance(1)
    clone.train_on_domain(1, guard)
    assert all(np.array_equal(w, f) for w, f in zip(strategy.model.weights, frozen))
    assert strategy.last_trained == 0
    assert clone.last_trained == 1


def test_strategy_seeds_make_runs_reproducible():
    stream = small_stream()
    a = run_stream("gen_replay", stream, seed=13)
    b = run_stream("gen_replay", stream, seed=13)
    c = run_stream("gen_replay", stream, seed=14)
    assert params_equal(a.model, b.model)
    assert not params_equal(a.model, c.model)


def classifier_from_arrays(arrays, tag):
    """Rebuild the classifier saved under ``tag`` from read_arrays output."""
    n_layers = sum(1 for key in arrays if key.startswith(f"{tag}.W"))
    weights = [arrays[f"{tag}.W{i}"] for i in range(n_layers)]
    biases = [arrays[f"{tag}.b{i}"] for i in range(n_layers)]
    dims = [weights[0].shape[0]] + [w.shape[1] for w in weights]
    return nn.Classifier(dims, weights, biases)


def test_classifier_text_block_round_trips_exactly(tmp_path):
    model = nn.init_classifier([3, 5, 2], 8)
    model.weights[0][0, 0] = -1.2345678901234567e-8
    strategy = strategy_dispatch("seqft", 0, 3, 2, small_hp())
    strategy.model = model
    save_checkpoint(strategy, tmp_path)
    back = classifier_from_arrays(read_arrays(tmp_path / "checkpoint.txt"), "model")
    assert back.layer_dims == model.layer_dims
    assert params_equal(model, back)


def test_checkpoints_cover_each_strategy_family(tmp_path):
    stream = small_stream(n_domains=2)

    g2d = run_stream("g2d", stream)
    save_checkpoint(g2d, tmp_path / "g2d")
    arrays = read_arrays(tmp_path / "g2d" / "checkpoint.txt")
    assert {key.split(".")[0] for key in arrays if key.startswith("expert")} == \
        {"expert0", "expert1"}
    assert params_equal(classifier_from_arrays(arrays, "expert1"), g2d.experts[1])
    assert params_equal(classifier_from_arrays(arrays, "router"), g2d.router)
    assert {"buffer0.X", "buffer0.y", "buffer1.X", "buffer1.y"} <= set(arrays)

    centroid = run_stream("centroid_router", stream)
    save_checkpoint(centroid, tmp_path / "centroid")
    arrays = read_arrays(tmp_path / "centroid" / "checkpoint.txt")
    assert np.array_equal(arrays["router.centroids"], centroid.router.centroids)

    ewc = run_stream("ewc", stream)
    save_checkpoint(ewc, tmp_path / "ewc")
    arrays = read_arrays(tmp_path / "ewc" / "checkpoint.txt")
    assert params_equal(classifier_from_arrays(arrays, "model"), ewc.model)
    assert any(key.startswith("anchor") for key in arrays)


def held_arrays(strategy):
    """Every array of learned state the strategy holds, read straight from
    its attributes, under its checkpoint block name."""
    def classifier(tag, model):
        for i, (w, b) in enumerate(zip(model.weights, model.biases)):
            yield f"{tag}.W{i}", w
            yield f"{tag}.b{i}", b

    out = {}
    if hasattr(strategy, "experts"):
        for t, expert in enumerate(strategy.experts):
            out.update(classifier(f"expert{t}", expert))
        router = strategy.router
        if strategy.router_kind == "centroid":
            out.update({"router.k": np.array(router.n_centroids),
                        "router.knn": np.array(router.n_neighbors),
                        "router.centroids": router.centroids,
                        "router.domain_ids": router.domain_ids})
        else:
            out.update(classifier("router", router))
    else:
        out.update(classifier("model", strategy.model))
    for t, buf in enumerate(getattr(strategy, "synthetic", [])):
        out[f"buffer{t}.X"] = buf.X
        out[f"buffer{t}.y"] = buf.y
    if hasattr(strategy, "anchors"):
        for a, (params, fisher) in enumerate(strategy.anchors):
            for i, ((w, b), (fw, fb)) in enumerate(zip(nn.layer_views(strategy.model, params),
                                                       nn.layer_views(strategy.model, fisher))):
                out.update({f"anchor{a}.W{i}": w, f"anchor{a}.b{i}": b,
                            f"anchor{a}.FW{i}": fw, f"anchor{a}.Fb{i}": fb})
    return out


def test_checkpoint_round_trips_every_held_array(tmp_path):
    stream = small_stream(n_domains=2)
    expected_blocks = {"seqft": 4, "ewc": 4 + 2 * 8, "er": 4, "gen_replay": 4 + 2 * 2,
                       "g2d": 2 * 4 + 4 + 2 * 2, "oracle_router": 2 * 4 + 4,
                       "centroid_router": 2 * 4 + 4, "mtl": 4}
    for name in STRATEGY_NAMES:
        strategy = run_stream(name, stream)
        save_checkpoint(strategy, tmp_path / name)
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["checkpoint.txt"]
        back = read_arrays(tmp_path / name / "checkpoint.txt")
        held = held_arrays(strategy)
        assert len(held) == expected_blocks[name], name
        assert list(back) == list(held), name
        for key, arr in held.items():
            arr = np.asarray(arr)
            assert back[key].dtype == arr.dtype, (name, key)
            assert back[key].shape == arr.shape, (name, key)
            assert np.array_equal(back[key], arr), (name, key)
    # er's replay buffer holds real training data, which never leaves the run
    assert not any(key.startswith("buffer") for key in
                   read_arrays(tmp_path / "er" / "checkpoint.txt"))
    # a one-domain g2d routes by the constant, which has no state to write
    save_checkpoint(run_stream("g2d", small_stream(n_domains=1)), tmp_path / "constant")
    assert sorted(read_arrays(tmp_path / "constant" / "checkpoint.txt")) == \
        ["buffer0.X", "buffer0.y", "expert0.W0", "expert0.W1", "expert0.b0", "expert0.b1"]


def test_a_failed_checkpoint_rewrite_leaves_the_previous_file_whole(tmp_path, monkeypatch):
    strategy = run_stream("g2d", small_stream(n_domains=2))
    save_checkpoint(strategy, tmp_path)
    before = (tmp_path / "checkpoint.txt").read_bytes()
    arrays = nn.Classifier.arrays

    def disk_full(model, tag):
        if tag == "router":
            raise OSError("disk full")
        return arrays(model, tag)

    # the expert blocks come before the router's, so a streamed write
    # would already have cut the file
    monkeypatch.setattr(nn.Classifier, "arrays", disk_full)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(strategy, tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.txt"]
    assert (tmp_path / "checkpoint.txt").read_bytes() == before


def test_read_arrays_rejects_malformed_blocks(tmp_path):
    path = tmp_path / "checkpoint.txt"
    path.write_text("model.W0 float64 shape=2x2\n1.0 2.0 3.0\n")
    with pytest.raises(ValidationError, match="model.W0"):
        read_arrays(path)
    path.write_text("model.W0 float64\n1.0\n")
    with pytest.raises(ValidationError, match="header"):
        read_arrays(path)
    # an unknown dtype, a shape that is not a number, a value that is not one,
    # a value out of its dtype's range, and dtypes save_checkpoint never writes
    for text, line in [("model.W0 foo shape=1\n1.0\n", 1),
                       ("model.W0 float64 shape=x\n1.0\n", 1),
                       ("model.b0 float64 shape=1\n0.5\nmodel.W0 float64 shape=1\nzz\n", 3),
                       ("model.W0 int64 shape=1\n99999999999999999999999\n", 1),
                       *((f"model.b0 float64 shape=1\n0.5\nmodel.W0 {dtype} shape=1\n1\n", 3)
                         for dtype in ("datetime64", "V8", "object", "complex128", "U3"))]:
        path.write_text(text)
        with pytest.raises(ValidationError, match=f"line {line}:"):
            read_arrays(path)


def test_predictions_match_oracle_forward_pass():
    stream = small_stream(n_domains=2)
    g2d = run_stream("g2d", stream)
    X = stream.domains[0].test.X
    want = oracles.route_then_classify(
        (g2d.router.weights, g2d.router.biases),
        [(e.weights, e.biases) for e in g2d.experts],
        X,
    )
    assert np.array_equal(g2d.predict(X), want)
