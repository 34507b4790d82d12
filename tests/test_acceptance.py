"""Acceptance gate: ten headline guarantees, each pinned with an explicit
tolerance and a runtime budget.

The two experiment fixtures execute the shipped configs through the real
harness once per session; criteria that share a fixture also share its
runtime budget check.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from driftlab import nn
from driftlab.benchmarks import BenchmarkConfig, StreamGuard, build_stream
from driftlab.config import StrategyConfig, load_config, parse_config
from driftlab.gmm import FitConfig, fit_em_stack
from driftlab.harness import execute_run, persist_results, run_experiment
from driftlab.memory import compose_replay_trainset, concat_sets
from driftlab.metrics import average_accuracy
from driftlab.rng import derive, make_rng
from driftlab.strategies import save_checkpoint, strategy_dispatch
from driftlab.training import ewc_penalty

import oracles

ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"


def execute_config(name):
    """(cfg, records, strategies, duration); records and finished strategies
    are keyed by (strategy name, seed), in config order. Each strategy's
    seeds run in lockstep through one execute_run call, as the harness
    runs them."""
    cfg = load_config(CONFIG_DIR / f"{name}.yaml")
    start = time.perf_counter()
    records, strategies = {}, {}
    for sc in cfg.strategies:
        for rec, strategy in execute_run(cfg, sc, cfg.seeds):
            assert rec.ok, f"{sc.name}/seed {rec.seed} failed: {rec.failure}"
            records[(sc.name, rec.seed)] = rec
            strategies[(sc.name, rec.seed)] = strategy
    return cfg, records, strategies, time.perf_counter() - start


@pytest.fixture(scope="module")
def t4():
    return execute_config("covariate_t4")


@pytest.fixture(scope="module")
def flip():
    return execute_config("flip_t2")


def mean_final(cfg, records, name):
    return float(np.mean([records[(name, s)].final_accuracy for s in cfg.seeds]))


def mean_alpha(cfg, records, name, s, t):
    return float(np.mean([records[(name, seed)].matrix[s, t]
                          for seed in cfg.seeds]))


def mean_routing(cfg, records, name):
    return float(np.mean([records[(name, s)].routing.accuracy for s in cfg.seeds]))


def kink_margin(model, X):
    """Distance of the closest hidden pre-activation to its ReLU kink.

    Central differences are only meaningful on a smooth neighborhood, so
    evaluation batches must keep every pre-activation clear of zero by far
    more than the perturbation h."""
    a = np.asarray(X, dtype=float)
    margin = np.inf
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ W + b
        margin = min(margin, float(np.abs(z).min()))
        a = np.maximum(z, 0.0)
    return margin


def test_c01_gradients_match_central_differences_under_1e5():
    start = time.perf_counter()
    worst = 0.0
    model = None
    for k in range(10):
        rng = np.random.default_rng(900 + k)
        dims = [int(rng.integers(2, 6))]
        for _ in range(int(rng.integers(0, 3))):
            dims.append(int(rng.integers(2, 9)))
        dims.append(int(rng.integers(2, 5)))
        model = nn.init_classifier(dims, seed=k)
        for b in model.biases:
            b += rng.normal(scale=0.2, size=b.shape)
        n = int(rng.integers(4, 11))
        while True:
            X = rng.normal(size=(n, dims[0]))
            y = rng.integers(0, dims[-1], size=n)
            if kink_margin(model, X) > 1e-3:
                break
        worst = max(worst, oracles.finite_diff_check(model, X, y, h=1e-5))

    anchor = model.copy()
    rng = np.random.default_rng(990)
    anchor.params += rng.normal(scale=0.3, size=anchor.params.shape)
    fisher = np.abs(rng.normal(size=anchor.params.shape)) + 0.1
    anchors = [(anchor.params.copy(), fisher)]

    def augmented(m):
        base, grad = nn.loss_and_grad(m, X, y)
        pen, pgrad = ewc_penalty(m, anchors, 0.7)
        return base + pen, grad + pgrad

    worst = max(worst, oracles.finite_diff_check(model, X, y, h=1e-5, loss_fn=augmented))
    assert worst < 1e-5
    assert time.perf_counter() - start < 10.0


def test_c02_em_is_monotone_and_k1_matches_the_closed_form():
    start = time.perf_counter()
    for i in range(20):
        rng = np.random.default_rng(4000 + i)
        dim = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        n = int(rng.integers(60, 160))
        centers = rng.normal(scale=3.0, size=(k, dim))
        X = np.vstack([centers[j] + rng.normal(size=(n, dim))
                       for j in range(k)])

        mix, trace = fit_em_stack(X[None], FitConfig(n_components=k),
                                  [make_rng(4000 + i, "em")])[0]
        assert len(trace) >= 1
        assert (np.diff(trace) >= -1e-9).all()

        single, _ = fit_em_stack(X[None], FitConfig(n_components=1),
                                 [make_rng(4000 + i, "em1")])[0]
        mean, var = oracles.single_gaussian_mle(X, 1e-6)
        assert single.weights[0] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(single.means[0] - mean).max() < 1e-9
        assert np.abs(single.variances[0] - var).max() < 1e-9
    assert time.perf_counter() - start < 10.0


def test_c03_average_accuracy_is_exact_on_hand_fixtures():
    m = np.full((2, 2), np.nan)
    m[0, 0], m[0, 1], m[1, 1] = 0.6, 0.6, 0.9
    assert average_accuracy(m, 1) == 0.75

    ones = np.where(np.tri(3, dtype=bool).T, 1.0, np.nan)   # 1.0 where s <= t
    for t in range(3):
        assert average_accuracy(ones, t) == 1.0


def test_c04_label_flips_erase_seqft_but_not_the_expert_bank(flip):
    cfg, records, _, duration = flip
    assert duration < 120.0
    assert mean_alpha(cfg, records, "seqft", 0, 0) >= 0.95
    assert mean_alpha(cfg, records, "seqft", 0, 1) <= 0.30
    assert mean_alpha(cfg, records, "g2d", 0, 1) >= 0.90


def test_c05_synthetic_routing_beats_replaying_the_same_buffers(t4):
    cfg, records, strategies, duration = t4
    assert duration < 300.0
    g2d = mean_final(cfg, records, "g2d")
    gen_replay = mean_final(cfg, records, "gen_replay")
    seqft = mean_final(cfg, records, "seqft")
    assert g2d >= gen_replay + 0.02
    assert g2d >= seqft + 0.05
    for seed in cfg.seeds:
        a = strategies[("g2d", seed)].synthetic
        b = strategies[("gen_replay", seed)].synthetic
        assert [oracles.buffer_fingerprint(buf) for buf in a] == \
            [oracles.buffer_fingerprint(buf) for buf in b]
        for mine, theirs in zip(a, b):
            assert np.array_equal(mine.X, theirs.X)
            assert np.array_equal(mine.y, theirs.y)


def test_covariate_t4_regenerates_the_committed_results(t4, tmp_path):
    # the fixture keeps config order (strategies outer, seeds inner), the
    # order run_experiment returns its records in
    _, records, strategies, _ = t4
    persist_results(list(records.values()), str(tmp_path))
    for key, rec in records.items():
        save_checkpoint(strategies[key], str(tmp_path / "runs" / rec.run_id))
    assert oracles.tree_mismatches(tmp_path, ROOT / "results" / "covariate_t4") == []


def test_c06_synthetic_router_rides_within_five_points_of_oracle(t4):
    cfg, records, _, duration = t4
    assert duration < 180.0
    synthetic = mean_routing(cfg, records, "g2d")
    oracle = mean_routing(cfg, records, "oracle_router")
    centroid = mean_routing(cfg, records, "centroid_router")
    assert synthetic >= oracle - 0.05
    assert synthetic > centroid
    assert oracle > centroid


def test_c07_quasi_oracle_sandwich_holds_within_a_point(t4):
    cfg, records, _, _ = t4
    mtl = mean_final(cfg, records, "mtl")
    oracle = mean_final(cfg, records, "oracle_router")
    g2d = mean_final(cfg, records, "g2d")
    assert mtl >= oracle - 0.01
    assert oracle >= g2d - 0.01


def tiny_stream(seed=31):
    bench = BenchmarkConfig(n_domains=3, class_means=[[0.0, -1.5], [0.0, 1.5]],
                            domain_shift=[6.0, 0.0], n_train=60, n_val=20, n_test=30)
    return build_stream(bench, seed)


def run_tiny(name, stream, seed, hp):
    strategy = strategy_dispatch(name, seed, stream.dim, stream.n_classes, hp)
    guard = StreamGuard(stream, privileged=strategy.privileged)
    for t in range(stream.n_domains):
        guard.advance(t)
        strategy.train_on_domain(t, guard)
    return strategy


def test_c08_zero_lambda_ewc_is_seqft_and_unlimited_er_is_mtl_data():
    stream = tiny_stream()
    hp = StrategyConfig(hidden=[8], epochs=4, batch_size=16)
    seqft = run_tiny("seqft", stream, 17, hp)
    ewc = run_tiny("ewc", stream, 17, StrategyConfig(hidden=[8], epochs=4,
                                                     batch_size=16, lam=0.0))
    for wa, wb in zip(seqft.model.weights, ewc.model.weights):
        assert np.array_equal(wa, wb)
    for ba, bb in zip(seqft.model.biases, ewc.model.biases):
        assert np.array_equal(ba, bb)

    T = stream.n_domains
    er = strategy_dispatch("er", 17, stream.dim, stream.n_classes,
                           StrategyConfig(hidden=[8], epochs=4, batch_size=16,
                                          quota=stream.domains[0].train.X.shape[0]))
    guard = StreamGuard(stream)
    for t in range(T - 1):
        guard.advance(t)
        er.train_on_domain(t, guard)
    guard.advance(T - 1)
    er_data = compose_replay_trainset(guard.train(T - 1), er.buffer)
    mtl_data = concat_sets([stream.domains[t].train for t in range(T)])
    assert er_data.X.shape == mtl_data.X.shape
    order_a = np.lexsort((er_data.y, *er_data.X.T))
    order_b = np.lexsort((mtl_data.y, *mtl_data.X.T))
    assert np.array_equal(er_data.X[order_a], mtl_data.X[order_b])
    assert np.array_equal(er_data.y[order_a], mtl_data.y[order_b])


def test_c09_identical_configs_persist_byte_identical_csvs(tmp_path):
    doc = """
benchmark:
  kind: covariate_shift
  n_domains: 2
  class_means: [[0.0, -1.5], [0.0, 1.5]]
  variance: 1.0
  domain_shift: [6.0, 0.0]
  n_train: 60
  n_val: 20
  n_test: 30
strategies:
  - name: seqft
    epochs: 4
    batch_size: 16
    hidden: [8]
  - name: g2d
    epochs: 4
    batch_size: 16
    hidden: [8]
    router_hidden: [8]
    router_epochs: 10
    n_per_class: 12
seeds: [41]
out_dir: unused
"""
    cfg = parse_config(doc)
    paths = []
    for round_dir in ("first", "second"):
        out = tmp_path / round_dir
        records = run_experiment(cfg, out_dir=str(out))
        paths.append(persist_results(records, str(out)))
    for name in ("matrix.csv", "summary.csv", "routing.csv"):
        with open(paths[0][name], "rb") as fh:
            first = fh.read()
        with open(paths[1][name], "rb") as fh:
            second = fh.read()
        assert first == second, f"{name} differs between identical runs"


def test_c10_g2d_predictions_decompose_exactly_on_a_100_point_fixture(t4):
    cfg, _, strategies, _ = t4
    seed = cfg.seeds[0]
    strategy = strategies[("g2d", seed)]
    stream = build_stream(cfg.benchmark, derive(seed, "stream"))
    X = np.vstack([d.test.X[:25] for d in stream.domains])
    y = np.concatenate([d.test.y[:25] for d in stream.domains])
    assert X.shape[0] == 100

    want = oracles.route_then_classify(
        (strategy.router.weights, strategy.router.biases),
        [(e.weights, e.biases) for e in strategy.experts],
        X,
    )
    got = strategy.predict(X)
    assert np.array_equal(got, want)
    assert float(np.mean(got == y)) == float(np.mean(want == y))
