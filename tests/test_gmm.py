"""EM soundness against naive densities and closed forms; buffer determinism."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import gmm
from driftlab.benchmarks import LabeledSet
from driftlab.errors import NumericError, ValidationError
from driftlab.gmm import FitConfig, Mixture, fit_em_stack, fit_generator, sample_buffer
from driftlab.rng import make_rng
from driftlab.config import StrategyConfig
from driftlab.strategies import read_arrays, save_checkpoint, strategy_dispatch

import oracles


def blob_data(seed=0, n=120, centers=((0.0, 0.0), (6.0, 1.0))):
    rng = np.random.default_rng(seed)
    parts = [rng.normal(c, 1.0, size=(n // len(centers), len(c))) for c in centers]
    return np.vstack(parts)


def test_log_likelihood_matches_naive_density_sum():
    rng = np.random.default_rng(3)
    mix = Mixture(
        weights=np.array([0.3, 0.7]),
        means=rng.normal(size=(2, 3)),
        variances=rng.uniform(0.5, 2.0, size=(2, 3)),
    )
    X = rng.normal(size=(40, 3))
    want = oracles.gmm_log_likelihood_naive(X, mix.weights, mix.means, mix.variances)
    lp = gmm._log_prob_matrix(mix.weights[None], mix.means[None], mix.variances[None],
                              X.T[:, None])
    assert abs(gmm._log_norm(lp).sum() - want) < 1e-9


def test_em_trace_is_monotone_non_decreasing():
    for seed in range(6):
        X = blob_data(seed)
        _, trace = fit_em_stack(X[None], FitConfig(n_components=2), [make_rng(seed, "em")])[0]
        assert len(trace) >= 1
        assert (np.diff(trace) >= -1e-9).all()


def test_single_component_fit_equals_closed_form_mle():
    config = FitConfig(n_components=1)
    for seed in range(5):
        X = blob_data(seed, n=80)
        mix, _ = fit_em_stack(X[None], config, [make_rng(seed)])[0]
        mean, var = oracles.single_gaussian_mle(X, config.var_floor)
        assert np.allclose(mix.means[0], mean, atol=1e-9)
        assert np.allclose(mix.variances[0], var, atol=1e-9)
        assert mix.weights[0] == 1.0


def test_variance_floor_holds_on_degenerate_data():
    X = np.tile([[2.0, -1.0]], (30, 1))  # zero spread in every coordinate
    config = FitConfig(n_components=1)
    mix, _ = fit_em_stack(X[None], config, [make_rng(0)])[0]
    assert (mix.variances >= config.var_floor).all()
    assert np.allclose(mix.means[0], [2.0, -1.0])


def test_em_recovers_well_separated_components():
    X = blob_data(7, n=400, centers=((0.0, 0.0), (10.0, 0.0)))
    mix, _ = fit_em_stack(X[None], FitConfig(n_components=2), [make_rng(7)])[0]
    found = np.sort(mix.means[:, 0])
    assert abs(found[0] - 0.0) < 0.5
    assert abs(found[1] - 10.0) < 0.5
    assert np.allclose(mix.weights.sum(), 1.0)


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(n_components=0)


def assert_fit_matches_two_pass_oracle(X, config, seed):
    """EM on X as a stack of one and the two-pass oracle agree bit for bit,
    or both raise."""
    try:
        want = oracles.fit_em_two_pass(X, config, make_rng(seed, "em"))
    except NumericError:
        with pytest.raises(NumericError):
            fit_em_stack(X[None], config, [make_rng(seed, "em")])[0]
        return None
    mix, trace = fit_em_stack(X[None], config, [make_rng(seed, "em")])[0]
    got = (mix.weights, mix.means, mix.variances, trace)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    return mix, trace


@settings(max_examples=80, deadline=None)
@given(n_extra=st.integers(0, 40), d=st.integers(1, 12), k=st.integers(1, 10),
       seed=st.integers(0, 2**31 - 1), decimals=st.sampled_from([None, 0, 1]))
def test_fit_em_matches_the_two_pass_oracle(n_extra, d, k, seed, decimals):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(k + n_extra, d)) * rng.uniform(0.1, 5.0, size=d)
    if decimals is not None:
        X = np.round(X, decimals)          # coarse grids repeat whole rows
    assert_fit_matches_two_pass_oracle(X, FitConfig(n_components=k), seed)


def test_dead_component_is_reseeded_and_matches_the_oracle(monkeypatch):
    far = 1e6

    def seed_one_far(X, k, rng):
        means = np.tile(X[0], (k, 1))
        means[-1] = far                    # no row puts any mass on it
        return means

    monkeypatch.setattr(gmm, "kmeans_pp_init", seed_one_far)
    X = blob_data(4, n=60)
    # one iteration is all rescue, so no M-step lands in the trace
    with patch.object(FitConfig, "max_iter", 1):
        _, trace = fit_em_stack(X[None], FitConfig(n_components=2), [make_rng(0, "em")])[0]
    assert trace.size == 0

    with patch.object(FitConfig, "max_iter", 50):
        mix, trace = assert_fit_matches_two_pass_oracle(X, FitConfig(n_components=2), 0)
    assert 1 <= trace.size < 50
    assert (np.diff(trace) >= -1e-9).all()
    for arr in (mix.weights, mix.means, mix.variances, trace):
        assert np.isfinite(arr).all()
    assert np.abs(mix.means).max() < 100.0   # the far seed was replaced


def test_fit_generator_one_mixture_per_class():
    rng = np.random.default_rng(1)
    data = LabeledSet(rng.normal(size=(60, 2)), np.repeat([0, 1, 2], 20))
    gen = fit_generator(data, 3, FitConfig(n_components=1), 99)
    assert len(gen.mixtures) == len(gen.ll_traces) == 3
    assert all(mix.dim == 2 for mix in gen.mixtures)


def test_fit_generator_rejects_classes_smaller_than_k():
    data = LabeledSet(np.zeros((5, 2)), np.array([0, 0, 0, 0, 1]))
    with pytest.raises(ValidationError, match="class 1"):
        fit_generator(data, 2, FitConfig(n_components=2), 0)


def test_fit_generator_checks_every_class_before_any_fit(monkeypatch):
    def no_fit(*args):
        raise AssertionError("EM ran before every class size was checked")

    monkeypatch.setattr(gmm, "fit_em_stack", no_fit)
    data = LabeledSet(np.zeros((8, 2)), np.array([0, 0, 0, 0, 1, 2, 2, 2]))
    with pytest.raises(ValidationError, match="class 1 has 1 samples"):
        fit_generator(data, 3, FitConfig(n_components=2), 0)


def assert_generator_matches_one_class_at_a_time(data, n_classes, config, seed):
    """fit_generator and the per-class oracle agree bit for bit, or both raise."""
    try:
        want = oracles.fit_generator_one_class_at_a_time(data, n_classes, config, seed)
    except NumericError:
        with pytest.raises(NumericError):
            fit_generator(data, n_classes, config, seed)
        return None
    gen = fit_generator(data, n_classes, config, seed)
    assert len(gen.mixtures) == len(gen.ll_traces) == n_classes
    for got_mix, want_mix, got_trace, want_trace in zip(
            gen.mixtures, want.mixtures, gen.ll_traces, want.ll_traces):
        for g, w in ((got_mix.weights, want_mix.weights), (got_mix.means, want_mix.means),
                     (got_mix.variances, want_mix.variances), (got_trace, want_trace)):
            assert g.dtype == w.dtype and np.array_equal(g, w)
    return gen


@settings(max_examples=80, deadline=None)
@given(n_classes=st.integers(1, 4), d=st.integers(1, 12), k=st.integers(1, 6),
       n_extra=st.integers(0, 30), remainder=st.integers(0, 3),
       max_iter=st.integers(1, 60), tol=st.sampled_from([0.0, 1e-8, 1e-3, 0.1, 10.0]),
       seed=st.integers(0, 2**31 - 1), decimals=st.sampled_from([None, 0, 1]))
def test_fit_generator_matches_one_class_at_a_time(n_classes, d, k, n_extra, remainder,
                                                   max_iter, tol, seed, decimals):
    # balanced labels over n_train rows: when n_classes does not divide
    # n_train, the first classes hold one row more and two stacks form
    n_train = n_classes * (k + n_extra) + remainder % n_classes
    rng = np.random.default_rng(seed)
    y = rng.permutation(np.arange(n_train) % n_classes)
    centers = rng.normal(0.0, 3.0, size=(n_classes, d))
    X = centers[y] + rng.normal(size=(n_train, d)) * rng.uniform(0.1, 5.0, size=d)
    if decimals is not None:
        X = np.round(X, decimals)          # coarse grids repeat whole rows
    # hypothesis rejects the function-scoped monkeypatch, so patch by hand
    with patch.object(FitConfig, "max_iter", max_iter), patch.object(FitConfig, "tol", tol):
        assert_generator_matches_one_class_at_a_time(LabeledSet(X, y), n_classes,
                                                     FitConfig(n_components=k), seed)


def three_classes():
    """Three classes of 40 rows, one stack; only class 1 lies near x = 100."""
    rng = np.random.default_rng(8)
    y = np.repeat([0, 1, 2], 40)
    return LabeledSet(rng.normal(size=(120, 2)) + np.array([0.0, 100.0, 5.0])[y, None], y)


def test_a_rescued_class_matches_one_class_at_a_time(monkeypatch):
    seed_normally = gmm.kmeans_pp_init

    def seed_class_1_far(X, k, rng):
        if X[:, 0].mean() < 50.0:
            return seed_normally(X, k, rng)
        means = np.tile(X[0], (k, 1))
        means[-1] = 1e6                    # no row puts any mass on it
        return means

    monkeypatch.setattr(gmm, "kmeans_pp_init", seed_class_1_far)
    data = three_classes()

    # in the first iteration class 1 rescues while its stack siblings step
    config = FitConfig(n_components=2)
    with patch.object(FitConfig, "max_iter", 1):
        gen = assert_generator_matches_one_class_at_a_time(data, 3, config, 0)
    assert [t.size for t in gen.ll_traces] == [1, 0, 1]

    with patch.object(FitConfig, "max_iter", 40):
        gen = assert_generator_matches_one_class_at_a_time(data, 3, config, 0)
    assert len({t.size for t in gen.ll_traces}) > 1     # the classes stop apart
    assert np.abs(gen.mixtures[1].means - 100.0).max() < 10.0   # the far seed was replaced


def test_a_later_rescue_restarts_only_its_own_trace(monkeypatch):
    m_step = gmm._m_step
    calls = []

    def starve_class_1_at_the_first_step(resp, X, X2, mass, var_floor):
        weights, means, variances = m_step(resp, X, X2, mass, var_floor)
        if not calls:
            weights[X[:, 0, 0] > 50.0, 1] = 1e-300     # no row keeps any mass on it
        calls.append(len(X))
        return weights, means, variances

    monkeypatch.setattr(gmm, "_m_step", starve_class_1_at_the_first_step)
    data = three_classes()
    config = FitConfig(n_components=2)
    with patch.object(FitConfig, "max_iter", 8), patch.object(FitConfig, "tol", 0.0):
        gen = fit_generator(data, 3, config, 0)
        # class 1 logs its first step, rescues in the second iteration and
        # restarts its trace; its siblings step on and keep theirs
        assert calls == [3, 2] + [3] * 6
        assert [t.size for t in gen.ll_traces] == [8, 6, 8]

        calls.clear()
        mix, trace = fit_em_stack(data.X[data.y == 1][None], config,
                                  [make_rng(0, "class", 1)])[0]
    assert calls == [1, 0] + [1] * 6
    assert np.array_equal(trace, gen.ll_traces[1])
    assert np.array_equal(mix.means, gen.mixtures[1].means)


def test_a_class_that_stops_early_stays_frozen_in_its_stack():
    # class 1 is two points repeated 20 times each: k-means++ seeds one
    # component on each, the second M-step floors both variances, and the
    # third repeats its log-likelihood, long before its siblings converge
    data = three_classes()
    data.X[data.y == 1] = np.repeat([[100.0, 0.0], [103.0, 1.0]], 20, axis=0)
    gen = assert_generator_matches_one_class_at_a_time(data, 3, FitConfig(n_components=2), 0)
    sizes = [t.size for t in gen.ll_traces]
    assert sizes[1] == 3
    assert min(sizes[0], sizes[2]) > sizes[1] + 5
    assert gen.ll_traces[1][1] == gen.ll_traces[1][2]


def test_one_non_finite_class_fails_the_whole_stack(monkeypatch):
    m_step = gmm._m_step

    def poison_class_1(resp, X, X2, mass, var_floor):
        weights, means, variances = m_step(resp, X, X2, mass, var_floor)
        variances[X[:, 0, 0] > 50.0] = np.inf
        return weights, means, variances

    monkeypatch.setattr(gmm, "_m_step", poison_class_1)
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="non-finite"):
        fit_generator(three_classes(), 3, FitConfig(n_components=2), 0)


def test_sample_buffer_is_deterministic_and_balanced():
    rng = np.random.default_rng(2)
    data = LabeledSet(
        np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(5, 1, (40, 2))]),
        np.repeat([0, 1], 40),
    )
    gen = fit_generator(data, 2, FitConfig(n_components=1), 7)
    a = sample_buffer(gen, 15, 123)
    b = sample_buffer(gen, 15, 123)
    c = sample_buffer(gen, 15, 124)
    assert oracles.buffer_fingerprint(a) == oracles.buffer_fingerprint(b)
    assert np.array_equal(a.X, b.X)
    assert oracles.buffer_fingerprint(a) != oracles.buffer_fingerprint(c)
    assert np.bincount(a.y).tolist() == [15, 15]
    assert len(a) == 30


def test_fingerprint_tracks_content():
    data = LabeledSet(np.ones((3, 2)), np.zeros(3, dtype=int))
    tweaked = LabeledSet(np.ones((3, 2)) + 1e-12, np.zeros(3, dtype=int))
    assert oracles.buffer_fingerprint(data) != oracles.buffer_fingerprint(tweaked)
    assert oracles.buffer_fingerprint(data) == oracles.buffer_fingerprint(
        LabeledSet(data.X.copy(), data.y.copy()))


def test_buffers_round_trip_through_text(tmp_path):
    rng = np.random.default_rng(5)
    data = LabeledSet(rng.normal(size=(40, 2)), np.repeat([0, 1], 20))
    gen = fit_generator(data, 2, FitConfig(n_components=2), 11)
    buffers = [sample_buffer(gen, 10, s) for s in (1, 2)]
    strategy = strategy_dispatch("gen_replay", 0, 2, 2, StrategyConfig())
    strategy.synthetic = buffers
    save_checkpoint(strategy, tmp_path)
    back = read_arrays(tmp_path / "checkpoint.txt")
    assert sorted(back) == ["buffer0.X", "buffer0.y", "buffer1.X", "buffer1.y"]
    for t, orig in enumerate(buffers):
        loaded_X = back[f"buffer{t}.X"]
        loaded_y = back[f"buffer{t}.y"]
        assert loaded_X.dtype == orig.X.dtype and loaded_y.dtype == orig.y.dtype
        assert np.array_equal(orig.X, loaded_X)
        assert np.array_equal(orig.y, loaded_y)
