"""EM soundness against naive densities and closed forms; buffer determinism."""

import numpy as np
import pytest

from driftlab.benchmarks import LabeledSet
from driftlab.errors import ShapeError, ValidationError
from driftlab.gmm import (FitConfig, Mixture, fit_em, fit_generator,
                          log_likelihood, sample_buffer)
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
    assert abs(log_likelihood(mix, X) - want) < 1e-9


def test_log_likelihood_checks_dimensions():
    mix = Mixture(np.array([1.0]), np.zeros((1, 2)), np.ones((1, 2)))
    with pytest.raises(ShapeError):
        log_likelihood(mix, np.zeros((5, 3)))


def test_em_trace_is_monotone_non_decreasing():
    for seed in range(6):
        X = blob_data(seed)
        _, trace = fit_em(X, FitConfig(n_components=2), make_rng(seed, "em"))
        assert len(trace) >= 1
        assert (np.diff(trace) >= -1e-9).all()


def test_single_component_fit_equals_closed_form_mle():
    config = FitConfig(n_components=1)
    for seed in range(5):
        X = blob_data(seed, n=80)
        mix, _ = fit_em(X, config, make_rng(seed))
        mean, var = oracles.single_gaussian_mle(X, config.var_floor)
        assert np.allclose(mix.means[0], mean, atol=1e-9)
        assert np.allclose(mix.variances[0], var, atol=1e-9)
        assert mix.weights[0] == 1.0


def test_variance_floor_holds_on_degenerate_data():
    X = np.tile([[2.0, -1.0]], (30, 1))  # zero spread in every coordinate
    config = FitConfig(n_components=1, var_floor=1e-6)
    mix, _ = fit_em(X, config, make_rng(0))
    assert (mix.variances >= config.var_floor).all()
    assert np.allclose(mix.means[0], [2.0, -1.0])


def test_em_recovers_well_separated_components():
    X = blob_data(7, n=400, centers=((0.0, 0.0), (10.0, 0.0)))
    mix, _ = fit_em(X, FitConfig(n_components=2), make_rng(7))
    found = np.sort(mix.means[:, 0])
    assert abs(found[0] - 0.0) < 0.5
    assert abs(found[1] - 10.0) < 0.5
    assert np.allclose(mix.weights.sum(), 1.0)


def test_em_needs_enough_samples():
    with pytest.raises(ValidationError):
        fit_em(np.zeros((2, 2)), FitConfig(n_components=3), make_rng(0))


def test_fit_config_validation():
    with pytest.raises(ValidationError):
        FitConfig(n_components=0)
    with pytest.raises(ValidationError):
        FitConfig(var_floor=0.0)


def test_fit_generator_one_mixture_per_class():
    rng = np.random.default_rng(1)
    data = LabeledSet(rng.normal(size=(60, 2)), np.repeat([0, 1, 2], 20))
    gen = fit_generator(data, 4, 3, FitConfig(n_components=1), 99)
    assert gen.domain_id == 4
    assert gen.n_classes == 3
    assert gen.dim == 2


def test_fit_generator_rejects_classes_smaller_than_k():
    data = LabeledSet(np.zeros((5, 2)), np.array([0, 0, 0, 0, 1]))
    with pytest.raises(ValidationError, match="class 1"):
        fit_generator(data, 0, 2, FitConfig(n_components=2), 0)


def test_sample_buffer_is_deterministic_and_balanced():
    rng = np.random.default_rng(2)
    data = LabeledSet(
        np.vstack([rng.normal(0, 1, (40, 2)), rng.normal(5, 1, (40, 2))]),
        np.repeat([0, 1], 40),
    )
    gen = fit_generator(data, 1, 2, FitConfig(n_components=1), 7)
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
    gen = fit_generator(data, 0, 2, FitConfig(n_components=2), 11)
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
