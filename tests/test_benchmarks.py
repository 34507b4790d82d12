"""Stream generation: per-domain values, determinism, label permutations,
validation, access control."""

import numpy as np
import pytest

from driftlab.benchmarks import (BenchmarkConfig, LabeledSet, StreamGuard,
                                 _balanced_labels, _domains, build_stream)
from driftlab.errors import ConfigError, DataAccessError, ShapeError


def two_class_bench(n_domains=3, shift=(4.0, 0.0), **fields):
    fields = {"class_means": [[0.0, -1.0], [0.0, 1.0]], "variance": 1.0,
              "n_train": 60, "n_val": 20, "n_test": 30, **fields}
    return BenchmarkConfig(n_domains=n_domains, domain_shift=list(shift), **fields)


def violations(bench):
    with pytest.raises(ConfigError) as err:
        build_stream(bench, 0)
    return err.value.violations


def test_labeled_set_validates_shapes():
    with pytest.raises(ShapeError):
        LabeledSet(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        LabeledSet(np.zeros(4), np.zeros(4))


def test_balanced_labels_split_remainder_to_lowest_classes():
    labels = _balanced_labels(7, 3)
    counts = np.bincount(labels, minlength=3)
    assert counts.tolist() == [3, 2, 2]
    assert _balanced_labels(6, 3).tolist() == [0, 0, 1, 1, 2, 2]


def test_build_stream_is_bit_deterministic():
    bench = two_class_bench()
    a = build_stream(bench, 123)
    b = build_stream(bench, 123)
    c = build_stream(bench, 124)
    assert np.array_equal(a.domains[1].train.X, b.domains[1].train.X)
    assert np.array_equal(a.domains[1].train.y, b.domains[1].train.y)
    assert not np.array_equal(a.domains[1].train.X, c.domains[1].train.X)


def test_splits_are_mutually_independent_draws():
    stream = build_stream(two_class_bench(), 9)
    d = stream.domains[0]
    assert len(d.train) == 60 and len(d.val) == 20 and len(d.test) == 30
    # same domain, different split streams: no shared rows
    assert not np.array_equal(d.train.X[:20], d.val.X)


def test_covariate_shift_moves_means_cumulatively():
    domains = list(_domains(two_class_bench(n_domains=3, shift=(4.0, 0.0))))
    assert len(domains) == 3
    for t, (means, labels) in enumerate(domains):
        want = np.array([[0.0, -1.0], [0.0, 1.0]]) + np.array([4.0 * t, 0.0])
        assert np.allclose(means, want)
        assert labels.tolist() == [0, 1]


def test_covariate_shift_accepts_per_domain_matrix():
    shifts = [[0.0, 0.0], [5.0, 3.0], [10.0, 0.0]]
    bench = BenchmarkConfig(n_domains=3, class_means=[[0.0, 0.0], [0.0, 2.0]],
                            domain_shift=shifts, n_train=60, n_val=20, n_test=30)
    domains = list(_domains(bench))
    assert len(domains) == 3
    assert np.allclose(domains[1][0][0], [5.0, 3.0])
    assert np.allclose(domains[2][0][1], [10.0, 2.0])


def test_covariate_empirical_means_land_near_recipe_means():
    stream = build_stream(two_class_bench(n_domains=2, shift=(6.0, 0.0), n_train=4000), 5)
    train = stream.domains[1].train
    want = np.array([[6.0, -1.0], [6.0, 1.0]])
    for c in range(2):
        centre = train.X[train.y == c].mean(axis=0)
        assert np.allclose(centre, want[c], atol=0.15)


def test_conditional_flip_swaps_cluster_labels():
    bench = BenchmarkConfig(kind="conditional_flip", n_domains=2,
                            class_means=[[0.0, -2.0], [0.0, 2.0]], variance=0.01,
                            flip_domains=[1], n_train=200, n_val=20, n_test=30)
    (means0, labels0), (means1, labels1) = _domains(bench)
    assert labels0.tolist() == [0, 1]
    assert labels1.tolist() == [1, 0]
    # without a shift the feature mixture is the same in every domain
    assert np.array_equal(means0, means1)
    stream = build_stream(bench, 3)
    flipped = stream.domains[1].train
    # the cluster at y ~ -2 carries label 1 once flipped
    low = flipped.X[:, 1] < 0
    assert (flipped.y[low] == 1).all()
    assert (flipped.y[~low] == 0).all()


def test_conditional_flip_cyclic_for_three_classes():
    bench = BenchmarkConfig(kind="conditional_flip", n_domains=2,
                            class_means=np.eye(3).tolist(), flip_domains=[1])
    (_, labels0), (_, labels1) = _domains(bench)
    assert labels0.tolist() == [0, 1, 2]
    assert labels1.tolist() == [1, 2, 0]


def test_rotation_recipe_turns_means_in_first_two_coords():
    angle = np.pi / 2
    bench = BenchmarkConfig(kind="rotation", n_domains=2,
                            class_means=[[1.0, 0.0, 5.0], [0.0, 1.0, 5.0]],
                            angles=[0.0, angle], n_train=60, n_val=20, n_test=30)
    (means0, _), (means1, labels1) = _domains(bench)
    assert np.array_equal(means0, bench.class_means)   # angle 0 leaves means as given
    c, s = np.cos(angle), np.sin(angle)
    want0 = np.array([1.0 * c, 1.0 * s, 5.0])
    assert np.allclose(means1[0], want0, atol=1e-12)
    assert np.allclose(means1[:, 2], 5.0)  # untouched coordinate
    assert labels1.tolist() == [0, 1]


def test_recipe_validation_errors():
    cases = [
        (dict(kind="nope"), "benchmark.kind"),
        (dict(variance=[1.0, 1.0, 1.0]), "benchmark.variance: expected 2 entries"),
        (dict(variance=[1.0, 0.0]), "benchmark.variance: expected positive"),
        (dict(shift=(1.0, 2.0, 3.0)), "benchmark.domain_shift: vector must have length 2"),
        (dict(kind="conditional_flip", flip_domains=[5]), "benchmark.flip_domains: index 5"),
        (dict(class_means=[[0.0], [1.0]], kind="rotation", angles=[0.0, 0.1, 0.2]),
         "rotation needs at least 2 features"),
        (dict(class_means=[["a", 0.0], [0.0, 3.0]]), "class_means: entries must be finite"),
        (dict(class_means=[[float("inf"), 0.0], [0.0, 3.0]]),
         "class_means: entries must be finite"),
        (dict(shift=[[0.0, "x"], [1.0, 1.0], [2.0, 2.0]]),
         "domain_shift: entries must be finite"),
        (dict(kind="rotation", angles=[0.0, float("nan"), 1.0]), "angles: expected finite"),
        (dict(shift=(1e308, 0.0)), "class means of domain 2 overflow"),
    ]
    for fields, message in cases:
        problems = violations(two_class_bench(**fields))
        assert any(message in p for p in problems), (fields, problems)


def test_build_stream_collects_all_recipe_problems():
    bad = two_class_bench(n_domains=2, kind="rotation", class_means=[[0.0], [1.0]],
                          shift=(1.0,), variance=0.0, flip_domains=[5],
                          angles=[0.0, True], n_train=6, n_val=5, n_test=5)
    problems = violations(bad)
    for message in ("rotation needs at least 2 features", "variance", "flip_domains",
                    "angles: expected finite numbers, got True", "below 5 per class"):
        assert any(message in p for p in problems), (message, problems)


def test_guard_hides_past_and_future_from_plain_strategies():
    stream = build_stream(two_class_bench(), 1)
    guard = StreamGuard(stream)
    guard.advance(0)
    guard.train(0)
    with pytest.raises(DataAccessError):
        guard.train(1)  # not arrived yet
    guard.advance(1)
    with pytest.raises(DataAccessError):
        guard.train(0)  # gone for non-privileged strategies
    with pytest.raises(DataAccessError):
        guard.val(0)


def test_privileged_guard_sees_past_but_never_future():
    stream = build_stream(two_class_bench(), 1)
    guard = StreamGuard(stream, privileged=True)
    guard.advance(0)
    guard.advance(1)
    assert len(guard.train(0)) == 60
    with pytest.raises(DataAccessError):
        guard.train(2)


def test_guard_enforces_arrival_order():
    stream = build_stream(two_class_bench(), 1)
    guard = StreamGuard(stream)
    with pytest.raises(DataAccessError):
        guard.advance(1)
