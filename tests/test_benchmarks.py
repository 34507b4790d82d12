"""Stream generation: recipes, determinism, label permutations, access control."""

import numpy as np
import pytest

from driftlab.benchmarks import (DomainRecipe, LabeledSet, StreamGuard,
                                 _balanced_labels, build_stream,
                                 recipe_conditional_flip, recipe_covariate_shift,
                                 recipe_rotation)
from driftlab.errors import ConfigError, DataAccessError, ShapeError


def two_class_recipes(n_domains=3, shift=(4.0, 0.0), **sizes):
    sizes = {"n_train": 60, "n_val": 20, "n_test": 30, **sizes}
    return recipe_covariate_shift([[0.0, -1.0], [0.0, 1.0]], list(shift), 1.0,
                                  n_domains=n_domains, **sizes)


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
    recipes = two_class_recipes()
    a = build_stream(recipes, 123)
    b = build_stream(recipes, 123)
    c = build_stream(recipes, 124)
    assert np.array_equal(a.domains[1].train.X, b.domains[1].train.X)
    assert np.array_equal(a.domains[1].train.y, b.domains[1].train.y)
    assert not np.array_equal(a.domains[1].train.X, c.domains[1].train.X)


def test_splits_are_mutually_independent_draws():
    stream = build_stream(two_class_recipes(), 9)
    d = stream.domains[0]
    assert len(d.train) == 60 and len(d.val) == 20 and len(d.test) == 30
    # same recipe, different split streams: no shared rows
    assert not np.array_equal(d.train.X[:20], d.val.X)


def test_covariate_shift_moves_means_cumulatively():
    recipes = two_class_recipes(n_domains=3, shift=(4.0, 0.0))
    for t, recipe in enumerate(recipes):
        want = np.array([[0.0, -1.0], [0.0, 1.0]]) + np.array([4.0 * t, 0.0])
        assert np.allclose(recipe.effective_means(), want)


def test_covariate_shift_accepts_per_domain_matrix():
    shifts = [[0.0, 0.0], [5.0, 3.0], [10.0, 0.0]]
    recipes = recipe_covariate_shift([[0.0, 0.0], [0.0, 2.0]], shifts, 1.0,
                                     n_train=60, n_val=20, n_test=30)
    assert len(recipes) == 3
    assert np.allclose(recipes[1].class_means[0], [5.0, 3.0])


def test_covariate_empirical_means_land_near_recipe_means():
    recipes = two_class_recipes(n_domains=2, shift=(6.0, 0.0), n_train=4000)
    stream = build_stream(recipes, 5)
    train = stream.domains[1].train
    for c in range(2):
        centre = train.X[train.y == c].mean(axis=0)
        assert np.allclose(centre, recipes[1].class_means[c], atol=0.15)


def test_conditional_flip_swaps_cluster_labels():
    recipes = recipe_conditional_flip([[0.0, -2.0], [0.0, 2.0]], 0.01,
                                      flip_domains=[1], n_domains=2,
                                      n_train=200, n_val=20, n_test=30)
    assert recipes[0].label_permutation().tolist() == [0, 1]
    assert recipes[1].label_permutation().tolist() == [1, 0]
    stream = build_stream(recipes, 3)
    flipped = stream.domains[1].train
    # the cluster at y ~ -2 carries label 1 once flipped
    low = flipped.X[:, 1] < 0
    assert (flipped.y[low] == 1).all()
    assert (flipped.y[~low] == 0).all()


def test_conditional_flip_cyclic_for_three_classes():
    recipe = DomainRecipe("conditional_flip", np.eye(3), np.ones(3), flip_labels=True)
    assert recipe.label_permutation().tolist() == [1, 2, 0]


def test_rotation_recipe_turns_means_in_first_two_coords():
    angle = np.pi / 2
    recipes = recipe_rotation([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0]], 1.0, [0.0, angle],
                              n_train=60, n_val=20, n_test=30)
    means = recipes[1].effective_means()
    c, s = np.cos(angle), np.sin(angle)
    want0 = np.array([1.0 * c, 1.0 * s, 5.0])
    assert np.allclose(means[0], want0, atol=1e-12)
    assert np.allclose(means[:, 2], 5.0)  # untouched coordinate


def test_recipe_validation_errors():
    with pytest.raises(ConfigError):
        DomainRecipe("nope", np.zeros((2, 2)), np.ones(2))
    with pytest.raises(ConfigError):
        DomainRecipe("covariate_shift", np.zeros((2, 2)), np.ones(3))
    with pytest.raises(ConfigError):
        DomainRecipe("covariate_shift", np.zeros((2, 2)), np.array([1.0, 0.0]))
    with pytest.raises(ConfigError):
        recipe_covariate_shift([[0.0, 0.0], [1.0, 1.0]], [1.0, 2.0, 3.0], 1.0, n_domains=2)
    with pytest.raises(ConfigError):
        recipe_conditional_flip([[0.0], [1.0]], 1.0, flip_domains=[5], n_domains=2)


def test_build_stream_collects_all_recipe_problems():
    bad = two_class_recipes(n_domains=2)
    bad[1] = DomainRecipe("covariate_shift", np.zeros((3, 2)), np.ones(2),
                          n_train=6, n_val=5, n_test=5)
    with pytest.raises(ConfigError) as err:
        build_stream(bad, 0)
    text = str(err.value)
    assert "differ from recipe 0" in text
    assert "below 5 per class" in text


def test_guard_hides_past_and_future_from_plain_strategies():
    stream = build_stream(two_class_recipes(), 1)
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
    stream = build_stream(two_class_recipes(), 1)
    guard = StreamGuard(stream, privileged=True)
    guard.advance(0)
    guard.advance(1)
    assert len(guard.train(0)) == 60
    with pytest.raises(DataAccessError):
        guard.train(2)


def test_guard_enforces_arrival_order():
    stream = build_stream(two_class_recipes(), 1)
    guard = StreamGuard(stream)
    with pytest.raises(DataAccessError):
        guard.advance(1)
