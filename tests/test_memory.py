"""Replay buffers (plain lists indexed by domain): reservoir behavior,
per-class quotas, composition rules."""

import numpy as np
import pytest

from driftlab.benchmarks import LabeledSet
from driftlab.errors import ValidationError
from driftlab.memory import (build_router_trainset, compose_replay_trainset,
                             concat_sets, reservoir_indices,
                             update_replay_buffer)
from driftlab.rng import make_rng


def labeled(n, dim=2, n_classes=2, seed=0):
    rng = np.random.default_rng(seed)
    return LabeledSet(rng.normal(size=(n, dim)),
                      np.arange(n) % n_classes)


def test_reservoir_keeps_everything_when_quota_covers_n():
    assert reservoir_indices(4, 10, make_rng(0)).tolist() == [0, 1, 2, 3]


def test_reservoir_returns_sorted_unique_indices():
    idx = reservoir_indices(50, 12, make_rng(1))
    assert len(idx) == 12
    assert len(set(idx.tolist())) == 12
    assert (np.diff(idx) > 0).all()
    assert idx.min() >= 0 and idx.max() < 50


def test_reservoir_inclusion_is_roughly_uniform():
    n, k, trials = 10, 4, 3000
    hits = np.zeros(n)
    for trial in range(trials):
        hits[reservoir_indices(n, k, make_rng(trial, "res"))] += 1
    freq = hits / trials
    assert (np.abs(freq - k / n) < 0.05).all()


def test_update_admits_quota_per_class():
    buffer = []
    update_replay_buffer(buffer, labeled(40), domain_id=0, per_class_quota=6, seed=1)
    assert len(buffer) == 1
    assert np.bincount(buffer[0].y).tolist() == [6, 6]


def test_update_is_append_only():
    buffer = []
    update_replay_buffer(buffer, labeled(40, seed=1), 0, 5, seed=1)
    first = buffer[0]
    frozen_X = first.X.copy()
    update_replay_buffer(buffer, labeled(40, seed=2), 1, 5, seed=2)
    assert buffer[0] is first
    assert np.array_equal(first.X, frozen_X)
    assert len(buffer) == 2


def test_update_takes_all_of_small_classes():
    data = LabeledSet(np.zeros((5, 2)), np.array([0, 0, 0, 0, 1]))
    buffer = []
    update_replay_buffer(buffer, data, 0, per_class_quota=3, seed=0)
    assert np.bincount(buffer[0].y).tolist() == [3, 1]


def test_update_rejects_duplicate_domains_and_dim_changes():
    buffer = []
    with pytest.raises(ValidationError, match="expected domain 0 next, got 1"):
        update_replay_buffer(buffer, labeled(20), 1, 5, seed=0)
    update_replay_buffer(buffer, labeled(20), 0, 5, seed=0)
    with pytest.raises(ValidationError, match="expected domain 1 next, got 0"):
        update_replay_buffer(buffer, labeled(20), 0, 5, seed=0)
    with pytest.raises(ValidationError, match="expected domain 1 next, got 2"):
        update_replay_buffer(buffer, labeled(20), 2, 5, seed=0)
    with pytest.raises(ValidationError):
        update_replay_buffer(buffer, labeled(20, dim=3), 1, 5, seed=0)
    with pytest.raises(ValidationError):
        update_replay_buffer(buffer, labeled(20), 1, 0, seed=0)


def test_compose_prepends_current_and_flattens_buffer():
    buffer = []
    update_replay_buffer(buffer, labeled(20, seed=3), 0, 4, seed=3)
    update_replay_buffer(buffer, labeled(20, seed=4), 1, 4, seed=4)
    current = labeled(10, seed=5)
    combined = compose_replay_trainset(current, buffer)
    assert len(combined) == 10 + 8 + 8
    assert np.array_equal(combined.X[:10], current.X)


def test_compose_with_empty_buffer_is_identity():
    current = labeled(10)
    assert compose_replay_trainset(current, []) is current


def test_concat_sets_validation():
    with pytest.raises(ValidationError):
        concat_sets([])
    with pytest.raises(ValidationError):
        concat_sets([labeled(4, dim=2), labeled(4, dim=3)])


def test_router_trainset_relabels_by_domain():
    sets = [labeled(4, seed=9), labeled(6, seed=8)]
    routerset = build_router_trainset(sets)
    assert len(routerset) == 10
    # a set's position in the list is its domain id
    assert routerset.y.tolist() == [0] * 4 + [1] * 6
    assert np.array_equal(routerset.X[:4], sets[0].X)
    assert np.array_equal(routerset.X[4:], sets[1].X)


def test_router_trainset_rejects_an_empty_list():
    with pytest.raises(ValidationError):
        build_router_trainset([])
