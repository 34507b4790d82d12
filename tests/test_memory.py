"""Replay buffers: reservoir behavior, per-class quotas, composition rules."""

import numpy as np
import pytest

from driftlab.benchmarks import LabeledSet
from driftlab.errors import ValidationError
from driftlab.memory import (ReplayBuffer, build_router_trainset,
                             compose_replay_trainset, concat_sets,
                             reservoir_indices, update_replay_buffer)
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
    buffer = ReplayBuffer()
    update_replay_buffer(buffer, labeled(40), domain_id=0, per_class_quota=6, seed=1)
    stored = buffer.stored[0]
    assert np.bincount(stored.y).tolist() == [6, 6]
    assert len(buffer) == 12


def test_update_is_append_only():
    buffer = ReplayBuffer()
    update_replay_buffer(buffer, labeled(40, seed=1), 0, 5, seed=1)
    frozen_X = buffer.stored[0].X.copy()
    update_replay_buffer(buffer, labeled(40, seed=2), 1, 5, seed=2)
    assert np.array_equal(buffer.stored[0].X, frozen_X)
    assert buffer.domains == [0, 1]


def test_update_takes_all_of_small_classes():
    data = LabeledSet(np.zeros((5, 2)), np.array([0, 0, 0, 0, 1]))
    buffer = ReplayBuffer()
    update_replay_buffer(buffer, data, 0, per_class_quota=3, seed=0)
    assert np.bincount(buffer.stored[0].y).tolist() == [3, 1]


def test_update_rejects_duplicate_domains_and_dim_changes():
    buffer = ReplayBuffer()
    update_replay_buffer(buffer, labeled(20), 0, 5, seed=0)
    with pytest.raises(ValidationError, match="already admitted"):
        update_replay_buffer(buffer, labeled(20), 0, 5, seed=0)
    with pytest.raises(ValidationError):
        update_replay_buffer(buffer, labeled(20, dim=3), 1, 5, seed=0)
    with pytest.raises(ValidationError):
        update_replay_buffer(buffer, labeled(20), 1, 0, seed=0)


def test_compose_prepends_current_and_flattens_buffer():
    buffer = ReplayBuffer()
    update_replay_buffer(buffer, labeled(20, seed=3), 0, 4, seed=3)
    update_replay_buffer(buffer, labeled(20, seed=4), 1, 4, seed=4)
    current = labeled(10, seed=5)
    combined = compose_replay_trainset(current, buffer)
    assert len(combined) == 10 + 8 + 8
    assert np.array_equal(combined.X[:10], current.X)


def test_compose_with_empty_buffer_is_identity():
    current = labeled(10)
    assert compose_replay_trainset(current, ReplayBuffer()) is current


def test_concat_sets_validation():
    with pytest.raises(ValidationError):
        concat_sets([])
    with pytest.raises(ValidationError):
        concat_sets([labeled(4, dim=2), labeled(4, dim=3)])


def test_router_trainset_relabels_by_domain():
    sets = [(2, labeled(6, seed=8)), (0, labeled(4, seed=9))]
    routerset = build_router_trainset(sets)
    assert len(routerset) == 10
    # sorted ascending by domain id: domain 0 rows first
    assert routerset.y.tolist() == [0] * 4 + [2] * 6
    assert np.array_equal(routerset.X[:4], sets[1][1].X)


def test_router_trainset_accepts_buffer_objects():
    class Buf:
        def __init__(self, domain_id, data):
            self.domain_id = domain_id
            self.data = data

    routerset = build_router_trainset([Buf(1, labeled(4)), (0, labeled(3))])
    assert routerset.y.tolist() == [0, 0, 0, 1, 1, 1, 1]


def test_router_trainset_rejects_duplicates_and_empties():
    with pytest.raises(ValidationError, match="duplicate"):
        build_router_trainset([(0, labeled(4)), (0, labeled(4))])
    with pytest.raises(ValidationError):
        build_router_trainset([])
