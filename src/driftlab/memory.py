"""Replay memory: per-class quota buffers and trainset composition for
rehearsal strategies and the synthetic domain router.

A buffer is a plain list of LabeledSets whose position is the domain id.
Each admission keeps a fixed number of samples per class, drawn by
single-pass reservoir sampling the moment the domain arrives. Entries are
never revisited afterwards: admitting a new domain appends to the list and
leaves existing entries untouched, so no past stream data is ever read
again. The same list serves real rehearsal (experience replay) and
synthetic rehearsal (generative replay).
"""

from __future__ import annotations

import numpy as np

from .benchmarks import LabeledSet
from .errors import ValidationError
from .rng import make_rng


def reservoir_indices(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Classic single-pass reservoir (Algorithm R) over range(n), keeping k.

    Item i >= k draws its slot j from [0, i] and replaces slot j if j < k.
    Every j is drawn in one call, the same draws, in the same order, as
    one scalar draw per i, and a slot keeps the last (largest) i it drew.
    """
    if k >= n:
        return np.arange(n)
    keep = np.arange(k)
    i = np.arange(k, n)
    j = rng.integers(0, i + 1)
    hit = j < k
    np.maximum.at(keep, j[hit], i[hit])
    return np.sort(keep)


def update_replay_buffer(buffer: list, trainset: LabeledSet,
                         per_class_quota: int, seed: int) -> list:
    """Admit one domain: reservoir-sample quota items per class (all if the
    class is smaller) and append, so the new entry's position is its domain
    id. Existing entries are untouched."""
    if per_class_quota < 1:
        raise ValidationError(f"per_class_quota must be >= 1, got {per_class_quota}")
    if buffer and trainset.dim != buffer[0].dim:
        raise ValidationError(
            f"feature dim {trainset.dim} does not match buffer dim {buffer[0].dim}"
        )
    picked = []
    for c in np.unique(trainset.y):
        idx = np.flatnonzero(trainset.y == c)
        rng = make_rng(seed, "reservoir", int(c))
        picked.append(idx[reservoir_indices(len(idx), per_class_quota, rng)])
    keep = np.sort(np.concatenate(picked))
    buffer.append(LabeledSet(trainset.X[keep].copy(), trainset.y[keep].copy()))
    return buffer


def concat_sets(parts) -> LabeledSet:
    parts = [p for p in parts if len(p) > 0]
    if not parts:
        raise ValidationError("nothing to concatenate")
    dims = {p.dim for p in parts}
    if len(dims) > 1:
        raise ValidationError(f"feature dims differ across parts: {sorted(dims)}")
    return LabeledSet(np.vstack([p.X for p in parts]),
                      np.concatenate([p.y for p in parts]))


def compose_replay_trainset(current: LabeledSet, buffer: list) -> LabeledSet:
    """Current domain's data plus every buffered sample, class labels only,
    whether the samples are real or synthetic."""
    if not buffer:
        return current
    return concat_sets([current, *buffer])


def build_router_trainset(sets) -> LabeledSet:
    """Per-domain sample sets relabeled by origin: features keep their
    values, targets become domain ids, the position of each set in the
    list. This is the discriminator's training set, built from synthetic
    buffers or, for the real-data variant, from real training splits.
    """
    if not sets:
        raise ValidationError("need at least one set")
    X = np.vstack([data.X for data in sets])
    y = np.concatenate([np.full(len(data), t) for t, data in enumerate(sets)])
    return LabeledSet(X, y)
