"""Replay memory: per-class quota buffers and trainset composition for
rehearsal strategies and the synthetic domain router.

The buffer holds a fixed number of samples per class per domain, drawn by
single-pass reservoir sampling the moment the domain arrives. Entries are
never revisited afterwards: admitting a new domain appends to the store and
leaves existing entries untouched, so no past stream data is ever read
again. The same container serves real rehearsal (experience replay) and
synthetic rehearsal (generative replay).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .benchmarks import LabeledSet
from .errors import ValidationError
from .rng import make_rng


def reservoir_indices(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Classic single-pass reservoir (Algorithm R) over range(n), keeping k."""
    if k >= n:
        return np.arange(n)
    keep = np.arange(k)
    for i in range(k, n):
        j = int(rng.integers(0, i + 1))
        if j < k:
            keep[j] = i
    return np.sort(keep)


@dataclass
class ReplayBuffer:
    """Per-domain, per-class-quota sample store."""

    stored: dict = field(default_factory=dict)   # domain id -> LabeledSet

    def __len__(self) -> int:
        return sum(len(s) for s in self.stored.values())

    @property
    def domains(self):
        return sorted(self.stored)

    @property
    def dim(self):
        for s in self.stored.values():
            return s.dim
        return None


def update_replay_buffer(buffer: ReplayBuffer, trainset: LabeledSet,
                         domain_id: int, per_class_quota: int, seed: int) -> ReplayBuffer:
    """Admit one domain: reservoir-sample quota items per class (all if the
    class is smaller) and append. Existing entries are untouched."""
    if per_class_quota < 1:
        raise ValidationError(f"per_class_quota must be >= 1, got {per_class_quota}")
    if domain_id in buffer.stored:
        raise ValidationError(f"domain {domain_id} was already admitted")
    if buffer.dim is not None and trainset.dim != buffer.dim:
        raise ValidationError(
            f"feature dim {trainset.dim} does not match buffer dim {buffer.dim}"
        )
    picked = []
    for c in np.unique(trainset.y):
        idx = np.flatnonzero(trainset.y == c)
        rng = make_rng(seed, "reservoir", int(c))
        picked.append(idx[reservoir_indices(len(idx), per_class_quota, rng)])
    keep = np.sort(np.concatenate(picked))
    buffer.stored[domain_id] = LabeledSet(trainset.X[keep].copy(), trainset.y[keep].copy())
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


def compose_replay_trainset(current: LabeledSet, buffer: ReplayBuffer) -> LabeledSet:
    """Current domain's data plus every buffered sample, class labels only,
    whether the samples are real or synthetic."""
    if not buffer.stored:
        return current
    parts = [current] + [buffer.stored[t] for t in buffer.domains]
    return concat_sets(parts)


def build_router_trainset(buffers) -> LabeledSet:
    """Per-domain sample sets relabeled by origin: features keep their
    values, targets become domain ids. This is the discriminator's training
    set. Accepts synthetic buffers (or any object with domain_id and data)
    and plain (domain_id, LabeledSet) pairs for the real-data variant.
    """
    if not buffers:
        raise ValidationError("need at least one buffer")
    tagged = []
    for buf in buffers:
        if isinstance(buf, tuple):
            tagged.append((int(buf[0]), buf[1]))
        else:
            tagged.append((int(buf.domain_id), buf.data))
    seen = set()
    for domain_id, _ in tagged:
        if domain_id in seen:
            raise ValidationError(f"duplicate buffer for domain {domain_id}")
        seen.add(domain_id)
    tagged.sort(key=lambda pair: pair[0])
    X = np.vstack([data.X for _, data in tagged])
    y = np.concatenate([np.full(len(data), domain_id) for domain_id, data in tagged])
    return LabeledSet(X, y)
