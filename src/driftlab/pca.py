"""Two-component PCA used to flatten streams and synthetic buffers for
qualitative drift inspection.

The projection is computed from a thin SVD of the centered data. Component
signs follow a fixed convention (the entry of largest magnitude in each
component is positive), so projections are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError


@dataclass
class Projection2D:
    coords: np.ndarray          # (n, 2)
    components: np.ndarray      # (2, d) orthonormal rows
    explained_ratio: np.ndarray  # (2,)
    degenerate: bool            # data had rank < 2


def pca_project_2d(X: np.ndarray) -> Projection2D:
    """Project rows of X onto their top two principal axes.

    If the centered data has rank < 2 (always so with fewer than 3 samples
    or fewer than 2 features) the projection is flagged degenerate and the
    missing directions contribute zero coordinates.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected (n, d) data, got shape {X.shape}")
    centered = X - X.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)

    scale = float(svals[0]) if svals.size else 0.0
    rank2 = svals.size >= 2 and scale > 0 and svals[1] > 1e-12 * scale
    degenerate = not rank2

    components = np.zeros((2, X.shape[1]))
    if scale > 0:
        components[0] = vt[0]
    if rank2:
        components[1] = vt[1]
    # fix signs: largest-magnitude entry of each component is positive
    for row in components:
        if row.any():
            pivot = np.argmax(np.abs(row))
            if row[pivot] < 0:
                row *= -1.0

    total = float((svals ** 2).sum())
    explained = np.zeros(2)
    if total > 0:
        explained[0] = float(svals[0] ** 2) / total
        if rank2:
            explained[1] = float(svals[1] ** 2) / total
    return Projection2D(centered @ components.T, components, explained, degenerate)
