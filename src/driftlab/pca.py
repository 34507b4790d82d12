"""Two-component PCA used to flatten streams and synthetic buffers for
qualitative drift inspection.

The projection is computed from a thin SVD of the centered data. Component
signs follow a fixed convention (the entry of largest magnitude in each
component is positive), so projections are reproducible across runs.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def pca_project_2d(X: np.ndarray) -> np.ndarray:
    """Project rows of X onto their top two principal axes: (n, 2) coords.

    If the centered data has rank < 2 (always so with fewer than 3 samples
    or fewer than 2 features) the missing directions contribute zero
    coordinates.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"expected (n, d) data, got shape {X.shape}")
    centered = X - X.mean(axis=0)
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)

    scale = float(svals[0]) if svals.size else 0.0
    components = np.zeros((2, X.shape[1]))
    if scale > 0:
        components[0] = vt[0]
    if svals.size >= 2 and scale > 0 and svals[1] > 1e-12 * scale:
        components[1] = vt[1]
    # fix signs: largest-magnitude entry of each component is positive
    for row in components:
        if row.any():
            pivot = np.argmax(np.abs(row))
            if row[pivot] < 0:
                row *= -1.0
    return centered @ components.T
