"""PCA projection checked against an eigendecomposition of the covariance."""

import numpy as np
import pytest

from driftlab.errors import ShapeError
from driftlab.pca import pca_project_2d

import oracles


def correlated_cloud(seed=0, n=60, d=4):
    rng = np.random.default_rng(seed)
    latent = rng.normal(size=(n, 2))
    mixing = rng.normal(size=(2, d)) * np.array([[3.0], [1.5]])
    return latent @ mixing + 0.05 * rng.normal(size=(n, d)) + rng.normal(size=d)


def principal_axes(X, coords):
    """The (2, d) axes the projection used: coords = centered X @ axes.T."""
    centered = X - X.mean(axis=0)
    return np.linalg.lstsq(centered, coords, rcond=None)[0].T


def test_projection_matches_eigendecomposition_oracle():
    X = correlated_cloud()
    assert np.allclose(pca_project_2d(X), oracles.pca_2d_reference(X), atol=1e-8)


def test_components_are_orthonormal_and_ordered():
    X = correlated_cloud(seed=2)
    coords = pca_project_2d(X)
    axes = principal_axes(X, coords)
    assert abs(axes[0] @ axes[1]) < 1e-9
    assert np.allclose((axes ** 2).sum(axis=1), 1.0, atol=1e-9)
    assert abs(coords[:, 0] @ coords[:, 1]) < 1e-8
    assert coords[:, 0].var() >= coords[:, 1].var() > 0.0


def test_sign_convention_fixes_each_component():
    X = correlated_cloud(seed=3)
    for row in principal_axes(X, pca_project_2d(X)):
        assert row[np.argmax(np.abs(row))] > 0


def test_rank_one_data_is_flagged_degenerate():
    # degenerate data keeps pc1 and gets a zero pc2 column
    t = np.linspace(0.0, 1.0, 10)
    X = np.column_stack([t, 2 * t])  # a line in the plane
    coords = pca_project_2d(X)
    assert np.allclose(coords[:, 1], 0.0)
    assert np.allclose(np.abs(coords[:, 0]), np.sqrt(5.0) * np.abs(t - t.mean()))


def test_rank_zero_data_is_flagged_degenerate():
    X = np.tile([[5.0, -3.0, 1.0]], (6, 1))
    assert np.allclose(pca_project_2d(X), 0.0)


def test_minimum_size_requirements():
    # too few samples or features to span a plane degrade to a zero pc2
    # instead of failing; only a non-matrix input is an error
    X = np.random.default_rng(1).normal(size=(80, 1))
    for data in (X, X[:1], np.arange(6.0).reshape(2, 3)):
        coords = pca_project_2d(data)
        assert coords.shape == (len(data), 2)
        assert np.allclose(coords[:, 1], 0.0)
    # one feature: pc1 is the centered feature itself (positive sign convention)
    assert np.allclose(pca_project_2d(X)[:, 0], X[:, 0] - X.mean())
    with pytest.raises(ShapeError):
        pca_project_2d(np.zeros(10))
