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


def test_projection_matches_eigendecomposition_oracle():
    X = correlated_cloud()
    proj = pca_project_2d(X)
    coords, components, explained = oracles.pca_2d_reference(X)
    assert not proj.degenerate
    assert np.allclose(proj.components, components, atol=1e-9)
    assert np.allclose(proj.coords, coords, atol=1e-8)
    assert np.allclose(proj.explained_ratio, explained, atol=1e-9)


def test_components_are_orthonormal_and_ordered():
    proj = pca_project_2d(correlated_cloud(seed=2))
    assert abs(proj.components[0] @ proj.components[1]) < 1e-9
    assert np.allclose((proj.components ** 2).sum(axis=1), 1.0, atol=1e-9)
    assert proj.explained_ratio[0] >= proj.explained_ratio[1] >= 0.0
    assert proj.explained_ratio.sum() <= 1.0 + 1e-12


def test_sign_convention_fixes_each_component():
    proj = pca_project_2d(correlated_cloud(seed=3))
    for row in proj.components:
        assert row[np.argmax(np.abs(row))] > 0


def test_rank_one_data_is_flagged_degenerate():
    t = np.linspace(0.0, 1.0, 10)
    X = np.column_stack([t, 2 * t])  # a line in the plane
    proj = pca_project_2d(X)
    assert proj.degenerate
    assert np.allclose(proj.coords[:, 1], 0.0)
    assert proj.explained_ratio[1] == 0.0
    assert abs(proj.explained_ratio[0] - 1.0) < 1e-12


def test_rank_zero_data_is_flagged_degenerate():
    X = np.tile([[5.0, -3.0, 1.0]], (6, 1))
    proj = pca_project_2d(X)
    assert proj.degenerate
    assert np.allclose(proj.coords, 0.0)
    assert np.allclose(proj.explained_ratio, 0.0)


def test_minimum_size_requirements():
    # too few samples or features to span a plane degrade to a degenerate
    # projection instead of failing; only a non-matrix input is an error
    X = np.random.default_rng(1).normal(size=(80, 1))
    for data in (X, X[:1], np.arange(6.0).reshape(2, 3)):
        proj = pca_project_2d(data)
        assert proj.degenerate
        assert proj.coords.shape == (len(data), 2)
        assert np.allclose(proj.coords[:, 1], 0.0)
    # one feature: pc1 is the centered feature itself (positive sign convention)
    assert np.allclose(pca_project_2d(X).coords[:, 0], X[:, 0] - X.mean())
    with pytest.raises(ShapeError):
        pca_project_2d(np.zeros(10))
