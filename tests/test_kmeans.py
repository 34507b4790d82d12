"""Lloyd's iterations and the nearest-centroid domain router."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import kmeans
from driftlab.errors import ShapeError, ValidationError
from driftlab.kmeans import CentroidRouter, fit_kmeans, kmeans_pp_init
from driftlab.rng import make_rng

import oracles


def blobs(seed=0, centers=((0.0, 0.0), (8.0, 0.0), (0.0, 8.0)), n_each=40):
    rng = np.random.default_rng(seed)
    return np.vstack([rng.normal(c, 1.0, size=(n_each, 2)) for c in centers])


def test_single_cluster_center_is_the_mean():
    X = blobs(1, centers=((3.0, -2.0),))
    centers, labels, _ = fit_kmeans(X, 1, make_rng(0))
    assert np.allclose(centers[0], X.mean(axis=0), atol=1e-12)
    assert (labels == 0).all()


def test_inertia_trace_never_increases():
    for seed in range(5):
        X = blobs(seed)
        _, _, trace = fit_kmeans(X, 3, make_rng(seed))
        assert (np.diff(trace) <= 1e-9).all()


def test_final_assignment_agrees_with_brute_force_scan():
    X = blobs(2)
    centers, labels, _ = fit_kmeans(X, 3, make_rng(2))
    assert np.array_equal(labels, oracles.nearest_centroid_scan(X, centers))


def test_separated_blobs_are_recovered():
    X = blobs(3)
    centers, _, _ = fit_kmeans(X, 3, make_rng(3))
    # every true blob centre has a fitted centre within one noise sigma
    for c in ((0.0, 0.0), (8.0, 0.0), (0.0, 8.0)):
        d = np.sqrt(((centers - np.array(c)) ** 2).sum(axis=1)).min()
        assert d < 1.0


def test_duplicate_points_do_not_crash_kmeans():
    X = np.tile([[1.0, 1.0]], (10, 1))
    centers, labels, _ = fit_kmeans(X, 3, make_rng(4))
    assert np.isfinite(centers).all()
    assert labels.shape == (10,)


def test_kmeans_input_validation():
    with pytest.raises(ValidationError):
        fit_kmeans(np.zeros((3, 2)), 4, make_rng(0))
    with pytest.raises(ValidationError):
        fit_kmeans(np.zeros((3, 2)), 0, make_rng(0))
    with pytest.raises(ShapeError):
        fit_kmeans(np.zeros(3), 1, make_rng(0))


def test_pp_init_picks_distinct_rows_when_possible():
    X = blobs(5)
    centers = kmeans_pp_init(X, 3, make_rng(5))
    assert len(np.unique(centers, axis=0)) == 3


def test_router_routes_separated_domains_perfectly():
    rng = np.random.default_rng(6)
    dom0 = rng.normal((0.0, 0.0), 1.0, size=(100, 2))
    dom1 = rng.normal((12.0, 0.0), 1.0, size=(100, 2))
    router = CentroidRouter(n_centroids=3, n_neighbors=1)
    router.add_domain(dom0, make_rng(0, "c"))
    router.add_domain(dom1, make_rng(1, "c"))
    assert router.n_domains == 2
    assert (router.predict(dom0) == 0).all()
    assert (router.predict(dom1) == 1).all()


def test_adding_a_domain_leaves_earlier_centroids_alone():
    rng = np.random.default_rng(7)
    router = CentroidRouter(n_centroids=2, n_neighbors=1)
    router.add_domain(rng.normal(size=(30, 2)), make_rng(0, "c"))
    before = router.centroids.copy()
    router.add_domain(rng.normal(5.0, 1.0, size=(30, 2)), make_rng(1, "c"))
    assert np.array_equal(router.centroids[:2], before)
    assert router.domain_ids.tolist() == [0, 0, 1, 1]


def test_vote_ties_resolve_to_the_lowest_domain_id():
    # one centroid per domain, equidistant query, two neighbors: 1 vote each
    router = CentroidRouter(n_centroids=1, n_neighbors=2)
    router.add_domain(np.array([[0.0, 0.0]]), make_rng(0, "c"))
    router.add_domain(np.array([[2.0, 0.0]]), make_rng(1, "c"))
    assert router.predict(np.array([[1.0, 0.0]])).tolist() == [0]


def test_exact_distance_ties_resolve_to_the_lowest_domain_id():
    router = CentroidRouter(n_centroids=1, n_neighbors=1)
    router.add_domain(np.array([[0.0, 0.0]]), make_rng(0, "c"))
    router.add_domain(np.array([[0.0, 0.0]]), make_rng(1, "c"))
    assert router.predict(np.array([[3.0, 3.0]])).tolist() == [0]


def test_router_caps_centroids_by_domain_size():
    router = CentroidRouter(n_centroids=10, n_neighbors=1)
    router.add_domain(np.array([[0.0, 0.0], [1.0, 1.0]]), make_rng(0, "c"))
    assert router.centroids.shape == (2, 2)


def test_arrays_are_the_same_four_blocks_over_one_domain():
    router = CentroidRouter(n_centroids=2, n_neighbors=1)
    router.add_domain(np.array([[0.0, 0.0], [1.0, 1.0], [4.0, 4.0]]), make_rng(0, "c"))
    blocks = dict(router.arrays("router"))
    assert list(blocks) == ["router.k", "router.knn", "router.centroids", "router.domain_ids"]
    assert blocks["router.k"] == 2 and blocks["router.knn"] == 1
    assert blocks["router.centroids"] is router.centroids
    assert blocks["router.domain_ids"].tolist() == [0, 0]


def test_a_mismatched_domain_is_rejected_before_any_fit(monkeypatch):
    router = CentroidRouter(n_centroids=2, n_neighbors=1)
    router.add_domain(np.zeros((4, 2)), make_rng(0, "c"))

    def no_fit(*args):
        raise AssertionError("fit_kmeans ran on a domain of the wrong dim")

    monkeypatch.setattr(kmeans, "fit_kmeans", no_fit)
    with pytest.raises(ShapeError, match="dim 2, got 3"):
        router.add_domain(np.zeros((4, 3)), make_rng(1, "c"))
    assert router.centroids.shape == (2, 2)


def test_router_validation():
    with pytest.raises(ValidationError):
        CentroidRouter(n_centroids=0, n_neighbors=1)
    router = CentroidRouter(n_centroids=5, n_neighbors=1)
    with pytest.raises(ValidationError):
        router.predict(np.zeros((2, 2)))
    router.add_domain(np.zeros((4, 2)), make_rng(0, "c"))
    with pytest.raises(ShapeError):
        router.predict(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        router.add_domain(np.zeros((4, 3)), make_rng(1, "c"))


@st.composite
def grid_routers(draw):
    """Integer-grid centroids and queries, so exact distance ties happen."""
    d = draw(st.integers(1, 3))
    counts = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    coords = st.integers(-2, 2)
    centroids = draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                              min_size=sum(counts), max_size=sum(counts)))
    queries = draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                            min_size=0, max_size=40))
    n_neighbors = draw(st.integers(1, 5))
    return (np.array(centroids, dtype=float), np.repeat(np.arange(len(counts)), counts),
            np.array(queries, dtype=float).reshape(len(queries), d), n_neighbors)


@settings(max_examples=150, deadline=None)
@given(grid_routers(), st.integers(1, 7))
def test_vote_matches_the_per_row_loop(case, block):
    centroids, domain_ids, X, n_neighbors = case
    router = CentroidRouter(n_centroids=3, n_neighbors=n_neighbors)
    router.centroids, router.domain_ids = centroids, domain_ids
    # hypothesis rejects the function-scoped monkeypatch, so patch by hand
    with patch.object(kmeans, "PREDICT_BLOCK", block):
        got = router.predict(X)
    want = oracles.centroid_vote_loop(X, centroids, domain_ids, n_neighbors)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def point_clouds(draw):
    """Rows and centers up to d = 12; an integer grid makes exact ties."""
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 60))
    k = draw(st.integers(1, min(n, 10)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    X = rng.normal(size=(n, d)) * rng.uniform(0.1, 5.0, size=d)
    if draw(st.booleans()):
        X = np.round(X)
    return X, k, draw(st.integers(0, 2**31 - 1))


@settings(max_examples=100, deadline=None)
@given(point_clouds())
def test_assignments_match_the_brute_force_scan(case):
    X, k, seed = case
    rng = np.random.default_rng(seed)
    centers = X[rng.integers(len(X), size=k)] + np.round(rng.normal(size=(k, X.shape[1])))
    want = oracles.nearest_centroid_scan(X, centers)
    got = kmeans._assign(X.T.copy(), centers)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    fitted, labels, _ = fit_kmeans(X, k, make_rng(seed))
    assert np.array_equal(labels, oracles.nearest_centroid_scan(X, fitted))
