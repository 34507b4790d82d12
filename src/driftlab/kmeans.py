"""Lloyd's k-means and the centroid-based domain router built on it.

The router follows the classic prompt-pool recipe: as each domain arrives,
summarize its training features by a handful of k-means centroids; at
inference, find the nearest centroids of a query and vote on their domain
ids. It needs no synthetic data and serves as the non-parametric routing
baseline.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, ValidationError

# Lloyd stops after MAX_ITER rounds or once no center moves more than MOVE_TOL
MAX_ITER = 100
MOVE_TOL = 1e-6
# CentroidRouter.predict votes this many rows at a time, so its distance
# temporary stays (PREDICT_BLOCK, K, d) however many rows are routed
PREDICT_BLOCK = 256


def kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: iteratively sample points proportional to squared
    distance from the chosen set."""
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining mass on already-chosen points: duplicate data
            centers[j:] = centers[0]
            break
        centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def _assign(XT: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest center of each column of the (d, n) data XT.

    The (d, K, n) squared differences add over d left to right, one
    vectorised add per feature: the bits of a row-major sum for d < 8 (see
    gmm._log_prob_matrix). With one center and one row, where the sum turns
    pairwise, argmin has one choice.
    """
    d2 = XT[:, None, :] - centers.T[:, :, None]           # (d, K, n)
    np.square(d2, out=d2)
    # argmin returns the lowest index on exact distance ties
    return np.argmin(d2.sum(axis=0), axis=0)


def fit_kmeans(X: np.ndarray, k: int, rng: np.random.Generator):
    """Lloyd iterations from a k-means++ start.

    Returns (centers, labels, inertia_trace); the trace of within-cluster
    sums of squares is non-increasing. Empty clusters are rescued by moving
    their center onto the point farthest from its assigned center.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise ShapeError(f"expected non-empty (n, d) data, got shape {X.shape}")
    if not 1 <= k <= X.shape[0]:
        raise ValidationError(f"k must be in [1, {X.shape[0]}], got {k}")
    XT = X.T.copy()
    centers = kmeans_pp_init(X, k, rng)
    labels = _assign(XT, centers)
    trace = []
    for _ in range(MAX_ITER):
        old = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                far = np.argmax(((X - centers[labels]) ** 2).sum(axis=1))
                centers[j] = X[far]
        labels = _assign(XT, centers)
        trace.append(float(((X - centers[labels]) ** 2).sum()))
        if np.sqrt(((centers - old) ** 2).sum(axis=1)).max() < MOVE_TOL:
            break
    return centers, labels, np.asarray(trace)


class CentroidRouter:
    """Nearest-centroid domain identifier.

    add_domain() summarizes one domain's training features by k-means
    centroids, in arrival order; predict() votes over the n_neighbors
    nearest centroids, and arrays() gives the checkpoint blocks. Vote ties
    and exact distance ties both resolve toward the lowest domain id.
    """

    def __init__(self, n_centroids: int, n_neighbors: int):
        if n_centroids < 1 or n_neighbors < 1:
            raise ValidationError("n_centroids and n_neighbors must be >= 1")
        self.n_centroids = n_centroids
        self.n_neighbors = n_neighbors
        self.centroids = None      # (sum_t k_t, d), grouped by domain, ascending
        self.domain_ids = None

    @property
    def n_domains(self) -> int:
        return 0 if self.domain_ids is None else int(self.domain_ids.max()) + 1

    def add_domain(self, X, rng: np.random.Generator) -> "CentroidRouter":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValidationError("each domain needs a non-empty (n, d) feature set")
        if self.centroids is not None and X.shape[1] != self.centroids.shape[1]:
            raise ShapeError(
                f"expected features of dim {self.centroids.shape[1]}, got {X.shape[1]}"
            )
        k = min(self.n_centroids, X.shape[0])
        centers, _, _ = fit_kmeans(X, k, rng)
        ids = np.full(k, self.n_domains)
        if self.centroids is None:
            self.centroids, self.domain_ids = centers, ids
        else:
            self.centroids = np.vstack([self.centroids, centers])
            self.domain_ids = np.concatenate([self.domain_ids, ids])
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Domain id of each row of X, voted PREDICT_BLOCK rows at a time.

        Each row's distances, sort and vote depend on that row alone, so
        every block size routes every row to the same domain.
        """
        if self.centroids is None:
            raise ValidationError("router has seen no domains")
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.centroids.shape[1]:
            raise ShapeError(f"expected batch of shape (n, {self.centroids.shape[1]}), got {X.shape}")
        m = min(self.n_neighbors, self.centroids.shape[0])
        n_domains = self.n_domains
        routed = np.empty(X.shape[0], dtype=int)
        for start in range(0, X.shape[0], PREDICT_BLOCK):
            block = X[start:start + PREDICT_BLOCK]
            d2 = block[:, None, :] - self.centroids[None, :, :]
            np.square(d2, out=d2)
            # stable sort keeps centroid order (grouped by ascending domain) on
            # exact distance ties, and argmax takes the first of tied vote counts,
            # so both kinds of tie fall to the lowest domain id
            near = self.domain_ids[np.argsort(d2.sum(axis=2), axis=1, kind="stable")[:, :m]]
            votes = np.zeros((block.shape[0], n_domains), dtype=int)
            rows = np.arange(block.shape[0])
            for r in range(m):
                votes[rows, near[:, r]] += 1
            routed[start:start + PREDICT_BLOCK] = np.argmax(votes, axis=1)
        return routed

    def arrays(self, tag: str):
        """Checkpoint blocks: both knobs, the centroids and their domain ids."""
        yield f"{tag}.k", np.array(self.n_centroids)
        yield f"{tag}.knn", np.array(self.n_neighbors)
        yield f"{tag}.centroids", self.centroids
        yield f"{tag}.domain_ids", self.domain_ids
