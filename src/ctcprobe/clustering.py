"""k-means over frame vectors, majority-label pruning, and 2-D projection.

Only cluster centroids are ever projected (a few hundred points), so the
t-SNE here is the exact O(k^2) formulation; PCA is a plain SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phoneset import majority_baseline


@dataclass
class KMeansResult:
    centroids: np.ndarray       # k x D
    assignments: np.ndarray     # each point's nearest final centroid
    inertia_history: list       # per Lloyd iteration


def _pairwise_sq_dists(x, c):
    # ||x||^2 - 2 x.c + ||c||^2, clipped for rounding
    d2 = (np.sum(x * x, axis=1)[:, None] - 2.0 * x @ c.T
          + np.sum(c * c, axis=1)[None, :])
    return np.maximum(d2, 0.0)


def _kmeanspp_init(vectors, k, rng):
    n = vectors.shape[0]
    centroids = np.empty((k, vectors.shape[1]))
    chosen = np.zeros(n, dtype=bool)
    first = int(rng.integers(n))
    centroids[0] = vectors[first]
    chosen[first] = True
    d2 = np.sum((vectors - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
            if chosen[idx]:  # duplicate point; fall back to any unchosen
                idx = int(np.flatnonzero(~chosen)[0])
        else:
            idx = int(np.flatnonzero(~chosen)[0])
        centroids[j] = vectors[idx]
        chosen[idx] = True
        d2 = np.minimum(d2, np.sum((vectors - centroids[j]) ** 2, axis=1))
    return centroids


def kmeans(vectors, k, seed=0, max_iter=100, tol=1e-6) -> KMeansResult:
    """Lloyd iterations from k-means++ seeding.

    Stops at max_iter or when the relative inertia improvement drops
    below tol.  Empty clusters are reseeded to the point currently
    farthest from its assigned centroid.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    n = vectors.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points {n}")
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_init(vectors, k, rng)

    history = []
    prev = np.inf
    assign = np.zeros(n, dtype=np.int64)
    for _ in range(max_iter):
        d2 = _pairwise_sq_dists(vectors, centroids)
        assign = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(n), assign]
        counts = np.bincount(assign, minlength=k)
        for j in np.flatnonzero(counts == 0):
            far = int(np.argmax(point_d2))
            centroids[j] = vectors[far]
            assign[far] = j
            point_d2[far] = 0.0
            counts = np.bincount(assign, minlength=k)
        inertia = float(point_d2.sum())
        history.append(inertia)
        if prev - inertia <= tol * max(abs(prev), 1e-12) and np.isfinite(prev):
            break
        prev = inertia
        for j in range(k):
            members = assign == j
            if members.any():
                centroids[j] = vectors[members].mean(axis=0)

    # Final assignment against the final centroids.
    assign = np.argmin(_pairwise_sq_dists(vectors, centroids), axis=1)
    return KMeansResult(centroids, assign, history)


def majority_clusters(assignments, labels, min_coverage):
    """(id, majority label, coverage) of each non-empty cluster whose
    majority label covers at least ``min_coverage`` of its members, in id
    order; ``labels`` names each point's label."""
    if not 0.0 < min_coverage <= 1.0:
        raise ValueError("min_coverage must be in (0, 1]")
    labels = np.asarray(labels)
    rows = []
    for j in np.unique(assignments):
        label, coverage = majority_baseline(labels[assignments == j])
        if coverage >= min_coverage:
            rows.append((int(j), label, coverage))
    return rows


# ---------------------------------------------------------------------------
# 2-D projection
# ---------------------------------------------------------------------------

def pca_2d(points):
    points = np.asarray(points, dtype=np.float64)
    if points.shape[0] < 2:
        raise ValueError("PCA needs at least 2 points")
    centered = points - points.mean(axis=0)
    _u, _s, vt = np.linalg.svd(centered, full_matrices=False)
    comps = vt[:2]
    for i in range(comps.shape[0]):
        # deterministic sign: largest-magnitude loading is positive
        j = int(np.argmax(np.abs(comps[i])))
        if comps[i, j] < 0:
            comps[i] = -comps[i]
    return centered @ comps.T


@dataclass
class TsneResult:
    coords: np.ndarray
    kl_initial: float
    kl_final: float


def _perplexity_affinities(d2, perplexity):
    n = d2.shape[0]
    target = np.log(perplexity)
    P = np.zeros((n, n))
    for i in range(n):
        di = np.delete(d2[i], i)
        beta = 1.0
        beta_min, beta_max = -np.inf, np.inf
        for _ in range(64):
            w = np.exp(-di * beta)
            s = w.sum()
            if s <= 0:
                entropy = 0.0
            else:
                p = w / s
                entropy = -(p * np.log(np.maximum(p, 1e-300))).sum()
            if abs(entropy - target) < 1e-6:
                break
            if entropy > target:  # too flat: sharpen
                beta_min = beta
                beta = beta * 2.0 if np.isinf(beta_max) else (beta + beta_max) / 2.0
            else:
                beta_max = beta
                beta = beta / 2.0 if np.isinf(beta_min) else (beta + beta_min) / 2.0
        w = np.exp(-np.maximum(di, 0.0) * beta)
        s = w.sum()
        row = w / s if s > 0 else np.full(n - 1, 1.0 / (n - 1))
        P[i, np.arange(n) != i] = row
    P = (P + P.T) / (2.0 * n)
    return np.maximum(P, 1e-12)


def _tsne_kl(P, y):
    d2 = _pairwise_sq_dists(y, y)
    w = 1.0 / (1.0 + d2)
    np.fill_diagonal(w, 0.0)
    Q = np.maximum(w / w.sum(), 1e-12)
    return float((P * (np.log(P) - np.log(Q))).sum())


def tsne_2d(points, seed=0, perplexity=30.0, iters=1000) -> TsneResult:
    """Exact t-SNE: KL between perplexity-calibrated Gaussian input
    affinities and Student-t output affinities, minimized by gradient
    descent (step 100) with momentum and early exaggeration."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 3:
        raise ValueError("t-SNE needs at least 3 points")
    if perplexity >= n:
        raise ValueError("perplexity must be smaller than the point count")
    d2 = _pairwise_sq_dists(points, points)
    if d2.max() <= 0:
        raise ValueError("degenerate input: all points identical")
    P = _perplexity_affinities(d2, perplexity)

    rng = np.random.default_rng(seed)
    y = 1e-2 * rng.standard_normal((n, 2))
    kl_initial = _tsne_kl(P, y)

    velocity = np.zeros_like(y)
    exaggeration_until = min(100, iters // 4)
    for it in range(iters):
        Pe = P * 4.0 if it < exaggeration_until else P
        yd2 = _pairwise_sq_dists(y, y)
        w = 1.0 / (1.0 + yd2)
        np.fill_diagonal(w, 0.0)
        Q = np.maximum(w / w.sum(), 1e-12)
        coeff = (Pe - Q) * w
        grad = 4.0 * ((np.diag(coeff.sum(axis=1)) - coeff) @ y)
        momentum = 0.5 if it < 250 else 0.8
        velocity = momentum * velocity - 100.0 * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return TsneResult(coords=y, kl_initial=kl_initial,
                      kl_final=_tsne_kl(P, y))


PROJECTIONS = {"pca": 2, "tsne": 3}  # method -> fewest points it projects


def project_2d(centroids, method="tsne", seed=0, perplexity=30.0,
               iters=1000) -> np.ndarray:
    if method == "pca":
        return pca_2d(centroids)
    if method == "tsne":
        return tsne_2d(centroids, seed=seed, perplexity=perplexity,
                       iters=iters).coords
    raise ValueError(f"unknown projection method {method!r}")
