import numpy as np
import pytest

from ctcprobe.clustering import (kmeans, majority_clusters, pca_2d,
                                 project_2d, tsne_2d)


def inertia(x, result):
    """Sum of squared distances of the points to their assigned centroids."""
    return float(np.sum((x - result.centroids[result.assignments]) ** 2))


class TestKmeans:
    def test_k_equals_n_gives_zero_inertia(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(12, 3))
        summary = kmeans(x, 12, seed=0)
        assert inertia(x, summary) == pytest.approx(0.0, abs=1e-12)
        assert np.bincount(summary.assignments, minlength=12).sum() == 12

    def test_two_separated_blobs(self):
        rng = np.random.default_rng(1)
        n = 200
        sigma = 0.3
        a = rng.normal([-5.0, 0.0], sigma, size=(n, 2))
        b = rng.normal([5.0, 0.0], sigma, size=(n, 2))
        summary = kmeans(np.concatenate([a, b]), 2, seed=3)
        centers = summary.centroids[np.argsort(summary.centroids[:, 0])]
        tol = 3 * sigma / np.sqrt(n)
        assert np.linalg.norm(centers[0] - a.mean(axis=0)) < tol
        assert np.linalg.norm(centers[1] - b.mean(axis=0)) < tol

    def test_inertia_history_non_increasing(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(300, 8))
        summary = kmeans(x, 10, seed=5)
        hist = summary.inertia_history
        assert len(hist) >= 1
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(100, 4))
        a = kmeans(x, 7, seed=11)
        b = kmeans(x, 7, seed=11)
        np.testing.assert_array_equal(a.centroids, b.centroids)
        np.testing.assert_array_equal(a.assignments, b.assignments)
        assert a.inertia_history == b.inertia_history

    def test_assignment_optimality(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(150, 5))
        summary = kmeans(x, 6, seed=0, max_iter=200)
        d2 = ((x[:, None, :] - summary.centroids[None, :, :]) ** 2).sum(axis=2)
        best = d2.min(axis=1)
        chosen = d2[np.arange(len(x)), summary.assignments]
        assert np.all(chosen <= best + 1e-9)

    def test_counts_sum_to_n(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(77, 3))
        summary = kmeans(x, 9, seed=1)
        counts = np.bincount(summary.assignments, minlength=9)
        assert counts.shape == (9,) and counts.sum() == 77

    def test_invalid_k(self):
        x = np.zeros((5, 2))
        with pytest.raises(ValueError):
            kmeans(x, 0)
        with pytest.raises(ValueError):
            kmeans(x, 6)

    def test_coverage_matches_brute_force(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(120, 4))
        labels = np.array([f"p{int(v)}" for v in rng.integers(0, 4, size=120)])
        summary = kmeans(x, 8, seed=2)
        rows = majority_clusters(summary.assignments, labels, 1e-12)
        assert [j for j, _label, _coverage in rows] == \
            sorted(set(summary.assignments.tolist()))
        for j, label, coverage in rows:
            members = labels[summary.assignments == j]
            counts = {}
            for lbl in members:
                counts[lbl] = counts.get(lbl, 0) + 1
            top = max(counts.values())
            assert counts[label] == top
            assert coverage == pytest.approx(top / len(members))


def constructed_clusters():
    """Assignments and labels of 3 clusters whose coverages are 0.05 (1/20),
    0.15 (3/20) and 0.9 (18/20)."""
    rng = np.random.default_rng(7)
    x = []
    labels = []
    for j, n_major in enumerate([1, 3, 18]):
        center = np.array([10.0 * j, 0.0])
        x.append(rng.normal(center, 0.1, size=(20, 2)))
        labels += ["maj"] * n_major
        labels += [f"min{i}" for i in range(20 - n_major)]
    return (kmeans(np.concatenate(x), 3, seed=0).assignments,
            np.array(labels))


def coverages(rows):
    return [coverage for _j, _label, coverage in rows]


class TestMajorityClusters:
    def test_hand_constructed_coverages(self):
        assign, labels = constructed_clusters()
        every = majority_clusters(assign, labels, 0.01)
        assert sorted(np.round(coverages(every), 3)) == [0.05, 0.15, 0.9]
        kept = majority_clusters(assign, labels, 0.10)
        assert len(kept) == 2
        assert all(c >= 0.10 for c in coverages(kept))
        assert [label for _j, label, _c in kept] == ["maj", "maj"]

    def test_threshold_above_max_empties(self):
        assign, labels = constructed_clusters()
        every = majority_clusters(assign, labels, 0.01)
        assert majority_clusters(
            assign, labels, min(max(coverages(every)) + 0.01, 1.0)) == []

    def test_threshold_at_min_is_identity(self):
        assign, labels = constructed_clusters()
        every = majority_clusters(assign, labels, 0.01)
        assert [j for j, _label, _c in every] == [0, 1, 2]
        assert majority_clusters(assign, labels,
                                 float(min(coverages(every)))) == every

    @pytest.mark.parametrize("threshold", [0.0, -0.1, 1.01])
    def test_invalid_threshold(self, threshold):
        assign, labels = constructed_clusters()
        with pytest.raises(ValueError, match=r"min_coverage must be in"):
            majority_clusters(assign, labels, threshold)


class TestPca:
    def test_planted_plane_reconstruction(self):
        rng = np.random.default_rng(9)
        basis, _ = np.linalg.qr(rng.normal(size=(16, 2)))
        coords = rng.normal(size=(100, 2)) @ np.diag([5.0, 2.0])
        points = coords @ basis.T
        proj = pca_2d(points)
        centered = points - points.mean(axis=0)
        # Distances are preserved exactly when the plane is recovered.
        g_orig = centered @ centered.T
        g_proj = proj @ proj.T
        assert np.abs(g_orig - g_proj).max() < 1e-8

    def test_component_variance_ordering(self):
        rng = np.random.default_rng(10)
        points = rng.normal(size=(80, 6)) * np.array([9, 4, 1, 1, 1, 1.0])
        proj = pca_2d(points)
        assert proj[:, 0].var() >= proj[:, 1].var()

    def test_deterministic_sign(self):
        rng = np.random.default_rng(11)
        points = rng.normal(size=(30, 5))
        np.testing.assert_array_equal(pca_2d(points), pca_2d(points))

    def test_needs_two_points(self):
        assert pca_2d(np.eye(2)).shape == (2, 2)
        with pytest.raises(ValueError, match="at least 2 points"):
            pca_2d(np.ones((1, 3)))


class TestTsne:
    def test_kl_decreases_on_random_input(self):
        rng = np.random.default_rng(12)
        points = rng.normal(size=(100, 32))
        result = tsne_2d(points, seed=0, perplexity=20.0, iters=300)
        assert result.kl_final < result.kl_initial
        assert result.coords.shape == (100, 2)

    def test_degenerate_input_rejected(self):
        with pytest.raises(ValueError):
            tsne_2d(np.ones((10, 3)), seed=0, perplexity=3.0)

    def test_perplexity_must_be_below_n(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValueError):
            tsne_2d(rng.normal(size=(10, 3)), perplexity=10.0)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            tsne_2d(np.eye(2), perplexity=1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(14)
        points = rng.normal(size=(20, 6))
        a = tsne_2d(points, seed=5, perplexity=5.0, iters=100)
        b = tsne_2d(points, seed=5, perplexity=5.0, iters=100)
        np.testing.assert_array_equal(a.coords, b.coords)


class TestProject2d:
    def test_dispatch(self):
        rng = np.random.default_rng(15)
        points = rng.normal(size=(25, 8))
        assert project_2d(points, method="pca").shape == (25, 2)
        assert project_2d(points, method="tsne", perplexity=5.0,
                          iters=50).shape == (25, 2)
        with pytest.raises(ValueError):
            project_2d(points, method="umap")
