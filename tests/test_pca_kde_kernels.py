"""Unit tests for the numerical substrates: PCA, KDE and affinity kernels."""

import numpy as np
import pytest

from repro.exceptions import NotFittedError, ValidationError
from repro.linalg.kde import KernelDensityEstimator, local_maxima_1d, scott_bandwidth, silverman_bandwidth
from repro.linalg.kernels import gaussian_kernel_matrix, knn_affinity, rbf_affinity
from repro.linalg.pca import PCA, pca_reference
from repro.utils.normalization import znormalize_dataset
from repro.utils.windows import subsequences_of_dataset


class TestPCA:
    def test_recovers_dominant_direction(self, rng):
        # Points along y = 2x with small orthogonal noise.
        x = rng.normal(size=200)
        data = np.column_stack([x, 2 * x + rng.normal(0, 0.05, 200)])
        pca = PCA(n_components=1).fit(data)
        direction = pca.components_[0] / np.linalg.norm(pca.components_[0])
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert abs(abs(direction @ expected) - 1.0) < 1e-3
        assert pca.explained_variance_ratio_[0] > 0.99

    def test_transform_shape_and_centering(self, rng):
        data = rng.normal(size=(50, 8))
        pca = PCA(n_components=3)
        projected = pca.fit_transform(data)
        assert projected.shape == (50, 3)
        assert np.allclose(projected.mean(axis=0), 0.0, atol=1e-8)

    def test_explained_variance_sorted(self, rng):
        data = rng.normal(size=(60, 6)) * np.array([5, 4, 3, 2, 1, 0.5])
        pca = PCA(n_components=6).fit(data)
        variances = pca.explained_variance_
        assert np.all(np.diff(variances) <= 1e-9)
        assert pca.explained_variance_ratio_.sum() == pytest.approx(1.0, abs=1e-8)

    def test_inverse_transform_roundtrip(self, rng):
        data = rng.normal(size=(40, 5))
        pca = PCA(n_components=5).fit(data)
        reconstructed = pca.inverse_transform(pca.transform(data))
        assert np.allclose(reconstructed, data, atol=1e-8)

    def test_whiten_unit_variance(self, rng):
        data = rng.normal(size=(100, 4)) * np.array([10, 5, 1, 0.1])
        projected = PCA(n_components=2, whiten=True).fit_transform(data)
        assert np.allclose(projected.std(axis=0, ddof=1), 1.0, atol=1e-6)

    def test_not_fitted_errors(self):
        with pytest.raises(NotFittedError):
            PCA(2).transform(np.zeros((3, 4)))

    def test_too_many_components(self, rng):
        with pytest.raises(ValidationError):
            PCA(n_components=10).fit(rng.normal(size=(5, 3)))

    def test_feature_mismatch_on_transform(self, rng):
        pca = PCA(2).fit(rng.normal(size=(10, 4)))
        with pytest.raises(ValidationError):
            pca.transform(rng.normal(size=(3, 5)))


class TestPCARoutes:
    """Gram-matrix ``eigh`` route, its SVD fallback and the sign rule."""

    @staticmethod
    def _count_svd(monkeypatch) -> list:
        calls = []
        svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        return calls

    @staticmethod
    def _tall(rng) -> np.ndarray:
        return rng.normal(size=(400, 10)) @ rng.normal(size=(10, 10))

    @pytest.mark.parametrize("shape", [(400, 10), (6, 9)])
    def test_largest_loading_is_positive(self, rng, shape):
        components = PCA(n_components=4).fit(rng.normal(size=shape)).components_
        pivots = np.argmax(np.abs(components), axis=1)
        assert np.all(components[np.arange(4), pivots] > 0)

    def test_negated_input_gives_same_components(self, rng):
        data = self._tall(rng)
        assert np.array_equal(PCA(3).fit(data).components_, PCA(3).fit(-data).components_)
        wide = rng.normal(size=(6, 9))
        assert np.allclose(
            PCA(3).fit(wide).components_, PCA(3).fit(-wide).components_, atol=1e-12
        )

    def test_matches_reference_on_tall_data(self, rng, monkeypatch):
        data = self._tall(rng)
        calls = self._count_svd(monkeypatch)
        pca = PCA(n_components=4).fit(data)
        assert calls == []
        components, eigenvalues, total = pca_reference(data - data.mean(axis=0), 4)
        assert np.allclose(pca.components_, components, rtol=0, atol=1e-10)
        assert np.allclose(pca.explained_variance_, eigenvalues / 399, rtol=1e-10, atol=0)
        assert np.allclose(pca.explained_variance_ratio_, eigenvalues / total, rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "data",
        [
            # Isotropic: every eigenvalue of the Gram matrix equals 2.
            np.vstack([np.eye(4), -np.eye(4)]),
            # Wide: fewer samples than features.
            np.random.default_rng(3).normal(size=(5, 9)),
            # All zero: the largest eigenvalue is 0.
            np.zeros((10, 4)),
        ],
        ids=["isotropic", "wide", "all_zero"],
    )
    def test_ill_posed_gram_falls_back_to_svd(self, data, monkeypatch):
        calls = self._count_svd(monkeypatch)
        pca = PCA(n_components=2).fit(data)
        assert calls == [data.shape]
        components, eigenvalues, _ = pca_reference(data - data.mean(axis=0), 2)
        assert np.array_equal(pca.components_, components)
        assert np.array_equal(pca.explained_variance_, eigenvalues / (data.shape[0] - 1))

    def test_cbf_window_matrix_takes_gram_route(self, small_dataset, monkeypatch):
        windows, _, _ = subsequences_of_dataset(small_dataset.data, 16, 1)
        windows = znormalize_dataset(windows)
        calls = self._count_svd(monkeypatch)
        projected = PCA(n_components=2).fit_transform(windows)
        assert calls == []
        assert projected.shape == (windows.shape[0], 2)


class TestKDE:
    def test_bandwidth_rules_positive(self, rng):
        data = rng.normal(size=(100, 2))
        assert scott_bandwidth(data) > 0
        assert silverman_bandwidth(data) > 0

    def test_density_higher_at_mode(self, rng):
        sample = np.concatenate([rng.normal(-3, 0.3, 200), rng.normal(3, 0.3, 200)])
        kde = KernelDensityEstimator(bandwidth=0.3).fit(sample)
        densities = kde.score_samples(np.array([[-3.0], [0.0], [3.0]]))
        assert densities[0] > densities[1]
        assert densities[2] > densities[1]

    def test_grid_evaluation_finds_two_modes(self, rng):
        sample = np.concatenate([rng.normal(-2, 0.2, 300), rng.normal(2, 0.2, 300)])
        kde = KernelDensityEstimator(bandwidth=0.25).fit(sample)
        grid, density = kde.evaluate_grid_1d(-4, 4, 200)
        maxima = local_maxima_1d(density, min_prominence=0.05 * (density.max() - density.min()))
        modes = sorted(grid[m] for m in maxima)
        assert len(modes) >= 2
        assert abs(modes[0] + 2) < 0.5 and abs(modes[-1] - 2) < 0.5

    def test_epanechnikov_kernel(self, rng):
        sample = rng.normal(size=100)
        kde = KernelDensityEstimator(bandwidth=0.5, kernel="epanechnikov").fit(sample)
        assert np.all(kde.score_samples(np.array([[0.0], [100.0]])) >= 0.0)

    def test_not_fitted(self):
        with pytest.raises(NotFittedError):
            KernelDensityEstimator().score_samples(np.zeros((2, 1)))

    def test_invalid_bandwidth(self):
        with pytest.raises(ValidationError):
            KernelDensityEstimator(bandwidth=-1.0)
        with pytest.raises(ValidationError):
            KernelDensityEstimator(bandwidth="magic")

    def test_dimension_mismatch(self, rng):
        kde = KernelDensityEstimator().fit(rng.normal(size=(20, 2)))
        with pytest.raises(ValidationError):
            kde.score_samples(np.zeros((3, 3)))


class TestLocalMaxima:
    def test_simple_peak(self):
        assert local_maxima_1d(np.array([0, 1, 3, 1, 0])) == [2]

    def test_plateau_reports_once(self):
        values = np.array([0, 2, 2, 2, 0, 1, 0])
        maxima = local_maxima_1d(values)
        assert maxima == [1, 5]

    def test_boundary_maxima(self):
        assert local_maxima_1d(np.array([5, 1, 0, 1, 6])) == [0, 4]

    def test_prominence_filter(self):
        values = np.array([0.0, 1.0, 0.9, 0.95, 0.0, 5.0, 0.0])
        strict = local_maxima_1d(values, min_prominence=2.0)
        assert strict == [5]


class TestKernels:
    def test_gaussian_kernel_range(self, blob_data):
        points, _ = blob_data
        from repro.metrics.distances import pairwise_distances

        affinity = gaussian_kernel_matrix(pairwise_distances(points))
        assert np.all(affinity >= 0.0) and np.all(affinity <= 1.0)
        assert np.allclose(np.diag(affinity), 1.0)

    def test_rbf_affinity_symmetric(self, blob_data):
        points, _ = blob_data
        affinity = rbf_affinity(points)
        assert np.allclose(affinity, affinity.T)

    def test_gamma_validation(self, blob_data):
        points, _ = blob_data
        from repro.metrics.distances import pairwise_distances

        with pytest.raises(ValidationError):
            gaussian_kernel_matrix(pairwise_distances(points), gamma=0.0)

    def test_knn_affinity_symmetric_binary(self, blob_data):
        points, _ = blob_data
        affinity = knn_affinity(points, n_neighbors=5)
        assert np.allclose(affinity, affinity.T)
        assert set(np.unique(affinity)).issubset({0.0, 1.0})
        assert np.all(affinity.sum(axis=1) >= 5)
