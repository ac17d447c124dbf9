"""Principal Component Analysis via the eigendecomposition of the Gram matrix.

Used by the k-Graph embedding to project all subsequences of a given length
into a low-dimensional space (two or three components) while keeping the
dominant shape information, exactly as described in Section II-A of the
paper ("For each graph, PCA is applied, allowing us to project the
subsequences into a two-dimensional space while retaining their essential
shapes").

The embedding's window matrices are tall (tens of thousands of subsequences
by ℓ ≤ a few hundred features), so the principal axes come from ``eigh`` of
the small ℓ×ℓ matrix ``centeredᵀ·centered`` rather than from an SVD of the
whole n×ℓ matrix (Halko, Martinsson & Tropp, https://arxiv.org/abs/0909.4061,
Sec. 5).  :func:`pca_reference` — the economy SVD — is kept as the oracle and
is the one fallback route, taken when the Gram route would be ill-posed:
wide data (``n_samples < n_features``), an all-zero spectrum, or a relative
eigenvalue gap among the kept axes below :data:`GAP_TOLERANCE`.

Both routes apply one sign convention (scikit-learn's ``svd_flip``): every
component's largest-|loading| entry is positive, so the projection never
depends on which sign a LAPACK build happens to return.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import NotFittedError, ValidationError
from repro.utils.validation import check_array, check_positive_int

#: Smallest relative gap ``(λ_i − λ_{i+1}) / λ_1`` between consecutive
#: eigenvalues of the kept axes (and the first dropped one) for which the
#: Gram route is trusted; nearer-degenerate spectra fall back to the SVD.
GAP_TOLERANCE = 1e-8

#: (components, explained eigenvalues, total eigenvalue sum); eigenvalues
#: are those of ``centeredᵀ·centered``, i.e. squared singular values.
Axes = Tuple[np.ndarray, np.ndarray, float]


def _flip_signs(components: np.ndarray) -> np.ndarray:
    """Negate rows as needed so each row's largest-|loading| entry is positive."""
    pivots = np.argmax(np.abs(components), axis=1)
    signs = np.sign(components[np.arange(components.shape[0]), pivots])
    signs[signs == 0] = 1.0
    return components * signs[:, None]


def pca_reference(centered: np.ndarray, n_components: int) -> Axes:
    """Principal axes of a centred matrix by economy SVD (oracle and fallback)."""
    # centered = U S Vt; principal axes are the rows of Vt.
    _, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = singular_values**2
    return _flip_signs(vt[:n_components]), eigenvalues[:n_components], float(eigenvalues.sum())


def _gram_axes(centered: np.ndarray, n_components: int) -> Optional[Axes]:
    """Principal axes from ``eigh`` of the Gram matrix; ``None`` when ill-posed."""
    n_samples, n_features = centered.shape
    if n_samples < n_features:
        return None
    gram = centered.T @ centered
    eigenvalues, eigenvectors = np.linalg.eigh(gram)  # ascending order
    eigenvalues = np.maximum(eigenvalues[::-1], 0.0)
    largest = eigenvalues[0]
    if largest <= 0:
        return None
    kept = eigenvalues[: n_components + 1]
    if kept.size > 1 and float(np.min(kept[:-1] - kept[1:])) < GAP_TOLERANCE * largest:
        return None
    components = eigenvectors[:, ::-1][:, :n_components].T
    return _flip_signs(components), eigenvalues[:n_components], float(np.trace(gram))


class PCA:
    """Exact PCA with the scikit-learn ``fit`` / ``transform`` API.

    Parameters
    ----------
    n_components:
        Number of principal directions to keep.  Must not exceed
        ``min(n_samples, n_features)`` at fit time.
    whiten:
        When true, scale projected coordinates to unit variance per component.

    Attributes
    ----------
    components_:
        Array of shape ``(n_components, n_features)``; rows are principal
        axes, each with its largest-|loading| entry positive.
    explained_variance_:
        Variance captured by each component.
    explained_variance_ratio_:
        Fraction of the total variance captured by each component.
    mean_:
        Per-feature mean removed before projection.
    """

    def __init__(self, n_components: int = 2, whiten: bool = False) -> None:
        self.n_components = check_positive_int(n_components, "n_components")
        self.whiten = bool(whiten)
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None
        self.singular_values_: Optional[np.ndarray] = None
        self.mean_: Optional[np.ndarray] = None
        self.n_samples_: int = 0
        self.n_features_: int = 0

    # ------------------------------------------------------------------ #
    def _fit(self, data) -> np.ndarray:
        """Validate, centre and fit ``data``; return the centred matrix."""
        array = check_array(data, name="data", ndim=2, min_rows=2)
        n_samples, n_features = array.shape
        if self.n_components > min(n_samples, n_features):
            raise ValidationError(
                f"n_components={self.n_components} exceeds min(n_samples, n_features)="
                f"{min(n_samples, n_features)}"
            )
        self.mean_ = array.mean(axis=0)
        centered = array - self.mean_
        axes = _gram_axes(centered, self.n_components)
        if axes is None:
            axes = pca_reference(centered, self.n_components)
        components, eigenvalues, total = axes

        self.components_ = components
        self.singular_values_ = np.sqrt(eigenvalues)
        self.explained_variance_ = eigenvalues / (n_samples - 1)
        if total > 0:
            self.explained_variance_ratio_ = eigenvalues / total
        else:
            self.explained_variance_ratio_ = np.zeros(self.n_components)
        self.n_samples_ = n_samples
        self.n_features_ = n_features
        return centered

    def fit(self, data) -> "PCA":
        """Estimate the principal axes of ``data`` (shape n_samples x n_features)."""
        self._fit(data)
        return self

    def _check_fitted(self) -> None:
        if self.components_ is None:
            raise NotFittedError("PCA instance is not fitted yet; call fit() first")

    def _project(self, centered: np.ndarray) -> np.ndarray:
        projected = centered @ self.components_.T
        if self.whiten:
            scale = np.sqrt(self.explained_variance_)
            scale = np.where(scale < 1e-12, 1.0, scale)
            projected = projected / scale
        return projected

    def transform(self, data) -> np.ndarray:
        """Project ``data`` onto the fitted principal axes."""
        self._check_fitted()
        array = check_array(data, name="data", ndim=2, min_rows=1)
        if array.shape[1] != self.n_features_:
            raise ValidationError(
                f"data has {array.shape[1]} features, PCA was fitted with {self.n_features_}"
            )
        return self._project(array - self.mean_)

    def fit_transform(self, data) -> np.ndarray:
        """Fit the model on ``data`` and return its projection."""
        return self._project(self._fit(data))

    def inverse_transform(self, projected) -> np.ndarray:
        """Map projected coordinates back to the original feature space."""
        self._check_fitted()
        array = check_array(projected, name="projected", ndim=2, min_rows=1)
        if array.shape[1] != self.components_.shape[0]:
            raise ValidationError(
                f"projected data has {array.shape[1]} components, expected "
                f"{self.components_.shape[0]}"
            )
        if self.whiten:
            scale = np.sqrt(self.explained_variance_)
            array = array * scale
        return array @ self.components_ + self.mean_
