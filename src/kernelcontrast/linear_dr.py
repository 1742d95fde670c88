"""PCA and classical multidimensional scaling.

Both methods reduce to a symmetric eigendecomposition: PCA of the biased
sample covariance, MDS of the double-centered squared-distance matrix.
`low_rank_factor` exposes the shared truncation step (best rank-d
factorization of a PSD matrix in Frobenius norm) because the spectral
contrastive checks need exactly that object.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernels import (
    as_sym_array,
    eigh,
    jacobi_eigh,
    psd_tolerance,
    require_psd,
    symmetrize,
)

__all__ = [
    "PcaModel",
    "MdsResult",
    "pca_fit",
    "pca_transform",
    "double_center",
    "mds_embed",
    "low_rank_factor",
]


@dataclass
class PcaModel:
    """Mean, top-d orthonormal covariance eigenvectors, and their eigenvalues."""

    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        gram = self.basis.T @ self.basis
        if np.abs(gram - np.eye(self.basis.shape[1])).max() > 1e-10:
            raise ValueError("basis columns are not orthonormal")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise ValueError("eigenvalues must be nonincreasing")


@dataclass
class MdsResult:
    """Embeddings with the retained spectrum and factorization residual."""

    embeddings: np.ndarray
    eigenvalues: np.ndarray
    reconstruction_error: float
    clamped_count: int

    def __post_init__(self):
        if np.any(self.eigenvalues < 0.0):
            raise ValueError("retained eigenvalues must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 1e-12):
            raise ValueError("retained eigenvalues must be nonincreasing")


def pca_fit(data: np.ndarray, d: int) -> PcaModel:
    """Fit PCA with the biased 1/N covariance on mean-centered data.

    Centering happens here; callers never need to pre-center.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"data must be N x n0, got shape {x.shape}")
    n, n0 = x.shape
    if n < 2:
        raise ValueError(f"need at least 2 points, got {n}")
    if not 1 <= d <= n0:
        raise ValueError(f"d must be in [1, {n0}], got {d}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = symmetrize(centered.T @ centered / n)
    eig = eigh(cov)
    return PcaModel(
        mean=mean, basis=eig.eigenvectors[:, :d], eigenvalues=eig.eigenvalues[:d]
    )


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Coordinates of x - mean in the PCA basis.

    Accepts a single vector or a stack of rows; works for points outside
    the training set.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if pts.shape[1] != model.mean.shape[0]:
        raise ValueError(
            f"point dimension {pts.shape[1]} != model dimension {model.mean.shape[0]}"
        )
    out = (pts - model.mean) @ model.basis
    return out[0] if single else out


def double_center(squared_distances) -> np.ndarray:
    """Gram matrix of centered points from their squared distances.

    Subtracts row means, column means, and adds back the grand mean, then
    scales by -1/2. If the input came from Euclidean points, the result is
    the Gram matrix of those points centered at their mean.
    """
    s = as_sym_array(squared_distances)
    if np.any(s < 0.0):
        raise ValueError("squared distances must be nonnegative")
    if s.shape[0] and np.abs(np.diag(s)).max() > 1e-9 * max(1.0, np.abs(s).max()):
        raise ValueError("squared-distance matrix must have zero diagonal")
    row = s.mean(axis=1, keepdims=True)
    grand = s.mean()
    g = -0.5 * (s - row - row.T + grand)
    return as_sym_array(symmetrize(g))


def mds_embed(distances, d: int) -> MdsResult:
    """Classical MDS: eigendecompose the double-centered Gram, keep top d.

    Negative eigenvalues flag non-Euclidean input; they are clamped to
    zero and counted in ``clamped_count``. If fewer than d eigenvalues are
    positive, a warning is issued and the surplus columns are zero.
    """
    dist = as_sym_array(distances)
    n = dist.shape[0]
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")
    g = double_center(dist * dist.T)
    eig = eigh(g)
    clamped = int((eig.eigenvalues < 0.0).sum())
    positive = int((eig.eigenvalues > 0.0).sum())
    if positive < d:
        warnings.warn(
            f"only {positive} positive eigenvalues for d={d}; "
            "extra embedding columns are zero",
            stacklevel=2,
        )
    lam = np.maximum(eig.eigenvalues[:d], 0.0)
    emb = eig.eigenvectors[:, :d] * np.sqrt(lam)
    err = float(np.linalg.norm(g - emb @ emb.T))
    return MdsResult(
        embeddings=emb,
        eigenvalues=lam,
        reconstruction_error=err,
        clamped_count=clamped,
    )


def low_rank_factor(psd, d: int) -> np.ndarray:
    """Best rank-d factor F of a PSD matrix: A ~ F F^T, F = U_d sqrt(L_d).

    Truncating the eigendecomposition minimizes the Frobenius error over
    all rank-d approximations, so F F^T is the optimal PSD rank-d fit.
    """
    a = as_sym_array(psd)
    n = a.shape[0]
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")
    eig = jacobi_eigh(a)
    require_psd(eig.eigenvalues, psd_tolerance(a), "matrix")
    lam = np.maximum(eig.eigenvalues[:d], 0.0)
    return eig.eigenvectors[:, :d] * np.sqrt(lam)
