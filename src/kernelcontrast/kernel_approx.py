"""Nystrom eigenfunction extension and random Fourier features.

Two complementary approximations of a kernel's spectral structure: the
Nystrom method extends the eigenvectors of a landmark Gram matrix to new
points (Williams & Seeger 2001), and random Fourier features turn the
Gaussian kernel into an explicit finite-dimensional inner product by
sampling its spectral measure.

Each method has one feature map F, and the rest is read off it: the Gram
approximation is F F^T, and Nystrom column i times sqrt(M / lambda_i) is
the extension of eigenfunction i to the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, cross_gram, eigh, gram, psd_tolerance, require_psd
from .rng import Stream

__all__ = [
    "NystromModel",
    "RffModel",
    "nystrom_fit",
    "nystrom_features",
    "rff_sample",
    "rff_features",
]

RANK_FLOOR = 1e-10


@dataclass
class NystromModel:
    """Landmark Gram eigendecomposition with the kernel kept for extension."""

    kernel: KernelSpec
    landmarks: list
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int

    @property
    def floor(self) -> float:
        """Conditioning floor: eigenvalues at or below it are not divided by."""
        return RANK_FLOOR * float(self.eigenvalues.max(initial=1.0))

    @property
    def usable_rank(self) -> int:
        """Eigenvalues above the conditioning floor."""
        return int((self.eigenvalues > self.floor).sum())


def nystrom_fit(kernel: KernelSpec, landmarks, d: int) -> NystromModel:
    """Eigendecompose the M x M landmark Gram matrix, keeping rank d.

    The Gram must pass the PSD gate (`require_psd`); eigenvalue i of
    the underlying kernel operator under the landmark sampling measure is
    estimated by eigenvalues[i] / M.
    """
    landmarks = list(landmarks)
    m = len(landmarks)
    if not 1 <= d <= m:
        raise ValueError(f"rank d must be in [1, {m}], got {d}")
    g = gram(kernel, landmarks)
    eig = eigh(g)
    require_psd(eig.eigenvalues, psd_tolerance(g), "landmark Gram")
    return NystromModel(
        kernel=kernel,
        landmarks=landmarks,
        eigenvalues=eig.eigenvalues,
        eigenvectors=eig.eigenvectors,
        rank=d,
    )


def nystrom_features(model: NystromModel, points) -> np.ndarray:
    """Nystrom feature map F = C U diag(lambda^-1/2), one row per point.

    C is the kernel between points and landmarks, U and lambda the kept
    rank's eigenpairs above the conditioning floor (those at or below it
    cannot be divided by and get no column), so F F^T approximates the
    kernel. Column i times sqrt(M / lambda_i) is the Nystrom extension of
    eigenfunction i, sqrt(M) / lambda_i * sum_k K(z, x_k) u_i[k]; at the
    landmark x_j it collapses to sqrt(M) * u_i[j] by the eigenvector
    identity.
    """
    keep = np.flatnonzero(model.eigenvalues[: model.rank] > model.floor)
    c = cross_gram(model.kernel, list(points), model.landmarks)
    return (c @ model.eigenvectors[:, keep]) / np.sqrt(model.eigenvalues[keep])


@dataclass
class RffModel:
    """Frequencies for the Gaussian kernel's random Fourier features."""

    frequencies: np.ndarray

    @property
    def n_features(self) -> int:
        return self.frequencies.shape[0]


def rff_sample(sigma2: float, d: int, n0: int, seed: int) -> RffModel:
    """Draw d frequencies from the Gaussian kernel's spectral measure.

    For exp(-|x-z|^2 / (2 sigma2)) that measure is the zero-mean normal
    with covariance (1/sigma2) I, so each frequency is a standard normal
    vector scaled by 1/sigma.
    """
    if not sigma2 > 0.0:
        raise ValueError(f"sigma2 must be positive, got {sigma2!r}")
    if d < 1 or n0 < 1:
        raise ValueError(f"need d >= 1 and n0 >= 1, got d={d}, n0={n0}")
    draws = Stream(seed).normal(d * n0) / np.sqrt(sigma2)
    return RffModel(frequencies=draws.reshape(d, n0))


def rff_features(model: RffModel, x) -> np.ndarray:
    """Feature map (1/sqrt(d)) [cos(w_1.x), ..., cos(w_d.x), sin(w_1.x), ..., sin(w_d.x)].

    Maps one point (n0,) or a batch (m, n0), one row per point. The squared
    norm is 1 for every x (cos^2 + sin^2 per frequency), and E[phi(x).phi(z)]
    over the frequency draw equals the Gaussian kernel.
    """
    x = np.asarray(x, dtype=float)
    n0 = model.frequencies.shape[1]
    if x.ndim not in (1, 2) or x.shape[-1] != n0:
        raise ValueError(f"points have shape {x.shape}, expected ({n0},) or (m, {n0})")
    d = model.n_features
    t = x @ model.frequencies.T
    out = np.empty(t.shape[:-1] + (2 * d,))
    np.cos(t, out=out[..., :d])
    np.sin(t, out=out[..., d:])
    out /= np.sqrt(d)
    return out
