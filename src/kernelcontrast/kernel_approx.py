"""Nystrom eigenfunction extension and random Fourier features.

Two complementary approximations of a kernel's spectral structure: the
Nystrom method extends the eigenvectors of a landmark Gram matrix to new
points, and random Fourier features turn the Gaussian kernel into an
explicit finite-dimensional inner product by sampling its spectral
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, eigh, gram, kernel_eval
from .rng import Stream

__all__ = [
    "NystromModel",
    "RffModel",
    "IllConditionedError",
    "nystrom_fit",
    "nystrom_eigenfunction",
    "nystrom_gram_approx",
    "rff_sample",
    "rff_features",
    "sample_landmarks",
]

RANK_FLOOR = 1e-10


class IllConditionedError(ValueError):
    """Raised when an eigenvalue is too close to zero to divide by."""


@dataclass
class NystromModel:
    """Landmark Gram eigendecomposition with the kernel kept for extension."""

    kernel: KernelSpec
    landmarks: list
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    rank: int

    @property
    def n_landmarks(self) -> int:
        return len(self.landmarks)

    @property
    def usable_rank(self) -> int:
        """Eigenvalues above the conditioning floor relative to the largest."""
        if self.eigenvalues.shape[0] == 0 or self.eigenvalues[0] <= 0.0:
            return 0
        return int((self.eigenvalues > RANK_FLOOR * self.eigenvalues[0]).sum())


def nystrom_fit(kernel: KernelSpec, landmarks, d: int) -> NystromModel:
    """Eigendecompose the M x M landmark Gram matrix, keeping rank d.

    The Gram must be PSD within 1e-8 (scaled by trace); eigenvalue i of
    the underlying kernel operator under the landmark sampling measure is
    estimated by eigenvalues[i] / M.
    """
    landmarks = list(landmarks)
    m = len(landmarks)
    if not 1 <= d <= m:
        raise ValueError(f"rank d must be in [1, {m}], got {d}")
    g = gram(kernel, landmarks)
    eig = eigh(g)
    tol = 1e-8 * max(1.0, abs(float(np.trace(g.values))))
    if eig.eigenvalues.min(initial=0.0) < -tol:
        raise ValueError(
            f"landmark Gram is not PSD: min eigenvalue {eig.eigenvalues.min():.3e}"
        )
    return NystromModel(
        kernel=kernel,
        landmarks=landmarks,
        eigenvalues=eig.eigenvalues,
        eigenvectors=eig.eigenvectors,
        rank=d,
    )


def nystrom_eigenfunction(model: NystromModel, i: int, z) -> float:
    """Nystrom extension of eigenfunction i (0-based) to a new point z.

    Computes sqrt(M) / lambda_i * sum_k K(x_k, z) u_i[k]. At a landmark
    x_j this collapses to sqrt(M) * u_i[j] by the eigenvector identity.
    Eigenvalues at or below the conditioning floor cannot be divided by
    and raise IllConditionedError.
    """
    m = model.n_landmarks
    if not 0 <= i < model.rank:
        raise IndexError(f"eigenfunction index {i} outside kept rank {model.rank}")
    lam = model.eigenvalues[i]
    floor = RANK_FLOOR * max(1.0, float(model.eigenvalues[0]))
    if lam <= floor:
        raise IllConditionedError(
            f"eigenvalue {i} = {lam:.3e} is below the conditioning floor {floor:.3e}"
        )
    k_vals = np.asarray([kernel_eval(model.kernel, x, z) for x in model.landmarks])
    return float(np.sqrt(m) / lam * np.dot(k_vals, model.eigenvectors[:, i]))


def nystrom_gram_approx(model: NystromModel, points) -> np.ndarray:
    """Rank-d kernel matrix approximation on arbitrary points.

    K_hat(x, z) = sum_i lambda_i/M * phi_i(x) phi_i(z) over the kept rank,
    with phi_i the Nystrom extensions; equivalently C U diag(1/lambda) U^T C^T
    restricted to usable eigenvalues.
    """
    pts = list(points)
    floor = RANK_FLOOR * max(1.0, float(model.eigenvalues[0]))
    keep = [i for i in range(model.rank) if model.eigenvalues[i] > floor]
    c = np.asarray(
        [[kernel_eval(model.kernel, x, lm) for lm in model.landmarks] for x in pts]
    )
    u = model.eigenvectors[:, keep]
    inv = 1.0 / model.eigenvalues[keep]
    proj = c @ u
    return (proj * inv) @ proj.T


def sample_landmarks(n_total: int, m: int, seed: int) -> np.ndarray:
    """Choose m distinct point indices uniformly without replacement."""
    return Stream(seed).choice_without_replacement(n_total, m)


@dataclass
class RffModel:
    """Frequencies for the Gaussian kernel's random Fourier features."""

    frequencies: np.ndarray
    sigma2: float
    seed: int

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
    return RffModel(frequencies=draws.reshape(d, n0), sigma2=float(sigma2), seed=seed)


def rff_features(model: RffModel, x) -> np.ndarray:
    """Feature map (1/sqrt(d)) [cos(w_1.x), ..., cos(w_d.x), sin(w_1.x), ..., sin(w_d.x)].

    The squared norm is 1 for every x (cos^2 + sin^2 per frequency), and
    E[phi(x).phi(z)] over the frequency draw equals the Gaussian kernel.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (model.frequencies.shape[1],):
        raise ValueError(
            f"point has shape {x.shape}, expected ({model.frequencies.shape[1]},)"
        )
    t = model.frequencies @ x
    d = model.n_features
    return np.concatenate((np.cos(t), np.sin(t))) / np.sqrt(d)
