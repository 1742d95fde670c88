"""Learning Mercer eigenfunctions by sequential penalized maximization.

The j-th stage maximizes the kernel quadratic form R_jj of a normalized
candidate function while penalizing alignment with the already-trained
functions through R_ij^2 / R_ii terms. Earlier functions enter each stage
as constants, which is what the stop-gradient of NeuralEF (Deng et al.
2022) means at training time; run to convergence the stages recover the
eigenfunctions of the p-weighted kernel operator in eigenvalue order.

`mercer_decompose` from the kernels module is the scale convention and
the test oracle; nothing in the training path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import OptimizeResult, OptimizerConfig, minimize
from .kernels import as_sym_array, fix_signs
from .rng import Stream

__all__ = ["EigenfunctionSet", "train_eigenfunctions"]


@dataclass
class EigenfunctionSet:
    """Trained eigenfunction values with their eigenvalue estimates.

    ``values[:, j]`` tabulates function j on the space; ``estimates[j]``
    is its quadratic form under the p-weighted operator, the estimate of
    eigenvalue j. ``gaps`` holds the relative separations of consecutive
    estimates, (estimates[j] - estimates[j+1]) / estimates[0]; small gaps
    warn that the corresponding functions may mix freely. ``fits[j]`` is
    the `minimize` result of stage j.
    """

    values: np.ndarray
    estimates: np.ndarray
    gaps: np.ndarray
    fits: tuple[OptimizeResult, ...] = ()


def _make_stage(m: np.ndarray, d_weights: np.ndarray, prev: np.ndarray, quad: np.ndarray):
    """Objective for one training stage with earlier functions held fixed.

    ``prev`` holds the earlier normalized functions as rows and ``quad``
    their quadratic forms. The candidate is normalized to unit p-weighted
    second moment inside the objective, so the raw parameterization is
    scale-invariant; the gradient accounts for that normalization.

    That gradient shrinks as 1 / ||psi||_p, so steps that grow ||psi||_p
    would shrink it until ``tol`` is met far from the optimum. The term
    (||psi||_p^2 - 1)^2 / 4 pins the scale. The scale-invariant gradient
    is orthogonal to psi and the term's gradient has inner product
    (||psi||_p^2 - 1) ||psi||_p^2 with it, so the sum vanishes exactly where
    the scale-invariant loss is stationary and ||psi||_p = 1.
    """
    mprev = prev @ m

    def objective(psi):
        norm2 = float(psi @ (d_weights * psi))
        if norm2 == 0.0:
            raise ValueError("candidate function collapsed to zero")
        c = np.sqrt(norm2)
        hat = psi / c
        mhat = m @ hat
        rjj = float(hat @ mhat)
        loss = -rjj
        grad_hat = -2.0 * mhat
        for i in range(prev.shape[0]):
            rij = float(mprev[i] @ hat)
            ratio = rij / quad[i]
            loss += ratio * rij
            grad_hat += 2.0 * ratio * mprev[i]
        grad = (grad_hat - (d_weights * hat) * float(hat @ grad_hat)) / c
        excess = norm2 - 1.0
        return loss + 0.25 * excess * excess, grad + excess * (d_weights * psi)

    return objective


def train_eigenfunctions(
    kernel_table, p, d: int, config: OptimizerConfig | None = None
) -> EigenfunctionSet:
    """Recover the top-d eigenfunctions of a PSD kernel under weights p.

    The weights must be strictly positive, one per item of the space.
    Stage j minimizes -R_jj plus the alignment penalties against the
    stages already trained, each stage a full-batch descent over the
    function values on the space with the package optimizer. Each trained
    function is stored normalized to unit p-weighted second moment, its
    sign fixed by `fix_signs` once every stage is trained: no stage
    objective or estimate depends on the signs of earlier functions.
    """
    k = as_sym_array(kernel_table)
    n = k.shape[0]
    w = np.asarray(p, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match kernel n={n}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")
    cfg = config or OptimizerConfig(tol=1e-10, max_iter=20000)
    stream = Stream(cfg.seed)
    m = (w[:, None] * k) * w[None, :]
    m = (m + m.T) / 2.0
    values = np.zeros((n, d))
    estimates = np.zeros(d)
    fits = []
    for j in range(d):
        objective = _make_stage(m, w, values[:, :j].T, estimates[:j])
        fit = minimize(objective, stream.uniform(n, -1.0, 1.0), cfg)
        hat = fit.x / np.sqrt(float(fit.x @ (w * fit.x)))
        values[:, j] = hat
        estimates[j] = float(hat @ m @ hat)
        fits.append(fit)
    fix_signs(values)
    scale = max(estimates[0], np.finfo(float).tiny)
    gaps = (estimates[:-1] - estimates[1:]) / scale
    return EigenfunctionSet(values=values, estimates=estimates, gaps=gaps, fits=tuple(fits))
