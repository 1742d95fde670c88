"""Learning Mercer eigenfunctions by sequential penalized maximization.

The j-th stage maximizes the kernel quadratic form R_jj of a normalized
candidate function while penalizing alignment with the already-trained
functions through R_ij^2 / R_ii terms. Earlier functions enter each stage
as constants, which is the training-time meaning of the stop-gradient in
the streaming loss; run to convergence the stages recover the
eigenfunctions of the p-weighted kernel operator in eigenvalue order.

`mercer_decompose` from the kernels module is the scale convention and
the test oracle; nothing in the training path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoders import MlpEncoder, OptimizeResult, OptimizerConfig, minimize
from .kernels import as_sym_array, fix_signs
from .rng import Stream

__all__ = [
    "EigenfunctionSet",
    "neuralef_batch_loss",
    "train_eigenfunctions",
    "mlp_eigenfunctions",
]


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
    weights: np.ndarray
    gaps: np.ndarray
    fits: tuple[OptimizeResult, ...] = ()

    @property
    def d(self) -> int:
        return self.values.shape[1]


def _batch_normalized(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Divide each function's batch values by its root mean square."""
    rms = np.sqrt(np.square(rows).mean(axis=1))
    if np.any(rms == 0.0):
        raise ValueError("a function is identically zero on the batch")
    return rows / rms[:, None], rms


def neuralef_batch_loss(tables, batch, kernel_table, sg: bool = True):
    """Streaming estimator of the sequential objective on one batch.

    ``tables`` maps each of the d functions to its values on the full
    space; ``batch`` is the list of item indices in the batch. Functions
    are normalized by their batch root mean square, then
    R_ij = (1/B^2) phi_i^T G phi_j with G the kernel submatrix. The loss
    is -sum_j (R_jj - sum_{i<j} R_ij^2 / R_ii).

    Returns (loss, gradient) where the gradient is with respect to the
    raw (pre-normalization) batch values, flattened (d, B). With ``sg``
    true (the training form), each penalty's i-function and denominator
    are constants to the gradient; with ``sg`` false the same value is
    differentiated through every occurrence.
    """
    k = as_sym_array(kernel_table)
    idx = np.asarray(batch, dtype=int)
    if idx.size == 0:
        raise ValueError("batch must be nonempty")
    rows = np.asarray(tables, dtype=float)[:, idx]
    d, b = rows.shape
    g = k[np.ix_(idx, idx)]
    phi, rms = _batch_normalized(rows)
    gphi = phi @ g
    r = gphi @ phi.T / (b * b)
    loss = 0.0
    grad_hat = np.zeros_like(phi)
    for j in range(d):
        loss -= r[j, j]
        grad_hat[j] -= 2.0 * gphi[j] / (b * b)
        for i in range(j):
            if r[i, i] == 0.0:
                raise ValueError(f"penalty denominator R_{i}{i} is zero")
            ratio = r[i, j] / r[i, i]
            loss += ratio * r[i, j]
            grad_hat[j] += 2.0 * ratio * gphi[i] / (b * b)
            if not sg:
                grad_hat[i] += 2.0 * ratio * gphi[j] / (b * b)
                grad_hat[i] -= ratio * ratio * 2.0 * gphi[i] / (b * b)
    grad = (grad_hat - phi * (grad_hat * phi).mean(axis=1, keepdims=True)) / rms[
        :, None
    ]
    return float(loss), grad.reshape(-1)


def _make_stage(m: np.ndarray, d_weights: np.ndarray, prev: np.ndarray, quad: np.ndarray):
    """Objective for one training stage with earlier functions held fixed.

    ``prev`` holds the earlier normalized functions as rows and ``quad``
    their quadratic forms. The candidate is normalized to unit p-weighted
    second moment inside the objective, so the raw parameterization is
    scale-invariant; the gradient accounts for that normalization.
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
        return loss, grad

    return objective


def _train_stages(k: np.ndarray, p, d: int, fit_stage) -> EigenfunctionSet:
    """The sequential stage loop both trainers share, after checking that
    the weights ``p`` are strictly positive, one per item of the space.

    ``fit_stage(j, objective)`` minimizes stage j's objective over the
    function values on the space and returns (values, OptimizeResult).
    Each trained function is stored normalized to unit p-weighted second
    moment, its sign fixed by `fix_signs` once every stage is trained: no
    stage objective or estimate depends on the signs of earlier functions.
    """
    n = k.shape[0]
    w = np.asarray(p, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match kernel n={n}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")
    m = (w[:, None] * k) * w[None, :]
    m = (m + m.T) / 2.0
    values = np.zeros((n, d))
    estimates = np.zeros(d)
    fits = []
    for j in range(d):
        psi, fit = fit_stage(j, _make_stage(m, w, values[:, :j].T, estimates[:j]))
        hat = psi / np.sqrt(float(psi @ (w * psi)))
        values[:, j] = hat
        estimates[j] = float(hat @ m @ hat)
        fits.append(fit)
    fix_signs(values)
    scale = max(estimates[0], np.finfo(float).tiny)
    gaps = (estimates[:-1] - estimates[1:]) / scale
    return EigenfunctionSet(
        values=values, estimates=estimates, weights=w, gaps=gaps, fits=tuple(fits)
    )


def train_eigenfunctions(
    kernel_table, p, d: int, config: OptimizerConfig | None = None
) -> EigenfunctionSet:
    """Recover the top-d eigenfunctions of a PSD kernel under weights p.

    Stage j minimizes -R_jj plus the alignment penalties against the
    stages already trained, each stage a full-batch descent with the
    package optimizer. Functions are stored normalized to unit p-weighted
    second moment, signs fixed so the largest-magnitude value is
    positive.
    """
    k = as_sym_array(kernel_table)
    n = k.shape[0]
    cfg = config or OptimizerConfig(tol=1e-10, max_iter=20000)
    stream = Stream(cfg.seed)

    def fit_stage(j, objective):
        fit = minimize(objective, stream.uniform(n, -1.0, 1.0), cfg)
        return fit.x, fit

    return _train_stages(k, p, d, fit_stage)


def mlp_eigenfunctions(
    kernel,
    points,
    p,
    d: int,
    config: OptimizerConfig | None = None,
    hidden: tuple = (16,),
) -> EigenfunctionSet:
    """Same sequential recovery with small networks instead of value tables.

    ``kernel`` is a KernelSpec over coordinate vectors and ``points`` the
    finite sample standing in for the space. One network per function,
    trained stage by stage; the returned set tabulates the network values
    on the points. Network capacity limits accuracy, so this variant is
    for qualitative use.
    """
    from .kernels import gram

    pts = np.asarray(points, dtype=float)
    cfg = config or OptimizerConfig(tol=1e-8, max_iter=4000)

    def fit_stage(j, stage):
        net = MlpEncoder((pts.shape[1], *hidden, 1), seed=cfg.seed + j)

        def objective(flat):
            net.set_flat(flat)
            out, acts = net.forward_batch(pts)
            loss, dpsi = stage(out[:, 0])
            return loss, net.backward_batch(acts, dpsi[:, None])

        fit = minimize(objective, net.flat(), cfg)
        net.set_flat(fit.x)
        return net.forward_batch(pts)[0][:, 0], fit

    return _train_stages(gram(kernel, pts), p, d, fit_stage)
