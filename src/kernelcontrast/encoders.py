"""Encoders, stable activations, and the full-batch optimizer.

Losses in this package are deterministic functions of parameters, so
training is full-batch gradient descent rather than anything stochastic:
Barzilai-Borwein step lengths, checked by a nonmonotone backtracking line
search. The encoder is a lookup table, one row per item of a finite
space, and exposes its parameters as one flat vector so the optimizer and
the finite-difference gradient checker need no knowledge of parameter
structure.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass

import numpy as np

from .rng import Stream

__all__ = [
    "sigmoid",
    "k_sigmoid",
    "softplus",
    "softmax",
    "EmbeddingTable",
    "grad_check",
    "OptimizerConfig",
    "OptimizeResult",
    "minimize",
    "DivergenceError",
]

INIT_SCALE = 0.1

# The stall rule of `minimize`: this many consecutive accepted steps, each
# lowering the lowest loss so far by at most STALL_ULPS ulps of it without
# a new low in the gradient norm, end the run.
STALL_WINDOW = 20
STALL_ULPS = 4

# The nonmonotone line search of `minimize` tests the Armijo condition
# against the largest of this many most recent accepted losses.
NONMONOTONE = 10

# The line search of `minimize`: its first trial step, its Armijo
# sufficient-decrease constant, and the smallest step it tries before
# raising DivergenceError.
STEP_SIZE = 1.0
ARMIJO_C = 1e-4
MIN_STEP = 1e-18


class DivergenceError(RuntimeError):
    """Raised when the line search cannot find any descent step."""


def sigmoid(z):
    """Logistic function, stable for large |z| in either direction."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out if out.ndim else float(out)


def k_sigmoid(z, k: float):
    """Shifted logistic 1 / (1 + k e^(-z)); k = 1 recovers sigmoid.

    Computed as sigmoid(z - log k), which is exact: the two expressions
    agree as real functions and the shifted form inherits sigmoid's
    stability.
    """
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    return sigmoid(np.asarray(z, dtype=float) - np.log(k))


def softplus(z):
    """log(1 + e^z) without overflow; equals -log sigmoid(-z)."""
    return np.logaddexp(0.0, np.asarray(z, dtype=float))


def softmax(z):
    """Softmax over the last axis with max subtraction.

    Subtracting the max leaves the result unchanged mathematically and
    keeps every exponent non-positive, so no overflow is possible.
    """
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class OptimizeResult:
    """What `minimize` returns: the optimum it reached and why it stopped."""

    x: np.ndarray
    trace: np.ndarray
    iterations: int
    evaluations: int
    grad_norm: float
    stop_reason: str  # "gradient", "stalled" or "max_iter"


@dataclass
class EmbeddingTable:
    """One d-dimensional row per item of a finite space.

    ``fits`` holds the `minimize` result that trained the table, if any.
    """

    rows: np.ndarray
    fits: tuple[OptimizeResult, ...] = ()

    def __post_init__(self):
        self.rows = np.asarray(self.rows, dtype=float)
        if self.rows.ndim != 2:
            raise ValueError(f"rows must be 2-D, got shape {self.rows.shape}")
        if not np.isfinite(self.rows).all():
            raise ValueError("embedding rows contain non-finite values")

    @classmethod
    def random(cls, n_items: int, dim: int, seed: int) -> "EmbeddingTable":
        stream = Stream(seed)
        rows = stream.uniform(n_items * dim, -INIT_SCALE, INIT_SCALE)
        return cls(rows.reshape(n_items, dim))


def grad_check(fun, params: np.ndarray, epsilon: float = 1e-5) -> float:
    """Largest relative gap between analytic and central-difference gradients.

    ``fun(params)`` must return ``(loss, grad)``. Each coordinate is
    perturbed by +/- epsilon; the per-coordinate relative error divides by
    max(1, |analytic|) so near-zero components are compared absolutely.
    """
    params = np.asarray(params, dtype=float)
    _, grad = fun(params)
    grad = np.asarray(grad, dtype=float)
    if grad.shape != params.shape:
        raise ValueError(f"gradient shape {grad.shape} != params shape {params.shape}")
    worst = 0.0
    for i in range(params.shape[0]):
        bumped = params.copy()
        bumped[i] = params[i] + epsilon
        up, _ = fun(bumped)
        bumped[i] = params[i] - epsilon
        down, _ = fun(bumped)
        numeric = (up - down) / (2.0 * epsilon)
        err = abs(grad[i] - numeric) / max(1.0, abs(grad[i]))
        worst = max(worst, err)
    return worst


@dataclass
class OptimizerConfig:
    """Settings for `minimize`; defaults suit the package's small problems."""

    max_iter: int = 2000
    tol: float = 1e-10
    seed: int = 0


def minimize(fun, x0: np.ndarray, config: OptimizerConfig | None = None) -> OptimizeResult:
    """Full-batch gradient descent with Barzilai-Borwein steps and a
    nonmonotone Armijo line search.

    Each iteration first tries the BB1 step s's / s'y of Barzilai and
    Borwein (1988), where s and y are the last changes in x and in the
    gradient; when s'y <= 0 it tries twice the last accepted step instead.
    It halves the step until the Armijo test passes against the largest
    of the last NONMONOTONE accepted losses (Grippo, Lampariello and
    Lucidi 1986; Raydan 1997), so a single step may raise the loss while
    the run as a whole descends. Raises DivergenceError if no step down to
    MIN_STEP passes.

    The run stops for one of three reasons, recorded as ``stop_reason``:

    * ``"gradient"``: the gradient norm fell to ``tol`` or below;
    * ``"stalled"``: STALL_WINDOW consecutive accepted steps each lowered
      the lowest loss so far by at most STALL_ULPS ulps of it and none of
      them set a new low for the gradient norm, so the iterate sits at
      the float floor of the loss. The gradient-record guard keeps the
      run going while x still moves toward the optimum after the loss
      looks flat. Near a zero loss the ulp test never fires and ``tol``
      decides;
    * ``"max_iter"``: ``max_iter`` steps were accepted without either.

    Returns
    -------
    OptimizeResult
        ``x`` the last accepted iterate after a ``"gradient"`` stop, the
        accepted iterate with the smallest gradient norm after a stall,
        and the accepted iterate with the lowest loss after ``"max_iter"``
        (then ``fun(x)[0] == trace[-1]``); ``trace`` the lowest loss among
        the accepted iterates so far, one entry per iterate starting with
        the initial loss, so it is monotone nonincreasing; ``iterations``
        the number of accepted steps (``len(trace) - 1``); ``evaluations``
        the number of calls of ``fun``; ``grad_norm`` the gradient norm at
        ``x``.
    """
    cfg = config or OptimizerConfig()
    x = np.asarray(x0, dtype=float).copy()
    loss, grad = fun(x)
    evaluations = 1
    if not np.isfinite(loss):
        raise ValueError(f"initial loss is not finite: {float(loss)!r}")
    trace = [float(loss)]
    recent = collections.deque(trace, maxlen=NONMONOTONE)
    step = STEP_SIZE
    gnorm2 = float(np.dot(grad, grad))
    # the accepted iterates with the lowest loss and the lowest gradient norm
    low_x, low_gnorm2 = x, gnorm2
    best_x, best_gnorm2 = x, gnorm2
    flat_steps = 0
    while True:
        if np.sqrt(gnorm2) <= cfg.tol:
            stop_reason = "gradient"
            break
        if flat_steps >= STALL_WINDOW:
            stop_reason = "stalled"
            break
        if len(trace) - 1 >= cfg.max_iter:
            stop_reason = "max_iter"
            break
        reference = max(recent)
        while step >= MIN_STEP:
            candidate = x - step * grad
            cand_loss, cand_grad = fun(candidate)
            evaluations += 1
            if np.isfinite(cand_loss) and cand_loss <= reference - ARMIJO_C * step * gnorm2:
                break
            step *= 0.5
        else:
            raise DivergenceError(
                f"line search failed at loss {float(loss)!r}: no step above "
                f"{MIN_STEP:g} passes the Armijo test"
            )
        s, y = candidate - x, cand_grad - grad
        sy = float(np.dot(s, y))
        step = float(np.dot(s, s)) / sy if sy > 0.0 else 2.0 * step
        x, loss, grad = candidate, cand_loss, cand_grad
        recent.append(float(loss))
        gnorm2 = float(np.dot(grad, grad))
        lowest = trace[-1]
        flat = lowest - loss <= STALL_ULPS * np.spacing(abs(lowest))
        if loss < lowest:
            low_x, low_gnorm2 = x, gnorm2
        trace.append(min(lowest, float(loss)))
        if gnorm2 < best_gnorm2:
            best_x, best_gnorm2 = x, gnorm2
            flat_steps = 0
        else:
            flat_steps = flat_steps + 1 if flat else 0
    if stop_reason == "stalled":
        # On the float floor the loss no longer ranks iterates; the
        # gradient norm still does.
        x, gnorm2 = best_x, best_gnorm2
    elif stop_reason == "max_iter":
        # A rising step may have been the last one accepted.
        x, gnorm2 = low_x, low_gnorm2
    return OptimizeResult(
        x=x,
        trace=np.asarray(trace),
        iterations=len(trace) - 1,
        evaluations=evaluations,
        grad_norm=float(np.sqrt(gnorm2)),
        stop_reason=stop_reason,
    )
