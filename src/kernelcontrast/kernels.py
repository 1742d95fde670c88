"""Kernels on finite spaces, Gram matrices, and two symmetric eigensolvers.

The package treats a kernel as a named recipe (`KernelSpec`) rather than a
bare callable, so Gram construction, PSD checks, and serialization can
dispatch on the kind. The toolbox (PCA, MDS, ISOMAP, LLE, Laplacian
eigenmaps, Nystrom) decomposes with `eigh`, which is LAPACK. The oracles
(`mercer_decompose`, `low_rank_factor`, `is_psd`) use `jacobi_eigh`, a
hand-rolled cyclic Jacobi iteration accurate to high relative precision,
so no toolbox result is checked by its own eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SymMatrix",
    "EigenDecomposition",
    "FiniteSpace",
    "KernelSpec",
    "linear_kernel",
    "polynomial_kernel",
    "gaussian_kernel",
    "table_kernel",
    "exp_pmi_kernel",
    "kernel_eval",
    "gram",
    "is_psd",
    "eigh",
    "jacobi_eigh",
    "mercer_decompose",
]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose; output is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


class SymMatrix:
    """A dense symmetric matrix with symmetry enforced at construction.

    The constructor rejects inputs whose asymmetry exceeds a small
    tolerance relative to the largest entry, then mirrors the upper
    triangle so `values` is symmetric to the bit. Downstream code can
    rely on ``m.values[i, j] == m.values[j, i]`` exactly.
    """

    def __init__(self, values: np.ndarray, tol: float = 1e-9):
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        finite = np.isfinite(a)
        if not finite.all():
            # Non-finite entries (e.g. unreachable geodesics) are allowed
            # only when they are placed symmetrically.
            bad = a[finite != finite.T]
            if bad.size:
                raise ValueError("non-finite entries placed asymmetrically")
            asym = np.abs(a[finite] - a.T[finite]).max() if finite.any() else 0.0
        else:
            asym = np.abs(a - a.T).max()
        scale = np.abs(a[finite]).max() if finite.any() else 0.0
        if asym > tol * max(1.0, scale):
            raise ValueError(
                f"matrix is not symmetric: max asymmetry {asym:.3e} "
                f"exceeds {tol:.1e} * max(1, {scale:.3e})"
            )
        upper = np.triu(a)
        self.values = upper + np.triu(a, 1).T
        self.n = a.shape[0]

    @classmethod
    def from_exact(cls, values: np.ndarray) -> "SymMatrix":
        """Wrap a matrix already symmetric to the bit, skipping the check."""
        obj = cls.__new__(cls)
        a = np.asarray(values, dtype=float)
        if not np.array_equal(a, a.T):
            raise ValueError("from_exact requires bitwise symmetry")
        obj.values = a.copy()
        obj.n = a.shape[0]
        return obj

    def __repr__(self) -> str:
        return f"SymMatrix(n={self.n})"


def as_sym_array(m) -> np.ndarray:
    """Accept SymMatrix or array-like; return an exactly symmetric ndarray."""
    if isinstance(m, SymMatrix):
        return m.values
    return SymMatrix(np.asarray(m, dtype=float)).values


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def _finish(eigenvalues: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    """Both solvers' output convention: eigenvalues in stable descending
    order, each eigenvector column flipped so its largest-magnitude entry is
    positive. Ties in magnitude resolve to the lowest index via argmax, which
    keeps the convention deterministic for symmetric entry patterns."""
    order = np.argsort(-eigenvalues, kind="stable")
    vectors = vectors[:, order]
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors[:, peaks < 0] *= -1.0
    return EigenDecomposition(eigenvalues[order], vectors)


def _solver_input(matrix) -> np.ndarray:
    """The exactly symmetric, finite array both eigensolvers start from."""
    a = as_sym_array(matrix)
    if not np.isfinite(a).all():
        raise ValueError("cannot eigendecompose a matrix with non-finite entries")
    return a


def eigh(matrix) -> EigenDecomposition:
    """LAPACK eigendecomposition of a symmetric matrix, for the toolbox.

    Input check, order and signs as in `jacobi_eigh`, which it matches up to
    rounding and the basis chosen inside a repeated eigenvalue."""
    eigenvalues, vectors = np.linalg.eigh(_solver_input(matrix))
    return _finish(eigenvalues, vectors)


def jacobi_eigh(matrix, tol: float = 1e-12, max_sweeps: int = 60) -> EigenDecomposition:
    """Cyclic Jacobi eigendecomposition of a symmetric matrix.

    Sweeps rotate the (p, q) planes in fixed row-major order until the
    off-diagonal Frobenius mass drops below ``tol`` times the Frobenius
    norm of the input. Eigenvalues come back sorted descending; each
    eigenvector column has its largest-magnitude entry made positive.

    Parameters
    ----------
    matrix : SymMatrix or array-like
        Symmetric square matrix.
    tol : float
        Relative off-diagonal convergence threshold.
    max_sweeps : int
        Safety cap on full sweeps; cyclic Jacobi converges quadratically
        so realistic inputs finish in far fewer.
    """
    a = _solver_input(matrix).copy()
    n = a.shape[0]
    v = np.eye(n)
    threshold = tol * float(np.linalg.norm(a))

    for sweep in range(max_sweeps + 1):
        off = np.sqrt(2.0 * np.square(np.triu(a, 1)).sum())
        if off <= threshold:
            break
        if sweep == max_sweeps:
            raise RuntimeError(
                f"Jacobi iteration failed to converge in {max_sweeps} sweeps "
                f"(n={n}, residual {off:.3e} > {threshold:.3e})"
            )
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                # hypot instead of sqrt(1 + tau^2): tau^2 overflows when
                # the off-diagonal entry is many orders below the diagonal
                # gap, and the rotation must still come out as ~1/(2 tau).
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # Two-sided rotation A <- J^T A J in the (p, q) plane.
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vec_p = v[:, p].copy()
                v[:, p] = c * vec_p - s * v[:, q]
                v[:, q] = s * vec_p + c * v[:, q]
    return _finish(np.diag(a), v)


@dataclass
class FiniteSpace:
    """A finite input space: named items with a strictly positive distribution."""

    items: list
    p: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        if len(self.items) != self.p.shape[0]:
            raise ValueError(
                f"{len(self.items)} items but {self.p.shape[0]} probabilities"
            )
        if len(set(map(str, self.items))) != len(self.items):
            raise ValueError("items must be distinct")
        if np.any(self.p <= 0.0):
            raise ValueError("every item needs strictly positive probability")
        if abs(self.p.sum() - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {self.p.sum()!r}, not 1")

    @property
    def n(self) -> int:
        return len(self.items)

    def index(self, item) -> int:
        try:
            return self.items.index(item)
        except ValueError:
            raise KeyError(f"unknown item {item!r}") from None


@dataclass
class KernelSpec:
    """A kernel identified by kind plus the parameters that pin it down.

    Vector kinds (``linear``, ``polynomial``, ``gaussian``) evaluate on
    coordinate vectors. Table kinds (``table`` and anything built on one)
    evaluate on integer indices into a finite space.
    """

    kind: str
    degree: int = 0
    sigma2: float = 0.0
    table: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __call__(self, x, z) -> float:
        return kernel_eval(self, x, z)


def linear_kernel() -> KernelSpec:
    return KernelSpec(kind="linear")


def polynomial_kernel(degree: int) -> KernelSpec:
    """(1 + x.z)^degree; degree must be a positive integer."""
    if not isinstance(degree, (int, np.integer)) or degree < 1:
        raise ValueError(f"polynomial degree must be a positive integer, got {degree!r}")
    return KernelSpec(kind="polynomial", degree=int(degree))


def gaussian_kernel(sigma2: float) -> KernelSpec:
    """exp(-|x - z|^2 / (2 sigma2)); bandwidth sigma2 must be positive."""
    if not sigma2 > 0.0:
        raise ValueError(f"gaussian bandwidth sigma2 must be positive, got {sigma2!r}")
    return KernelSpec(kind="gaussian", sigma2=float(sigma2))


def table_kernel(table, check_symmetric: bool = True) -> KernelSpec:
    """Wrap an explicit symmetric value table over a finite space."""
    values = as_sym_array(table) if check_symmetric else np.asarray(table, float)
    return KernelSpec(kind="table", table=values)


def exp_pmi_kernel(joint, marg_row, marg_col) -> KernelSpec:
    """Pointwise ratio joint / (marg_row x marg_col) as a table kernel.

    The joint is read as a pair-probability table, so its row and column
    sums must reproduce the supplied marginals. The ratio is the entrywise
    exponential of pointwise mutual information; when the table comes from
    an actual pair distribution with matching marginals the result is a
    positive-semidefinite kernel on the finite space.
    """
    j = np.asarray(joint, dtype=float)
    mr = np.asarray(marg_row, dtype=float)
    mc = np.asarray(marg_col, dtype=float)
    if j.ndim != 2 or j.shape != (mr.shape[0], mc.shape[0]):
        raise ValueError(
            f"joint shape {j.shape} does not match marginals "
            f"({mr.shape[0]}, {mc.shape[0]})"
        )
    if np.any(j < 0.0):
        raise ValueError("joint table has negative entries")
    if np.any(mr <= 0.0) or np.any(mc <= 0.0):
        raise ValueError("degenerate event: a marginal probability is zero")
    if np.abs(j.sum(axis=1) - mr).max() > 1e-9:
        raise ValueError("joint row sums do not reproduce the row marginal")
    if np.abs(j.sum(axis=0) - mc).max() > 1e-9:
        raise ValueError("joint column sums do not reproduce the column marginal")
    ratio = j / np.outer(mr, mc)
    return KernelSpec(kind="table", table=symmetrize(ratio), meta={"source": "exp_pmi"})


def kernel_eval(kernel: KernelSpec, x, z) -> float:
    """Evaluate a kernel at one pair of points.

    Vector kinds take 1-D coordinate arrays; table kinds take integer
    indices into the finite space the table was built over.
    """
    if kernel.kind == "linear":
        return float(np.dot(np.asarray(x, float), np.asarray(z, float)))
    if kernel.kind == "polynomial":
        return float(
            (1.0 + np.dot(np.asarray(x, float), np.asarray(z, float))) ** kernel.degree
        )
    if kernel.kind == "gaussian":
        diff = np.asarray(x, float) - np.asarray(z, float)
        return float(np.exp(-np.dot(diff, diff) / (2.0 * kernel.sigma2)))
    if kernel.kind == "table":
        i, j = int(x), int(z)
        n = kernel.table.shape[0]
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"table kernel index ({i}, {j}) out of range for n={n}")
        return float(kernel.table[i, j])
    raise ValueError(f"unknown kernel kind {kernel.kind!r}")


def gram(kernel: KernelSpec, points) -> SymMatrix:
    """Gram matrix of a kernel on a point list, exactly symmetric.

    Each pair is evaluated once (i <= j) and mirrored, so no symmetry is
    lost to floating-point evaluation order.
    """
    if kernel.kind == "table":
        idx = np.asarray(points, dtype=int)
        sub = kernel.table[np.ix_(idx, idx)]
        return SymMatrix(symmetrize(sub))
    pts = [np.asarray(p, dtype=float) for p in points]
    m = len(pts)
    if kernel.kind in ("linear", "polynomial"):
        x = np.stack(pts) if m else np.zeros((0, 0))
        g = x @ x.T
        if kernel.kind == "polynomial":
            g = (1.0 + g) ** kernel.degree
    elif kernel.kind == "gaussian":
        x = np.stack(pts) if m else np.zeros((0, 0))
        sq = np.square(x).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
        g = np.exp(-np.maximum(d2, 0.0) / (2.0 * kernel.sigma2))
    else:
        raise ValueError(f"unknown kernel kind {kernel.kind!r}")
    return SymMatrix(symmetrize(g))


def is_psd(matrix, tol: float | None = None) -> bool:
    """Check positive semidefiniteness by full eigendecomposition.

    The default tolerance is 1e-8 scaled by max(1, trace), so identity-
    sized noise on large Grams does not flip the verdict.
    """
    a = as_sym_array(matrix)
    if tol is None:
        tol = 1e-8 * max(1.0, float(np.trace(a)))
    eig = jacobi_eigh(a)
    return bool(eig.eigenvalues.min(initial=0.0) >= -tol)


def mercer_decompose(kernel_table, weights) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and weighted-orthonormal eigenfunctions of a kernel table.

    Solves the weighted eigenproblem by symmetrizing with the square root
    of the weights: with D = diag(weights), the eigenvectors u of
    D^(1/2) K D^(1/2) give eigenfunctions psi = u / sqrt(weights) that are
    orthonormal under the weighted inner product <f, g> = sum_x w(x) f(x) g(x).

    Returns
    -------
    (eigenvalues, functions)
        Eigenvalues descending; ``functions[:, j]`` is the j-th
        eigenfunction tabulated on the space. The expansion
        sum_j eigenvalues[j] * functions[x, j] * functions[z, j]
        reproduces the kernel table.
    """
    k = as_sym_array(kernel_table)
    w = np.asarray(weights, dtype=float)
    if w.shape != (k.shape[0],):
        raise ValueError(f"weights shape {w.shape} does not match table n={k.shape[0]}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {w.sum()!r}, not 1")
    root = np.sqrt(w)
    m = symmetrize(k * np.outer(root, root))
    eig = jacobi_eigh(m)
    # Ostrowski: lambda_i(D^(1/2) K D^(1/2)) = theta_i lambda_i(K) with theta_i
    # >= min(w), so this gate rejects every table that K's own spectrum would.
    tol = 1e-9 * max(1.0, abs(float(np.trace(k)))) * float(w.min())
    if eig.eigenvalues.min(initial=0.0) < -tol:
        raise ValueError(
            f"kernel table is not PSD: min weighted eigenvalue {eig.eigenvalues.min():.3e}"
        )
    functions = eig.eigenvectors / root[:, None]
    return eig.eigenvalues, functions
