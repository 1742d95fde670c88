"""Kernels on finite spaces, Gram matrices, and two symmetric eigensolvers.

The package treats a kernel as a named recipe (`KernelSpec`) rather than a
bare callable, so Gram construction can dispatch on the kind. The toolbox
(PCA, MDS, ISOMAP, LLE, Laplacian eigenmaps, Nystrom) decomposes with
`eigh`, which is LAPACK. The oracles (`mercer_decompose`, `low_rank_factor`,
`is_psd`) use `jacobi_eigh`, a hand-rolled Jacobi iteration in odd-even
(Luk & Park 1989) parallel ordering on adjacent slots, accurate to high
relative precision, so no toolbox result is checked by its own eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_sym_array",
    "EigenDecomposition",
    "FiniteSpace",
    "KernelSpec",
    "linear_kernel",
    "polynomial_kernel",
    "gaussian_kernel",
    "table_kernel",
    "cross_gram",
    "gram",
    "is_psd",
    "require_psd",
    "psd_tolerance",
    "eigh",
    "jacobi_eigh",
    "mercer_decompose",
]


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a matrix with its transpose; output is exactly symmetric."""
    a = np.asarray(a, dtype=float)
    return (a + a.T) / 2.0


SYM_TOL = 1e-9


def as_sym_array(m) -> np.ndarray:
    """The package's one symmetric-matrix gate: return a square array-like
    as an ndarray symmetric to the bit.

    Rejects inputs whose asymmetry exceeds ``SYM_TOL`` relative to the
    largest finite entry, or whose non-finite entries differ from their
    mirror, then mirrors the upper triangle, so callers can rely on
    ``a[i, j] == a[j, i]`` exactly.
    """
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    finite = np.isfinite(a)
    if not finite.all():
        # Non-finite entries (e.g. unreachable geodesics) are allowed
        # only where the mirror entry holds the same value, or both are nan.
        if not np.array_equal(a[~finite], a.T[~finite], equal_nan=True):
            raise ValueError("non-finite entries placed asymmetrically")
        asym = np.abs(a[finite] - a.T[finite]).max() if finite.any() else 0.0
    else:
        asym = np.abs(a - a.T).max()
    scale = np.abs(a[finite]).max() if finite.any() else 0.0
    if asym > SYM_TOL * max(1.0, scale):
        raise ValueError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} "
            f"exceeds {SYM_TOL:.1e} * max(1, {scale:.3e})"
        )
    return np.triu(a) + np.triu(a, 1).T


@dataclass
class EigenDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def fix_signs(vectors: np.ndarray) -> np.ndarray:
    """The package's one sign convention, applied in place: each column is
    flipped so its largest-magnitude entry is positive. Ties in magnitude
    resolve to the lowest index via argmax, which keeps the convention
    deterministic for symmetric entry patterns."""
    peaks = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(vectors.shape[1])]
    vectors[:, peaks < 0] *= -1.0
    return vectors


def _finish(eigenvalues: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    """Both solvers' output convention: eigenvalues in stable descending
    order, eigenvector columns under `fix_signs`."""
    order = np.argsort(-eigenvalues, kind="stable")
    return EigenDecomposition(eigenvalues[order], fix_signs(vectors[:, order]))


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


JACOBI_TOL = 1e-12  # relative off-diagonal convergence threshold
JACOBI_MAX_SWEEPS = 60  # a safety cap: quadratic convergence needs far fewer


def jacobi_eigh(matrix) -> EigenDecomposition:
    """Jacobi eigendecomposition of a symmetric square matrix.

    Sweeps rotate every (p, q) plane once, in odd-even (Luk & Park 1989)
    parallel ordering: round r rotates the adjacent slot pairs (j, j + 1)
    with j = r (mod 2) together and then swaps the two slots of each pair,
    so a sweep of n rounds meets every index pair once. Once the
    off-diagonal Frobenius mass has dropped below ``JACOBI_TOL`` times the
    Frobenius norm of the input, two more sweeps run and the iteration
    stops; RuntimeError if the test still fails after ``JACOBI_MAX_SWEEPS``
    sweeps. Eigenvalues come back sorted descending; each eigenvector
    column has its largest-magnitude entry made positive.
    """
    a = _solver_input(matrix)
    n = a.shape[0]
    # A above V in one array, so one column update turns both.
    stacked = np.vstack((a, np.eye(n)))
    a, v = stacked[:n], stacked[n:]
    threshold = JACOBI_TOL * float(np.linalg.norm(a))
    flat = a.reshape(-1)
    diag, upper, lower = flat[:: n + 1], flat[1 :: n + 1], flat[n :: n + 1]
    # Per round parity, as views: the k pairs' diagonal and off-diagonal
    # entries, their columns of A and V as (pair, row, 2) and their rows of
    # A as (pair, 2, column); then work buffers, a 2 x 2 matrix per pair.
    rounds = []
    for first in (0, 1):
        k = (n - first) // 2
        end = first + 2 * k
        p, q = slice(first, end, 2), slice(first + 1, end, 2)
        cols = stacked[:, first:end].reshape(2 * n, k, 2).transpose(1, 0, 2)
        rows = a[first:end].reshape(k, 2, n)
        rounds.append((diag[p], diag[q], upper[p], lower[p], cols, rows,
                       np.empty((k, 2, 2)), *np.empty((3, k))))
    tiny = np.finfo(float).smallest_subnormal

    def sweep(index: int) -> None:
        """Rounds index * n to index * n + n - 1: parity alternates at odd n too."""
        for r in range(index * n, (index + 1) * n):
            app, aqq, apq, aqp, cols, rows, turn, d, two_apq, den = rounds[r % 2]
            # Rutishauser's t = sign(d) 2 a_pq / (|d| + hypot(d, 2 a_pq)), d = a_qq -
            # a_pp: |t| <= 1, no square to overflow. The hypot raised to the smallest
            # subnormal keeps every positive value and makes a 0/0 pivot t = 0.
            np.subtract(aqq, app, out=d)
            np.add(apq, apq, out=two_apq)
            np.hypot(d, two_apq, out=den)
            np.maximum(den, tiny, out=den)
            np.copysign(den, d, out=den)
            den += d
            s, c = turn[:, 0, 0], turn[:, 0, 1]
            np.divide(two_apq, den, out=s)
            np.hypot(1.0, s, out=c)
            np.divide(1.0, c, out=c)
            s *= c
            # The rotation [[c, s], [-s, c]] followed by the swap of its two
            # slots is the symmetric [[s, c], [c, -s]], so A <- J^T A J and
            # V <- V J are one batched product on columns and one on rows,
            # in place (NumPy buffers an output that overlaps an input).
            turn[:, 1, 0] = c
            np.negative(s, out=turn[:, 1, 1])
            np.matmul(cols, turn, out=cols)
            np.matmul(turn, rows, out=rows)
            apq[...] = 0.0
            aqp[...] = 0.0

    # Rotations keep the Frobenius norm: only an input whose norm overflows,
    # which computing `threshold` has then warned about, can overflow here.
    with np.errstate(over="ignore"):
        for index in range(JACOBI_MAX_SWEEPS + 1):
            off = np.sqrt(2.0 * np.square(np.triu(a, 1)).sum())
            if off <= threshold:
                break
            if index == JACOBI_MAX_SWEEPS:
                raise RuntimeError(
                    f"Jacobi iteration failed to converge in {JACOBI_MAX_SWEEPS} sweeps "
                    f"(n={n}, residual {off:.3e} > {threshold:.3e})"
                )
            sweep(index)
        # Two sweeps past the test: it bounds the off-diagonal mass by tol * |A|,
        # which can leave the small corner of a graded matrix unconverged
        # relative to its diagonal, and two quadratically convergent sweeps take
        # every entry to rounding level; an eigenvector whose eigenvalue gap is g
        # then errs by ~eps |A| / g rather than by up to tol * |A| / g.
        sweep(index)
        sweep(index + 1)
    return _finish(np.diag(a), v)


@dataclass
class FiniteSpace:
    """A finite input space: named items with a strictly positive distribution."""

    items: list
    p: np.ndarray

    def __post_init__(self):
        self.p = checked_weights(self.p, len(self.items), "probabilities")
        if len(set(map(str, self.items))) != len(self.items):
            raise ValueError("items must be distinct")

    @property
    def n(self) -> int:
        return len(self.items)


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


def table_kernel(table) -> KernelSpec:
    """Wrap an explicit symmetric value table over a finite space."""
    return KernelSpec(kind="table", table=as_sym_array(table))


def _table_indices(points, n: int) -> np.ndarray:
    """Integer indices into an n-item table; anything else is an IndexError."""
    idx = np.asarray(points, dtype=float).reshape(-1)
    if not np.all((idx >= 0) & (idx < n) & (idx == np.floor(idx))):
        raise IndexError(f"table kernel indices must be integers in [0, {n}), got {points!r}")
    return idx.astype(int)


def _vectors(points) -> np.ndarray:
    """Points as the rows of a contiguous 2-D float array."""
    x = np.ascontiguousarray(points, dtype=float)
    return x.reshape(len(x), -1) if x.size else np.zeros((len(x), 0))


def cross_gram(kernel: KernelSpec, xs, zs) -> np.ndarray:
    """Kernel values K(x_i, z_j) on two point lists, as a len(xs) x len(zs) array.

    Every kernel formula lives here. Vector kinds take coordinate vectors;
    the Gaussian expands |x - z|^2 as |x|^2 + |z|^2 - 2 x.z, clamped at 0.
    Table kinds take integer indices into the table's finite space.
    """
    if kernel.kind == "table":
        n = kernel.table.shape[0]
        return kernel.table[np.ix_(_table_indices(xs, n), _table_indices(zs, n))]
    x, z = _vectors(xs), _vectors(zs)
    if kernel.kind == "linear":
        return x @ z.T
    if kernel.kind == "polynomial":
        return (1.0 + x @ z.T) ** kernel.degree
    if kernel.kind == "gaussian":
        sq_x, sq_z = np.square(x).sum(axis=1), np.square(z).sum(axis=1)
        d2 = sq_x[:, None] + sq_z[None, :] - 2.0 * (x @ z.T)
        return np.exp(-np.maximum(d2, 0.0) / (2.0 * kernel.sigma2))
    raise ValueError(f"unknown kernel kind {kernel.kind!r}")


def gram(kernel: KernelSpec, points) -> np.ndarray:
    """Gram matrix of a kernel on a point list, exactly symmetric."""
    return as_sym_array(symmetrize(cross_gram(kernel, points, points)))


def psd_tolerance(matrix) -> float:
    """The PSD gate's default tolerance, 1e-8 * max(1, |tr A|), so
    identity-sized rounding on a large Gram does not flip the verdict."""
    return 1e-8 * max(1.0, abs(float(np.trace(matrix))))


def require_psd(eigenvalues: np.ndarray, tol: float, what: str) -> None:
    """The PSD gate: raise ValueError if any eigenvalue is below -tol."""
    low = float(eigenvalues.min(initial=0.0))
    if low < -tol:
        raise ValueError(f"{what} is not PSD: min eigenvalue {low:.3e} < -{tol:.3e}")


def is_psd(matrix, tol: float | None = None) -> bool:
    """Whether the matrix's Jacobi spectrum passes `require_psd`, at
    `psd_tolerance` unless ``tol`` is given."""
    a = as_sym_array(matrix)
    eigenvalues = jacobi_eigh(a).eigenvalues
    try:
        require_psd(eigenvalues, psd_tolerance(a) if tol is None else tol, "matrix")
    except ValueError:
        return False
    return True


def checked_weights(weights, n: int, what: str = "weights") -> np.ndarray:
    """Weights as floats: one per item of an n-item space, each positive,
    summing to 1 within 1e-9. Raises ValueError otherwise, with a message
    that calls the input ``what``."""
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"{what} have shape {w.shape}, not one per item of {n}")
    if np.any(w <= 0.0):
        raise ValueError(f"{what} must be strictly positive")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValueError(f"{what} sum to {float(w.sum())!r}, not 1")
    return w


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
    w = checked_weights(weights, k.shape[0])
    root = np.sqrt(w)
    m = symmetrize(k * np.outer(root, root))
    eig = jacobi_eigh(m)
    # Ostrowski: lambda_i(D^(1/2) K D^(1/2)) = theta_i lambda_i(K) with theta_i
    # >= min(w), so this gate rejects every table that K's own spectrum would.
    tol = 1e-9 * max(1.0, abs(float(np.trace(k)))) * float(w.min())
    require_psd(eig.eigenvalues, tol, "weighted kernel table")
    functions = eig.eigenvectors / root[:, None]
    return eig.eigenvalues, functions
