"""Neighborhood graphs and the classical manifold-learning trio.

ISOMAP, locally linear embedding, and Laplacian eigenmaps all start from
the same object: a symmetric weighted neighbor graph built by an epsilon
ball or a k-nearest-neighbor rule, held as dense adjacency and weight
arrays. Graph geodesics come from Floyd-Warshall on the weight array; the
eigenproblems use the package's LAPACK entry point, `kernels.eigh`.

These methods embed only the points they were given. That limitation is
intentional and preserved: no out-of-sample extension is offered here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import eigh, symmetrize
from .linear_dr import mds_embed
from .rng import Stream

__all__ = [
    "NeighborGraph",
    "DisconnectedGraphError",
    "DegenerateGeometryError",
    "build_graph",
    "shortest_paths",
    "isomap",
    "lle_weights",
    "lle_embed",
    "laplacian_eigenmaps",
    "swiss_roll",
    "latent_arc_length",
    "pairwise_distances",
]

DEFAULT_T_RANGE = (1.5 * np.pi, 4.5 * np.pi)
DEFAULT_HEIGHT = 21.0


class DisconnectedGraphError(ValueError):
    """Raised when a method needs one connected component but got several."""

    def __init__(self, components: list, context: str):
        self.components = components
        sizes = sorted((len(c) for c in components), reverse=True)
        super().__init__(
            f"{context}: graph has {len(components)} connected components "
            f"(sizes {sizes}). A larger neighborhood would connect them, at "
            "the cost of possible short-circuit edges across the manifold; "
            "a smaller one disconnects it further."
        )


class DegenerateGeometryError(ValueError):
    """Raised when a spectrum lacks enough usable eigenvalues for d coordinates."""


def _unit_scale(a: np.ndarray, axes=None):
    """(a / 2^e, e), e the binary exponent of max |a| over ``axes`` (kept as
    size-1 axes): the division is exact, and it brings the entries into
    (-1, 1), where their squares stay in the float range."""
    e = np.frexp(np.abs(a).max(axis=axes, keepdims=True, initial=0.0))[1]
    return np.ldexp(a, -e), e


def pairwise_distances(data: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, exactly symmetric with zero diagonal. The
    points are squared at unit scale (`_unit_scale`) and the distances
    scaled back, so no square leaves the float range."""
    x, e = _unit_scale(np.asarray(data, dtype=float))
    sq = np.square(x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    d = np.ldexp(np.sqrt(np.maximum(symmetrize(d2), 0.0)), e)
    np.fill_diagonal(d, 0.0)
    return d


@dataclass
class NeighborGraph:
    """Symmetric weighted neighbor graph as two dense n x n arrays.

    ``adjacency`` is boolean, symmetric and false on the diagonal.
    ``weights`` holds each edge's weight and 0 off the edges; an edge may
    weigh 0 itself (duplicate points under Euclidean weights), so the
    edges are read from ``adjacency``, never from ``weights > 0``.
    ``components`` lists the vertex sets of connected components in
    ascending order of smallest member; disconnection is data, not an
    error, so callers decide how to react.
    """

    adjacency: np.ndarray
    weights: np.ndarray
    components: list

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]


def _nearest_neighbors(dist: np.ndarray, k: int) -> np.ndarray:
    """Each row's k nearest other points, ties broken toward the lower index."""
    ranked = dist.copy()
    np.fill_diagonal(ranked, np.inf)
    return np.argsort(ranked, axis=1, kind="stable")[:, :k]


def _components(adjacency: np.ndarray) -> list:
    """Connected components by breadth-first search, one frontier per step."""
    unseen = np.ones(adjacency.shape[0], dtype=bool)
    components = []
    while unseen.any():
        members = np.zeros_like(unseen)
        frontier = members.copy()
        frontier[np.argmax(unseen)] = True
        while frontier.any():
            members |= frontier
            frontier = adjacency[frontier].any(axis=0) & ~members
        unseen &= ~members
        components.append(np.flatnonzero(members).tolist())
    return components


def build_graph(
    data: np.ndarray,
    eps: float | None = None,
    knn: int | None = None,
    weight: str = "euclidean",
    t: float | None = None,
) -> NeighborGraph:
    """Neighbor graph from an epsilon ball or a k-nearest-neighbor rule.

    Exactly one of ``eps`` / ``knn`` must be given. The epsilon rule joins
    pairs with distance <= eps. The knn rule joins each point to its K
    nearest neighbors, ties broken toward the lower index, and the result
    is symmetrized by edge union. Weights are the Euclidean distance, or
    exp(-dist^2 / t) when ``weight="gaussian"``.
    """
    x = np.asarray(data, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"need at least 2 points as an N x n0 array, got {x.shape}")
    n = x.shape[0]
    if (eps is None) == (knn is None):
        raise ValueError("give exactly one of eps or knn")
    if eps is not None and not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps!r}")
    if knn is not None and not 1 <= knn < n:
        raise ValueError(f"knn must be in [1, {n - 1}], got {knn!r}")
    if weight not in ("euclidean", "gaussian"):
        raise ValueError(f"unknown weight rule {weight!r}")
    if weight == "gaussian" and (t is None or not t > 0.0):
        raise ValueError("gaussian weights need a positive bandwidth t")

    dist = pairwise_distances(x)
    if eps is not None:
        adjacency = dist <= eps
        np.fill_diagonal(adjacency, False)
    else:
        adjacency = np.zeros((n, n), dtype=bool)
        adjacency[np.arange(n)[:, None], _nearest_neighbors(dist, knn)] = True
        adjacency |= adjacency.T
    edge_weight = np.exp(-(dist * dist) / t) if weight == "gaussian" else dist
    weights = np.where(adjacency, edge_weight, 0.0)
    return NeighborGraph(adjacency, weights, _components(adjacency))


def shortest_paths(g: NeighborGraph) -> np.ndarray:
    """All-pairs graph geodesics by Floyd-Warshall, one pivot per step.

    Unreachable pairs get +inf. Each step updates (i, j) and (j, i) from
    the same two terms in swapped order, so the result is symmetric to
    the bit.
    """
    geo = np.where(g.adjacency, g.weights, np.inf)
    np.fill_diagonal(geo, 0.0)
    for k in range(g.n):
        np.minimum(geo, geo[:, k, None] + geo[k], out=geo)
    return geo


def isomap(data: np.ndarray, d: int, eps: float | None = None, knn: int | None = None) -> np.ndarray:
    """Geodesic MDS: embed graph shortest-path distances in R^d.

    The neighbor graph must be connected; otherwise geodesics across
    components are undefined and a DisconnectedGraphError explains the
    neighborhood-size tradeoff.
    """
    g = build_graph(data, eps=eps, knn=knn, weight="euclidean")
    if len(g.components) != 1:
        raise DisconnectedGraphError(g.components, "isomap")
    geo = shortest_paths(g)
    return mds_embed(geo, d).embeddings


def lle_weights(data: np.ndarray, k: int) -> np.ndarray:
    """Reconstruction weights: each point as an affine combination of K neighbors.

    Solves min |x_i - sum_j w_ij x_j|^2 subject to sum_j w_ij = 1 through
    the KKT system of the local Gram matrix C, formed from the neighbour
    differences at unit scale (`_unit_scale`) and divided by its trace
    (when positive), so it sits at the unit scale of the constraint row and
    the weights do not change with the unit of the data. The
    system is solved by least squares with a minimum-norm solution, which
    handles the singular local Gram of K > n0 or degenerate neighborhoods
    without disturbing exact reconstructions. Rows are renormalized to sum
    exactly to 1.
    """
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"K must be in [1, {n - 1}], got {k}")
    neighbors = _nearest_neighbors(pairwise_distances(x), k)
    z, _ = _unit_scale(x[neighbors] - x[:, None, :], axes=(1, 2))
    w = np.zeros((n, n))
    kkt = np.zeros((k + 1, k + 1))
    kkt[k, :k] = 1.0
    kkt[:k, k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    for i in range(n):
        nbrs = neighbors[i]
        c = z[i] @ z[i].T
        trace = np.trace(c)
        kkt[:k, :k] = c / trace if trace > 0 else c
        wi = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        w[i, nbrs] = wi / wi.sum()
    return w


def lle_embed(weights: np.ndarray, d: int) -> np.ndarray:
    """Embedding from LLE weights: bottom eigenvectors of M = (I-W)^T(I-W).

    The all-ones vector is always in the null space of M (rows of W sum
    to 1), and it alone is discarded. Any further null directions are
    coordinates the weights reconstruct exactly, which is precisely what
    the embedding is after, so they are kept ahead of the modes with
    positive eigenvalues. Flat data reconstructed exactly by its
    neighborhoods therefore comes back as its own chart: on collinear
    points the single kept null direction is the (centered) arc-length
    coordinate, and on a planar sheet in 3-D the two kept directions span
    the sheet plane. Columns are scaled by sqrt(N) so (1/N) V^T V = I_d,
    and every column is orthogonal to the ones vector.

    Raises DegenerateGeometryError when the spectrum of M has fewer than
    d+1 distinct eigenvalue levels (near-equal eigenvalues counted once):
    a collapsed spectrum cannot supply d informative directions.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"weights must be square, got {w.shape}")
    if np.abs(w.sum(axis=1) - 1.0).max() > 1e-10:
        raise ValueError("weight rows must sum to 1")
    if not 1 <= d < n:
        raise ValueError(f"d must be in [1, {n - 1}], got {d}")
    iw = np.eye(n) - w
    m = symmetrize(iw.T @ iw)
    eig = eigh(m)
    lam = eig.eigenvalues[::-1]
    vec = eig.eigenvectors[:, ::-1]
    zero_tol = 1e-10 * max(1.0, float(lam[-1]))
    levels = 1 + int(np.count_nonzero(np.diff(lam) > zero_tol))
    if levels < d + 1:
        raise DegenerateGeometryError(
            f"spectrum has {levels} distinct eigenvalue levels; "
            f"cannot produce {d} embedding coordinates"
        )
    z = int(np.count_nonzero(lam <= zero_tol))
    parts = []
    have = 0
    if z >= 2:
        # The zero cluster spans the ones vector plus the exactly
        # reconstructed coordinates, but the eigensolver returns an
        # arbitrary orthonormal basis of it. Project the ones direction
        # out and reorthonormalize; the SVD drops the rank lost to the
        # projection and is deterministic for a fixed input.
        ones = np.full(n, 1.0 / np.sqrt(n))
        cluster = vec[:, :z]
        flat = cluster - np.outer(ones, ones @ cluster)
        basis, sing, _ = np.linalg.svd(flat, full_matrices=False)
        basis = basis[:, sing > 1e-8]
        have = min(d, basis.shape[1])
        parts.append(basis[:, :have])
    if have < d:
        parts.append(vec[:, z : z + (d - have)])
    return np.concatenate(parts, axis=1) * np.sqrt(n)


def laplacian_eigenmaps(
    data: np.ndarray,
    d: int,
    t: float,
    eps: float | None = None,
    knn: int | None = None,
) -> np.ndarray:
    """Embedding from the generalized eigenproblem L u = lambda D u.

    Gaussian edge weights W = exp(-dist^2 / t) on the neighbor graph, D the
    diagonal of its row sums (the degrees), and L = D - W. Solved
    through the symmetric reduction D^(-1/2) L D^(-1/2); returned columns
    v_j = D^(-1/2) u_j satisfy V^T D V = I_d and V^T D 1 = 0.
    """
    g = build_graph(data, eps=eps, knn=knn, weight="gaussian", t=t)
    if len(g.components) != 1:
        raise DisconnectedGraphError(g.components, "laplacian_eigenmaps")
    n = g.n
    if not 1 <= d < n:
        raise ValueError(f"d must be in [1, {n - 1}], got {d}")
    degrees = g.weights.sum(axis=1)
    root = np.sqrt(degrees)
    reduced = symmetrize((np.diag(degrees) - g.weights) / np.outer(root, root))
    eig = eigh(reduced)
    lam = eig.eigenvalues[::-1]
    vec = eig.eigenvectors[:, ::-1]
    zero_tol = 1e-10 * max(1.0, float(lam[-1]))
    nonzero = np.nonzero(lam > zero_tol)[0]
    if nonzero.shape[0] < d:
        raise DegenerateGeometryError(
            f"only {nonzero.shape[0]} eigenvalues exceed the zero cluster; "
            f"cannot produce {d} embedding coordinates"
        )
    cols = nonzero[:d]
    return vec[:, cols] / root[:, None]


def latent_arc_length(t: np.ndarray) -> np.ndarray:
    """Arc length of the spiral (t cos t, t sin t) measured from t = 0."""
    t = np.asarray(t, dtype=float)
    return 0.5 * (t * np.sqrt(1.0 + t * t) + np.arcsinh(t))


def swiss_roll(
    n: int,
    noise: float = 0.0,
    seed: int = 0,
    t_range: tuple = DEFAULT_T_RANGE,
    height: float = DEFAULT_HEIGHT,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample the swiss roll (t cos t, h, t sin t).

    Returns (data, latent): data is N x 3, latent is N x 2 holding the
    unrolled coordinates (arc length along the spiral, height h), the
    ground truth that manifold methods should recover. With noise > 0,
    isotropic Gaussian noise of that scale is added to the coordinates.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    t0, t1 = float(t_range[0]), float(t_range[1])
    if not t1 > t0 >= 0.0:
        raise ValueError(f"t_range must satisfy 0 <= t0 < t1, got {t_range!r}")
    stream = Stream(seed)
    t = stream.uniform(n, t0, t1)
    h = stream.uniform(n, 0.0, height)
    data = np.column_stack((t * np.cos(t), h, t * np.sin(t)))
    if noise != 0.0:
        data = data + noise * stream.normal(3 * n).reshape(n, 3)
    latent = np.column_stack((latent_arc_length(t), h))
    return data, latent
