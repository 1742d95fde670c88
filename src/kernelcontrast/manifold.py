"""Neighborhood graphs and the classical manifold-learning trio.

ISOMAP, locally linear embedding, and Laplacian eigenmaps all start from
the same object: a symmetric weighted neighbor graph built by an epsilon
ball or a k-nearest-neighbor rule. Graph geodesics use Dijkstra from every
source; the eigenproblems reuse the package's Jacobi solver.

These methods embed only the points they were given. That limitation is
intentional and preserved: no out-of-sample extension is offered here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .kernels import SymMatrix, eigh, symmetrize
from .rng import Stream

__all__ = [
    "NeighborGraph",
    "GraphLaplacian",
    "DisconnectedGraphError",
    "DegenerateGeometryError",
    "build_graph",
    "shortest_paths",
    "graph_laplacian",
    "isomap",
    "lle_weights",
    "lle_embed",
    "laplacian_eigenmaps",
    "swiss_roll",
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


def pairwise_distances(data: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, exactly symmetric with zero diagonal."""
    x = np.asarray(data, dtype=float)
    sq = np.square(x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    d = np.sqrt(np.maximum(symmetrize(d2), 0.0))
    np.fill_diagonal(d, 0.0)
    return d


@dataclass
class NeighborGraph:
    """Symmetric weighted neighbor graph.

    ``edges`` holds (i, j, weight) with i < j, each undirected edge once.
    ``components`` lists the vertex sets of connected components in
    ascending order of smallest member; disconnection is data, not an
    error, so callers decide how to react.
    """

    n: int
    edges: list
    rule: str
    weight_rule: str
    components: list = field(default_factory=list)

    @property
    def component_count(self) -> int:
        return len(self.components)

    def adjacency_lists(self) -> list:
        adj = [[] for _ in range(self.n)]
        for i, j, w in self.edges:
            adj[i].append((j, w))
            adj[j].append((i, w))
        return adj

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        for i, j, val in self.edges:
            w[i, j] = val
            w[j, i] = val
        return w


def _components_from_edges(n: int, edges: list) -> list:
    seen = [False] * n
    adj = [[] for _ in range(n)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    components = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for v in adj[u]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(v)
        components.append(sorted(members))
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
    pairs = set()
    if eps is not None:
        ii, jj = np.nonzero(np.triu(dist <= eps, 1))
        pairs.update(zip(ii.tolist(), jj.tolist()))
        rule = f"epsilon({eps:g})"
    else:
        order = np.arange(n)
        for i in range(n):
            ranked = np.lexsort((order, dist[i]))
            picked = [j for j in ranked if j != i][:knn]
            for j in picked:
                pairs.add((min(i, j), max(i, j)))
        rule = f"knn({knn})"

    edges = []
    for i, j in sorted(pairs):
        d = float(dist[i, j])
        w = float(np.exp(-(d * d) / t)) if weight == "gaussian" else d
        edges.append((i, j, w))
    weight_rule = f"gaussian({t:g})" if weight == "gaussian" else "euclidean"
    components = _components_from_edges(n, edges)
    return NeighborGraph(
        n=n, edges=edges, rule=rule, weight_rule=weight_rule, components=components
    )


def shortest_paths(g: NeighborGraph) -> SymMatrix:
    """All-pairs graph geodesics by Dijkstra from every source.

    Unreachable pairs get +inf. The result is symmetrized by the entrywise
    minimum of the two directions, which removes last-bit asymmetry from
    summing the same edge weights in different orders.
    """
    adj = g.adjacency_lists()
    out = np.full((g.n, g.n), np.inf)
    for src in range(g.n):
        dist = out[src]
        dist[src] = 0.0
        heap = [(0.0, src)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    sym = np.minimum(out, out.T)
    return SymMatrix.from_exact(sym)


@dataclass
class GraphLaplacian:
    """Unnormalized Laplacian L = D - W with its degree diagonal."""

    lap: np.ndarray
    degrees: np.ndarray
    weights: np.ndarray


def graph_laplacian(g: NeighborGraph) -> GraphLaplacian:
    w = g.weight_matrix()
    deg = w.sum(axis=1)
    lap = np.diag(deg) - w
    return GraphLaplacian(lap=lap, degrees=deg, weights=w)


def isomap(data: np.ndarray, d: int, eps: float | None = None, knn: int | None = None) -> np.ndarray:
    """Geodesic MDS: embed graph shortest-path distances in R^d.

    The neighbor graph must be connected; otherwise geodesics across
    components are undefined and a DisconnectedGraphError explains the
    neighborhood-size tradeoff.
    """
    from .linear_dr import mds_embed

    g = build_graph(data, eps=eps, knn=knn, weight="euclidean")
    if g.component_count != 1:
        raise DisconnectedGraphError(g.components, "isomap")
    geo = shortest_paths(g)
    return mds_embed(geo, d).embeddings


def _nearest_neighbors(dist_row: np.ndarray, i: int, k: int) -> np.ndarray:
    order = np.lexsort((np.arange(dist_row.shape[0]), dist_row))
    return np.asarray([j for j in order if j != i][:k], dtype=int)


def lle_weights(data: np.ndarray, k: int) -> np.ndarray:
    """Reconstruction weights: each point as an affine combination of K neighbors.

    Solves min |x_i - sum_j w_ij x_j|^2 subject to sum_j w_ij = 1 through
    the KKT system of the local Gram matrix. The system is solved by
    least squares with a minimum-norm solution, which handles the singular
    local Gram of K > n0 or degenerate neighborhoods without disturbing
    exact reconstructions; if that still fails to produce finite weights,
    the Gram diagonal is regularized by 1e-3 * trace(C) / K and re-solved.
    Rows are renormalized to sum exactly to 1.
    """
    x = np.asarray(data, dtype=float)
    n = x.shape[0]
    if not 1 <= k < n:
        raise ValueError(f"K must be in [1, {n - 1}], got {k}")
    dist = pairwise_distances(x)
    w = np.zeros((n, n))
    kkt = np.zeros((k + 1, k + 1))
    kkt[k, :k] = 1.0
    kkt[:k, k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    for i in range(n):
        nbrs = _nearest_neighbors(dist[i], i, k)
        z = x[nbrs] - x[i]
        c = z @ z.T
        kkt[:k, :k] = c
        sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        wi = sol[:k]
        total = wi.sum()
        if not np.isfinite(wi).all() or abs(total) < 1e-12:
            reg = max(1e-3 * np.trace(c) / k, 1e-12)
            wi = np.linalg.solve(c + reg * np.eye(k), np.ones(k))
            total = wi.sum()
        w[i, nbrs] = wi / total
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

    Gaussian edge weights exp(-dist^2 / t) on the neighbor graph. Solved
    through the symmetric reduction D^(-1/2) L D^(-1/2); returned columns
    v_j = D^(-1/2) u_j satisfy V^T D V = I_d and V^T D 1 = 0.
    """
    g = build_graph(data, eps=eps, knn=knn, weight="gaussian", t=t)
    if g.component_count != 1:
        raise DisconnectedGraphError(g.components, "laplacian_eigenmaps")
    n = g.n
    if not 1 <= d < n:
        raise ValueError(f"d must be in [1, {n - 1}], got {d}")
    gl = graph_laplacian(g)
    root = np.sqrt(gl.degrees)
    reduced = symmetrize(gl.lap / np.outer(root, root))
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
