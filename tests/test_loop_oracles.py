"""The scalar loops the library replaced, kept here as oracles.

`corpus_stats` counts co-occurrences with one ``np.bincount`` per window
offset, and `jacobi_eigh` rotates the disjoint planes of each round-robin
round in one array update. The double loop over (position, neighbour) and
the row-major cyclic Jacobi they replaced live on below, unchanged, and the
library must agree with them: bit for bit on the counts (integers held in
float64), and to rounding on the eigendecomposition (the rotation order
differs, so the floating-point path does too).

The neighbor graph is two dense arrays, its geodesics are Floyd-Warshall
and its neighbour ranking is one stable ``argsort`` over every row. The
edge list, depth-first components, heap Dijkstra and per-row ``lexsort``
they replaced live on below too. Everything but the geodesics must match
bit for bit; the geodesics sum the same edges in another order, so they
match to rounding, with the same unreachable pairs.
"""

import heapq
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast.contrastive import CorpusStats, corpus_stats
from kernelcontrast.kernels import FiniteSpace, _finish, _solver_input, jacobi_eigh
from kernelcontrast.manifold import (
    build_graph,
    graph_laplacian,
    lle_weights,
    pairwise_distances,
    shortest_paths,
)

# ------------------------------------------------------------ corpus_stats


def _loop_corpus_stats(tokens, window):
    tokens = [str(t) for t in tokens]
    vocab = sorted(set(tokens))
    index = {tok: i for i, tok in enumerate(vocab)}
    ids = [index[t] for t in tokens]
    n = len(vocab)
    counts = np.zeros((n, n))
    t_total = len(ids)
    for t, x in enumerate(ids):
        lo = max(0, t - window)
        hi = min(t_total, t + window + 1)
        for j in range(lo, hi):
            if j != t:
                counts[x, ids[j]] += 1.0
    n_pairs = int(counts.sum())
    unigram = np.bincount(ids, minlength=n).astype(float) / t_total
    row = counts.sum(axis=1)
    pair_marginal = row / n_pairs if n_pairs else row
    return CorpusStats(
        space=FiniteSpace(items=vocab, p=unigram),
        counts=counts,
        window=window,
        n_pairs=n_pairs,
        n_tokens=t_total,
        pair_marginal=pair_marginal,
    )


def _assert_same_stats(got, want):
    for name in ("counts", "pair_marginal"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype == np.float64
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    assert got.space.items == want.space.items
    assert got.space.p.tobytes() == want.space.p.tobytes()
    assert (got.n_pairs, got.n_tokens, got.window) == (want.n_pairs, want.n_tokens, want.window)


@settings(deadline=None, max_examples=150)
@given(
    tokens=st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=60),
    window=st.one_of(st.integers(1, 6), st.integers(60, 64)),
)
def test_corpus_stats_matches_double_loop(tokens, window):
    _assert_same_stats(corpus_stats(tokens, window), _loop_corpus_stats(tokens, window))


@pytest.mark.parametrize(
    "tokens, window",
    [(["a"], 1), (["a", "b"], 5), ("a b a c b a".split(), 6), (list("abcab" * 20), 3)],
)
def test_corpus_stats_edge_cases_match_double_loop(tokens, window):
    _assert_same_stats(corpus_stats(tokens, window), _loop_corpus_stats(tokens, window))


# ------------------------------------------------------------- jacobi_eigh


def _cyclic_jacobi(matrix, tol=1e-12, max_sweeps=60):
    a = _solver_input(matrix).copy()
    n = a.shape[0]
    v = np.eye(n)
    threshold = tol * float(np.linalg.norm(a))

    for sweep in range(max_sweeps + 1):
        off = np.sqrt(2.0 * np.square(np.triu(a, 1)).sum())
        if off <= threshold:
            break
        if sweep == max_sweeps:
            raise RuntimeError("cyclic Jacobi did not converge")
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.hypot(1.0, tau))
                else:
                    t = -1.0 / (-tau + np.hypot(1.0, tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
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


def _assert_matches_cyclic(a):
    got, want = jacobi_eigh(a), _cyclic_jacobi(a)
    scale = max(1.0, float(np.abs(want.eigenvalues).max()))
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=0, atol=1e-13 * scale)
    assert np.all(np.diff(got.eigenvalues) <= 0.0)
    # Inside a cluster the basis is arbitrary; compare spectral projectors of
    # clusters split where the relative gap exceeds 1e-3.
    cuts = np.nonzero(-np.diff(want.eigenvalues) > 1e-3 * scale)[0] + 1
    for idx in np.split(np.arange(a.shape[0]), cuts):
        p_got = got.eigenvectors[:, idx] @ got.eigenvectors[:, idx].T
        p_want = want.eigenvectors[:, idx] @ want.eigenvectors[:, idx].T
        np.testing.assert_allclose(p_got, p_want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 8, 16, 48])
def test_jacobi_matches_cyclic_order(n):
    g = np.random.default_rng(n).standard_normal((n, n))
    _assert_matches_cyclic((g + g.T) / 2.0)


def _graded(n):
    """Diagonal gaps of order one, one large off-diagonal pair, and every
    other off-diagonal entry 1e-200 times its diagonal gap: the rotations
    there have tau near 1e200, whose square overflows."""
    d = np.arange(n, dtype=float) ** 2
    a = 1e-200 * np.abs(d[:, None] - d[None, :])
    a[0, 1] = a[1, 0] = 1.0
    a[np.diag_indices(n)] = d
    return a


def _block_diagonal():
    g = np.random.default_rng(7).standard_normal((3, 3))
    a = np.zeros((7, 7))
    a[:3, :3] = g + g.T
    a[3:5, 3:5] = [[2.0, 1.0], [1.0, 2.0]]
    a[5:, 5:] = np.diag([4.0, -1.0])
    return a


HARD_CASES = {
    "graded-3": _graded(3),
    "graded-6": _graded(6),
    "block-diagonal": _block_diagonal(),
    "diagonal": np.diag([1.0, 5.0, 3.0, -2.0, 0.0]),
    "zero": np.zeros((5, 5)),
}


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_jacobi_hard_cases_match_cyclic_order(name):
    _assert_matches_cyclic(HARD_CASES[name])


@pytest.mark.parametrize("name", sorted(HARD_CASES))
def test_jacobi_hard_cases_emit_no_warning(name):
    """Exact-zero pivots (tau = 0/0 or x/0) and tau near 1e200 (tau^2
    overflows) must pass without a floating-point warning."""
    a = HARD_CASES[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        eig = jacobi_eigh(a)
    np.testing.assert_allclose(eig.reconstruct(), a, rtol=0, atol=1e-13)
    n = a.shape[0]
    np.testing.assert_allclose(eig.eigenvectors.T @ eig.eigenvectors, np.eye(n), atol=1e-14)


# ------------------------------------------------------------ neighbor graph


def _lexsort_neighbors(dist_row, i, k):
    order = np.lexsort((np.arange(dist_row.shape[0]), dist_row))
    return np.asarray([j for j in order if j != i][:k], dtype=int)


def _edge_list(x, eps=None, knn=None, weight="euclidean", t=None):
    n = x.shape[0]
    dist = pairwise_distances(x)
    pairs = set()
    if eps is not None:
        ii, jj = np.nonzero(np.triu(dist <= eps, 1))
        pairs.update(zip(ii.tolist(), jj.tolist()))
    else:
        for i in range(n):
            for j in _lexsort_neighbors(dist[i], i, knn):
                pairs.add((min(i, j), max(i, j)))
    edges = []
    for i, j in sorted(pairs):
        d = float(dist[i, j])
        w = float(np.exp(-(d * d) / t)) if weight == "gaussian" else d
        edges.append((i, j, w))
    return edges


def _dfs_components(n, edges):
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


def _heap_dijkstra(n, edges):
    adj = [[] for _ in range(n)]
    for i, j, w in edges:
        adj[i].append((j, w))
        adj[j].append((i, w))
    out = np.full((n, n), np.inf)
    for src in range(n):
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
    return np.minimum(out, out.T)


def _loop_lle_weights(x, k):
    n = x.shape[0]
    dist = pairwise_distances(x)
    w = np.zeros((n, n))
    kkt = np.zeros((k + 1, k + 1))
    kkt[k, :k] = 1.0
    kkt[:k, k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    for i in range(n):
        nbrs = _lexsort_neighbors(dist[i], i, k)
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


def _points(kind, seed):
    """Seeded point sets: lattice points full of exact distance ties and
    repeated points, continuous clouds with planted duplicates, two far
    clusters, and the two-point minimum."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        return rng.integers(0, 4, size=(int(rng.integers(17, 41)), 2)).astype(float)
    if kind == "duplicates":
        x = rng.standard_normal((int(rng.integers(10, 31)), 3))
        picks = rng.integers(0, x.shape[0], size=4)
        return np.concatenate((x, x[picks]))
    if kind == "clusters":
        x = rng.standard_normal((int(rng.integers(8, 25)), 2))
        x[: x.shape[0] // 3] += 100.0
        return x
    return rng.standard_normal((2, 2))


GRAPH_CASES = [(kind, seed) for kind in ("lattice", "duplicates", "clusters", "pair")
               for seed in range(12)]


def _graph_args(x, seed, weight):
    rng = np.random.default_rng(seed + 1000)
    n = x.shape[0]
    t = float(rng.uniform(0.5, 4.0)) if weight == "gaussian" else None
    if seed % 2:
        return dict(knn=int(rng.integers(1, min(n - 1, 6) + 1)), weight=weight, t=t)
    dist = pairwise_distances(x)
    eps = float(np.quantile(dist[dist > 0], rng.uniform(0.05, 0.4)))
    return dict(eps=eps, weight=weight, t=t)


@pytest.mark.parametrize("weight", ["euclidean", "gaussian"])
@pytest.mark.parametrize("kind, seed", GRAPH_CASES)
def test_graph_matches_edge_list(kind, seed, weight):
    x = _points(kind, seed)
    n = x.shape[0]
    args = _graph_args(x, seed, weight)
    g = build_graph(x, **args)
    edges = _edge_list(x, **args)

    adjacency = np.zeros((n, n), dtype=bool)
    weights = np.zeros((n, n))
    for i, j, w in edges:
        adjacency[i, j] = adjacency[j, i] = True
        weights[i, j] = weights[j, i] = w
    assert g.adjacency.dtype == bool
    np.testing.assert_array_equal(g.adjacency, adjacency)
    assert g.weights.tobytes() == weights.tobytes()
    assert g.components == _dfs_components(n, edges)

    lap = graph_laplacian(g)
    deg = weights.sum(axis=1)
    assert lap.degrees.tobytes() == deg.tobytes()
    assert lap.lap.tobytes() == (np.diag(deg) - weights).tobytes()

    geo = shortest_paths(g).values
    want = _heap_dijkstra(n, edges)
    np.testing.assert_array_equal(geo, geo.T)
    np.testing.assert_array_equal(np.isinf(geo), np.isinf(want))
    finite = np.isfinite(want)
    assert np.all(np.abs(geo[finite] - want[finite]) <= 1e-15 * want[finite])


def test_graph_cases_cover_zero_weight_edges_and_disconnection():
    """The grid above reaches the cases the oracle comparison exists for."""
    zero_edges = disconnected = 0
    for kind, seed in GRAPH_CASES:
        x = _points(kind, seed)
        g = build_graph(x, **_graph_args(x, seed, "euclidean"))
        zero_edges += bool(np.any(g.adjacency & (g.weights == 0.0)))
        disconnected += len(g.components) > 1
    assert zero_edges >= 10 and disconnected >= 10


@pytest.mark.parametrize("kind, seed", [c for c in GRAPH_CASES if c[0] != "pair"])
def test_lle_weights_match_lexsort_loop(kind, seed):
    x = _points(kind, seed)
    k = int(np.random.default_rng(seed).integers(1, 7))
    assert lle_weights(x, k).tobytes() == _loop_lle_weights(x, k).tobytes()
