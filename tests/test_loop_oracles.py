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

Every contrastive trainer runs on one core: `_fit_tables` packs the tables
and makes the one `minimize` call, `_logistic_loss_grad` is the weighted
logistic loss and `_shift` the activation offset. The per-trainer bodies
and the two loss functions that each wrote those out for themselves live
on below, and the library must agree with them bit for bit: the tables and
each fit's path (x, trace, iterations, evaluations, stop reason). The
weighted logistic loss computes both softplus terms and the sigmoid from one
softplus(-|z|) and one exp(-|z|), and must equal the separate `softplus` and
`sigmoid` calls of the loop bodies bit for bit on every logit, the edge
cases included. `train_sgns` trains count-preconditioned tables, and its
loop body below takes the same change of variables. The linear probe is a
closed-form least-squares fit; its normal equations, summed item by item,
are its oracle.

Every symmetric table is a plain ndarray that `as_sym_array` checked and
mirrored. The `SymMatrix` wrapper whose constructor did that lives on
below, and `as_sym_array` must agree with it bit for bit and raise on the
same inputs with the same message, with one tightening: the wrapper checked
only where non-finite entries sat, so it let -inf mirror to +inf and inf to
nan. `as_sym_array` rejects every non-finite entry that differs from its
mirror, unless both are nan.
"""

import heapq
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast.contrastive import (
    CorpusStats,
    ProbeTask,
    _negative_distribution,
    corpus_stats,
    linear_probe_error,
    nce_loss_grad,
    pair_process,
    sgns_loss_grad,
    simclr_loss_grad,
    spectral_loss_grad,
    train_infonce,
    train_nce,
    train_sgns,
    train_spectral,
)
from kernelcontrast.encoders import (
    EmbeddingTable,
    OptimizerConfig,
    minimize,
    sigmoid,
    softplus,
)
from kernelcontrast.fileio import load_sym_csv, save_sym_csv
from kernelcontrast.kernels import (
    SYM_TOL,
    FiniteSpace,
    _finish,
    _solver_input,
    as_sym_array,
    gaussian_kernel,
    gram,
    jacobi_eigh,
)
from kernelcontrast.linear_dr import double_center
from kernelcontrast.manifold import (
    build_graph,
    lle_weights,
    pairwise_distances,
    shortest_paths,
)
from kernelcontrast.rng import Stream

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
    v = eig.eigenvectors
    np.testing.assert_allclose((v * eig.eigenvalues) @ v.T, a, rtol=0, atol=1e-13)
    np.testing.assert_allclose(v.T @ v, np.eye(a.shape[0]), atol=1e-14)


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
        trace = np.trace(c)
        kkt[:k, :k] = c / trace if trace > 0 else c
        wi = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:k]
        w[i, nbrs] = wi / wi.sum()
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

    geo = shortest_paths(g)
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


# ------------------------------------------------------ contrastive trainers


def _loop_nce_loss_grad(scores, labels, k):
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    u = s - np.log(k)
    per_sample = y * softplus(-u) + (1.0 - y) * softplus(u)
    m = s.shape[0]
    grad = (sigmoid(u) - y) / m
    return float(per_sample.mean()), grad


def _loop_sgns_loss_grad(phi_rows, psi_rows, stats, k, activation="sigmoid", neg_exponent=1.0):
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    q = _negative_distribution(stats, neg_exponent)
    w_pos = stats.counts
    w_neg = k * np.outer(stats.counts.sum(axis=1), q)
    z = phi_rows @ psi_rows.T
    if activation == "k_sigmoid":
        z = z - np.log(k)
    elif activation != "sigmoid":
        raise ValueError(f"unknown activation {activation!r}")
    loss = float((w_pos * softplus(-z) + w_neg * softplus(z)).sum())
    dz = (w_pos + w_neg) * sigmoid(z) - w_pos
    return loss, dz @ psi_rows, dz.T @ phi_rows


def _loop_train_nce(pos, neg, k, activation, cfg):
    pos = np.asarray(pos, dtype=float)
    neg = np.asarray(neg, dtype=float)
    if activation == "k_sigmoid":
        shift = np.log(k) if k > 0 else None
        if shift is None:
            raise ValueError(f"k must be positive, got {k!r}")
    elif activation == "sigmoid":
        shift = 0.0
    else:
        raise ValueError(f"unknown activation {activation!r}")
    total = pos.sum() + neg.sum()

    def objective(theta):
        u = theta - shift
        loss = (pos * softplus(-u) + neg * softplus(u)).sum() / total
        grad = ((pos + neg) * sigmoid(u) - pos) / total
        return loss, grad

    theta0 = Stream(cfg.seed).uniform(pos.shape[0], -0.1, 0.1)
    return minimize(objective, theta0, cfg)


def _loop_train_sgns(stats, d, k, cfg, activation, neg_exponent):
    n = stats.space.n
    phi0 = EmbeddingTable.random(n, d, cfg.seed)
    psi0 = EmbeddingTable.random(n, d, cfg.seed + 1)
    split = n * d
    q = _negative_distribution(stats, neg_exponent)
    curvature = (stats.counts + k * np.outer(stats.counts.sum(axis=1), q)) / 4.0
    row = 1.0 / np.sqrt(curvature.sum(axis=1))[:, None]
    col = 1.0 / np.sqrt(curvature.sum(axis=0))[:, None]

    def objective(flat):
        phi_rows = flat[:split].reshape(n, d) * row
        psi_rows = flat[split:].reshape(n, d) * col
        loss, dphi, dpsi = _loop_sgns_loss_grad(
            phi_rows, psi_rows, stats, k, activation, neg_exponent
        )
        return loss, np.concatenate(((dphi * row).reshape(-1), (dpsi * col).reshape(-1)))

    u0, v0 = phi0.rows / row, psi0.rows / col
    fit = minimize(objective, np.concatenate((u0.reshape(-1), v0.reshape(-1))), cfg)
    return (
        EmbeddingTable(fit.x[:split].reshape(n, d) * row, fits=(fit,)),
        EmbeddingTable(fit.x[split:].reshape(n, d) * col, fits=(fit,)),
    )


def _loop_train_infonce(process, d, tau, b, cfg, mode):
    n = process.n
    if mode == "untied":
        f0 = EmbeddingTable.random(n, d, cfg.seed)
        g0 = EmbeddingTable.random(n, d, cfg.seed + 1)
        split = n * d

        def objective(flat):
            f_rows = flat[:split].reshape(n, d)
            g_rows = flat[split:].reshape(n, d)
            s = f_rows @ g_rows.T / tau
            loss, ds = simclr_loss_grad(s, process, b)
            return loss, np.concatenate(
                ((ds @ g_rows / tau).reshape(-1), (ds.T @ f_rows / tau).reshape(-1))
            )

        fit = minimize(objective, np.concatenate((f0.rows.reshape(-1), g0.rows.reshape(-1))), cfg)
        return (
            EmbeddingTable(fit.x[:split].reshape(n, d), fits=(fit,)),
            EmbeddingTable(fit.x[split:].reshape(n, d), fits=(fit,)),
        )
    phi0 = EmbeddingTable.random(n, d, cfg.seed)

    def objective(flat):
        rows = flat.reshape(n, d)
        norms = np.linalg.norm(rows, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("cosine score undefined: an embedding row is zero")
        unit = rows / norms[:, None]
        s = unit @ unit.T / tau
        loss, ds = simclr_loss_grad(s, process, b)
        du = (ds + ds.T) @ unit / tau
        dr = (du - unit * (du * unit).sum(axis=1, keepdims=True)) / norms[:, None]
        return loss, dr.reshape(-1)

    fit = minimize(objective, phi0.rows.reshape(-1).copy(), cfg)
    return (EmbeddingTable(fit.x.reshape(n, d), fits=(fit,)),)


def _loop_train_spectral(process, d, cfg):
    n = process.n
    phi0 = EmbeddingTable.random(n, d, cfg.seed)

    def objective(flat):
        loss, grad = spectral_loss_grad(flat.reshape(n, d), process)
        return loss, grad.reshape(-1)

    fit = minimize(objective, phi0.rows.reshape(-1).copy(), cfg)
    return (EmbeddingTable(fit.x.reshape(n, d), fits=(fit,)),)


def _loop_linear_probe_error(phi, task, p):
    """The least-squares probe from its normal equations, summed item by
    item, with a per-item argmax (the first of tied classes wins)."""
    n, d = phi.rows.shape
    c = task.n_classes
    gram, cross = np.zeros((d, d)), np.zeros((d, c))
    for i in range(n):
        gram += p[i] * np.outer(phi.rows[i], phi.rows[i])
        cross[:, task.labels[i]] += p[i] * phi.rows[i]
    w = np.linalg.solve(gram, cross)
    error = 0.0
    for i in range(n):
        scores = phi.rows[i] @ w
        best = 0
        for j in range(1, c):
            if scores[j] > scores[best]:
                best = j
        if best != task.labels[i]:
            error += p[i]
    return error


def _assert_same_fit(got, want):
    for name in ("x", "trace"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name
    for name in ("iterations", "evaluations", "grad_norm", "stop_reason"):
        assert getattr(got, name) == getattr(want, name), name


def _assert_same_tables(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.rows.shape == w.rows.shape and g.rows.tobytes() == w.rows.tobytes()
        assert len(g.fits) == len(w.fits) == 1
        _assert_same_fit(g.fits[0], w.fits[0])


_CORPUS = corpus_stats("a a b a c a b b c b c c a c b d a d c".split(), window=2)


def _process(n=5):
    p = np.arange(1.0, n + 1.0)
    augment = 0.5 * np.eye(n) + 0.5 / n + 0.1 * np.eye(n)[::-1]
    augment /= augment.sum(axis=1, keepdims=True)
    return pair_process(FiniteSpace(items=list("abcdefgh"[:n]), p=p / p.sum()), augment)


def test_nce_loss_grad_matches_parent():
    stream = Stream(21)
    scores = stream.uniform(40, -4.0, 4.0)
    labels = (stream.uniform(40) < 0.3).astype(float)
    for k in (0.5, 1.0, 3.0):
        loss, grad = nce_loss_grad(scores, labels, k)
        want_loss, want_grad = _loop_nce_loss_grad(scores, labels, k)
        assert loss == want_loss and grad.tobytes() == want_grad.tobytes(), k


@pytest.mark.parametrize("neg_exponent", [1.0, 0.75])
@pytest.mark.parametrize("activation", ["sigmoid", "k_sigmoid"])
def test_sgns_loss_grad_matches_parent(activation, neg_exponent):
    n = _CORPUS.space.n
    stream = Stream(22)
    phi = stream.uniform(n * 3, -2.0, 2.0).reshape(n, 3)
    psi = stream.uniform(n * 3, -2.0, 2.0).reshape(n, 3)
    got = sgns_loss_grad(phi, psi, _CORPUS, 3.0, activation, neg_exponent)
    want = _loop_sgns_loss_grad(phi, psi, _CORPUS, 3.0, activation, neg_exponent)
    assert got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.tobytes() == w.tobytes()


# Logits where the fused kernel's shared softplus(-|z|) and exp(-|z|) meet
# their edge cases: signed zeros, infinities, a tiny |z| (1e-300), exp
# overflow (710) and underflow (745.2), and 36.7, near where 1 + e^-|z|
# rounds to 1.
_EDGE_LOGITS = np.array([0.0, np.inf, 1e-300, 710.0, 745.2, 36.7])
_EDGE_LOGITS = np.concatenate((_EDGE_LOGITS, -_EDGE_LOGITS))


def _same_bits(call, oracle):
    """Run both; they must return the same bits and warn alike."""
    outcomes = []
    for fn in (call, oracle):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = fn()
        outcomes.append((out, sorted(str(w.message) for w in caught)))
    (got, got_warned), (want, want_warned) = outcomes
    assert got_warned == want_warned
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(w).tobytes()


def _scaled_logits(stream, size):
    """Logits at magnitudes from 1e-3 to 800, both signs."""
    for scale in (1e-3, 1e-1, 1.0, 10.0, 36.0, 100.0, 800.0):
        yield scale * stream.uniform(size, -1.0, 1.0)


def test_nce_loss_grad_matches_parent_bit_for_bit_at_the_edges():
    stream = Stream(23)
    labels = np.tile([1.0, 0.0], _EDGE_LOGITS.shape[0])
    scores = np.repeat(_EDGE_LOGITS, 2)  # each edge logit under both labels
    batches = [scores, *_scaled_logits(stream, 40)]
    for s in batches:
        y = labels if s is scores else (stream.uniform(s.shape[0]) < 0.3).astype(float)
        for k in (0.5, 1.0, 3.0):
            _same_bits(lambda: nce_loss_grad(s, y, k), lambda: _loop_nce_loss_grad(s, y, k))


@pytest.mark.parametrize("activation", ["sigmoid", "k_sigmoid"])
def test_sgns_loss_grad_matches_parent_bit_for_bit_at_the_edges(activation):
    n = _CORPUS.space.n
    stream = Stream(24)
    # z = phi psi' with one column: each edge logit meets factors +-1, 1/2, 2
    psi = np.array([[1.0], [-1.0], [0.5], [2.0]])
    tables = [(chunk[:, None], psi) for chunk in _EDGE_LOGITS.reshape(-1, n)]
    tables += [(z.reshape(n, 1), stream.uniform(n, -1.0, 1.0).reshape(n, 1))
               for z in _scaled_logits(stream, n)]
    for phi, psi_rows in tables:
        for k in (0.5, 1.0, 3.0):
            _same_bits(
                lambda: sgns_loss_grad(phi, psi_rows, _CORPUS, k, activation),
                lambda: _loop_sgns_loss_grad(phi, psi_rows, _CORPUS, k, activation),
            )


_CFG = OptimizerConfig(seed=5, tol=1e-9, max_iter=3000)


@pytest.mark.parametrize("neg_exponent", [1.0, 0.75])
@pytest.mark.parametrize("activation", ["sigmoid", "k_sigmoid"])
def test_train_sgns_matches_parent(activation, neg_exponent):
    args = (_CORPUS, 3, 2.0)
    got = train_sgns(*args, config=_CFG, activation=activation, neg_exponent=neg_exponent)
    _assert_same_tables(got, _loop_train_sgns(*args, _CFG, activation, neg_exponent))


@pytest.mark.parametrize("activation", ["sigmoid", "k_sigmoid"])
def test_train_nce_matches_parent(activation):
    pos, neg = np.array([6.0, 2.0, 4.0, 1.0]), np.array([4.0, 12.0, 8.0, 3.0])
    got = train_nce(pos, neg, 2.0, activation=activation, config=_CFG)
    _assert_same_fit(got, _loop_train_nce(pos, neg, 2.0, activation, _CFG))


@pytest.mark.parametrize("mode, b", [("untied", 2), ("untied", 3), ("tied", 2)])
def test_train_infonce_matches_parent(mode, b):
    process = _process(4)
    cfg = OptimizerConfig(seed=5, tol=1e-8, max_iter=400)
    got = train_infonce(process, 3, tau=0.7, b=b, config=cfg, mode=mode)
    got = got if mode == "untied" else (got,)
    _assert_same_tables(got, _loop_train_infonce(process, 3, 0.7, b, cfg, mode))


@pytest.mark.parametrize("d", [1, 3])
def test_train_spectral_matches_parent(d):
    process = _process()
    got = train_spectral(process, d, config=_CFG)
    _assert_same_tables((got,), _loop_train_spectral(process, d, _CFG))


@pytest.mark.parametrize("seed, n, d, c", [(23, 6, 2, 3), (24, 12, 3, 3), (25, 10, 4, 2)])
def test_linear_probe_error_matches_normal_equations(seed, n, d, c):
    """On random full-column-rank features the minimum-norm least-squares
    probe is the normal-equations solution, so both predict the same items."""
    stream = Stream(seed)
    phi = EmbeddingTable(stream.normal(n * d).reshape(n, d))
    assert np.linalg.matrix_rank(phi.rows) == d
    task = ProbeTask(labels=np.arange(n) % c, n_classes=c)
    p = stream.uniform(n, 0.5, 1.5)
    p /= p.sum()
    want = _loop_linear_probe_error(phi, task, p)
    assert 0.0 < want < 1.0
    assert linear_probe_error(phi, task, p) == pytest.approx(want, rel=1e-12, abs=0)


# ------------------------------------------------------- symmetric matrices


class _SymMatrix:
    """The wrapper `as_sym_array` replaced; its constructor, unchanged."""

    def __init__(self, values: np.ndarray):
        a = np.asarray(values, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        finite = np.isfinite(a)
        if not finite.all():
            bad = a[finite != finite.T]
            if bad.size:
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
        upper = np.triu(a)
        self.values = upper + np.triu(a, 1).T
        self.n = a.shape[0]


def _outcome(gate, a):
    """What a gate makes of a: the bytes of its result, or its error message."""
    try:
        out = gate(np.array(a, dtype=float))
    except ValueError as exc:
        return "raises", str(exc)
    return type(out), out.shape, out.tobytes()


def _mismatched_non_finite(a):
    """Whether some non-finite entry differs from its mirror, other than nan
    against nan."""
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    for i in range(a.shape[0]):
        for j in range(a.shape[0]):
            x, y = float(a[i, j]), float(a[j, i])
            if math.isfinite(x) and math.isfinite(y):
                continue
            if not (x == y or (math.isnan(x) and math.isnan(y))):
                return True
    return False


def _assert_same_gate(a):
    got = _outcome(as_sym_array, a)
    if _mismatched_non_finite(a):
        assert got == ("raises", "non-finite entries placed asymmetrically")
        return got[0]
    assert got == _outcome(lambda x: _SymMatrix(x).values, a)
    return got[0]


def _off_by(factor):
    """[[1, 1], [1 + factor * SYM_TOL, 1]]: asymmetric by factor times the tolerance."""
    return [[1.0, 1.0], [1.0 + factor * SYM_TOL, 1.0]]


_GATE_CASES = {
    "negative-zeros": ([[-0.0, -0.0], [-0.0, 2.0]], True),
    "symmetric-inf": ([[0.0, np.inf], [np.inf, -np.inf]], True),
    "asymmetric-inf": ([[0.0, np.inf], [1.0, 0.0]], False),
    # the wrapper accepted both: -inf mirrored to +inf, inf to nan
    "opposite-infs": ([[0.0, np.inf], [-np.inf, 0.0]], False),
    "inf-vs-nan": ([[0.0, np.nan], [np.inf, 0.0]], False),
    "all-non-finite": ([[np.nan, np.inf], [np.inf, np.nan]], True),
    "just-inside-tol": (_off_by(0.99), True),
    "just-past-tol": (_off_by(1.01), False),
    "non-square": (np.zeros((2, 3)), False),
    "vector": (np.zeros(3), False),
    "empty": (np.zeros((0, 0)), False),
}


@pytest.mark.parametrize("name", sorted(_GATE_CASES))
def test_as_sym_array_matches_symmatrix_on_edge_cases(name):
    a, accepted = _GATE_CASES[name]
    assert (_assert_same_gate(a) is np.ndarray) == accepted


_ENTRIES = st.one_of(
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
)


@st.composite
def _near_symmetric(draw):
    """A bit-symmetric matrix with signed zeros and non-finite entries, then
    one off-diagonal pair pulled apart by a multiple of the tolerance, made
    non-finite on one side only, or given zeros of either sign."""
    n = draw(st.integers(min_value=1, max_value=5))
    a = np.array(draw(st.lists(_ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    a = np.where(np.tri(n, k=-1, dtype=bool), a.T, a)
    if n == 1:
        return a
    i, j = draw(st.permutations(range(n)))[:2]
    kind = draw(st.sampled_from(["none", "tol", "inf", "zeros"]))
    if kind == "tol":
        finite = a[np.isfinite(a)]
        scale = max(1.0, float(np.abs(finite).max())) if finite.size else 1.0
        factor = draw(st.sampled_from([0.5, 1.0 - 1e-6, 1.0 + 1e-6, 2.0]))
        a[i, j] = a[j, i] + factor * SYM_TOL * scale
    elif kind == "inf":
        a[i, j] = draw(st.sampled_from([np.inf, -np.inf]))
    elif kind == "zeros":
        a[i, j], a[j, i] = draw(st.sampled_from([(-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)]))
    return a


@settings(deadline=None, max_examples=300)
@given(_near_symmetric())
def test_as_sym_array_matches_symmatrix(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_gate(a)


def test_symmetric_tables_are_bit_symmetric_arrays(tmp_path):
    pts = Stream(31).uniform(16, 0.0, 3.0).reshape(8, 2)
    path = str(tmp_path / "k.csv")
    save_sym_csv(path, gram(gaussian_kernel(0.5), pts))
    process = _process()
    tables = {
        "gram": gram(gaussian_kernel(1.0), pts),
        "shortest_paths": shortest_paths(build_graph(pts, knn=2)),
        "double_center": double_center(np.square(pairwise_distances(pts))),
        "load_sym_csv": load_sym_csv(path),
        "k_plus": process.k_plus,
        "abar": process.abar,
    }
    for name, table in tables.items():
        assert type(table) is np.ndarray, name
        assert table.tobytes() == table.T.tobytes(), name
