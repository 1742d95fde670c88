"""The scalar loops the library replaced, kept here as oracles.

`corpus_stats` counts co-occurrences with one ``np.bincount`` per window
offset, and `jacobi_eigh` rotates the disjoint planes of each round-robin
round in one array update. The double loop over (position, neighbour) and
the row-major cyclic Jacobi they replaced live on below, unchanged, and the
library must agree with them: bit for bit on the counts (integers held in
float64), and to rounding on the eigendecomposition (the rotation order
differs, so the floating-point path does too).
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast.contrastive import CorpusStats, corpus_stats
from kernelcontrast.kernels import FiniteSpace, _finish, _solver_input, jacobi_eigh

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
