import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast.contrastive import (
    EnumerationBudgetError,
    ProbeTask,
    bilinear_scores,
    corpus_stats,
    cosine_scores,
    dirichlet_conductance,
    infonce_tv_gap,
    linear_probe_error,
    nce_loss_grad,
    pair_process,
    row_normalized,
    sgns_loss_grad,
    shifted_pmi_matrix,
    simclr_loss_grad,
    simclr_loss_mc,
    sparsest_partition,
    spectral_loss_grad,
    train_infonce,
    train_nce,
    train_sgns,
    train_spectral,
)
from kernelcontrast.encoders import EmbeddingTable, OptimizerConfig, grad_check
from kernelcontrast.kernels import FiniteSpace, is_psd
from kernelcontrast.linear_dr import low_rank_factor
from kernelcontrast.rng import Stream


def _toy_process(n=3, seed=0, stay=0.7):
    """Full-support process: lazy uniform augmentation over n items."""
    p = np.arange(1.0, n + 1.0)
    p /= p.sum()
    a = np.full((n, n), (1.0 - stay) / n) + stay * np.eye(n)
    a /= a.sum(axis=1, keepdims=True)
    return pair_process(FiniteSpace([f"x{i}" for i in range(n)], p), a)


# ------------------------------------------------------------- corpus counts


def test_corpus_stats_hand_counts():
    """'a b a' with window 1, counted on paper.

    Position 0 sees b; position 1 sees a twice; position 2 sees b. The
    boundary truncation makes the pair marginal (1/2, 1/2) differ from
    the unigram (2/3, 1/3).
    """
    stats = corpus_stats("a b a".split(), window=1)
    assert stats.space.items == ["a", "b"]
    np.testing.assert_array_equal(stats.counts, [[0.0, 2.0], [2.0, 0.0]])
    assert stats.n_pairs == 4
    assert stats.n_tokens == 3
    np.testing.assert_allclose(stats.space.p, [2.0 / 3.0, 1.0 / 3.0])
    np.testing.assert_allclose(stats.pair_marginal, [0.5, 0.5])


def test_corpus_stats_window_two():
    stats = corpus_stats(["a", "b", "c"], window=2)
    np.testing.assert_array_equal(
        stats.counts, [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    )
    assert stats.n_pairs == 6


def test_corpus_stats_validation():
    with pytest.raises(ValueError, match="empty"):
        corpus_stats([], window=1)
    with pytest.raises(ValueError, match="window"):
        corpus_stats(["a"], window=0)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(st.sampled_from("abcd"), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=4),
)
def test_corpus_counts_are_symmetric(tokens, window):
    """A symmetric window counts (x, z) exactly as often as (z, x)."""
    stats = corpus_stats(tokens, window)
    np.testing.assert_array_equal(stats.counts, stats.counts.T)
    assert stats.counts.sum() == stats.n_pairs
    if stats.n_pairs:
        assert stats.pair_marginal.sum() == pytest.approx(1.0)


def test_shifted_pmi_hand_value():
    # 'a b a b', window 1: every adjacent pair is heterogeneous, so the
    # joint piles all mass off-diagonal and PMI(a, b) = log 2
    stats = corpus_stats("a b a b".split(), window=1)
    pmi = shifted_pmi_matrix(stats, k=1.0)
    assert pmi[0, 1] == pytest.approx(np.log(2.0))
    assert np.isnan(pmi[0, 0]) and np.isnan(pmi[1, 1])
    shifted = shifted_pmi_matrix(stats, k=2.0)
    assert shifted[0, 1] == pytest.approx(0.0)


def test_shifted_pmi_validation():
    stats = corpus_stats("a b".split(), window=1)
    with pytest.raises(ValueError):
        shifted_pmi_matrix(stats, k=0.0)


# ------------------------------------------------------------------- NCE


def test_nce_loss_hand_value_and_grad():
    loss, grad = nce_loss_grad([0.0, 0.0], [1, 0], k=1.0)
    assert loss == pytest.approx(np.log(2.0))
    np.testing.assert_allclose(grad, [-0.25, 0.25], atol=1e-15)


def test_nce_loss_grad_finite_difference():
    scores = Stream(1).normal(12)
    labels = (Stream(2).uniform(12) > 0.4).astype(float)

    def fun(s):
        return nce_loss_grad(s, labels, k=3.0)

    assert grad_check(fun, scores) < 1e-7


def test_nce_loss_validation():
    with pytest.raises(ValueError):
        nce_loss_grad([0.0], [1], k=-1.0)
    with pytest.raises(ValueError):
        nce_loss_grad([0.0, 1.0], [1], k=1.0)
    with pytest.raises(ValueError):
        nce_loss_grad([0.0], [2], k=1.0)


def test_train_nce_recovers_log_count_ratio():
    """The classifier optimum in closed form.

    Minimizing pos * softplus(-u) + neg * softplus(u) per item forces
    sigmoid(u) = pos / (pos + neg), i.e. u = log(pos / neg). The reported
    score is u plus the activation shift.
    """
    pos = np.array([6.0, 2.0, 4.0])
    neg = np.array([4.0, 12.0, 8.0])
    ratio = np.log(pos / neg)
    theta = train_nce(pos, neg, k=2.0, activation="k_sigmoid").x
    np.testing.assert_allclose(theta, ratio + np.log(2.0), atol=1e-6)
    theta = train_nce(pos, neg, k=2.0, activation="sigmoid").x
    np.testing.assert_allclose(theta, ratio, atol=1e-6)


def test_train_nce_validation():
    with pytest.raises(ValueError):
        train_nce([1.0, 0.0], [0.0, 0.0], k=1.0)
    with pytest.raises(ValueError):
        train_nce([1.0], [1.0], k=1.0, activation="relu")


@pytest.mark.parametrize("activation", ["sigmoid", "k_sigmoid"])
def test_train_nce_rejects_nonpositive_k_under_either_activation(activation):
    """k is the noise-to-data ratio whichever activation reads it."""
    with pytest.raises(ValueError, match="k must be positive"):
        train_nce([1.0], [1.0], k=0.0, activation=activation)


# ------------------------------------------------------------------ SGNS


def test_sgns_zero_tables_loss():
    """All-zero embeddings score 0 everywhere: loss is N (1 + k) log 2."""
    stats = corpus_stats("a b a c b a".split(), window=1)
    k = 3.0
    loss, _, _ = sgns_loss_grad(np.zeros((3, 2)), np.zeros((3, 2)), stats, k=k)
    assert loss == pytest.approx(stats.n_pairs * (1.0 + k) * np.log(2.0))


def test_sgns_loss_grad_finite_difference():
    stats = corpus_stats("a b a c b a b c".split(), window=2)
    n, d = 3, 2

    def fun(flat):
        phi = flat[: n * d].reshape(n, d)
        psi = flat[n * d :].reshape(n, d)
        loss, dphi, dpsi = sgns_loss_grad(phi, psi, stats, k=2.0)
        return loss, np.concatenate((dphi.reshape(-1), dpsi.reshape(-1)))

    x0 = Stream(3).uniform(2 * n * d, -0.5, 0.5)
    assert grad_check(fun, x0) < 1e-6


def test_sgns_k_sigmoid_is_a_score_shift():
    stats = corpus_stats("a b a b".split(), window=1)
    phi = EmbeddingTable(Stream(0).normal(4).reshape(2, 2))
    psi = EmbeddingTable(Stream(1).normal(4).reshape(2, 2))
    k = 4.0
    shifted_direct = sgns_loss_grad(phi.rows, psi.rows, stats, k=k, activation="k_sigmoid")[0]
    # same loss as plain sigmoid with log k subtracted from every score:
    # verified by shifting psi along a direction that adds -log k... the
    # cleanest equivalent is scoring phi psi' - log k by hand
    from kernelcontrast.encoders import softplus

    z = phi.rows @ psi.rows.T - np.log(k)
    q = stats.pair_marginal
    w_neg = k * np.outer(stats.counts.sum(axis=1), q)
    by_hand = float((stats.counts * softplus(-z) + w_neg * softplus(z)).sum())
    assert shifted_direct == pytest.approx(by_hand, rel=1e-12)


def test_train_sgns_factorizes_shifted_pmi():
    """Full-rank factorization identity on a corpus with full pair support.

    d >= |V| and every pair count positive, so the trained score table
    must match PMI - log k entrywise.
    """
    corpus = "a a b a c a b b c b c c a c b".split()
    stats = corpus_stats(corpus, window=1)
    assert np.all(stats.counts > 0)
    k = 1.0
    cfg = OptimizerConfig(tol=1e-10, max_iter=30000)
    phi, psi = train_sgns(stats, d=3, k=k, config=cfg)
    scores = phi.rows @ psi.rows.T
    target = shifted_pmi_matrix(stats, k=k)
    assert np.abs(scores - target).max() < 1e-3


def test_sgns_negative_exponent_reweights():
    stats = corpus_stats("a a a b a b c a".split(), window=1)
    phi = EmbeddingTable(Stream(5).normal(6).reshape(3, 2))
    psi = EmbeddingTable(Stream(6).normal(6).reshape(3, 2))
    plain = sgns_loss_grad(phi.rows, psi.rows, stats, k=1.0, neg_exponent=1.0)[0]
    smoothed = sgns_loss_grad(phi.rows, psi.rows, stats, k=1.0, neg_exponent=0.75)[0]
    assert plain != smoothed


# ----------------------------------------------------------- pair processes


def test_pair_process_identities_toy():
    proc = _toy_process(n=4, stay=0.6)
    # joint is symmetric, sums to one, marginal matches row sums
    np.testing.assert_array_equal(proc.p_plus, proc.p_plus.T)
    assert proc.p_plus.sum() == pytest.approx(1.0)
    np.testing.assert_allclose(proc.p_plus.sum(axis=1), proc.marginal, atol=1e-12)
    # both derived tables are PSD by construction
    assert is_psd(proc.k_plus)
    assert is_psd(proc.abar)


def test_pair_process_marginal_shift_flag():
    n = 3
    space = FiniteSpace(["a", "b", "c"], np.full(n, 1.0 / n))
    doubly = np.full((n, n), 0.2) + 0.4 * np.eye(n)
    np.testing.assert_allclose(pair_process(space, doubly).marginal, space.p,
                               rtol=0, atol=1e-12)
    skewed = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    skewed = 0.5 * skewed + 0.5 / 3.0
    proc = pair_process(space, skewed)
    assert np.abs(proc.marginal - space.p).max() > 1e-12


def test_pair_process_k_plus_hand_values():
    """K_plus = p_plus / (marginal x marginal), worked by hand on two items.

    Staying with probability 0.8 gives p_plus = [[0.34, 0.16], [0.16, 0.34]]
    over the uniform marginal; an augmentation that ignores its input makes
    the two views independent, so every ratio is 1.
    """
    space = FiniteSpace(["a", "b"], np.array([0.5, 0.5]))
    stay = pair_process(space, np.array([[0.8, 0.2], [0.2, 0.8]]))
    np.testing.assert_allclose(stay.k_plus, [[1.36, 0.64], [0.64, 1.36]], rtol=0, atol=1e-15)
    independent = pair_process(space, np.array([[0.3, 0.7], [0.3, 0.7]]))
    np.testing.assert_allclose(independent.k_plus, np.ones((2, 2)), rtol=0, atol=1e-15)


@st.composite
def _random_pair_process(draw):
    """A positive source and a random stochastic augmentation over 1-6 items.

    Off-diagonal augmentation entries may be exactly 0; a positive
    diagonal keeps every item reachable.
    """
    n = draw(st.integers(min_value=1, max_value=6))
    source = st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    entries = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=n * n, max_size=n * n)
    p = np.asarray(draw(source))
    raw = np.asarray(draw(entries)).reshape(n, n)
    a = raw + 0.1 * np.eye(n)
    space = FiniteSpace([f"x{i}" for i in range(n)], p / p.sum())
    return pair_process(space, a / a.sum(axis=1, keepdims=True))


@settings(deadline=None, max_examples=60)
@given(_random_pair_process())
def test_pair_process_identities(proc):
    """Symmetric joint, marginals as its row sums, PSD k_plus and abar."""
    np.testing.assert_array_equal(proc.p_plus, proc.p_plus.T)
    np.testing.assert_allclose(proc.p_plus.sum(axis=1), proc.marginal, rtol=0, atol=1e-12)
    assert is_psd(proc.k_plus)
    assert is_psd(proc.abar)


def test_pair_process_validation():
    space = FiniteSpace(["a", "b"], np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match="sums to"):
        pair_process(space, np.array([[0.9, 0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="never produced"):
        pair_process(space, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        pair_process(space, np.array([[1.5, -0.5], [0.5, 0.5]]))


# ------------------------------------------------------- InfoNCE and SimCLR


def test_constant_scores_give_log_batch_size():
    """Uninformative scores cannot beat chance: loss is log(2B - 1) exactly."""
    proc = _toy_process(n=4)
    for b in (2, 3):
        loss, _ = simclr_loss_grad(np.zeros((4, 4)), proc, b)
        assert loss == pytest.approx(np.log(2 * b - 1), abs=1e-12)
    const, _ = simclr_loss_grad(np.full((4, 4), 7.3), proc, 2)
    assert const == pytest.approx(np.log(3.0), abs=1e-12)


def test_simclr_loss_grad_finite_difference():
    proc = _toy_process(n=3)

    def fun(flat):
        loss, grad = simclr_loss_grad(flat.reshape(3, 3), proc, b=2)
        return loss, grad.reshape(-1)

    x0 = Stream(7).normal(9)
    assert grad_check(fun, x0) < 1e-6


def test_simclr_loss_extreme_scores_stay_finite():
    proc = _toy_process(n=3)
    s = np.array([[200.0, -200.0, 0.0], [-200.0, 200.0, 0.0], [0.0, 0.0, 200.0]])
    loss, grad = simclr_loss_grad(s, proc, b=2)
    assert np.isfinite(loss)
    assert np.isfinite(grad).all()


def test_simclr_enumeration_budget():
    # 60 items at B = 2 needs 60^2 * C(61, 2) = 6.6e6 multiset terms, over
    # the 2e6 budget
    n = 60
    space = FiniteSpace([f"i{j}" for j in range(n)], np.full(n, 1.0 / n))
    proc = pair_process(space, np.eye(n))
    with pytest.raises(EnumerationBudgetError, match="simclr_loss_mc"):
        simclr_loss_grad(np.zeros((n, n)), proc, b=2)
    with pytest.raises(ValueError, match="B >= 2"):
        simclr_loss_grad(np.zeros((n, n)), proc, b=1)


def test_simclr_mc_agrees_with_exact():
    proc = _toy_process(n=3, stay=0.5)
    scores = Stream(4).normal(9).reshape(3, 3)
    exact, _ = simclr_loss_grad(scores, proc, b=2)
    mean, stderr = simclr_loss_mc(scores, proc, b=2, n_samples=40_000, seed=9)
    assert stderr < 0.02
    assert abs(mean - exact) < 4.0 * stderr


def test_simclr_mc_is_seed_reproducible():
    proc = _toy_process(n=3)
    scores = Stream(4).normal(9).reshape(3, 3)
    a = simclr_loss_mc(scores, proc, b=2, n_samples=500, seed=3)
    b = simclr_loss_mc(scores, proc, b=2, n_samples=500, seed=3)
    assert a == b
    c = simclr_loss_mc(scores, proc, b=2, n_samples=500, seed=4)
    assert a != c


def test_score_tables():
    f = EmbeddingTable(np.array([[1.0, 0.0], [0.0, 2.0]]))
    g = EmbeddingTable(np.array([[0.0, 1.0], [1.0, 1.0]]))
    s = bilinear_scores(f, g, tau=0.5)
    np.testing.assert_allclose(s, np.array([[0.0, 1.0], [2.0, 2.0]]) / 0.5)
    cos = cosine_scores(f, tau=1.0)
    np.testing.assert_allclose(np.diag(cos), 1.0)
    assert cos[0, 1] == pytest.approx(0.0)
    with pytest.raises(ValueError):
        bilinear_scores(f, g, tau=0.0)
    with pytest.raises(ValueError):
        cosine_scores(EmbeddingTable(np.zeros((2, 2))), tau=1.0)


def test_row_normalized():
    out = row_normalized(np.array([[1.0, 3.0], [2.0, 2.0]]))
    np.testing.assert_allclose(out, [[0.25, 0.75], [0.5, 0.5]])
    with pytest.raises(ValueError):
        row_normalized(np.array([[0.0, 0.0]]))


def test_tv_gap_zero_at_the_known_optimum():
    """Scores equal to log K_plus make every candidate softmax exact.

    Any per-row additive shift leaves the softmax unchanged, so the gap
    must also vanish for shifted scores.
    """
    proc = _toy_process(n=3, stay=0.5)
    s = np.log(proc.k_plus)
    assert infonce_tv_gap(s, proc, b=2) < 1e-12
    shifted = s + np.array([[1.0], [-2.0], [0.3]])
    assert infonce_tv_gap(shifted, proc, b=2) < 1e-12
    assert infonce_tv_gap(np.zeros((3, 3)), proc, b=2) > 0.01


def test_train_infonce_untied_matches_conditional():
    proc = _toy_process(n=3, stay=0.6)
    cfg = OptimizerConfig(tol=1e-8, max_iter=30000)
    f, g = train_infonce(proc, d=3, tau=1.0, b=2, config=cfg)
    s = bilinear_scores(f, g, tau=1.0)
    assert infonce_tv_gap(s, proc, b=2) < 1e-2
    model_cond = row_normalized(np.exp(s))
    true_cond = row_normalized(proc.k_plus)
    assert np.abs(model_cond - true_cond).max() < 1e-2


def test_train_infonce_tied_mode_runs():
    proc = _toy_process(n=3)
    cfg = OptimizerConfig(tol=1e-5, max_iter=2000)
    phi = train_infonce(proc, d=2, tau=0.5, b=2, config=cfg, mode="tied")
    assert phi.rows.shape == (3, 2)
    with pytest.raises(ValueError):
        train_infonce(proc, d=2, mode="woven")


# ----------------------------------------------------------- spectral loss


def test_spectral_loss_is_frobenius_error_in_disguise():
    """loss(phi) + |Abar|_F^2 = |Abar - F F'|_F^2 with F = sqrt(marg) phi."""
    proc = _toy_process(n=4, stay=0.6)
    abar = proc.abar
    for seed in range(5):
        rows = Stream(seed).normal(8).reshape(4, 2)
        loss, _ = spectral_loss_grad(rows, proc)
        f = np.sqrt(proc.marginal)[:, None] * rows
        frob = np.linalg.norm(abar - f @ f.T) ** 2
        assert loss + np.linalg.norm(abar) ** 2 == pytest.approx(frob, abs=1e-10)


def test_spectral_loss_grad_finite_difference():
    proc = _toy_process(n=3)

    def fun(flat):
        loss, grad = spectral_loss_grad(flat.reshape(3, 2), proc)
        return loss, grad.reshape(-1)

    assert grad_check(fun, Stream(2).normal(6)) < 1e-6


def test_train_spectral_finds_eckart_young_factor():
    """The trained Gram equals the truncated-spectrum Gram of Abar.

    Compared through F F' because the factor itself is only determined up
    to rotation.
    """
    proc = _toy_process(n=4, stay=0.7)
    cfg = OptimizerConfig(tol=1e-9, max_iter=30000)
    for d in (1, 4):
        phi = train_spectral(proc, d=d, config=cfg)
        f = np.sqrt(proc.marginal)[:, None] * phi.rows
        best = low_rank_factor(proc.abar, d)
        assert np.abs(f @ f.T - best @ best.T).max() < 1e-4


# ------------------------------------------------- conductance and probing


def test_dirichlet_conductance_hand_computation():
    proc = _toy_process(n=3, stay=0.5)
    # independent recomputation from the definition
    cross = sum(
        proc.p_plus[i, j] for i in (0, 1) for j in (2,)
    )
    denom = proc.marginal[0] + proc.marginal[1]
    assert dirichlet_conductance(proc, [0, 1]) == pytest.approx(cross / denom)
    # duplicate indices are tolerated
    assert dirichlet_conductance(proc, [0, 0, 1]) == pytest.approx(cross / denom)


def test_dirichlet_conductance_validation():
    proc = _toy_process(n=3)
    with pytest.raises(ValueError):
        dirichlet_conductance(proc, [])
    with pytest.raises(ValueError):
        dirichlet_conductance(proc, [0, 1, 2])
    with pytest.raises(ValueError):
        dirichlet_conductance(proc, [5])


def test_sparsest_partition_two_blocks():
    """A process with two nearly disconnected blocks.

    The planted split {0,1} / {2,3} has tiny conductance; the brute-force
    search must find a value no worse, and it must agree with direct
    enumeration over all 2-partitions.
    """
    space = FiniteSpace(list("abcd"), np.full(4, 0.25))
    a = np.array(
        [
            [0.65, 0.25, 0.05, 0.05],
            [0.25, 0.65, 0.05, 0.05],
            [0.05, 0.05, 0.65, 0.25],
            [0.05, 0.05, 0.25, 0.65],
        ]
    )
    proc = pair_process(space, a)
    got = sparsest_partition(proc, parts=2)
    best = min(
        max(
            dirichlet_conductance(proc, subset),
            dirichlet_conductance(proc, [i for i in range(4) if i not in subset]),
        )
        for r in (1, 2)
        for subset in itertools.combinations(range(4), r)
        if 0 in subset
    )
    assert got == pytest.approx(best)
    planted = max(
        dirichlet_conductance(proc, [0, 1]), dirichlet_conductance(proc, [2, 3])
    )
    assert got == pytest.approx(planted)
    assert sparsest_partition(proc, parts=1) == 0.0


def test_sparsest_partition_caps_space_size():
    n = 11
    space = FiniteSpace([f"i{j}" for j in range(n)], np.full(n, 1.0 / n))
    proc = pair_process(space, np.full((n, n), 1.0 / n))
    with pytest.raises(ValueError, match="capped"):
        sparsest_partition(proc, parts=2)


def test_probe_task_validation():
    with pytest.raises(ValueError, match="cover"):
        ProbeTask(labels=np.array([0, 0, 2]), n_classes=3)
    with pytest.raises(ValueError):
        ProbeTask(labels=np.array([0, 0]), n_classes=1)


def test_linear_probe_error_zero_when_separable():
    phi = EmbeddingTable(np.eye(4))
    task = ProbeTask(labels=np.array([0, 0, 1, 1]), n_classes=2)
    err = linear_probe_error(phi, task, np.full(4, 0.25))
    assert err == 0.0


def test_linear_probe_error_collapsed_embeddings():
    """All rows identical: the best constant guess is the heavier class."""
    phi = EmbeddingTable(np.ones((2, 3)))
    task = ProbeTask(labels=np.array([0, 1]), n_classes=2)
    err = linear_probe_error(phi, task, np.array([0.7, 0.3]))
    assert err == pytest.approx(0.3, abs=1e-9)
