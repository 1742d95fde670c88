"""Contrastive losses on finite spaces and their checkable optima.

Everything here is exact: corpora are counted, pair processes are small
probability tables, and each loss is the full expectation rather than a
sampled estimate. That turns the classical claims about contrastive
learning into assertions a test can make at tight tolerance:

* skip-gram with negative sampling factorizes the shifted PMI matrix,
* the trained InfoNCE softmax equals the positive-pair kernel's
  conditional,
* the spectral contrastive loss is a low-rank factorization of the
  normalized pair matrix in disguise,
* NCE recovers the log count ratio.

Each loss has one entry point, ``<loss>_loss_grad``, which returns the
value together with its gradient; element ``[0]`` is the loss alone.

Every trainer runs on one core: `_fit_tables` fits its tables in one
`minimize` run, `_logistic_loss_grad` is the NCE weighted binary
cross-entropy that SGNS applies to word-context pairs, and `_shift` is
the activation's offset. The independent oracles those checks compare
against (PMI from counts, row-normalized K_plus, Eckart-Young factors,
conductance by brute force) live here too, next to the losses they
certify, and none of them calls the core.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .encoders import EmbeddingTable, OptimizerConfig, minimize, softmax
from .kernels import FiniteSpace, as_sym_array, symmetrize
from .rng import Stream

__all__ = [
    "CorpusStats",
    "corpus_stats",
    "shifted_pmi_matrix",
    "nce_loss_grad",
    "train_nce",
    "sgns_loss_grad",
    "train_sgns",
    "PairProcess",
    "pair_process",
    "simclr_loss_mc",
    "simclr_loss_grad",
    "EnumerationBudgetError",
    "train_infonce",
    "bilinear_scores",
    "cosine_scores",
    "row_normalized",
    "infonce_tv_gap",
    "spectral_loss_grad",
    "train_spectral",
    "dirichlet_conductance",
    "sparsest_partition",
    "ProbeTask",
    "linear_probe_error",
]

ENUMERATION_BUDGET = 2_000_000


# ---------------------------------------------------------------------------
# the training core every trainer shares


def _shift(k: float, activation: str) -> float:
    """Score offset of the NCE activation: sigmoid(s - log k) for
    "k_sigmoid", sigmoid(s) for "sigmoid". k is the noise-to-data ratio
    under either activation, so it must be positive under both."""
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    if activation == "k_sigmoid":
        return np.log(k)
    if activation == "sigmoid":
        return 0.0
    raise ValueError(f"unknown activation {activation!r}")


def _logistic_loss_grad(z: np.ndarray, w_pos, w_neg, w_sum):
    """The NCE weighted binary cross-entropy on logits z (Gutmann &
    Hyvarinen 2010), of which SGNS is the word-context case (Levy &
    Goldberg 2014): sum w+ log(1 + e^-z) + w- log(1 + e^z), and a
    zero-argument function that computes its gradient (w+ + w-) sigmoid(z)
    - w+ in z, given w_sum = w+ + w-. A trainer forms w_sum once, and
    `minimize` calls the function only for the start and the trials it
    accepts.

    One exponential e = exp(-|z|) serves both softplus terms,
    softplus(+-z) = max(+-z, 0) + log1p(e), and the sigmoid, which equals
    `sigmoid` of z bit for bit, since both split at z = 0 in the same way.
    Both are NumPy's vectorized exp and log1p: ``np.logaddexp`` calls the
    C library per element, and on a 30 x 30 table that was about 40 % of
    the call."""
    e = np.exp(-np.abs(z))
    tail = np.log1p(e)
    loss = (w_pos * (np.maximum(-z, 0.0) + tail) + w_neg * (np.maximum(z, 0.0) + tail)).sum()
    return loss, lambda: w_sum * (np.where(z >= 0.0, 1.0, e) / (1.0 + e)) - w_pos


def _fit_tables(objective, n: int, d: int, count: int, cfg: OptimizerConfig, scale=1.0):
    """Minimize ``objective`` over ``count`` n x d tables in one `minimize` run.

    Table i starts from ``EmbeddingTable.random(n, d, cfg.seed + i)``, and
    ``objective(*tables)`` returns the loss and a zero-argument function
    that returns one gradient per table; `minimize` calls it only for the
    start and the trials it accepts. Returns the trained tables, each
    carrying the run as ``fits``.

    ``minimize`` runs on the tables divided by ``scale``, which broadcasts
    against the (count, n, d) stack: a diagonal preconditioner by change of
    variables, which the objective never sees. The default 1.0 changes no
    bit of the run, and ``fits[0].x`` holds the divided tables.
    """

    def packed(flat):
        loss, grads = objective(*(flat.reshape(count, n, d) * scale))
        return loss, lambda: (np.array(grads()) * scale).reshape(-1)

    x0 = np.stack([EmbeddingTable.random(n, d, cfg.seed + i).rows for i in range(count)])
    fit = minimize(packed, (x0 / scale).reshape(-1), cfg)
    return [EmbeddingTable(rows, fits=(fit,)) for rows in fit.x.reshape(count, n, d) * scale]


# ---------------------------------------------------------------------------
# corpora and skip-gram


@dataclass
class CorpusStats:
    """Window co-occurrence counts for a tokenized corpus.

    ``space.p`` is the token frequency (count / corpus length). The
    positive-pair distribution has its own marginal, ``pair_marginal``
    (row sums of counts over N); the two differ when windows truncate at
    the corpus boundary. PMI and the expected skip-gram loss both use
    ``pair_marginal`` so that the factorization identity is exact on any
    finite corpus, truncation included.
    """

    space: FiniteSpace
    counts: np.ndarray
    window: int
    n_pairs: int
    n_tokens: int
    pair_marginal: np.ndarray

    def __post_init__(self):
        n = self.space.n
        if self.counts.shape != (n, n):
            raise ValueError(
                f"counts shape {self.counts.shape} does not match vocabulary {n}"
            )
        if int(self.counts.sum()) != self.n_pairs:
            raise ValueError("n_pairs must equal the total count mass")


def corpus_stats(tokens, window: int) -> CorpusStats:
    """Count ordered (target, context) pairs within a symmetric window.

    Every position t contributes the pairs (x_t, x_{t+j}) for j from -m
    to m excluding 0, truncated at the sequence boundaries. Vocabulary
    order is sorted token order.

    Each offset j in 1..m is one ``np.bincount`` of the flat codes
    x_t·n + x_{t+j}; the negative offsets are the transpose of that sum.
    """
    tokens = [str(t) for t in tokens]
    if not tokens:
        raise ValueError("corpus is empty")
    if window < 1:
        raise ValueError(f"window must be at least 1, got {window}")
    vocab = sorted(set(tokens))
    index = {tok: i for i, tok in enumerate(vocab)}
    n = len(vocab)
    t_total = len(tokens)
    ids = np.fromiter(map(index.__getitem__, tokens), dtype=np.intp, count=t_total)
    forward = np.zeros(n * n, dtype=np.int64)
    for offset in range(1, min(window, t_total - 1) + 1):
        forward += np.bincount(ids[:-offset] * n + ids[offset:], minlength=n * n)
    forward = forward.reshape(n, n)
    counts = (forward + forward.T).astype(float)
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


def shifted_pmi_matrix(stats: CorpusStats, k: float) -> np.ndarray:
    """log(p(x,z) / (p(x) p(z))) - log k from corpus counts.

    Entries whose pair count is zero are undefined and returned as nan;
    callers that need full support should check ``np.isnan`` or use a
    corpus in which every pair co-occurs.
    """
    if not k > 0.0:
        raise ValueError(f"k must be positive, got {k!r}")
    if stats.n_pairs == 0:
        raise ValueError("corpus has no pairs; PMI is undefined everywhere")
    defined = stats.counts > 0
    out = np.full(stats.counts.shape, np.nan)
    joint = stats.counts / stats.n_pairs
    marg = stats.pair_marginal
    ij = np.nonzero(defined)
    out[ij] = (
        np.log(joint[ij]) - np.log(marg[ij[0]]) - np.log(marg[ij[1]]) - np.log(k)
    )
    return out


def nce_loss_grad(scores, labels, k: float):
    """Mean binary cross-entropy through the k-shifted sigmoid, with its
    gradient in the scores.

    Scores are per-sample; labels mark observed (1) versus noise (0)
    samples. With k equal to the noise-to-data count ratio, the minimizer
    satisfies s*(x) = log(p1(x) / p0(x)), the log ratio of the two
    empirical distributions; with k = 1 (plain sigmoid) the same ratio
    appears shifted by -log(noise/data ratio).
    """
    shift = _shift(k, "k_sigmoid")
    s = np.asarray(scores, dtype=float)
    y = np.asarray(labels, dtype=float)
    if s.shape != y.shape or s.ndim != 1 or s.shape[0] == 0:
        raise ValueError("scores and labels must be equal-length nonempty vectors")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be 0 or 1")
    m = s.shape[0]
    loss, grad = _logistic_loss_grad(s - shift, y, 1.0 - y, 1.0)  # y + (1 - y) = 1
    return float(loss / m), grad() / m


def train_nce(
    pos_counts,
    neg_counts,
    k: float,
    activation: str = "k_sigmoid",
    config: OptimizerConfig | None = None,
):
    """Fit one score per item to classify observed against noise samples.

    ``pos_counts[x]`` and ``neg_counts[x]`` are how many times item x
    appeared with label 1 and 0. The loss is the count-weighted mean
    binary cross-entropy, i.e. exactly the `nce_loss_grad` loss on the
    expanded sample list, so the closed-form optimum applies: with
    ``activation`` set to "k_sigmoid" the trained score converges to
    log(p1/p0); with "sigmoid" it converges to log(p1/p0) - log k.

    Returns the `minimize` result; its ``x`` is the score vector.
    """
    pos = np.asarray(pos_counts, dtype=float)
    neg = np.asarray(neg_counts, dtype=float)
    if pos.shape != neg.shape or pos.ndim != 1:
        raise ValueError("count vectors must share one shape")
    if np.any(pos < 0) or np.any(neg < 0) or np.any(pos + neg == 0):
        raise ValueError("each item needs nonnegative counts, not all zero")
    shift = _shift(k, activation)
    total = pos.sum() + neg.sum()
    both = pos + neg

    def objective(theta):
        loss, grad = _logistic_loss_grad(theta[:, 0] - shift, pos, neg, both)
        return loss / total, lambda: (grad() / total,)

    cfg = config or OptimizerConfig(tol=1e-9)
    (scores,) = _fit_tables(objective, pos.shape[0], 1, 1, cfg)
    return scores.fits[0]


def sgns_loss_grad(
    phi_rows: np.ndarray,
    psi_rows: np.ndarray,
    stats: CorpusStats,
    k: float,
    activation: str = "sigmoid",
    neg_exponent: float = 1.0,
):
    """Skip-gram negative-sampling loss with expected negative counts, and
    its gradients in both tables: (loss, d/dphi, d/dpsi).

    The random negative draws of the original algorithm are replaced by
    their expectations k * N_x * q(z), with q the (optionally exponent-
    smoothed) negative-sampling distribution, making the loss a
    deterministic function of the tables. At zero tables the value is
    N (1 + k) log 2.
    """
    shift = _shift(k, activation)
    n = stats.space.n
    if phi_rows.shape[0] != n or psi_rows.shape[0] != n:
        raise ValueError("embedding tables must have one row per vocabulary item")
    if phi_rows.shape[1] != psi_rows.shape[1]:
        raise ValueError("target and context tables must share a dimension")
    w_pos, w_neg = _sgns_weights(stats, k, neg_exponent)
    loss, grads = _sgns_core(phi_rows, psi_rows, shift, w_pos, w_neg, w_pos + w_neg)
    return (loss, *grads())


def _sgns_core(phi_rows, psi_rows, shift, w_pos, w_neg, w_sum):
    """`sgns_loss_grad` on checked tables, with the shift and weights given:
    the loss and a zero-argument function that computes both gradients."""
    z = phi_rows @ psi_rows.T - shift
    loss, dz = _logistic_loss_grad(z, w_pos, w_neg, w_sum)

    def grads():
        g = dz()
        return g @ psi_rows, g.T @ phi_rows

    return float(loss), grads


def _sgns_weights(stats: CorpusStats, k: float, neg_exponent: float):
    """The positive and expected negative pair counts, w+ and w-."""
    q = _negative_distribution(stats, neg_exponent)
    return stats.counts, k * np.outer(stats.counts.sum(axis=1), q)


def _negative_distribution(stats: CorpusStats, neg_exponent: float) -> np.ndarray:
    q = stats.pair_marginal
    if np.any(q == 0.0):
        raise ValueError(
            "negative-sampling distribution has a zero probability; "
            "every vocabulary item must occur in at least one pair"
        )
    if neg_exponent != 1.0:
        q = q**neg_exponent
        q = q / q.sum()
    return q


def train_sgns(
    stats: CorpusStats,
    d: int,
    k: float,
    config: OptimizerConfig | None = None,
    activation: str = "sigmoid",
    neg_exponent: float = 1.0,
):
    """Minimize the expected skip-gram loss; returns (target, context) tables.

    With d at least the vocabulary size and every pair count positive,
    the product of the trained tables converges to PMI - log k entrywise
    (plain sigmoid) or to unshifted PMI (k-shifted sigmoid).

    The optimizer runs on count-preconditioned tables u = D_r^(1/2) phi and
    v = D_c^(1/2) psi, from the same random phi and psi as without them.
    The loss's curvature in the score of pair (x, y) is at most
    (w+ + w-)(x, y) / 4, so r and c are the row and column sums of
    (w+ + w-) / 4: on a Zipf corpus they span the decades that the word
    counts span, and the change of variables evens them out. ``fits[0].x``
    holds u and v.
    """
    n = stats.space.n
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    cfg = config or OptimizerConfig(tol=1e-9, max_iter=20000)
    shift = _shift(k, activation)  # rejects a bad k before it enters the weights
    w_pos, w_neg = _sgns_weights(stats, k, neg_exponent)
    w_sum = w_pos + w_neg
    curvature = w_sum / 4.0
    scale = 1.0 / np.sqrt(np.stack((curvature.sum(axis=1), curvature.sum(axis=0))))

    def objective(phi_rows, psi_rows):
        return _sgns_core(phi_rows, psi_rows, shift, w_pos, w_neg, w_sum)

    phi, psi = _fit_tables(objective, n, d, 2, cfg, scale[:, :, None])
    return phi, psi


# ---------------------------------------------------------------------------
# positive-pair processes


@dataclass
class PairProcess:
    """A finite positive-pair generating process.

    Built from a source distribution p and an augmentation conditional
    (row-stochastic); the joint p_plus(a, b) = sum_x p(x) A[x,a] A[x,b]
    is symmetric and its marginal is the view distribution A^T p, stored
    as ``marginal``. When the augmentation preserves the source
    distribution (every process used in the exactness tests does), the
    marginal equals p.

    ``k_plus`` holds p_plus(a,b) / (marginal(a) marginal(b)), the odds a
    pair is positive relative to independence; ``abar`` is the
    symmetrically normalized pair matrix p_plus / sqrt(marg marg'). Both
    are positive semidefinite by construction.
    """

    space: FiniteSpace
    augment: np.ndarray
    p_plus: np.ndarray
    marginal: np.ndarray
    k_plus: np.ndarray
    abar: np.ndarray

    @property
    def n(self) -> int:
        return self.space.n


def pair_process(space: FiniteSpace, augment) -> PairProcess:
    """Build a PairProcess, validating stochasticity and the pair identities."""
    a = np.asarray(augment, dtype=float)
    n = space.n
    if a.shape != (n, n):
        raise ValueError(f"augment shape {a.shape} does not match space size {n}")
    if np.any(a < 0.0):
        raise ValueError("augmentation probabilities must be nonnegative")
    rowsum = a.sum(axis=1)
    bad = np.nonzero(np.abs(rowsum - 1.0) > 1e-12)[0]
    if bad.size:
        raise ValueError(
            f"augment row {bad[0]} sums to {float(rowsum[bad[0]])!r}, not 1"
        )
    p_plus = symmetrize(a.T @ (space.p[:, None] * a))
    marginal = a.T @ space.p
    if np.abs(p_plus.sum(axis=1) - marginal).max() > 1e-12:
        raise ValueError("pair joint marginal does not match view distribution")
    if np.any(marginal <= 0.0):
        dead = np.nonzero(marginal <= 0.0)[0]
        raise ValueError(
            f"item {space.items[dead[0]]!r} is never produced by the augmentation"
        )
    root = np.sqrt(marginal)
    k_plus = as_sym_array(symmetrize(p_plus / np.outer(marginal, marginal)))
    abar = as_sym_array(symmetrize(p_plus / np.outer(root, root)))
    return PairProcess(
        space=space,
        augment=a,
        p_plus=p_plus,
        marginal=marginal,
        k_plus=k_plus,
        abar=abar,
    )


# ---------------------------------------------------------------------------
# InfoNCE and SimCLR


class EnumerationBudgetError(ValueError):
    """Raised when exact enumeration would exceed the term budget."""


def _logsumexp(z: np.ndarray, axis: int = -1) -> np.ndarray:
    m = z.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(z - m).sum(axis=axis, keepdims=True))).squeeze(axis)


@functools.lru_cache(maxsize=16)
def _multisets(n: int, k: int):
    """Every multiset of k items out of n, built once per (n, k).

    Returns (counts, coef, rows): the (M, n) count matrix, the multinomial
    coefficient k! / prod(c!) of each multiset (how many ordered tuples it
    stands for) and its (M, k) sorted index row, M = C(n + k - 1, k).
    """
    combos = list(itertools.combinations_with_replacement(range(n), k))
    rows = np.array(combos, dtype=int).reshape(-1, k)
    counts = np.zeros((len(combos), n))
    np.add.at(counts, (np.arange(len(combos))[:, None], rows), 1.0)
    k_fact = math.factorial(k)
    coef = np.array(
        [k_fact // math.prod(math.factorial(t.count(i)) for i in set(t)) for t in combos],
        dtype=float,
    )
    for arr in (counts, coef, rows):
        arr.flags.writeable = False
    return counts, coef, rows


def _exact_sum(values: np.ndarray) -> float:
    """``math.fsum(values)`` bit for bit, in a few vectorized calls.

    Each finite x >= 0 is f 2^(e-27) with f in [2^26, 2^27) carrying 53
    bits: a 27-bit integer part and a fraction in steps of 2^-26. Both
    halves are summed per exponent e with float64 ``np.bincount``, which
    is exact while a bin holds fewer than 2^26 values, and ``math.fsum``
    rounds the sum of the nonzero bins correctly, as it would the values.
    Negative, signed-zero or non-finite input goes to ``math.fsum`` itself.
    """
    v = values.ravel()
    if np.signbit(v).any() or not np.isfinite(v).all():
        return math.fsum(v.tolist())
    frac, exp = np.frexp(v)
    frac *= 2.0**27
    whole = np.floor(frac)
    frac -= whole
    exp += 1074  # frexp exponents of finite doubles lie in [-1073, 1024]
    sum_whole = np.bincount(exp, weights=whole)
    sum_frac = np.bincount(exp, weights=frac)
    (live,) = np.nonzero(sum_whole + sum_frac)
    shift = live - (1074 + 27)
    with np.errstate(over="ignore"):
        parts = np.concatenate((np.ldexp(sum_whole[live], shift), np.ldexp(sum_frac[live], shift)))
    if not np.isfinite(parts).all():
        return math.fsum(v.tolist())  # a bin of 2^1024 or more: fsum raises OverflowError
    return math.fsum(parts.tolist())


def _check_batch(process: PairProcess, b: int, k: int | None = None) -> None:
    """Reject B < 2; with k, also an enumeration over the budget.

    Exact enumeration visits |X|^(2B-k) outer index tuples times the
    C(|X|+k-1, k) multisets of the other k batch slots: k = 2B-2
    negatives per (anchor, positive) for the loss, k = 2B-1 candidates
    per anchor for the TV gap.
    """
    if b < 2:
        raise ValueError(
            f"batch size {b} leaves no negatives; the loss needs B >= 2"
        )
    if k is None:
        return
    n = process.n
    terms = n ** (2 * b - k) * math.comb(n + k - 1, k)
    if terms > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"exact enumeration needs |X|^{2 * b - k} * C(|X|+{k - 1}, {k}) = "
            f"{terms} terms, over the budget of {ENUMERATION_BUDGET}; use "
            f"simclr_loss_mc for a seeded estimate"
        )


def simclr_loss_grad(scores: np.ndarray, process: PairProcess, b: int):
    """Exact expected SimCLR loss and its gradient in the score table.

    One batch draws a positive pair from p_plus and 2B - 2 negatives
    i.i.d. from the marginal; the anchor must pick its partner out of the
    2B - 1 candidates. A constant score table gives log(2B - 1) exactly.

    The loss sees a negative tuple only through its multiset, so the
    |X|^(2B-2) ordered tuples collapse to C(|X|+2B-3, 2B-2) multisets,
    each weighted by its multinomial count times the marginal product.
    For each the candidate log-sum-exp splits into the positive's logit
    and the multiset's own log-sum-exp, and every exponential is taken
    relative to the max over its own candidate set, so no score range can
    overflow. The loss terms are summed exactly, by `_exact_sum`: the
    optimizer compares losses near the float floor, where a rounded sum
    is noise.
    """
    _check_batch(process, b, 2 * b - 2)
    s = np.asarray(scores, dtype=float)
    n = process.n
    if s.shape != (n, n):
        raise ValueError(f"score table shape {s.shape} does not match |X| = {n}")
    counts, coef, rows = _multisets(n, 2 * b - 2)
    p_pair = process.p_plus
    w_neg = coef * np.prod(process.marginal[rows], axis=1)

    # m_neg[a, m]: the max logit over multiset m's items; off its support
    # the shifted logits are clipped at 0 before exp, where count 0 zeroes them
    m_neg = s[:, rows].max(axis=2)
    e = np.exp(np.minimum(s[:, None, :] - m_neg[:, :, None], 0.0)) * counts
    s_neg = e.sum(axis=2)
    # lse[a, p, m] over {positive logit, multiset slots}, shifted by its own max
    m_all = np.maximum(s[:, :, None], m_neg[:, None, :])
    lse = m_all + np.log(
        np.exp(s[:, :, None] - m_all)
        + s_neg[:, None, :] * np.exp(m_neg[:, None, :] - m_all)
    )
    terms = (p_pair[:, :, None] * (lse - s[:, :, None])) * w_neg
    loss = _exact_sum(terms)

    sm_pos = np.exp(s[:, :, None] - lse)  # probability mass on the positive
    grad = p_pair * ((sm_pos * w_neg).sum(axis=2) - 1.0)
    # leftover mass 1 - sm_pos splits over the multiset by its own softmax
    a_mass = ((1.0 - sm_pos) * p_pair[:, :, None]).sum(axis=1) * w_neg
    grad += np.einsum("am,amz->az", a_mass / s_neg, e)
    return loss, grad


def simclr_loss_mc(
    scores: np.ndarray, process: PairProcess, b: int, n_samples: int, seed: int = 0
):
    """Monte Carlo estimate of the expected SimCLR loss.

    Returns (mean, standard error) over n_samples simulated batches drawn
    with the package stream, so estimates are seed-reproducible.
    """
    _check_batch(process, b)
    if n_samples < 2:
        raise ValueError(f"need at least 2 samples, got {n_samples}")
    s = np.asarray(scores, dtype=float)
    n = process.n
    stream = Stream(seed)
    flat = process.p_plus.reshape(-1)
    pair_cdf = np.cumsum(flat)
    pair_cdf[-1] = 1.0
    neg_cdf = np.cumsum(process.marginal)
    neg_cdf[-1] = 1.0
    n_neg = 2 * b - 2
    u = stream.uniform(n_samples * (1 + n_neg))
    pair_draws = np.searchsorted(pair_cdf, u[:n_samples], side="right")
    anchors, positives = np.divmod(pair_draws, n)
    neg_draws = np.searchsorted(
        neg_cdf, u[n_samples:], side="right"
    ).reshape(n_samples, n_neg)
    logits = np.empty((n_samples, 1 + n_neg))
    logits[:, 0] = s[anchors, positives]
    for j in range(n_neg):
        logits[:, 1 + j] = s[anchors, neg_draws[:, j]]
    losses = _logsumexp(logits, axis=1) - logits[:, 0]
    mean = float(losses.mean())
    stderr = float(losses.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr


def _check_tau(tau: float) -> None:
    if not tau > 0.0:
        raise ValueError(f"temperature must be positive, got {tau!r}")


def bilinear_scores(f: EmbeddingTable, g: EmbeddingTable, tau: float) -> np.ndarray:
    """Untied score table s(x, z) = f(x) . g(z) / tau."""
    _check_tau(tau)
    return f.rows @ g.rows.T / tau


def cosine_scores(phi: EmbeddingTable, tau: float) -> np.ndarray:
    """Tied score table s(x, z) = cos(phi(x), phi(z)) / tau."""
    _check_tau(tau)
    norms = np.linalg.norm(phi.rows, axis=1)
    if np.any(norms == 0.0):
        raise ValueError("cosine score undefined: an embedding row is zero")
    unit = phi.rows / norms[:, None]
    return unit @ unit.T / tau


def row_normalized(table: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to 1 (rows must have positive sums)."""
    t = np.asarray(table, dtype=float)
    sums = t.sum(axis=1, keepdims=True)
    if np.any(sums <= 0.0):
        raise ValueError("row normalization needs positive row sums")
    return t / sums


def infonce_tv_gap(scores: np.ndarray, process: PairProcess, b: int) -> float:
    """Worst total-variation gap between model and true candidate conditionals.

    The true conditional probability that candidate i is the anchor's
    partner is K_plus(anchor, c_i) normalized over the candidates; the
    model's is the softmax of the scores. Returns the maximum TV distance
    over every anchor and candidate tuple of a batch, skipping tuples
    whose K_plus sum is 0. The TV distance does not depend on the order
    of the candidates, so one vectorized pass over the C(|X|+2B-2, 2B-1)
    candidate multisets per anchor covers every tuple.
    """
    _check_batch(process, b, 2 * b - 1)
    s = np.asarray(scores, dtype=float)
    n = process.n
    _, _, rows = _multisets(n, 2 * b - 1)
    model = softmax(s[:, rows])  # (anchor, multiset, candidate)
    truth = process.k_plus[:, rows]
    denom = truth.sum(axis=2, keepdims=True)
    live = denom[:, :, 0] > 0.0
    tv = 0.5 * np.abs(model[live] - truth[live] / denom[live]).sum(axis=1)
    return float(tv.max(initial=0.0))


def train_infonce(
    process: PairProcess,
    d: int,
    tau: float = 0.5,
    b: int = 2,
    config: OptimizerConfig | None = None,
    mode: str = "untied",
):
    """Minimize the exact expected SimCLR loss over encoder tables.

    In untied mode the score is f(x) . g(z) / tau with separate tables;
    with d >= |X| this can represent any score table, and at convergence
    exp(s) matches K_plus up to per-row scale. Tied mode trains one table
    under the cosine score; it demonstrates the practical parameterization
    but can only reach the optimum when log K_plus is representable as a
    shifted unit-vector Gram, so no exactness is promised. Returns
    (f, g) in untied mode, a single table in tied mode.
    """
    n = process.n
    if d < 1:
        raise ValueError(f"d must be positive, got {d}")
    _check_tau(tau)
    cfg = config or OptimizerConfig(tol=1e-8, max_iter=20000)
    if mode == "untied":

        def untied(f_rows, g_rows):
            loss, ds = simclr_loss_grad(f_rows @ g_rows.T / tau, process, b)
            return loss, lambda: (ds @ g_rows / tau, ds.T @ f_rows / tau)

        f, g = _fit_tables(untied, n, d, 2, cfg)
        return f, g
    if mode == "tied":

        def tied(rows):
            norms = np.linalg.norm(rows, axis=1)
            if np.any(norms == 0.0):
                raise ValueError("cosine score undefined: an embedding row is zero")
            unit = rows / norms[:, None]
            loss, ds = simclr_loss_grad(unit @ unit.T / tau, process, b)

            def grads():
                du = (ds + ds.T) @ unit / tau
                return ((du - unit * (du * unit).sum(axis=1, keepdims=True)) / norms[:, None],)

            return loss, grads

        (phi,) = _fit_tables(tied, n, d, 1, cfg)
        return phi
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# spectral contrastive loss


def spectral_loss_grad(phi_rows: np.ndarray, process: PairProcess):
    """Spectral loss -2 E_pair[phi(x).phi(x')] + E_indep[(phi(z).phi(z'))^2],
    exactly, and its gradient in the embedding rows.

    Both expectations are finite sums over the process tables. Up to an
    additive constant independent of phi, the loss equals the squared
    Frobenius error of F F^T against the normalized pair matrix, where F
    carries rows sqrt(marginal(x)) phi(x).
    """
    rows = np.asarray(phi_rows, dtype=float)
    if rows.shape[0] != process.n:
        raise ValueError("table must have one row per item")
    root = np.sqrt(process.marginal)
    f = root[:, None] * rows
    gram = f @ f.T
    pair_term = float((process.p_plus * (rows @ rows.T)).sum())
    loss = -2.0 * pair_term + float((gram * gram).sum())
    grad = -4.0 * process.p_plus @ rows + 4.0 * root[:, None] * (gram @ f)
    return loss, grad


def train_spectral(
    process: PairProcess, d: int, config: OptimizerConfig | None = None
) -> EmbeddingTable:
    """Minimize the spectral contrastive loss.

    At the optimum, F (rows scaled by sqrt(marginal)) satisfies that
    F F^T is the best rank-d approximation of the normalized pair matrix,
    so verification compares Gram matrices, which are rotation-invariant.
    """
    n = process.n
    if not 1 <= d <= n:
        raise ValueError(f"d must be in [1, {n}], got {d}")
    cfg = config or OptimizerConfig(tol=1e-9, max_iter=20000)

    def objective(rows):
        loss, grad = spectral_loss_grad(rows, process)
        return loss, lambda: (grad,)

    (phi,) = _fit_tables(objective, n, d, 1, cfg)
    return phi


# ---------------------------------------------------------------------------
# graph quantities and probing


def dirichlet_conductance(process: PairProcess, subset) -> float:
    """Cross-boundary pair mass of S over its marginal mass.

    With the pair joint as edge weights, this is the chance a positive
    pair started in S and escaped it, normalized by the mass of S.
    """
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
    n = process.n
    if idx.size == 0 or idx.size == n:
        raise ValueError("subset must be nonempty and proper")
    if idx.min() < 0 or idx.max() >= n:
        raise ValueError(f"subset indices must lie in [0, {n})")
    mask = np.zeros(n, dtype=bool)
    mask[idx] = True
    cross = float(process.p_plus[np.ix_(mask, ~mask)].sum())
    return cross / float(process.marginal[mask].sum())


def _partitions_into(items: list, blocks: int):
    """Set partitions of items into exactly `blocks` nonempty blocks."""
    n = len(items)
    if blocks < 1 or blocks > n:
        return
    if blocks == 1:
        yield [list(items)]
        return
    head, rest = items[0], items[1:]
    for part in _partitions_into(rest, blocks - 1):
        yield [[head]] + part
    for part in _partitions_into(rest, blocks):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]


def sparsest_partition(process: PairProcess, parts: int) -> float:
    """Minimum over i-partitions of the worst block conductance.

    Brute force over all set partitions of X into exactly ``parts``
    blocks, so the space is capped at 10 items.
    """
    n = process.n
    if not 1 <= parts <= n:
        raise ValueError(f"parts must be in [1, {n}], got {parts}")
    if n > 10:
        raise ValueError(f"brute-force partition search is capped at 10 items, got {n}")
    if parts == 1:
        return 0.0
    best = np.inf
    for partition in _partitions_into(list(range(n)), parts):
        worst = max(dirichlet_conductance(process, block) for block in partition)
        best = min(best, worst)
    return float(best)


@dataclass
class ProbeTask:
    """Ground-truth labels over a finite space for linear probing."""

    labels: np.ndarray
    n_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.n_classes < 2:
            raise ValueError("probing needs at least 2 classes")
        present = set(self.labels.tolist())
        missing = set(range(self.n_classes)) - present
        if missing or not present <= set(range(self.n_classes)):
            raise ValueError(
                f"labels must cover classes 0..{self.n_classes - 1} exactly; "
                f"missing {sorted(missing)}"
            )


def linear_probe_error(phi: EmbeddingTable, task: ProbeTask, p) -> float:
    """p-weighted error of the least-squares linear probe on the embeddings.

    W minimizes sum_i p_i ||W^T phi_i - e_{y_i}||^2 with minimum norm, the
    probe of the HaoChen et al. (2021) bound, in closed form; the result is
    the p-mass of the items whose argmax phi_i^T W is not their label.
    """
    p = np.asarray(p, dtype=float)
    n = phi.rows.shape[0]
    if task.labels.shape[0] != n or p.shape[0] != n:
        raise ValueError("embeddings, labels, and weights must share length")
    onehot = np.zeros((n, task.n_classes))
    onehot[np.arange(n), task.labels] = 1.0
    root = np.sqrt(p)[:, None]
    w = np.linalg.lstsq(root * phi.rows, root * onehot, rcond=None)[0]
    predicted = np.argmax(phi.rows @ w, axis=1)
    return float(p[predicted != task.labels].sum())
