"""Exact InfoNCE by multiset enumeration against the ordered-tuple oracle.

The library enumerates candidate multisets with multinomial weights. The
oracles below enumerate every ordered tuple, the definition read
literally, and share no enumeration code with the library. The exact
sum of the loss terms is checked against ``math.fsum``.
"""

import itertools
import math
import re

import numpy as np
import pytest

from kernelcontrast.contrastive import (
    _exact_sum,
    _multisets,
    infonce_tv_gap,
    pair_process,
    simclr_loss_grad,
    simclr_loss_mc,
)
from kernelcontrast.encoders import softmax
from kernelcontrast.kernels import FiniteSpace
from kernelcontrast.rng import Stream


def _ordered_simclr_loss_grad(scores, process, b):
    """Expected SimCLR loss and gradient over all |X|^(2B-2) negative tuples."""
    s = np.asarray(scores, dtype=float)
    n = process.n
    p_pair = process.p_plus
    n_neg = 2 * b - 2
    tuples = np.asarray(
        list(itertools.product(range(n), repeat=n_neg)), dtype=int
    ).reshape(-1, n_neg)
    w_neg = np.prod(process.marginal[tuples], axis=1)

    neg_logits = s[:, tuples]  # (anchor, tuple, slot)
    m_neg = neg_logits.max(axis=2)
    e_slot = np.exp(neg_logits - m_neg[:, :, None])
    s_neg = e_slot.sum(axis=2)
    m_all = np.maximum(s[:, :, None], m_neg[:, None, :])
    lse = m_all + np.log(
        np.exp(s[:, :, None] - m_all)
        + s_neg[:, None, :] * np.exp(m_neg[:, None, :] - m_all)
    )
    loss = float(((p_pair * (lse - s[:, :, None]).transpose(2, 0, 1)).sum(axis=(1, 2)) * w_neg).sum())

    sm_pos = np.exp(s[:, :, None] - lse)
    grad = p_pair * ((sm_pos * w_neg).sum(axis=2) - 1.0)
    a_mass = ((1.0 - sm_pos) * p_pair[:, :, None]).sum(axis=1) * w_neg
    slot_frac = e_slot / s_neg[:, :, None]
    onehot = np.zeros((tuples.shape[0], n_neg, n))
    onehot[np.arange(tuples.shape[0])[:, None], np.arange(n_neg)[None, :], tuples] = 1.0
    grad += np.einsum("at,atj,tjz->az", a_mass, slot_frac, onehot)
    return loss, grad


def _ordered_infonce_tv_gap(scores, process, b):
    """Worst candidate-conditional TV gap over every anchor and ordered tuple.

    Each anchor's n^(2B-1) tuples are scored in one array; tuples whose
    K_plus sum is 0 are skipped.
    """
    s = np.asarray(scores, dtype=float)
    k_plus = process.k_plus
    n = process.n
    tuples = np.asarray(
        list(itertools.product(range(n), repeat=2 * b - 1)), dtype=int
    )
    worst = 0.0
    for anchor in range(n):
        model = softmax(s[anchor, tuples])
        truth = k_plus[anchor, tuples]
        denom = truth.sum(axis=1, keepdims=True)
        live = denom[:, 0] != 0.0
        tv = 0.5 * np.abs(model[live] - truth[live] / denom[live]).sum(axis=1)
        assert np.isfinite(tv).all()  # max() below would drop a NaN
        worst = max(worst, float(tv.max(initial=0.0)))
    return worst


def _random_process(n, seed):
    """Uneven source, random stochastic augmentation with full support."""
    stream = Stream(seed)
    p = 0.2 + stream.uniform(n)
    a = 0.05 + stream.uniform(n * n).reshape(n, n)
    return pair_process(
        FiniteSpace([f"x{i}" for i in range(n)], p / p.sum()),
        a / a.sum(axis=1, keepdims=True),
    )


def _two_block_process(n):
    """Two clusters the augmentation never crosses, so K_plus has zeros."""
    half = n // 2
    a = np.zeros((n, n))
    a[:half, :half] = 1.0 / half
    a[half:, half:] = 1.0 / (n - half)
    p = np.arange(1.0, n + 1.0)
    return pair_process(FiniteSpace([f"x{i}" for i in range(n)], p / p.sum()), a)


REACHABLE = [(n, 2) for n in range(2, 7)] + [(n, 3) for n in range(2, 7)] + [
    (n, 4) for n in range(2, 5)
]


@pytest.mark.parametrize("n,b", REACHABLE)
def test_multisets_match_ordered_oracle(n, b):
    for process in (_random_process(n, seed=n + 10 * b), _two_block_process(n)):
        base = Stream(100 * n + b).normal(n * n).reshape(n, n)
        # at +-1000 score gaps pass 709, where exp overflows without the
        # per-multiset max and the off-support mask
        for scale in (None, 200.0, 1000.0):
            scores = base if scale is None else scale * base / np.abs(base).max()
            loss, grad = simclr_loss_grad(scores, process, b)
            ref_loss, ref_grad = _ordered_simclr_loss_grad(scores, process, b)
            assert np.isfinite(loss) and np.isfinite(grad).all()
            assert np.isfinite(ref_loss) and np.isfinite(ref_grad).all()
            assert abs(loss - ref_loss) <= 1e-12 * abs(ref_loss)
            grad_scale = max(1.0, np.abs(ref_grad).max())
            assert np.abs(grad - ref_grad).max() <= 1e-12 * grad_scale

            tv = infonce_tv_gap(scores, process, b)
            assert np.isfinite(tv)
            assert abs(tv - _ordered_infonce_tv_gap(scores, process, b)) <= 1e-12


def test_multiset_table_counts_every_tuple():
    for n, k in ((1, 3), (4, 2), (3, 5), (6, 4)):
        counts, coef, rows = _multisets(n, k)
        assert counts.shape == (rows.shape[0], n)
        np.testing.assert_array_equal(counts.sum(axis=1), k)
        # the multinomial weights count every ordered tuple exactly once
        assert coef.sum() == n ** k
        assert _multisets(n, k)[0] is counts


@pytest.mark.parametrize("b", [2, 3, 4])
def test_closed_form_optimum_at_eight_items(b):
    """s = log K_plus (up to per-row shifts) is the global minimum for every B.

    softmax(log K_plus) over any candidate set is the exact posterior of
    the positive, so the gradient vanishes and the TV gap is zero.
    """
    n = 8
    process = _random_process(n, seed=40 + b)
    shifts = Stream(b).normal(n)[:, None]
    scores = np.log(process.k_plus) + shifts
    loss, grad = simclr_loss_grad(scores, process, b)
    assert np.isfinite(loss)
    assert np.abs(grad).max() < 1e-12
    assert infonce_tv_gap(scores, process, b) < 1e-12
    if b == 4:
        mean, stderr = simclr_loss_mc(scores, process, b, n_samples=40_000, seed=5)
        assert abs(mean - loss) < 4.0 * stderr


def _sum_battery():
    """Seeded nonnegative vectors: empty, single values, zeros, subnormals,
    exponents spanning 1e-300 to 1e+300, lengths up to 6,000."""
    rng = np.random.default_rng(23)
    yield np.zeros(0)
    yield from (np.array([v]) for v in (0.0, 5e-324, 1.0, 0.1, 1.7e308))
    yield np.zeros(100)
    yield np.full(7, 5e-324)
    for trial in range(200):
        n = int(rng.integers(1, 6001)) if trial % 4 else int(rng.integers(1, 9))
        kind = trial % 5
        if kind == 0:
            v = rng.random(n)
        elif kind == 1:
            v = 10.0 ** rng.uniform(-300.0, 300.0, n)
        elif kind == 2:  # subnormals
            v = rng.integers(0, 2**52, n) * 5e-324
        elif kind == 3:  # one decade, so many values share an exponent bin
            v = 1.0 + rng.random(n)
        else:
            v = 10.0 ** rng.uniform(-320.0, 300.0, n)
            v[rng.random(n) < 0.3] = 0.0
        yield v


def test_exact_sum_is_fsum_bit_for_bit():
    for v in _sum_battery():
        got, want = _exact_sum(v), math.fsum(v.tolist())
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), v[:4]


@pytest.mark.parametrize("values", [
    [-0.0], [-0.0, -0.0], [0.0, -0.0], [-1.0, 2.5, 1e-300], [1.0, -1.0, 1e-30],
    [np.inf, 1.0], [np.nan, 1.0], [np.inf, -np.inf], [1e308, 1e308],
], ids=["neg-zero", "neg-zeros", "mixed-zeros", "negative", "cancel", "inf", "nan",
        "inf-minus-inf", "overflow"])
def test_exact_sum_returns_what_fsum_returns(values):
    """Signed, non-finite or overflowing input gets fsum's value or its error."""
    v = np.array(values)
    try:
        want = math.fsum(values)
    except (OverflowError, ValueError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            _exact_sum(v)
        return
    got = _exact_sum(v)
    assert got == want or (math.isnan(got) and math.isnan(want))
    assert math.copysign(1.0, got) == math.copysign(1.0, want)
