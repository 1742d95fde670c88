import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast.linear_dr import (
    double_center,
    low_rank_factor,
    mds_embed,
    pca_fit,
    pca_transform,
)
from kernelcontrast.rng import Stream


def _pairwise_sq(x):
    sq = np.square(x).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * x @ x.T, 0.0)
    np.fill_diagonal(d2, 0.0)
    return d2


# ---------------------------------------------------------------------- PCA


def test_pca_recovers_dominant_axis():
    # data stretched 10:1 along a known direction
    direction = np.array([3.0, 4.0]) / 5.0
    t = Stream(0).normal(300)
    noise = Stream(1).normal(300)
    ortho = np.array([-4.0, 3.0]) / 5.0
    x = 10.0 * t[:, None] * direction + 0.5 * noise[:, None] * ortho
    model = pca_fit(x, 1)
    axis = model.basis[:, 0]
    assert abs(abs(axis @ direction) - 1.0) < 1e-3


def test_pca_projection_variance_beats_random_directions():
    """EY optimality of the top eigenvector, checked against 50 contenders.

    The variance of the data projected on the first principal axis must be
    at least the variance along any other unit direction.
    """
    x = Stream(7).normal(80).reshape(40, 2) @ np.array([[2.0, 0.3], [0.3, 0.5]])
    model = pca_fit(x, 1)
    centered = x - x.mean(axis=0)
    best = np.var(centered @ model.basis[:, 0])
    for seed in range(50):
        v = Stream(100 + seed).normal(2)
        v /= np.linalg.norm(v)
        assert np.var(centered @ v) <= best + 1e-12


def test_pca_eigenvalues_match_projected_variance():
    x = Stream(3).normal(90).reshape(30, 3)
    model = pca_fit(x, 3)
    centered = x - x.mean(axis=0)
    for j in range(3):
        proj = centered @ model.basis[:, j]
        assert np.mean(proj**2) == pytest.approx(model.eigenvalues[j], abs=1e-10)


def test_pca_transform_roundtrips_training_rows():
    x = Stream(4).normal(40).reshape(10, 4)
    model = pca_fit(x, 4)
    coords = pca_transform(model, x)
    recon = coords @ model.basis.T + model.mean
    np.testing.assert_allclose(recon, x, atol=1e-10)


def test_pca_transform_single_vector():
    x = Stream(5).normal(20).reshape(10, 2)
    model = pca_fit(x, 2)
    single = pca_transform(model, x[0])
    assert single.shape == (2,)
    np.testing.assert_allclose(single, pca_transform(model, x)[0], atol=0)


def test_pca_input_validation():
    with pytest.raises(ValueError):
        pca_fit(np.zeros((1, 3)), 1)
    with pytest.raises(ValueError):
        pca_fit(np.zeros((5, 3)), 4)
    model = pca_fit(Stream(0).normal(20).reshape(10, 2), 1)
    with pytest.raises(ValueError):
        pca_transform(model, np.zeros(3))


# ------------------------------------------------------------ double_center


def test_double_center_hand_example():
    # two points at 0 and 1 on a line; centered Gram is +/- 0.25
    g = double_center([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(g, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-15)


def test_double_center_recovers_centered_gram():
    x = Stream(6).normal(24).reshape(8, 3)
    centered = x - x.mean(axis=0)
    expected = centered @ centered.T
    got = double_center(_pairwise_sq(x))
    np.testing.assert_allclose(got, expected, atol=1e-10)


@settings(deadline=None, max_examples=40)
@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=1000))
def test_double_center_output_rows_sum_to_zero(n, seed):
    x = Stream(seed).uniform(n * 3, -2, 2).reshape(n, 3)
    g = double_center(_pairwise_sq(x))
    assert np.abs(g.sum(axis=1)).max() < 1e-9


@settings(deadline=None, max_examples=80)
@given(
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.lists(st.floats(0.0, 1e4), min_size=n * n, max_size=n * n).map(
            lambda flat: np.reshape(flat, (n, n))
        )
    )
)
def test_distances_round_trip_through_double_center(raw):
    """G = -J D J / 2 gives back D_ij = G_ii + G_jj - 2 G_ij for every
    symmetric zero-diagonal D, Euclidean or not."""
    d = raw + raw.T
    np.fill_diagonal(d, 0.0)
    g = double_center(d)
    diag = np.diag(g)
    back = diag[:, None] + diag[None, :] - 2.0 * g
    np.testing.assert_allclose(back, d, rtol=0, atol=1e-12 * max(1.0, d.max()))


def test_double_center_rejects_bad_input():
    with pytest.raises(ValueError, match="nonnegative"):
        double_center([[0.0, -1.0], [-1.0, 0.0]])
    with pytest.raises(ValueError, match="diagonal"):
        double_center([[1.0, 0.5], [0.5, 1.0]])


# ---------------------------------------------------------------------- MDS


def test_mds_roundtrips_euclidean_distances():
    """Embed from distances, then check the embedded distances match."""
    x = Stream(9).uniform(30, -1, 1).reshape(10, 3)
    dist = np.sqrt(_pairwise_sq(x))
    res = mds_embed(dist, 3)
    got = np.sqrt(_pairwise_sq(res.embeddings))
    np.testing.assert_allclose(got, dist, atol=1e-8)
    assert res.reconstruction_error < 1e-8
    assert np.all(res.eigenvalues > 0.0)


def test_mds_line_configuration():
    # three collinear points embed exactly in one dimension
    dist = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    res = mds_embed(dist, 1)
    emb = res.embeddings[:, 0]
    got = np.abs(emb[:, None] - emb[None, :])
    np.testing.assert_allclose(got, dist, atol=1e-10)


def test_mds_clamps_non_euclidean_spectrum():
    # four points where one distance is stretched beyond any Euclidean
    # realization: negative eigenvalues appear and are counted
    dist = np.array(
        [
            [0.0, 1.0, 1.0, 2.9],
            [1.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 1.0],
            [2.9, 1.0, 1.0, 0.0],
        ]
    )
    res = mds_embed(dist, 3)
    assert res.clamped_count > 0
    assert np.all(res.eigenvalues >= 0.0)


def test_mds_warns_when_rank_is_short():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = mds_embed(dist, 2)
    assert any("positive eigenvalues" in str(w.message) for w in caught)
    assert np.all(res.embeddings[:, 1] == 0.0)


# ----------------------------------------------------------- low_rank_factor


def test_low_rank_factor_exact_at_full_rank():
    g = Stream(11).normal(16).reshape(4, 4)
    a = g @ g.T
    f = low_rank_factor(a, 4)
    np.testing.assert_allclose(f @ f.T, a, atol=1e-10)


def test_low_rank_factor_beats_random_factors():
    """Frobenius optimality of spectral truncation, rank 2 against 40 rivals."""
    g = Stream(13).normal(36).reshape(6, 6)
    a = g @ g.T
    f = low_rank_factor(a, 2)
    best = np.linalg.norm(a - f @ f.T)
    for seed in range(40):
        rival = Stream(200 + seed).normal(12).reshape(6, 2)
        assert np.linalg.norm(a - rival @ rival.T) >= best - 1e-9


def test_low_rank_factor_frobenius_error_is_trailing_spectrum():
    g = Stream(14).normal(25).reshape(5, 5)
    a = g @ g.T
    from kernelcontrast.kernels import jacobi_eigh

    lam = jacobi_eigh(a).eigenvalues
    for d in (1, 2, 3):
        f = low_rank_factor(a, d)
        err = np.linalg.norm(a - f @ f.T)
        assert err == pytest.approx(np.sqrt(np.sum(lam[d:] ** 2)), abs=1e-9)


def test_low_rank_factor_rejects_indefinite():
    with pytest.raises(ValueError, match="not PSD"):
        low_rank_factor([[0.0, 1.0], [1.0, 0.0]], 1)
    with pytest.raises(ValueError):
        low_rank_factor(np.eye(3), 4)
