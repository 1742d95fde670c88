import tracemalloc

import numpy as np
import pytest

from kernelcontrast import verify
from kernelcontrast.kernel_approx import (
    RANK_FLOOR,
    RffModel,
    nystrom_features,
    nystrom_fit,
    rff_features,
    rff_sample,
)
from kernelcontrast.kernels import cross_gram, gaussian_kernel, gram, linear_kernel
from kernelcontrast.rng import Stream


def _cloud(n, seed=0):
    return list(Stream(seed).uniform(2 * n, -2.0, 2.0).reshape(n, 2))


# ------------------------------------------------------------------ Nystrom


def _gram_approx(model, pts):
    feats = nystrom_features(model, pts)
    return feats @ feats.T


def test_nystrom_collapses_at_landmarks():
    """The extension of eigenfunction i, feature column i times
    sqrt(M / lambda_i), evaluated at landmark j equals sqrt(M) u_i[j]."""
    kern = gaussian_kernel(0.8)
    landmarks = _cloud(6, seed=1)
    model = nystrom_fit(kern, landmarks, d=6)
    m = len(landmarks)
    feats = nystrom_features(model, landmarks)
    assert feats.shape == (m, model.usable_rank)
    for i in range(model.usable_rank):
        vals = feats[:, i] * np.sqrt(m / model.eigenvalues[i])
        np.testing.assert_allclose(vals, np.sqrt(m) * model.eigenvectors[:, i], rtol=0, atol=1e-8)


def test_nystrom_full_sampling_reproduces_gram():
    """With every point a landmark and full rank, the approximation is exact."""
    kern = gaussian_kernel(1.2)
    pts = _cloud(10, seed=2)
    model = nystrom_fit(kern, pts, d=10)
    approx = _gram_approx(model, pts)
    exact = gram(kern, pts)
    assert np.abs(approx - exact).max() < 1e-8


def test_nystrom_error_shrinks_with_landmark_count():
    """Median worst-entry error over random landmark draws, M = 3 vs 12.

    Monotonicity per draw is not guaranteed (landmark placement matters),
    so the comparison is between medians across 15 seeds.
    """
    kern = gaussian_kernel(1.0)
    pts = _cloud(16, seed=3)
    exact = gram(kern, pts)

    def median_err(m):
        errs = []
        for trial in range(15):
            idx = Stream(50 + trial).choice_without_replacement(16, m)
            model = nystrom_fit(kern, [pts[i] for i in idx], d=m)
            approx = _gram_approx(model, pts)
            errs.append(np.abs(approx - exact).max())
        return float(np.median(errs))

    assert median_err(12) < median_err(3)


def test_nystrom_rank_truncation_uses_top_eigenvalues():
    kern = gaussian_kernel(1.0)
    pts = _cloud(8, seed=4)
    full = nystrom_fit(kern, pts, d=8)
    trunc = nystrom_fit(kern, pts, d=3)
    np.testing.assert_array_equal(trunc.eigenvalues, full.eigenvalues)
    approx = _gram_approx(trunc, pts)
    # rank of the approximation is at most 3
    from kernelcontrast.kernels import jacobi_eigh

    lam = jacobi_eigh((approx + approx.T) / 2.0).eigenvalues
    assert (lam > 1e-8 * lam[0]).sum() <= 3


def test_nystrom_gram_approx_skips_floored_eigenvalues():
    """Duplicated landmarks make the Gram singular: the zero eigenvalue is
    at the conditioning floor, so it gets no feature column and nothing
    divides by it."""
    pt = np.array([0.5, -0.25])
    model = nystrom_fit(gaussian_kernel(1.0), [pt, pt], d=2)
    assert model.usable_rank == 1
    feats = nystrom_features(model, [pt])
    assert feats.shape == (1, 1)
    approx = feats @ feats.T
    assert np.isfinite(approx).all()
    assert approx[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_nystrom_gram_approx_is_feature_inner_products():
    """F F^T is C U diag(1/lambda) U^T C^T over the kept, usable eigenpairs."""
    kern = gaussian_kernel(0.6)
    pts = _cloud(12, seed=4)
    model = nystrom_fit(kern, pts[:5], d=4)
    feats = nystrom_features(model, pts)
    assert feats.shape == (12, min(model.rank, model.usable_rank))
    c = cross_gram(kern, pts, pts[:5])
    u = model.eigenvectors[:, : feats.shape[1]]
    expected = c @ u @ np.diag(1.0 / model.eigenvalues[: feats.shape[1]]) @ u.T @ c.T
    np.testing.assert_allclose(feats @ feats.T, expected, rtol=0, atol=1e-12)


def test_usable_rank_is_what_the_extension_can_divide_by():
    """With the largest eigenvalue below 1, usable_rank still counts only
    eigenvalues above the absolute floor, and the features keep just those."""
    pts = [np.array([0.1, 0.0]), np.array([0.1, 3e-6])]
    model = nystrom_fit(linear_kernel(), pts, d=2)
    assert RANK_FLOOR * model.eigenvalues[0] < model.eigenvalues[1] <= RANK_FLOOR
    assert model.usable_rank == 1
    assert nystrom_features(model, pts).shape == (2, 1)


def test_nystrom_fit_validation():
    with pytest.raises(ValueError):
        nystrom_fit(linear_kernel(), _cloud(4), d=5)
    with pytest.raises(ValueError):
        nystrom_fit(linear_kernel(), _cloud(4), d=0)


def test_sample_landmarks_distinct_and_deterministic():
    """Landmark indices are drawn with `Stream.choice_without_replacement`."""
    a = Stream(7).choice_without_replacement(30, 10)
    b = Stream(7).choice_without_replacement(30, 10)
    np.testing.assert_array_equal(a, b)
    assert len(set(a.tolist())) == 10


# ---------------------------------------------------------------------- RFF


def test_rff_features_have_unit_norm():
    model = rff_sample(sigma2=1.0, d=64, n0=3, seed=0)
    for seed in range(5):
        x = Stream(seed).normal(3)
        phi = rff_features(model, x)
        assert phi.shape == (128,)
        assert np.dot(phi, phi) == pytest.approx(1.0, abs=1e-12)


def test_rff_deterministic_given_seed():
    a = rff_sample(sigma2=0.5, d=32, n0=2, seed=3)
    b = rff_sample(sigma2=0.5, d=32, n0=2, seed=3)
    np.testing.assert_array_equal(a.frequencies, b.frequencies)
    assert a.n_features == 32


def test_rff_inner_product_approximates_gaussian_kernel():
    """Feature inner products against the closed-form kernel at d = 4000.

    The error scale at this width is about 1/sqrt(d) ~ 0.016, so a 0.06
    ceiling over 50 pairs is comfortable without being vacuous.
    """
    sigma2 = 1.3
    model = rff_sample(sigma2=sigma2, d=4000, n0=2, seed=11)
    pts = Stream(12).uniform(200, -1.5, 1.5).reshape(50, 2, 2)
    worst = 0.0
    for x, z in pts:
        approx = float(np.dot(rff_features(model, x), rff_features(model, z)))
        exact = np.exp(-np.square(x - z).sum() / (2.0 * sigma2))
        worst = max(worst, abs(approx - exact))
    assert worst < 0.06


def test_rff_error_concentrates_with_width():
    """Mean absolute error at one pair decreases from d=50 to d=5000."""
    x = np.array([0.3, -0.7])
    z = np.array([-0.2, 0.4])
    exact = np.exp(-np.square(x - z).sum() / 2.0)

    def mean_err(d):
        errs = []
        for trial in range(30):
            model = rff_sample(sigma2=1.0, d=d, n0=2, seed=300 + trial)
            errs.append(abs(float(np.dot(rff_features(model, x), rff_features(model, z))) - exact))
        return float(np.mean(errs))

    assert mean_err(5000) < mean_err(50) / 3.0


def test_rff_frequency_marginals_match_spectral_measure():
    # frequencies are N(0, 1/sigma2): check the empirical second moment
    sigma2 = 2.0
    model = rff_sample(sigma2=sigma2, d=20000, n0=1, seed=5)
    assert np.mean(model.frequencies**2) == pytest.approx(1.0 / sigma2, rel=0.03)


def test_rff_batch_rows_equal_single_points():
    model = rff_sample(sigma2=0.7, d=40, n0=3, seed=2)
    batch = Stream(8).normal(30).reshape(10, 3)
    feats = rff_features(model, batch)
    assert feats.shape == (10, 80)
    # One matrix product or one per row: only the BLAS summation order of the
    # phases w.x differs, a few ulps of |w.x| <= ~20.
    for row, x in zip(feats, batch):
        np.testing.assert_allclose(row, rff_features(model, x), rtol=0, atol=1e-14)


def _concatenated_rff(model, x):
    """The feature map as one concatenation and one division."""
    t = np.asarray(x, dtype=float) @ model.frequencies.T
    return np.concatenate((np.cos(t), np.sin(t)), axis=-1) / np.sqrt(model.n_features)


@pytest.mark.parametrize("d, n0, x", [
    (64, 3, Stream(14).normal(3)),
    (300, 2, Stream(15).normal(2 * 37).reshape(37, 2)),
    (500, 2, np.array([[0.0, 0.0], [np.sqrt(2.0 * np.log(2.0)), 0.0]])),
], ids=["one-point", "batch", "verify-pair"])
def test_rff_in_place_map_is_bit_identical_to_concatenation(d, n0, x):
    model = rff_sample(sigma2=1.0, d=d, n0=n0, seed=16)
    feats = rff_features(model, x)
    expected = _concatenated_rff(model, x)
    assert feats.shape == expected.shape and feats.dtype == expected.dtype
    assert feats.tobytes() == expected.tobytes()


def test_rff_features_hold_one_output_and_the_phases():
    """Peak traced memory is the output plus the phases w.x, half its size;
    the concatenation held cos, sin, their join and the quotient."""
    model = rff_sample(sigma2=1.0, d=2000, n0=2, seed=17)
    x = Stream(18).normal(400).reshape(200, 2)
    tracemalloc.start()
    try:
        feats = rff_features(model, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * feats.nbytes


def test_rff_rejects_bad_batch_shapes():
    model = rff_sample(sigma2=1.0, d=4, n0=2, seed=0)
    for shape in ((4, 3), (1, 4, 2), ()):
        with pytest.raises(ValueError, match="expected"):
            rff_features(model, np.zeros(shape))


def test_rff_validation():
    with pytest.raises(ValueError):
        rff_sample(sigma2=0.0, d=4, n0=2, seed=0)
    with pytest.raises(ValueError):
        rff_sample(sigma2=1.0, d=0, n0=2, seed=0)
    model = rff_sample(sigma2=1.0, d=4, n0=2, seed=0)
    with pytest.raises(ValueError):
        rff_features(model, np.zeros(3))


# x = 0 and z where the Gaussian kernel (sigma2 = 1) is exactly 1/2
_HALF_PAIR = np.array([[0.0, 0.0], [np.sqrt(2.0 * np.log(2.0)), 0.0]])


def test_verify_rff_block_estimates_equal_one_model_per_block():
    model = rff_sample(1.0, verify.RFF_BLOCKS * 500, 2, seed=3)
    got = verify._rff_block_estimates(model, _HALF_PAIR)
    want = [
        float(np.dot(*rff_features(RffModel(block), _HALF_PAIR)))
        for block in np.split(model.frequencies, verify.RFF_BLOCKS)
    ]
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 6])
def test_verify_rff_failure_rate_matches_one_model_per_trial(seed):
    failures = 0
    for t in range(1000):
        fx, fz = rff_features(rff_sample(1.0, 500, 2, seed + 10 + t), _HALF_PAIR)
        failures += abs(float(np.dot(fx, fz)) - 0.5) >= 0.1
    check = verify.run_suite("rff", seed)["checks"][1]
    assert check["name"] == "failure rate at eps=0.1, d=500"
    assert check["observed"] == failures / 1000
