import numpy as np
import pytest

from kernelcontrast import eigenfunctions
from kernelcontrast.eigenfunctions import train_eigenfunctions
from kernelcontrast.encoders import OptimizerConfig
from kernelcontrast.kernels import gaussian_kernel, gram, mercer_decompose
from kernelcontrast.rng import Stream


def _line_kernel(n=8, seed=0, sigma2=1.0):
    """Gaussian Gram on sorted points, a well-separated test spectrum."""
    pts = np.sort(Stream(seed).uniform(n, 0.0, 4.0)).reshape(n, 1)
    return gram(gaussian_kernel(sigma2), pts)


# ------------------------------------------------------ the Mercer oracle


def test_mercer_functions_diagonalize_the_weighted_kernel():
    """R_ij = sum_xz psi_i(x) p(x) K(x,z) p(z) psi_j(z) = lambda_i delta_ij."""
    k = _line_kernel(6)
    p = np.full(6, 1.0 / 6.0)
    lam, psi = mercer_decompose(k, p)
    weighted = p[:, None] * psi[:, :3]
    np.testing.assert_allclose(weighted.T @ k @ weighted, np.diag(lam[:3]), rtol=0, atol=1e-10)


# --------------------------------------------------------- full training


def test_train_recovers_mercer_eigensystem():
    """Sequential training against the direct weighted eigendecomposition.

    The oracle is mercer_decompose, which the training path never calls.
    Eigenvalue estimates, eigenfunction values (up to the shared sign
    convention), and descending order must all match.
    """
    k = _line_kernel(8)
    p = np.full(8, 0.125)
    lam, psi = mercer_decompose(k, p)
    gaps = (lam[:3] - lam[1:4]) / lam[0]
    assert gaps.min() > 0.05, "test kernel must have separated eigenvalues"

    cfg = OptimizerConfig(tol=1e-12, max_iter=40000)
    trained = train_eigenfunctions(k, p, d=3, config=cfg)

    np.testing.assert_allclose(trained.estimates, lam[:3], atol=1e-6)
    assert np.all(np.diff(trained.estimates) < 0.0)
    for j in range(3):
        a = trained.values[:, j]
        b = psi[:, j]
        cos = abs(a @ (p * b)) / np.sqrt((a @ (p * a)) * (b @ (p * b)))
        assert cos > 1.0 - 1e-8


def test_trained_functions_are_orthonormal_under_p():
    k = _line_kernel(7, seed=3)
    p = np.full(7, 1.0 / 7.0)
    trained = train_eigenfunctions(k, p, d=3, config=OptimizerConfig(tol=1e-11, max_iter=30000))
    v = trained.values
    gram_w = v.T @ (p[:, None] * v)
    np.testing.assert_allclose(gram_w, np.eye(3), atol=1e-5)


def test_train_gaps_come_from_estimates():
    k = _line_kernel(6, seed=2)
    p = np.full(6, 1.0 / 6.0)
    trained = train_eigenfunctions(k, p, d=3)
    want = (trained.estimates[:-1] - trained.estimates[1:]) / trained.estimates[0]
    np.testing.assert_allclose(trained.gaps, want, atol=0)
    assert trained.values.shape[1] == 3


def test_train_with_nonuniform_weights():
    k = _line_kernel(6, seed=4)
    p = np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1])
    lam, psi = mercer_decompose(k, p)
    trained = train_eigenfunctions(
        k, p, d=2, config=OptimizerConfig(tol=1e-12, max_iter=40000)
    )
    np.testing.assert_allclose(trained.estimates, lam[:2], atol=1e-6)


def test_train_validation():
    k = np.eye(3)
    with pytest.raises(ValueError):
        train_eigenfunctions(k, np.array([0.5, 0.5]), d=1)
    with pytest.raises(ValueError):
        train_eigenfunctions(k, np.array([0.5, 0.5, 0.0]), d=1)
    with pytest.raises(ValueError):
        train_eigenfunctions(k, np.full(3, 1.0 / 3.0), d=4)


@pytest.mark.parametrize("bad", [0.0, -0.125], ids=["zero", "negative"])
def test_train_rejects_nonpositive_weights(bad, monkeypatch):
    """The weight check runs before any training."""

    def no_training(*args):
        raise AssertionError("minimize called")

    monkeypatch.setattr(eigenfunctions, "minimize", no_training)
    k = _line_kernel(8, seed=1)
    p = np.full(8, 0.125)
    p[3] = bad
    with pytest.raises(ValueError, match="strictly positive"):
        train_eigenfunctions(k, p, d=1)


def test_two_block_kernel_separates_classes():
    """Eigenfunctions of a two-block kernel encode block membership.

    The top function of each block structure is block-constant, so a
    threshold on the second eigenfunction splits the classes exactly.
    """
    block = np.array(
        [
            [1.0, 0.9, 0.05, 0.05],
            [0.9, 1.0, 0.05, 0.05],
            [0.05, 0.05, 1.0, 0.9],
            [0.05, 0.05, 0.9, 1.0],
        ]
    )
    p = np.full(4, 0.25)
    trained = train_eigenfunctions(
        block, p, d=2, config=OptimizerConfig(tol=1e-12, max_iter=30000)
    )
    second = trained.values[:, 1]
    assert np.sign(second[0]) == np.sign(second[1])
    assert np.sign(second[2]) == np.sign(second[3])
    assert np.sign(second[0]) != np.sign(second[2])
