import numpy as np
import pytest

from kernelcontrast.eigenfunctions import (
    mlp_eigenfunctions,
    neuralef_batch_loss,
    train_eigenfunctions,
)
from kernelcontrast.encoders import OptimizerConfig, grad_check
from kernelcontrast.kernels import gaussian_kernel, gram, mercer_decompose
from kernelcontrast.rng import Stream


def _line_kernel(n=8, seed=0, sigma2=1.0):
    """Gaussian Gram on sorted points, a well-separated test spectrum."""
    pts = np.sort(Stream(seed).uniform(n, 0.0, 4.0)).reshape(n, 1)
    return gram(gaussian_kernel(sigma2), pts), pts


# ------------------------------------------------------ the Mercer oracle


def test_mercer_functions_diagonalize_the_weighted_kernel():
    """R_ij = sum_xz psi_i(x) p(x) K(x,z) p(z) psi_j(z) = lambda_i delta_ij."""
    k, _ = _line_kernel(6)
    p = np.full(6, 1.0 / 6.0)
    lam, psi = mercer_decompose(k, p)
    weighted = p[:, None] * psi[:, :3]
    np.testing.assert_allclose(weighted.T @ k @ weighted, np.diag(lam[:3]), rtol=0, atol=1e-10)


# ------------------------------------------------------- streaming batch loss


def test_batch_loss_single_function_is_rayleigh_quotient():
    """With d = 1 there is no penalty: loss = -R_11 on the batch."""
    k, _ = _line_kernel(6)
    batch = [0, 2, 3, 5]
    tables = Stream(4).normal(6).reshape(1, 6)
    loss, _ = neuralef_batch_loss(tables, batch, k, sg=True)
    rows = tables[:, batch]
    phi = rows / np.sqrt(np.square(rows).mean())
    b = len(batch)
    r11 = float(phi[0] @ k[np.ix_(batch, batch)] @ phi[0]) / (b * b)
    assert loss == pytest.approx(-r11)


def test_batch_loss_grad_finite_difference_no_sg():
    """With sg off the loss is an honest function: FD must match exactly.

    The returned gradient lives in the batch values (d, B), so the probe
    parameters are exactly those; table entries off the batch are inert.
    """
    k, _ = _line_kernel(6)
    batch = [0, 1, 3, 4]
    d, b = 3, len(batch)

    def fun(flat):
        tables = np.zeros((d, 6))
        tables[:, batch] = flat.reshape(d, b)
        return neuralef_batch_loss(tables, batch, k, sg=False)

    x0 = Stream(5).normal(d * b)
    assert grad_check(fun, x0) < 1e-6


def test_batch_loss_sg_gradient_frozen_terms():
    """The sg gradient equals differentiating only the j-side occurrences.

    Checked by finite differences of a surrogate in which the i-function
    values entering the penalties (and the denominators) are frozen at
    their base values while the j occurrences move.
    """
    k, _ = _line_kernel(5)
    batch = [0, 1, 2, 4]
    base = Stream(6).normal(10).reshape(2, 5)
    _, sg_grad = neuralef_batch_loss(base, batch, k, sg=True)

    idx = np.asarray(batch)
    g = k[np.ix_(idx, idx)]
    b = len(batch)
    base_rows = base[:, idx]

    def frozen_surrogate(rows_flat):
        rows = rows_flat.reshape(2, b)
        rms = np.sqrt(np.square(rows).mean(axis=1))
        phi = rows / rms[:, None]
        base_phi = base_rows / np.sqrt(np.square(base_rows).mean(axis=1))[:, None]
        r = phi @ g @ phi.T / (b * b)
        r_base = base_phi @ g @ base_phi.T / (b * b)
        r_cross = base_phi @ g @ phi.T / (b * b)  # frozen i against live j
        return -r[0, 0] - r[1, 1] + r_cross[0, 1] ** 2 / r_base[0, 0]

    eps = 1e-6
    flat0 = base_rows.reshape(-1).copy()
    for coord in range(flat0.size):
        up = flat0.copy()
        up[coord] += eps
        down = flat0.copy()
        down[coord] -= eps
        numeric = (frozen_surrogate(up) - frozen_surrogate(down)) / (2 * eps)
        assert sg_grad[coord] == pytest.approx(numeric, abs=5e-5)


def test_batch_loss_rejects_degenerate_batches():
    k, _ = _line_kernel(4)
    with pytest.raises(ValueError, match="nonempty"):
        neuralef_batch_loss(np.ones((1, 4)), [], k)
    with pytest.raises(ValueError, match="zero"):
        neuralef_batch_loss(np.zeros((1, 4)), [0, 1], k)


# --------------------------------------------------------- full training


def test_train_recovers_mercer_eigensystem():
    """Sequential training against the direct weighted eigendecomposition.

    The oracle is mercer_decompose, which the training path never calls.
    Eigenvalue estimates, eigenfunction values (up to the shared sign
    convention), and descending order must all match.
    """
    k, _ = _line_kernel(8)
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
    k, _ = _line_kernel(7, seed=3)
    p = np.full(7, 1.0 / 7.0)
    trained = train_eigenfunctions(k, p, d=3, config=OptimizerConfig(tol=1e-11, max_iter=30000))
    v = trained.values
    gram_w = v.T @ (p[:, None] * v)
    np.testing.assert_allclose(gram_w, np.eye(3), atol=1e-5)


def test_train_gaps_come_from_estimates():
    k, _ = _line_kernel(6, seed=2)
    p = np.full(6, 1.0 / 6.0)
    trained = train_eigenfunctions(k, p, d=3)
    want = (trained.estimates[:-1] - trained.estimates[1:]) / trained.estimates[0]
    np.testing.assert_allclose(trained.gaps, want, atol=0)
    assert trained.d == 3


def test_train_with_nonuniform_weights():
    k, _ = _line_kernel(6, seed=4)
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


def _train_table(k, pts, p):
    return train_eigenfunctions(k, p, d=1, config=OptimizerConfig(max_iter=50))


def _train_mlp(k, pts, p):
    return mlp_eigenfunctions(gaussian_kernel(1.0), pts, p, d=1,
                              config=OptimizerConfig(max_iter=50))


@pytest.mark.parametrize("trainer", [_train_table, _train_mlp], ids=["table", "mlp"])
@pytest.mark.parametrize("bad", [0.0, -0.125], ids=["zero", "negative"])
def test_both_trainers_reject_nonpositive_weights(trainer, bad):
    """Both trainers share one weight check, made before any training."""
    k, pts = _line_kernel(8, seed=1)
    p = np.full(8, 0.125)
    p[3] = bad
    with pytest.raises(ValueError, match="strictly positive"):
        trainer(k, pts, p)


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


def test_mlp_variant_tracks_the_spectrum_qualitatively():
    """Network capacity limits accuracy; order and rough scale must hold."""
    k, pts = _line_kernel(8, seed=1)
    p = np.full(8, 0.125)
    lam, _ = mercer_decompose(k, p)
    trained = mlp_eigenfunctions(
        gaussian_kernel(1.0),
        pts,
        p,
        d=2,
        config=OptimizerConfig(tol=1e-8, max_iter=3000),
        hidden=(16,),
    )
    assert trained.estimates[0] > trained.estimates[1]
    assert trained.estimates[0] == pytest.approx(lam[0], rel=0.15)
    with pytest.raises(ValueError):
        mlp_eigenfunctions(gaussian_kernel(1.0), pts, p[:5], d=2)
