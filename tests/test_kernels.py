import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernelcontrast import kernel_approx, kernels, linear_dr, manifold, verify
from kernelcontrast.kernels import (
    SYM_TOL,
    FiniteSpace,
    as_sym_array,
    cross_gram,
    eigh,
    gaussian_kernel,
    gram,
    is_psd,
    jacobi_eigh,
    linear_kernel,
    mercer_decompose,
    polynomial_kernel,
    table_kernel,
)
from kernelcontrast.rng import Stream


# ---------------------------------------------------------------- as_sym_array


def test_symmatrix_mirrors_upper_triangle():
    m = as_sym_array([[1.0, 2.0], [2.0 + 1e-12, 3.0]])
    assert m[0, 1] == m[1, 0]


def test_symmatrix_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        as_sym_array([[0.0, 1.0], [0.5, 0.0]])


def test_symmatrix_rejects_nonsquare():
    with pytest.raises(ValueError):
        as_sym_array(np.zeros((2, 3)))


def test_symmatrix_allows_symmetric_inf():
    a = np.zeros((2, 2))
    a[0, 1] = a[1, 0] = np.inf
    m = as_sym_array(a)
    assert np.isinf(m[0, 1])


def test_symmatrix_rejects_asymmetric_inf():
    a = np.zeros((2, 2))
    a[0, 1] = np.inf
    with pytest.raises(ValueError):
        as_sym_array(a)


@st.composite
def _sym_case(draw, min_n):
    """A symmetric matrix with entries up to 1e3 and a same-shape noise matrix in [-1, 1]."""
    n = draw(st.integers(min_value=min_n, max_value=6))

    def square(lo, hi):
        flat = draw(st.lists(st.floats(lo, hi), min_size=n * n, max_size=n * n))
        return np.reshape(flat, (n, n))

    raw = square(-1e3, 1e3)
    return (raw + raw.T) / 2.0, square(-1.0, 1.0)


@settings(deadline=None, max_examples=80)
@given(_sym_case(1))
def test_symmatrix_output_is_bitwise_symmetric(case):
    """Asymmetry within SYM_TOL is accepted and the upper triangle mirrored."""
    sym, noise = case
    a = sym + 0.4 * SYM_TOL * max(1.0, float(np.abs(sym).max())) * noise
    m = as_sym_array(a)
    np.testing.assert_array_equal(m, m.T)
    np.testing.assert_array_equal(np.triu(m), np.triu(a))


@settings(deadline=None, max_examples=80)
@given(_sym_case(2), st.floats(min_value=2.0, max_value=1e6))
def test_symmatrix_rejects_asymmetry_past_tolerance(case, factor):
    sym, _ = case
    bad = sym.copy()
    bad[0, 1] += factor * SYM_TOL * max(1.0, float(np.abs(sym).max()))
    with pytest.raises(ValueError, match="not symmetric"):
        as_sym_array(bad)


# ------------------------------------------------------------- jacobi_eigh
#
# Oracles here are closed forms computed by hand, not another eigensolver:
# [[a, b], [b, a]] has eigenvalues a+b and a-b with eigenvectors
# (1, 1)/sqrt(2) and (1, -1)/sqrt(2).


def test_jacobi_2x2_closed_form():
    eig = jacobi_eigh([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(eig.eigenvectors[:, 0], [r, r], atol=1e-14)
    np.testing.assert_allclose(eig.eigenvectors[:, 1], [r, -r], atol=1e-14)


def test_jacobi_diagonal_input():
    eig = jacobi_eigh(np.diag([1.0, 5.0, 3.0]))
    np.testing.assert_array_equal(eig.eigenvalues, [5.0, 3.0, 1.0])
    # columns are signed unit vectors in the sorted order
    np.testing.assert_array_equal(eig.eigenvectors[:, 0], [0.0, 1.0, 0.0])


def test_jacobi_3x3_known_spectrum():
    # circulant [[0,1,1],[1,0,1],[1,1,0]]: eigenvalues 2, -1, -1
    eig = jacobi_eigh([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    np.testing.assert_allclose(eig.eigenvalues, [2.0, -1.0, -1.0], atol=1e-13)
    r = 1.0 / np.sqrt(3.0)
    np.testing.assert_allclose(np.abs(eig.eigenvectors[:, 0]), [r, r, r], atol=1e-13)


def test_jacobi_reconstruct_and_orthogonality():
    for seed in range(6):
        g = Stream(seed).normal(49).reshape(7, 7)
        a = (g + g.T) / 2.0
        eig = jacobi_eigh(a)
        v = eig.eigenvectors
        np.testing.assert_allclose((v * eig.eigenvalues) @ v.T, a, atol=1e-12)
        np.testing.assert_allclose(v.T @ v, np.eye(7), atol=1e-12)
        assert np.all(np.diff(eig.eigenvalues) <= 1e-12)


def test_jacobi_sign_convention():
    """The largest-magnitude entry of every eigenvector column is positive."""
    g = Stream(12).normal(36).reshape(6, 6)
    eig = jacobi_eigh((g + g.T) / 2.0)
    for j in range(6):
        col = eig.eigenvectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0


def test_jacobi_determinism():
    g = Stream(3).normal(25).reshape(5, 5)
    a = (g + g.T) / 2.0
    e1 = jacobi_eigh(a)
    e2 = jacobi_eigh(a)
    np.testing.assert_array_equal(e1.eigenvalues, e2.eigenvalues)
    np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)


def test_jacobi_1x1_and_zero():
    assert jacobi_eigh([[4.0]]).eigenvalues[0] == 4.0
    eig = jacobi_eigh(np.zeros((3, 3)))
    np.testing.assert_array_equal(eig.eigenvalues, np.zeros(3))


def test_jacobi_refuses_a_matrix_unsettled_at_the_sweep_cap(monkeypatch):
    monkeypatch.setattr(kernels, "JACOBI_MAX_SWEEPS", 1)
    g = Stream(3).normal(49).reshape(7, 7)
    with pytest.raises(RuntimeError, match="failed to converge in 1 sweeps"):
        jacobi_eigh((g + g.T) / 2.0)


@pytest.mark.parametrize("solver", [jacobi_eigh, eigh])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_solvers_reject_non_finite_input(solver, bad):
    a = np.eye(3)
    a[1, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        solver(a)


# --------------------------------------------------------------------- eigh
#
# The toolbox solver is LAPACK; the oracle solver is Jacobi. They must agree
# on the spectrum and, inside each well-separated eigenvalue cluster, on the
# spectral projector (the eigenvector basis inside a cluster is arbitrary).

@st.composite
def _symmetric(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    entries = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
    raw = np.reshape(draw(st.lists(entries, min_size=n * n, max_size=n * n)), (n, n))
    return (raw + raw.T) / 2.0


@settings(deadline=None, max_examples=60)
@given(_symmetric())
def test_eigh_matches_jacobi(a):
    fast, slow = eigh(a), jacobi_eigh(a)
    scale = max(1.0, float(np.abs(slow.eigenvalues).max()))
    np.testing.assert_allclose(fast.eigenvalues, slow.eigenvalues, rtol=0, atol=1e-10 * scale)
    for eig in (fast, slow):
        assert np.all(np.diff(eig.eigenvalues) <= 0.0)
        cols = eig.eigenvectors
        peaks = cols[np.argmax(np.abs(cols), axis=0), np.arange(cols.shape[1])]
        assert np.all(peaks > 0.0)
    # cluster boundaries: gaps wider than 1e-3 * scale
    cuts = np.nonzero(-np.diff(slow.eigenvalues) > 1e-3 * scale)[0] + 1
    for idx in np.split(np.arange(a.shape[0]), cuts):
        p_fast = fast.eigenvectors[:, idx] @ fast.eigenvectors[:, idx].T
        p_slow = slow.eigenvectors[:, idx] @ slow.eigenvectors[:, idx].T
        np.testing.assert_allclose(p_fast, p_slow, rtol=0, atol=1e-8)


def test_jacobi_subnormal_pivot_overflows_quietly():
    """A subnormal off-diagonal entry overflows tau = gap / (2 a_pq) to inf;
    the rotation it stands for is below the smallest float, so the plane
    stays put without a RuntimeWarning."""
    tiny = 1.11253693e-308
    for a in (
        np.array([[0.0, tiny], [tiny, 2.0]]),
        np.array([[0.0, 0.0, 0.5], [0.0, 0.0, tiny], [0.5, tiny, 1.0]]),
    ):
        np.testing.assert_allclose(
            jacobi_eigh(a).eigenvalues, eigh(a).eigenvalues, rtol=0, atol=1e-12
        )


def test_jacobi_eigenvectors_accurate_to_rounding_over_gap():
    """Gaussian tables on 16 sorted points (the nystrom suite's) have
    eigenvalue gaps down to 1e-5 |A|. Both solvers' eigenvectors must sit
    within a few eps |A| / gap of each other: the off-diagonal test alone
    allows up to tol |A| / gap = 4500 eps |A| / gap."""
    worst = 0.0
    for seed in range(40):
        pts = np.sort(Stream(seed).uniform(16, 0.0, 6.0))[:, None]
        a = gram(gaussian_kernel(0.5), pts) / 16.0
        slow, fast = jacobi_eigh(a), eigh(a)
        lam = fast.eigenvalues
        gaps = np.minimum(np.abs(np.diff(lam, prepend=np.inf)), np.abs(np.diff(lam, append=-np.inf)))
        signs = np.sign(np.sum(slow.eigenvectors * fast.eigenvectors, axis=0))
        err = np.linalg.norm(slow.eigenvectors - fast.eigenvectors * signs, axis=0)
        worst = max(worst, float((err * gaps).max() / (np.finfo(float).eps * np.linalg.norm(a, 2))))
    assert worst < 50.0
    # Input seed 14 is the table where stopping at the off-diagonal test
    # alone put the nystrom suite's eigenfunction deviation at 1.2e-8 > 1e-8.
    assert verify.run_suite("nystrom", 14)["passed"]


def test_eigh_closed_form_and_convention():
    eig = eigh([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-14)
    r = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(eig.eigenvectors, [[r, r], [r, -r]], atol=1e-14)


def _raiser(name):
    def boom(*args, **kwargs):
        raise AssertionError(f"{name} called")

    return boom


def test_toolbox_never_calls_jacobi(monkeypatch):
    for module in (kernels, linear_dr, manifold, kernel_approx):
        monkeypatch.setattr(module, "jacobi_eigh", _raiser("jacobi_eigh"), raising=False)
    data, _ = manifold.swiss_roll(40, noise=0.0, seed=1)
    linear_dr.pca_fit(data, 2)
    manifold.isomap(data, 2, knn=8)
    manifold.lle_embed(manifold.lle_weights(data, 8), 2)
    manifold.laplacian_eigenmaps(data, 2, 1.0, knn=8)
    kernel_approx.nystrom_fit(gaussian_kernel(1.0), list(data[:10]), 3)


def test_oracles_never_call_lapack(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigh", _raiser("np.linalg.eigh"))
    g = Stream(4).normal(16).reshape(4, 4)
    k = g @ g.T
    mercer_decompose(k, np.full(4, 0.25))
    linear_dr.low_rank_factor(k, 2)
    assert is_psd(k)


# -------------------------------------------------------------- FiniteSpace


def test_finite_space_rejects_bad_distributions():
    """`checked_weights` checks p, and every message names the probabilities."""
    with pytest.raises(ValueError, match="probabilities must be strictly positive"):
        FiniteSpace(["a", "b"], np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="probabilities sum to 1.1, not 1"):
        FiniteSpace(["a", "b"], np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="distinct"):
        FiniteSpace(["a", "a"], np.array([0.5, 0.5]))
    with pytest.raises(ValueError, match=r"probabilities have shape \(2,\), not one per item of 3"):
        FiniteSpace(["a", "b", "c"], np.array([0.5, 0.5]))


# ------------------------------------------------------- kernels and grams


def test_kernel_eval_values():
    x = np.array([1.0, 2.0])
    z = np.array([3.0, -1.0])
    np.testing.assert_array_equal(cross_gram(linear_kernel(), [x], [z]), [[1.0]])
    np.testing.assert_array_equal(cross_gram(polynomial_kernel(2), [x], [z]), [[4.0]])  # (1 + 1)^2
    g = cross_gram(gaussian_kernel(2.0), [x], [z])
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(np.exp(-13.0 / 4.0))


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        polynomial_kernel(0)
    with pytest.raises(ValueError):
        polynomial_kernel(1.5)
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


def test_gaussian_diagonal_is_one():
    pts = Stream(1).uniform(20, -3, 3).reshape(10, 2)
    g = gram(gaussian_kernel(0.7), pts)
    np.testing.assert_allclose(np.diag(g), 1.0, atol=0)
    assert g.max() <= 1.0


def test_table_kernel_indexing():
    t = table_kernel([[1.0, 0.2], [0.2, 1.0]])
    np.testing.assert_array_equal(cross_gram(t, [0], [1]), [[0.2]])
    with pytest.raises(IndexError):
        cross_gram(t, [0], [5])
    sub = gram(t, [1, 0])
    np.testing.assert_array_equal(sub, [[1.0, 0.2], [0.2, 1.0]])


@pytest.mark.parametrize("bad", [-1, 2, 0.7], ids=["negative", "past-n", "non-integral"])
def test_table_kernel_rejects_bad_indices(bad):
    """Every path into a table checks its indices: no wrap-around from the
    end, no truncation of fractional indices."""
    t = table_kernel([[1.0, 0.2], [0.2, 1.0]])
    with pytest.raises(IndexError, match="integers in"):
        gram(t, [bad, 0])
    with pytest.raises(IndexError, match="integers in"):
        cross_gram(t, [0, 1], [bad])
    with pytest.raises(IndexError, match="integers in"):
        kernel_approx.nystrom_fit(t, [bad], 1)


@st.composite
def _vector_kernel_case(draw):
    n0 = draw(st.integers(min_value=1, max_value=4))
    coord = st.floats(min_value=-10.0, max_value=10.0)

    def points():
        m = draw(st.integers(min_value=1, max_value=5))
        return np.reshape(draw(st.lists(coord, min_size=m * n0, max_size=m * n0)), (m, n0))

    kernel = draw(
        st.one_of(
            st.just(linear_kernel()),
            st.integers(min_value=1, max_value=4).map(polynomial_kernel),
            st.floats(min_value=0.1, max_value=10.0).map(gaussian_kernel),
        )
    )
    return kernel, points(), points()


def _pairwise(kernel, x, z):
    """The textbook value at one pair, the Gaussian through x - z, and the
    scale its rounding error is measured against."""
    if kernel.kind == "gaussian":
        d2 = math.fsum(np.square(x - z))
        return math.exp(-d2 / (2.0 * kernel.sigma2)), max(1.0, (x @ x + z @ z) / kernel.sigma2)
    dot = math.fsum(x * z)
    norms = float(np.linalg.norm(x) * np.linalg.norm(z))
    if kernel.kind == "linear":
        return dot, max(1.0, norms)
    return (1.0 + dot) ** kernel.degree, (1.0 + norms) ** kernel.degree


@settings(deadline=None, max_examples=150)
@given(_vector_kernel_case())
def test_cross_gram_matches_pairwise_definition(case):
    kernel, xs, zs = case
    got = cross_gram(kernel, xs, zs)
    assert got.shape == (len(xs), len(zs))
    for i, x in enumerate(xs):
        for j, z in enumerate(zs):
            want, scale = _pairwise(kernel, x, z)
            assert abs(got[i, j] - want) <= 1e-12 * scale, (kernel.kind, i, j)


_KERNEL_CALLERS = {
    "gram": lambda kern, pts, model: gram(kern, pts),
    "nystrom_features": lambda kern, pts, model: kernel_approx.nystrom_features(model, pts),
}


@pytest.mark.parametrize("caller", sorted(_KERNEL_CALLERS))
def test_kernel_evaluation_routes_through_cross_gram(monkeypatch, caller):
    """Every kernel value in the library, Gram or Nystrom, comes from
    `cross_gram`: patched to raise, each caller must raise."""
    kern = gaussian_kernel(1.0)
    pts = list(Stream(3).normal(8).reshape(4, 2))
    model = kernel_approx.nystrom_fit(kern, pts, 2)
    for module in (kernels, kernel_approx):
        monkeypatch.setattr(module, "cross_gram", _raiser("cross_gram"))
    with pytest.raises(AssertionError, match="cross_gram called"):
        _KERNEL_CALLERS[caller](kern, pts, model)


@pytest.mark.parametrize("caller", sorted(_KERNEL_CALLERS))
def test_kernel_evaluation_is_one_vectorized_call(monkeypatch, caller):
    """No caller loops over points: each makes exactly one `cross_gram` call."""
    kern = gaussian_kernel(1.0)
    pts = list(Stream(3).normal(8).reshape(4, 2))
    model = kernel_approx.nystrom_fit(kern, pts, 2)
    calls = []

    def counting(*args):
        calls.append(args)
        return cross_gram(*args)

    for module in (kernels, kernel_approx):
        monkeypatch.setattr(module, "cross_gram", counting)
    _KERNEL_CALLERS[caller](kern, pts, model)
    assert len(calls) == 1


_PSD_GATED = {
    "is_psd": lambda k: is_psd(k),
    "mercer_decompose": lambda k: mercer_decompose(k, np.full(4, 0.25)),
    "low_rank_factor": lambda k: linear_dr.low_rank_factor(k, 2),
    "nystrom_fit": lambda k: kernel_approx.nystrom_fit(table_kernel(k), range(4), 2),
}


@pytest.mark.parametrize("caller", sorted(_PSD_GATED))
def test_psd_checks_route_through_one_gate(monkeypatch, caller):
    g = Stream(4).normal(16).reshape(4, 4)
    k = g @ g.T
    for module in (kernels, linear_dr, kernel_approx):
        monkeypatch.setattr(module, "require_psd", _raiser("require_psd"))
    with pytest.raises(AssertionError, match="require_psd called"):
        _PSD_GATED[caller](k)


def test_psd_battery():
    pts = Stream(5).normal(24).reshape(8, 3)
    assert is_psd(gram(linear_kernel(), pts))
    assert is_psd(gram(polynomial_kernel(2), pts))
    assert is_psd(gram(gaussian_kernel(0.5), pts))
    # the exchange matrix has eigenvalues +1 and -1
    assert not is_psd([[0.0, 1.0], [1.0, 0.0]])


# --------------------------------------------------------- mercer_decompose


def test_mercer_reconstructs_table():
    g = Stream(8).normal(16).reshape(4, 4)
    k = g @ g.T  # PSD by construction
    w = np.array([0.1, 0.2, 0.3, 0.4])
    lam, psi = mercer_decompose(k, w)
    recon = (psi * lam) @ psi.T
    np.testing.assert_allclose(recon, k, atol=1e-10)
    assert np.all(np.diff(lam) <= 1e-12)


def test_mercer_weighted_orthonormality():
    g = Stream(9).normal(25).reshape(5, 5)
    k = g @ g.T
    w = np.full(5, 0.2)
    lam, psi = mercer_decompose(k, w)
    gram_w = psi.T @ np.diag(w) @ psi
    np.testing.assert_allclose(gram_w, np.eye(5), atol=1e-10)


def test_mercer_uniform_weights_match_plain_eigenproblem():
    # With uniform weights the weighted problem is the plain one on K/n.
    g = Stream(10).normal(9).reshape(3, 3)
    k = g @ g.T
    lam, _ = mercer_decompose(k, np.full(3, 1.0 / 3.0))
    plain = jacobi_eigh(k).eigenvalues / 3.0
    np.testing.assert_allclose(lam, plain, atol=1e-12)


def test_mercer_rejects_non_psd_table():
    with pytest.raises(ValueError, match="not PSD"):
        mercer_decompose([[0.0, 1.0], [1.0, 0.0]], np.array([0.5, 0.5]))


def test_mercer_does_one_jacobi_solve(monkeypatch):
    calls = []

    def counting(matrix):
        calls.append(matrix)
        return jacobi_eigh(matrix)

    monkeypatch.setattr(kernels, "jacobi_eigh", counting)
    mercer_decompose(np.eye(3), np.array([0.2, 0.3, 0.5]))
    assert len(calls) == 1


def test_mercer_gate_rejects_what_the_unweighted_gate_rejects():
    """A table just past the unweighted tolerance 1e-9 * max(1, |tr K|) stays
    rejected under any weights: the weighted gate scales it by min(w)."""
    for seed in range(8):
        stream = Stream(seed)
        q, _ = np.linalg.qr(stream.normal(25).reshape(5, 5))
        lam = np.array([2.0, 1.0, 0.5, 0.25, 0.0])
        lam[-1] = -1.01e-9 * max(1.0, lam.sum())
        k = (q * lam) @ q.T
        w = stream.uniform(5, 0.01, 1.0)
        with pytest.raises(ValueError, match="not PSD"):
            mercer_decompose(k, w / w.sum())


def test_mercer_rejects_bad_weights():
    k = np.eye(2)
    with pytest.raises(ValueError):
        mercer_decompose(k, np.array([0.5, -0.5]))
    with pytest.raises(ValueError):
        mercer_decompose(k, np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        mercer_decompose(k, np.array([0.5, 0.25, 0.25]))
