import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import softplus
from kernelcontrast.contrastive import corpus_stats, shifted_pmi_matrix, train_sgns
from kernelcontrast.eigenfunctions import train_eigenfunctions
from kernelcontrast.encoders import (
    DivergenceError,
    EmbeddingTable,
    OptimizerConfig,
    grad_check,
    k_sigmoid,
    minimize,
    sigmoid,
    softmax,
)
from kernelcontrast.kernels import gaussian_kernel, gram, mercer_decompose
from kernelcontrast.rng import Stream


# -------------------------------------------------------------- activations


def test_sigmoid_basic_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(2.0) == pytest.approx(1.0 / (1.0 + np.exp(-2.0)))


def test_sigmoid_extreme_arguments_stay_finite():
    assert sigmoid(800.0) == 1.0
    assert sigmoid(-800.0) == pytest.approx(0.0, abs=1e-300)
    assert np.isfinite(sigmoid(np.array([-1e8, 0.0, 1e8]))).all()


def test_sigmoid_symmetry():
    z = Stream(0).uniform(100, -30, 30)
    np.testing.assert_allclose(sigmoid(z) + sigmoid(-z), 1.0, atol=1e-15)


def test_k_sigmoid_identities():
    z = np.linspace(-5, 5, 11)
    np.testing.assert_allclose(k_sigmoid(z, 1.0), sigmoid(z), atol=0)
    # 1 / (1 + k e^(-z)) computed directly, for moderate z where it's safe
    k = 3.5
    direct = 1.0 / (1.0 + k * np.exp(-z))
    np.testing.assert_allclose(k_sigmoid(z, k), direct, rtol=1e-14)
    with pytest.raises(ValueError):
        k_sigmoid(0.0, -1.0)


def test_softplus_matches_log_sigmoid():
    """softplus(z) = -log sigmoid(-z) = log(1 + e^z): the naive form agrees
    where it is safe, and softplus stays exact where it overflows."""
    z = np.linspace(-30, 30, 25)
    np.testing.assert_allclose(softplus(z), np.log1p(np.exp(z)), rtol=1e-14, atol=0)
    assert softplus(1000.0) == 1000.0


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=8,
    )
)
def test_softmax_is_distribution(vals):
    p = softmax(np.array(vals))
    assert np.all(p >= 0.0)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_shift_invariance():
    z = np.array([1.0, 3.0, -2.0])
    np.testing.assert_allclose(softmax(z), softmax(z + 123.0), atol=1e-15)


def test_softmax_last_axis_batched():
    z = Stream(1).normal(12).reshape(3, 4)
    p = softmax(z)
    np.testing.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-12)


# ----------------------------------------------------------------- encoders


def test_embedding_table_roundtrip():
    t = EmbeddingTable.random(5, 3, seed=2)
    assert t.rows.shape == (5, 3)
    flat = t.rows.reshape(-1).copy()
    t2 = EmbeddingTable(flat.reshape(t.rows.shape) * 2.0)
    np.testing.assert_array_equal(t2.rows, t.rows * 2.0)
    # flat copies: writing to it leaves the table untouched
    flat[:] = 0.0
    np.testing.assert_array_equal(t.rows, t2.rows / 2.0)


def test_embedding_table_rejects_bad_rows():
    with pytest.raises(ValueError):
        EmbeddingTable(np.zeros(4))
    with pytest.raises(ValueError):
        EmbeddingTable(np.array([[1.0, np.nan]]))


def test_grad_check_flags_a_wrong_gradient():
    def broken(params):
        return float(params @ params), 3.0 * params  # true gradient is 2p

    err = grad_check(broken, np.array([1.0, -2.0]))
    assert err > 0.3


# ---------------------------------------------------------------- minimize


def test_minimize_quadratic_reaches_analytic_optimum():
    # f(x) = 0.5 (x - c)' A (x - c), minimum exactly at c
    a = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([1.5, -0.5])

    def fun(x):
        d = x - c
        return 0.5 * float(d @ a @ d), a @ d

    fit = minimize(fun, np.zeros(2), OptimizerConfig(tol=1e-12))
    np.testing.assert_allclose(fit.x, c, atol=1e-10)
    assert fit.trace[-1] < 1e-20
    # the loss heads to zero, where no ulp test can fire: only tol stops it
    assert fit.stop_reason == "gradient"
    assert fit.grad_norm <= 1e-12
    assert fit.iterations == len(fit.trace) - 1


def test_minimize_stalls_at_the_float_floor_of_an_offset_loss():
    """1 + (x - c)' A (x - c) flattens at 1 long before the gradient reaches
    a tolerance of 1e-14, so the run ends as stalled, close to c. A's
    curvatures span 4 decades in a rotated basis, so that BB steps need
    hundreds of iterations rather than solving the quadratic outright."""
    q, _ = np.linalg.qr(np.random.default_rng(1).normal(size=(20, 20)))
    a = (q * np.repeat(10.0 ** np.arange(5), 4)) @ q.T
    c = np.linspace(-1.0, 1.0, 20)

    def fun(x):
        d = x - c
        return 1.0 + float(d @ a @ d), 2.0 * a @ d

    fit = minimize(fun, np.zeros(20), OptimizerConfig(tol=1e-14, max_iter=10000))
    assert fit.stop_reason == "stalled"
    assert fit.iterations < 1000
    assert fit.grad_norm > 1e-14
    # x is the lowest-gradient iterate and grad_norm is measured there
    assert fit.grad_norm == np.sqrt(np.dot(fun(fit.x)[1], fun(fit.x)[1]))
    np.testing.assert_allclose(fit.x, c, atol=1e-6)
    assert fit.trace[-1] == pytest.approx(1.0, abs=1e-14)


def test_minimize_trace_is_monotone():
    def rosen_like(x):
        loss = (1 - x[0]) ** 2 + 5.0 * (x[1] - x[0] ** 2) ** 2
        g = np.array(
            [
                -2.0 * (1 - x[0]) - 20.0 * (x[1] - x[0] ** 2) * x[0],
                10.0 * (x[1] - x[0] ** 2),
            ]
        )
        return float(loss), g

    fit = minimize(rosen_like, np.array([-1.0, 1.0]), OptimizerConfig(max_iter=500))
    assert np.all(np.diff(fit.trace) <= 0.0)
    assert fit.trace[0] > fit.trace[-1]


def test_minimize_counts_every_objective_call():
    calls = {"n": 0}

    def fun(x):
        calls["n"] += 1
        d = x - 2.0
        return 1.0 + float(d @ d) + 0.1 * float(d[0] ** 4), 2.0 * d + np.array(
            [0.4 * d[0] ** 3, 0.0]
        )

    fit = minimize(fun, np.array([0.0, 5.0]), OptimizerConfig(tol=1e-14))
    assert fit.evaluations == calls["n"]
    assert fit.evaluations > fit.iterations > 0


def test_minimize_is_deterministic():
    def fun(x):
        d = x - np.array([0.3, -1.2, 2.0])
        return 1.0 + float(d @ d) + float(np.sin(x).sum()) * 0.1, 2.0 * d + 0.1 * np.cos(x)

    first = minimize(fun, np.zeros(3), OptimizerConfig(tol=1e-14))
    second = minimize(fun, np.zeros(3), OptimizerConfig(tol=1e-14))
    np.testing.assert_array_equal(first.x, second.x)
    np.testing.assert_array_equal(first.trace, second.trace)
    assert (first.iterations, first.evaluations, first.grad_norm, first.stop_reason) == (
        second.iterations,
        second.evaluations,
        second.grad_norm,
        second.stop_reason,
    )


def test_minimize_starts_trace_with_initial_loss():
    def fun(x):
        return float(x @ x), 2.0 * x

    x0 = np.array([2.0, 0.0])
    assert minimize(fun, x0).trace[0] == pytest.approx(4.0)


def test_minimize_rejects_nonfinite_start():
    def fun(x):
        return float("nan"), x

    with pytest.raises(ValueError, match="not finite"):
        minimize(fun, np.array([1.0]))


def test_minimize_divergence_error():
    """If the loss turns undefined after the start, descent must fail loudly."""
    calls = {"n": 0}

    def cliff(x):
        calls["n"] += 1
        if calls["n"] == 1:
            return 1.0, np.array([1.0, 1.0])
        return float("nan"), np.zeros(2)

    with pytest.raises(DivergenceError):
        minimize(cliff, np.array([1.0, 1.0]))


def test_minimize_respects_max_iter():
    calls = {"n": 0}

    def fun(x):
        calls["n"] += 1
        return float(x @ x), 2.0 * x

    fit = minimize(fun, np.array([1e6]), OptimizerConfig(max_iter=3, tol=0.0))
    assert len(fit.trace) <= 4


def test_minimize_tiny_budget_stops_as_max_iter():
    scale = np.array([1.0, 10.0])

    def fun(x):
        return 0.5 * float(x @ (scale * x)), scale * x

    fit = minimize(fun, np.array([1.0, 1.0]), OptimizerConfig(max_iter=3))
    assert fit.stop_reason == "max_iter"
    assert fit.iterations == 3 and len(fit.trace) == 4
    assert fit.grad_norm > OptimizerConfig().tol


def test_minimize_accepts_a_rising_step_but_returns_the_lowest_loss():
    """BB steps on an ill-conditioned quadratic raise the loss at times, and
    the nonmonotone line search accepts them. The trace still records the
    lowest loss so far, and a run cut at max_iter returns that iterate."""
    scale = np.array([1.0, 10.0, 100.0])
    losses = []

    def fun(x):
        losses.append(0.5 * float(x @ (scale * x)))
        return losses[-1], scale * x

    fit = minimize(fun, np.ones(3), OptimizerConfig(max_iter=7, tol=0.0))
    assert fit.stop_reason == "max_iter"
    assert np.all(np.diff(fit.trace) <= 0.0)
    # the run's last call is its last accepted iterate, which rose above the low
    assert fit.trace[-1] == fit.trace[-2] < losses[-1]
    loss, grad = fun(fit.x)
    assert loss == fit.trace[-1]
    assert fit.grad_norm == np.sqrt(np.dot(grad, grad))


def test_minimize_computes_a_gradient_only_for_accepted_trials():
    """Given as a function, the gradient is computed for the start and for
    each accepted step only. The run is the one the gradient array gives,
    and `evaluations` still counts every loss evaluation, the rejected
    line-search trials among them."""
    scale = np.array([1.0, 10.0, 100.0, 1000.0])
    computed = []

    def eager(x):
        return 0.5 * float(x @ (scale * x)), scale * x

    def lazy(x):
        loss, grad = eager(x)

        def gradient():
            computed.append(x)
            return grad

        return loss, gradient

    cfg = OptimizerConfig(max_iter=60, tol=0.0)
    want, got = minimize(eager, np.ones(4), cfg), minimize(lazy, np.ones(4), cfg)
    assert len(computed) == got.iterations + 1 < got.evaluations
    for name in ("x", "trace"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    for name in ("iterations", "evaluations", "grad_norm", "stop_reason"):
        assert getattr(got, name) == getattr(want, name), name


def test_grad_check_takes_the_gradient_or_a_function_of_it():
    def eager(params):
        return float(np.sin(params).sum()), 1.1 * np.cos(params)

    def lazy(params):
        loss, grad = eager(params)
        return loss, lambda: grad

    params = np.array([0.3, -1.2, 2.0])
    assert grad_check(lazy, params) == grad_check(eager, params) > 0.05


# ------------------------------------------------- the optimizer in trainers


def test_eigenfunction_stages_keep_their_scale():
    """The stage loss is scale-invariant and its gradient shrinks as the
    candidate grows, so without its scale term BB steps could meet tol by
    inflating the candidate instead of converging, as the third stage of
    `kc verify eigenfun --seed 5` did."""
    seed = 5
    pts = np.sort(Stream(seed).uniform(8, 0.0, 4.0))[:, None]
    table = gram(gaussian_kernel(1.0), pts)
    weights = np.full(8, 1.0 / 8.0)
    cfg = OptimizerConfig(seed=seed, tol=1e-12, max_iter=40000)
    result = train_eigenfunctions(table, weights, d=3, config=cfg)
    eigenvalues, _ = mercer_decompose(table, weights)
    for j, fit in enumerate(result.fits):
        assert 0.5 <= float(fit.x @ (weights * fit.x)) <= 2.0, j
        assert abs(result.estimates[j] - eigenvalues[j]) <= 1e-12, j


def test_preconditioned_sgns_converges_within_the_cli_budget():
    """A Zipf corpus weights word rows by their counts, which spans a decade
    here; the count-based preconditioner evens that out, so training stops
    converged well inside 2,000 iterations and lands on shifted PMI."""
    rng = np.random.default_rng(0)
    zipf = 1.0 / np.arange(1, 13)
    tokens = rng.choice(12, size=20_000, p=zipf / zipf.sum())
    stats = corpus_stats([f"w{t:02d}" for t in tokens], window=2)
    phi, psi = train_sgns(stats, 12, 4.0, config=OptimizerConfig(max_iter=2000))
    assert phi.fits[0].stop_reason != "max_iter"
    gap = np.abs(phi.rows @ psi.rows.T - shifted_pmi_matrix(stats, 4.0)).max()
    assert gap <= 1e-8
