"""Named verification suites behind `kc verify`.

Each suite re-derives a theoretical optimum with an independent oracle
(closed form, brute force, or the dense eigensolver) and compares the
trained or sampled result against it at a pinned tolerance. Every check
is normalized to "observed <= tolerance": quantities that are naturally
lower bounds (cosines, monotone orderings) are reported as deficits or
regression amounts so one rule covers the whole report.

Reports carry no timestamps, so a suite re-run at the same seed is
byte-identical; provenance lives in the RunManifest instead. The
comparisons `kc contrast` and `kc eigenfun` also report are defined here.
"""

from __future__ import annotations

import numpy as np

from .contrastive import (
    EmbeddingTable,
    bilinear_scores,
    corpus_stats,
    infonce_tv_gap,
    pair_process,
    row_normalized,
    shifted_pmi_matrix,
    spectral_loss,
    train_infonce,
    train_nce,
    train_sgns,
    train_spectral,
)
from .eigenfunctions import train_eigenfunctions
from .encoders import OptimizerConfig
from .kernel_approx import (
    nystrom_eigenfunction,
    nystrom_fit,
    nystrom_gram_approx,
    rff_features,
    rff_sample,
    sample_landmarks,
)
from .kernels import (
    FiniteSpace,
    gaussian_kernel,
    gram,
    mercer_decompose,
    table_kernel,
)
from .linear_dr import low_rank_factor
from .manifold import (
    build_graph,
    graph_laplacian,
    laplacian_eigenmaps,
    lle_weights,
    shortest_paths,
)
from .rng import Stream

__all__ = ["SUITE_NAMES", "UnknownSuiteError", "eigenfunction_gaps", "factor_gap", "pmi_gap",
           "run_suite"]


class UnknownSuiteError(ValueError):
    """Asked for a verification suite that does not exist."""


def _check(name: str, observed: float, tolerance: float) -> dict:
    observed = float(observed)
    return {
        "name": name,
        "observed": observed,
        "tolerance": float(tolerance),
        "passed": bool(observed <= tolerance),
    }


def _max_iter_check(fits) -> dict:
    """Every optimizer run must stop converged, never at its budget."""
    hits = sum(fit.stop_reason == "max_iter" for fit in fits)
    return _check("runs that hit max_iter", hits, 0)


def pmi_gap(phi, psi, stats, k: float, activation: str) -> float:
    """Largest |phi psi^T - target| entry; the SGNS optimum (Levy & Goldberg
    2014) is PMI - log k under ``sigmoid`` and PMI under ``k_sigmoid``."""
    target = shifted_pmi_matrix(stats, k if activation == "sigmoid" else 1.0)
    return float(np.abs(phi.rows @ psi.rows.T - target).max())


def factor_gap(phi, process, d: int) -> float:
    """||A_d A_d^T - F F^T||_F: how far the spectral-loss table's F =
    diag(sqrt(marginal)) phi is from the Eckart-Young rank-d factor A_d of
    the normalized pair matrix (HaoChen, Wei, Gaidon & Ma 2021)."""
    f = np.sqrt(process.marginal)[:, None] * phi.rows
    target = low_rank_factor(process.abar, d)
    return float(np.linalg.norm(target @ target.T - f @ f.T))


def eigenfunction_gaps(result, eigenvalues, functions, weights) -> tuple[float, list]:
    """Trained eigenfunctions against the `mercer_decompose` eigensystem: the
    largest |estimate - eigenvalue|, and each function's weighted cosine
    |sum_x w(x) f_j(x) psi_j(x)| with its oracle eigenfunction."""
    d = result.values.shape[1]
    deviation = float(np.abs(result.estimates - eigenvalues[:d]).max())
    cosines = [abs(float((result.values[:, j] * weights) @ functions[:, j])) for j in range(d)]
    return deviation, cosines


def _report(suite: str, seed: int, checks: list) -> dict:
    return {
        "suite": suite,
        "seed": int(seed),
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def _suite_sgns_pmi(seed: int) -> dict:
    """SGNS factorization lands on the (shifted) PMI matrix.

    The corpus is chosen so every ordered pair of the three-word
    vocabulary co-occurs, keeping PMI finite everywhere; with d equal to
    the vocabulary size the factorization is unconstrained.
    """
    tokens = "a a b a c a b b c b c c a c b".split()
    stats = corpus_stats(tokens, window=1)
    cfg = OptimizerConfig(seed=seed, tol=1e-11, max_iter=30000)
    checks = []
    fits = []
    for k, activation in ((1.0, "sigmoid"), (4.0, "sigmoid"), (4.0, "k_sigmoid")):
        phi, psi = train_sgns(stats, d=stats.space.n, k=k, config=cfg, activation=activation)
        dev = pmi_gap(phi, psi, stats, k, activation)
        checks.append(_check(f"k={k:g} {activation} max PMI deviation", dev, 1e-3))
        fits += phi.fits
    checks.append(_max_iter_check(fits))
    return _report("sgns-pmi", seed, checks)


def _suite_classification(seed: int) -> dict:
    """NCE's fitted score equals the log count ratio, shifted per activation,
    and both runs stop converged rather than at their budget."""
    pos = np.array([6.0, 2.0, 4.0])
    neg = np.array([4.0, 12.0, 8.0])  # k positives' worth of noise per item set
    k = 2.0
    p1 = pos / pos.sum()
    p0 = neg / neg.sum()
    log_ratio = np.log(p1 / p0)
    cfg = OptimizerConfig(seed=seed, tol=1e-12, max_iter=20000)
    fit_k = train_nce(pos, neg, k, activation="k_sigmoid", config=cfg)
    fit_s = train_nce(pos, neg, k, activation="sigmoid", config=cfg)
    checks = [
        _check(
            "k_sigmoid score vs log(p1/p0)",
            np.abs(fit_k.x - log_ratio).max(),
            1e-3,
        ),
        _check(
            "sigmoid score vs log(p1/p0) - log k",
            np.abs(fit_s.x - (log_ratio - np.log(k))).max(),
            1e-3,
        ),
        _max_iter_check([fit_k, fit_s]),
    ]
    return _report("classification", seed, checks)


def _eight_item_process():
    p = np.array([3.0, 2.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0])
    p = p / p.sum()
    n = 8
    augment = 0.6 * np.eye(n) + 0.4 / n
    return pair_process(FiniteSpace(items=list("abcdefgh"), p=p), augment)


def _suite_spectral_ey(seed: int) -> dict:
    """Spectral loss is the factorization error up to a constant; training
    recovers the best rank-d factor of the normalized pair matrix."""
    process = _eight_item_process()
    abar = process.abar
    n = process.n
    stream = Stream(seed)
    diffs = []
    root = np.sqrt(process.marginal)
    for _ in range(20):
        rows = stream.uniform(n * n, -2.0, 2.0).reshape(n, n)
        f = root[:, None] * rows
        err = float(np.square(abar - f @ f.T).sum())
        diffs.append(spectral_loss(EmbeddingTable(rows), process) - err)
    diffs = np.asarray(diffs)
    rel_var = float(diffs.var() / diffs.mean() ** 2)

    cfg = OptimizerConfig(seed=seed, tol=1e-12, max_iter=40000)
    full = train_spectral(process, d=n, config=cfg)
    f_full = root[:, None] * full.rows
    full_err = float(np.linalg.norm(abar - f_full @ f_full.T))

    rank1 = train_spectral(process, d=1, config=cfg)
    rank1_err = factor_gap(rank1, process, 1)

    checks = [
        _check("loss minus factor error, relative variance", rel_var, 1e-18),
        _check("full-rank F F^T vs normalized pair matrix", full_err, 1e-3),
        _check("rank-1 F F^T vs Eckart-Young factor", rank1_err, 1e-3),
        _max_iter_check(full.fits + rank1.fits),
    ]
    return _report("spectral-ey", seed, checks)


def _suite_infonce_kplus(seed: int) -> dict:
    """Trained InfoNCE conditionals match the positive-pair kernel's."""
    p = np.array([0.4, 0.3, 0.2, 0.1])
    augment = np.full((4, 4), 0.1) + 0.6 * np.eye(4)
    process = pair_process(FiniteSpace(items=list("wxyz"), p=p), augment)
    cfg = OptimizerConfig(seed=seed, tol=1e-9, max_iter=40000)
    f, g = train_infonce(process, d=4, tau=1.0, b=2, config=cfg, mode="untied")
    scores = bilinear_scores(f, g, tau=1.0)
    tv = infonce_tv_gap(scores, process, b=2)
    model_cond = row_normalized(np.exp(scores))
    true_cond = row_normalized(process.k_plus)
    checks = [
        _check("worst-case conditional TV gap", tv, 1e-2),
        _check(
            "normalized exp-scores vs normalized K_plus",
            np.abs(model_cond - true_cond).max(),
            1e-2,
        ),
        _max_iter_check(f.fits),
    ]
    return _report("infonce-kplus", seed, checks)


def _nystrom_table(seed: int):
    pts = np.sort(Stream(seed).uniform(16, 0.0, 6.0))[:, None]
    table = gram(gaussian_kernel(0.5), pts)
    return table_kernel(table), table


def _suite_nystrom(seed: int) -> dict:
    """Full landmark sampling reproduces the weighted Mercer decomposition,
    and reconstruction error shrinks as landmarks are added."""
    kernel, table = _nystrom_table(seed)
    n = 16
    weights = np.full(n, 1.0 / n)
    eigenvalues, functions = mercer_decompose(table, weights)
    model = nystrom_fit(kernel, list(range(n)), d=n)
    eig_dev = float(np.abs(model.eigenvalues / n - eigenvalues).max())

    floor = 1e-5 * float(eigenvalues[0])
    fun_dev = 0.0
    for i in range(model.usable_rank):
        if eigenvalues[i] <= floor:
            break
        ext = nystrom_eigenfunction(model, i, range(n))
        ref = functions[:, i]
        if np.dot(ext, ref) < 0.0:
            ext = -ext
        fun_dev = max(fun_dev, float(np.abs(ext - ref).max()))

    medians = []
    for m in (4, 8, 16):
        errs = []
        for trial in range(20):
            idx = sample_landmarks(n, m, seed + 100 + trial)
            sub = nystrom_fit(kernel, idx.tolist(), d=m)
            approx = nystrom_gram_approx(sub, list(range(n)))
            errs.append(float(np.abs(approx - table).max()))
        medians.append(float(np.median(errs)))
    regression = max(0.0, max(b - a for a, b in zip(medians, medians[1:])))

    checks = [
        _check("full-sampling eigenvalue deviation", eig_dev, 1e-8),
        _check("full-sampling eigenfunction deviation", fun_dev, 1e-8),
        _check("median reconstruction error regression over M", regression, 1e-12),
    ]
    return _report("nystrom", seed, checks)


RFF_BLOCKS = 20  # failure-rate trials per RFF model in the rff suite


def _rff_block_estimates(model, pair) -> np.ndarray:
    """phi(x).phi(z) for the pair of rows x, z under each of the model's
    RFF_BLOCKS consecutive frequency blocks, read as models of their own."""
    fx, fz = rff_features(model, pair)
    return (fx * fz).reshape(2, RFF_BLOCKS, -1).sum(axis=(0, 2)) * RFF_BLOCKS


def _suite_rff(seed: int) -> dict:
    """Random features hit the Gaussian kernel within the additive bound."""
    model = rff_sample(1.0, 2000, 2, seed)
    stream = Stream(seed + 1)
    pts = stream.uniform(400, -1.5, 1.5).reshape(100, 2, 2)
    # Five pairs per call: mapping all 100 at once holds 100 x 4,000 feature
    # values per side and raises the peak memory of all eight `kc verify`
    # suites in one process by 5.7 MB (38.6 -> 44.3 MB).
    approx = np.concatenate(
        [
            (rff_features(model, block[:, 0]) * rff_features(model, block[:, 1])).sum(axis=1)
            for block in np.split(pts, 20)
        ]
    )
    exact = np.exp(-np.square(pts[:, 0] - pts[:, 1]).sum(axis=1) / 2.0)
    worst = float(np.abs(approx - exact).max())

    # x = 0 and z at distance sqrt(2 log 2), where the kernel is exactly 1/2.
    # RFF_BLOCKS trials to a model: one model per trial took 122 against 89 ms
    # (one Xeon thread); 100 trials per model raised the peak memory of all
    # eight `kc verify` suites in one process from 39.7 to 42.4 MB.
    pair = np.array([[0.0, 0.0], [np.sqrt(2.0 * np.log(2.0)), 0.0]])
    failures = 0
    trials = 1000
    for c in range(trials // RFF_BLOCKS):
        model = rff_sample(1.0, RFF_BLOCKS * 500, 2, seed + 10 + c)
        failures += int((np.abs(_rff_block_estimates(model, pair) - 0.5) >= 0.1).sum())
    bound = 2.0 * np.exp(-500 * 0.01 / 2.0) + 0.01
    checks = [
        _check("max kernel error at d=2000 over 100 pairs", worst, 0.15),
        _check("failure rate at eps=0.1, d=500", failures / trials, bound),
    ]
    return _report("rff", seed, checks)


def _suite_manifold(seed: int) -> dict:
    """Geodesics, reconstruction-weight identities, and Laplacian constraints."""
    theta = np.linspace(0.0, np.pi, 200)
    circle = np.column_stack((np.cos(theta), np.sin(theta)))
    g = build_graph(circle, eps=0.15)
    geo = shortest_paths(g)
    arc = np.abs(theta[:, None] - theta[None, :])
    mask = ~np.eye(200, dtype=bool)
    geo_rel = float((np.abs(geo - arc)[mask] / arc[mask]).max())

    jitter = Stream(seed).uniform(80, -0.2, 0.2)
    t = np.linspace(0.8, 5.5, 80) + jitter * 0.05
    cloud = np.column_stack((t * np.cos(t), t * np.sin(t), np.sin(3 * t)))
    w = lle_weights(cloud, k=6)
    rowsum_dev = float(np.abs(w.sum(axis=1) - 1.0).max())
    iw = np.eye(80) - w
    m1 = float(np.abs(iw.T @ (iw @ np.ones(80))).max())

    line = np.arange(12.0)[:, None]
    emb = laplacian_eigenmaps(line, d=2, t=1.0, eps=1.5)
    lap = graph_laplacian(build_graph(line, eps=1.5, weight="gaussian", t=1.0))
    dmat = np.diag(lap.degrees)
    ortho = float(np.abs(emb.T @ dmat @ emb - np.eye(2)).max())
    centering = float(np.abs(emb.T @ lap.degrees).max())
    diffs = np.diff(emb[:, 0])
    monotone_violation = max(0.0, min(float(diffs.max()), float((-diffs).max())))

    checks = [
        _check("half-circle geodesic relative error", geo_rel, 0.05),
        _check("LLE weight row-sum residual", rowsum_dev, 1e-8),
        _check("LLE M1 residual", m1, 1e-10),
        _check("eigenmap D-orthonormality residual", ortho, 1e-8),
        _check("eigenmap D-centering residual", centering, 1e-8),
        _check("path-graph monotonicity violation", monotone_violation, 0.0),
    ]
    return _report("manifold", seed, checks)


def _suite_eigenfun(seed: int) -> dict:
    """Sequential training recovers the top of the Mercer spectrum."""
    pts = np.sort(Stream(seed).uniform(8, 0.0, 4.0))[:, None]
    table = gram(gaussian_kernel(1.0), pts)
    weights = np.full(8, 1.0 / 8.0)
    eigenvalues, functions = mercer_decompose(table, weights)
    gaps = (eigenvalues[:3] - eigenvalues[1:4]) / eigenvalues[0]
    if gaps.min() < 0.05:
        raise RuntimeError(
            f"suite construction error: spectral gaps {gaps} too small for recovery"
        )
    cfg = OptimizerConfig(seed=seed, tol=1e-12, max_iter=40000)
    result = train_eigenfunctions(table, weights, d=3, config=cfg)
    est_dev, cosines = eigenfunction_gaps(result, eigenvalues, functions, weights)
    cos_deficit = max(0.0, 1.0 - min(cosines))
    ordering = result.estimates
    regression = max(0.0, float((ordering[1:] - ordering[:-1]).max()))
    checks = [
        _check("eigenvalue estimate deviation", est_dev, 1e-2),
        _check("weighted cosine deficit", cos_deficit, 1e-2),
        _check("estimate ordering regression", regression, 1e-3),
        _max_iter_check(result.fits),
    ]
    return _report("eigenfun", seed, checks)


_SUITES = {
    "sgns-pmi": _suite_sgns_pmi,
    "infonce-kplus": _suite_infonce_kplus,
    "spectral-ey": _suite_spectral_ey,
    "nystrom": _suite_nystrom,
    "rff": _suite_rff,
    "manifold": _suite_manifold,
    "eigenfun": _suite_eigenfun,
    "classification": _suite_classification,
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int = 0) -> dict:
    """Run one named suite; the report says what was checked and how close."""
    if name not in _SUITES:
        known = ", ".join(SUITE_NAMES)
        raise UnknownSuiteError(f"unknown suite {name!r}; choose one of: {known}")
    return _SUITES[name](int(seed))
