"""Acceptance gate: twelve numbered end-to-end criteria.

Each criterion trains or samples through the public API and checks the
result against an independent oracle (closed forms, direct
eigendecompositions, or brute-force enumeration) at a pinned tolerance.
One summary line per criterion is registered with the conftest hook and
printed after the run.

Runtime ceilings are asserted alongside the numeric tolerances; the
budgets are generous on purpose, they exist to catch convergence
regressions that would otherwise hide behind a passing final value.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import ACCEPTANCE_LINES
from kernelcontrast import contrastive, eigenfunctions, encoders
from kernelcontrast.cli import main as cli_main
from kernelcontrast.contrastive import (
    bilinear_scores,
    corpus_stats,
    infonce_tv_gap,
    nce_loss_grad,
    pair_process,
    row_normalized,
    sgns_loss_grad,
    shifted_pmi_matrix,
    simclr_loss_grad,
    spectral_loss_grad,
    train_infonce,
    train_nce,
    train_sgns,
    train_spectral,
)
from kernelcontrast.eigenfunctions import train_eigenfunctions
from kernelcontrast.encoders import (
    EmbeddingTable,
    OptimizerConfig,
    grad_check,
)
from kernelcontrast.kernel_approx import nystrom_features, nystrom_fit, rff_features, rff_sample
from kernelcontrast.kernels import (
    FiniteSpace,
    gaussian_kernel,
    gram,
    is_psd,
    linear_kernel,
    mercer_decompose,
    polynomial_kernel,
    table_kernel,
)
from kernelcontrast.linear_dr import double_center, low_rank_factor, mds_embed, pca_fit
from kernelcontrast.manifold import (
    build_graph,
    laplacian_eigenmaps,
    lle_embed,
    lle_weights,
    pairwise_distances,
    shortest_paths,
)
from kernelcontrast.rng import Stream
from kernelcontrast.verify import SUITE_NAMES, run_suite


@contextmanager
def criterion(num: int, name: str):
    """Record one roster line; FAIL lines survive assertion failures."""
    info = {"detail": ""}
    start = time.monotonic()
    try:
        yield info
    except BaseException as exc:
        detail = info["detail"] or f"{type(exc).__name__}"
        _record(num, name, False, detail, time.monotonic() - start)
        raise
    _record(num, name, True, info["detail"], time.monotonic() - start)


def _record(num, name, ok, detail, secs):
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {verdict}  {name:<42s} {detail} [{secs:.1f}s]"
    ACCEPTANCE_LINES.append(line)
    print(line)


CORPUS = "a a b a c a b b c b c c a c b".split()


def _process(n, p, stay):
    """Lazy-uniform augmentation: stay put with the given mass, else uniform."""
    a = np.full((n, n), (1.0 - stay) / n) + stay * np.eye(n)
    a /= a.sum(axis=1, keepdims=True)
    return pair_process(FiniteSpace([f"x{i}" for i in range(n)], p), a)


def _weighted_cos(a, b, w):
    return abs(a @ (w * b)) / np.sqrt((a @ (w * a)) * (b @ (w * b)))


def test_criterion_01_sgns_factorization_hits_shifted_pmi():
    """Trained skip-gram tables factor the co-occurrence PMI table.

    Three-word corpus with every pair (diagonals included) co-occurring,
    window 1, embedding dimension equal to the vocabulary. The plain
    sigmoid target is PMI - log k; the k-scaled sigmoid removes the shift.
    """
    stats = corpus_stats(CORPUS, window=1)
    assert (stats.counts > 0).all(), "corpus must exercise every pair"
    n = stats.space.n
    cfg = OptimizerConfig(tol=1e-10, max_iter=40000)
    with criterion(1, "sgns factorization hits shifted pmi") as info:
        worst = 0.0
        for k in (1.0, 2.0, 4.0):
            t0 = time.monotonic()
            phi, psi = train_sgns(stats, n, k, config=cfg, activation="sigmoid")
            elapsed = time.monotonic() - t0
            gap = float(
                np.abs(phi.rows @ psi.rows.T - shifted_pmi_matrix(stats, k)).max()
            )
            worst = max(worst, gap)
            assert gap <= 1e-3, (k, gap)
            assert elapsed <= 60.0, (k, elapsed)
        phi, psi = train_sgns(stats, n, 4.0, config=cfg, activation="k_sigmoid")
        gap = float(
            np.abs(phi.rows @ psi.rows.T - shifted_pmi_matrix(stats, 1.0)).max()
        )
        worst = max(worst, gap)
        assert gap <= 1e-3
        info["detail"] = f"max entry gap {worst:.1e} (tol 1e-3)"


def test_criterion_02_spectral_loss_identity_and_factorization():
    """Loss identity plus trained Gram against the truncated eigensystem.

    For any table the spectral loss differs from the weighted-Frobenius
    factorization gap by a table-independent constant, so the difference
    must be constant across random tables. Training at full rank then
    reproduces the normalized pair matrix; at rank one it reproduces the
    leading eigenpair factor.
    """
    p = np.arange(2.0, 10.0)
    proc = _process(8, p / p.sum(), stay=0.7)
    abar = proc.abar
    root = np.sqrt(proc.marginal)
    with criterion(2, "spectral loss equals factorization gap") as info:
        t0 = time.monotonic()
        diffs = []
        for seed in range(20):
            phi = EmbeddingTable.random(8, 3, seed)
            f = root[:, None] * phi.rows
            resid = abar - f @ f.T
            diffs.append(spectral_loss_grad(phi.rows, proc)[0] - float((resid * resid).sum()))
        diffs = np.asarray(diffs)
        rel_var = float(diffs.var() / diffs.mean() ** 2)
        assert rel_var <= 1e-18

        cfg = OptimizerConfig(tol=1e-10, max_iter=60000)
        full = train_spectral(proc, 8, config=cfg)
        ff = root[:, None] * full.rows
        full_gap = float(np.linalg.norm(ff @ ff.T - abar))
        one = train_spectral(proc, 1, config=cfg)
        f1 = root[:, None] * one.rows
        t = low_rank_factor(abar, 1)
        rank1_gap = float(np.linalg.norm(f1 @ f1.T - t @ t.T))
        elapsed = time.monotonic() - t0
        assert full_gap <= 1e-3, full_gap
        assert rank1_gap <= 1e-3, rank1_gap
        assert elapsed <= 30.0
        info["detail"] = (
            f"rel var {rel_var:.1e}, full gap {full_gap:.1e}, "
            f"rank-1 gap {rank1_gap:.1e} (tol 1e-3)"
        )


def test_criterion_03_infonce_reaches_pair_kernel_conditionals():
    """Untied InfoNCE on four items lands on the pair-odds conditionals.

    Exact enumeration over every anchor and candidate tuple at batch
    size 2; both the worst total-variation gap and the row-normalized
    exp-score table are compared against the process's own odds table.
    """
    p = np.array([0.1, 0.2, 0.3, 0.4])
    proc = _process(4, p, stay=0.6)
    with criterion(3, "infonce reaches pair-kernel conditionals") as info:
        t0 = time.monotonic()
        f, g = train_infonce(
            proc, 4, tau=1.0, b=2,
            config=OptimizerConfig(tol=1e-8, max_iter=30000), mode="untied",
        )
        scores = bilinear_scores(f, g, 1.0)
        tv = infonce_tv_gap(scores, proc, 2)
        norm_gap = float(
            np.abs(
                row_normalized(np.exp(scores)) - row_normalized(proc.k_plus)
            ).max()
        )
        elapsed = time.monotonic() - t0
        assert tv <= 1e-2, tv
        assert norm_gap <= 1e-2, norm_gap
        assert elapsed <= 120.0
        info["detail"] = f"worst tv {tv:.1e}, score gap {norm_gap:.1e} (tol 1e-2)"


def test_criterion_04_binary_classifier_closed_form():
    """Per-item logistic scores converge to the log count ratio.

    With class-conditional frequencies p1 = pos/sum(pos) and
    p0 = neg/sum(neg), the k-scaled sigmoid optimum is log(p1/p0) and the
    plain sigmoid optimum carries the extra -log k.
    """
    pos = np.array([6.0, 2.0, 4.0])
    neg = np.array([4.0, 12.0, 8.0])
    k = 2.0
    target = np.log((pos / pos.sum()) / (neg / neg.sum()))
    with criterion(4, "binary nce scores hit the log count ratio") as info:
        t0 = time.monotonic()
        theta_k = train_nce(pos, neg, k, activation="k_sigmoid").x
        theta_s = train_nce(pos, neg, k, activation="sigmoid").x
        gap = max(
            float(np.abs(theta_k - target).max()),
            float(np.abs(theta_s - (target - np.log(k))).max()),
        )
        elapsed = time.monotonic() - t0
        assert gap <= 1e-3, gap
        assert elapsed <= 10.0
        info["detail"] = f"max score gap {gap:.1e} (tol 1e-3)"


def _sixteen_point_table():
    """PSD table with a geometric spectrum, eigenvalues separated by 2x."""
    u, _ = np.linalg.qr(Stream(3).normal(256).reshape(16, 16))
    lam = 16.0 * 0.5 ** np.arange(16)
    table = (u * lam) @ u.T
    return (table + table.T) / 2.0


def test_criterion_05_nystrom_full_sampling_and_monotone_error():
    """Full-sample landmark decomposition equals the weighted eigensystem.

    With all sixteen points as landmarks the estimated eigenvalues and
    tabulated eigenfunctions must match the direct uniformly weighted
    decomposition; with fewer landmarks the median worst-entry
    reconstruction error must not increase as landmarks are added.
    """
    table = _sixteen_point_table()
    kern = table_kernel(table)
    with criterion(5, "nystrom matches the weighted eigensystem") as info:
        t0 = time.monotonic()
        model = nystrom_fit(kern, list(range(16)), 16)
        lam, funcs = mercer_decompose(table, np.full(16, 1.0 / 16.0))
        eig_gap = float(np.abs(model.eigenvalues / 16.0 - lam).max())
        vec_gap = 0.0
        for j in range(16):
            nys = np.sqrt(16.0) * model.eigenvectors[:, j]
            sign = 1.0 if nys @ funcs[:, j] >= 0.0 else -1.0
            vec_gap = max(vec_gap, float(np.abs(nys - sign * funcs[:, j]).max()))
        assert eig_gap <= 1e-8, eig_gap
        assert vec_gap <= 1e-8, vec_gap

        medians = []
        for m in (4, 8, 16):
            errs = []
            for seed in range(20):
                lms = Stream(seed).choice_without_replacement(16, m).tolist()
                feats = nystrom_features(nystrom_fit(kern, lms, m), range(16))
                errs.append(float(np.abs(feats @ feats.T - table).max()))
            medians.append(float(np.median(errs)))
        elapsed = time.monotonic() - t0
        assert medians[0] >= medians[1] >= medians[2], medians
        assert elapsed <= 10.0
        info["detail"] = (
            f"eig gap {eig_gap:.1e}, vec gap {vec_gap:.1e} (tol 1e-8), "
            f"medians {medians[0]:.2f} >= {medians[1]:.2f} >= {medians[2]:.1e}"
        )


def test_criterion_06_random_fourier_features_concentrate():
    """Feature inner products track the Gaussian kernel at the known rate.

    One wide map is checked for worst-case error over 100 pairs; then a
    thousand independent maps at 500 frequencies estimate the pointwise
    failure rate at eps = 0.1, which must stay under the Hoeffding bound
    plus a 1% margin.
    """

    def gaussian(x, z):
        return np.exp(-np.square(x - z).sum() / 2.0)

    with criterion(6, "random fourier features concentrate") as info:
        t0 = time.monotonic()
        wide = rff_sample(1.0, 2000, 2, seed=11)
        s = Stream(12)
        worst = 0.0
        for _ in range(100):
            x, z = s.normal(2), s.normal(2)
            est = float(rff_features(wide, x) @ rff_features(wide, z))
            worst = max(worst, abs(est - gaussian(x, z)))
        assert worst <= 0.15, worst

        fails = 0
        for trial in range(1000):
            m = rff_sample(1.0, 500, 2, seed=1000 + trial)
            st = Stream(5000 + trial)
            x, z = st.normal(2), st.normal(2)
            est = float(rff_features(m, x) @ rff_features(m, z))
            fails += abs(est - gaussian(x, z)) > 0.1
        rate = fails / 1000.0
        bound = 2.0 * np.exp(-500 * 0.1 * 0.1 / 2.0) + 0.01
        elapsed = time.monotonic() - t0
        assert rate <= bound, (rate, bound)
        assert elapsed <= 30.0
        info["detail"] = (
            f"worst error {worst:.3f} (tol 0.15), "
            f"failure rate {rate:.3f} <= {bound:.3f}"
        )


def test_criterion_07_manifold_suite():
    """Geodesics on a half circle plus the LLE and eigenmaps constraints."""
    with criterion(7, "geodesics and embedding constraints hold") as info:
        t0 = time.monotonic()
        theta = np.linspace(0.0, np.pi, 200)
        pts = np.column_stack((np.cos(theta), np.sin(theta)))
        geo = shortest_paths(build_graph(pts, eps=0.15))
        arc = np.abs(theta[:, None] - theta[None, :])
        off = arc > 0.0
        geo_rel = float((np.abs(geo - arc)[off] / arc[off]).max())
        assert geo_rel <= 0.05, geo_rel

        cloud = Stream(10).normal(240).reshape(80, 3)
        cloud[:, 2] *= 0.01
        w = lle_weights(cloud, k=6)
        lle_res = float(np.abs(w.sum(axis=1) - 1.0).max())
        iw = np.eye(80) - w
        m_ones = float(np.abs((iw.T @ iw) @ np.ones(80)).max())
        emb = lle_embed(w, 2)
        lle_res = max(lle_res, float(np.abs(emb.T @ emb / 80.0 - np.eye(2)).max()))
        lle_res = max(lle_res, float(np.abs(emb.mean(axis=0)).max()))
        assert lle_res <= 1e-8, lle_res
        assert m_ones <= 1e-10, m_ones

        line = np.linspace(0.0, 11.0, 12).reshape(12, 1)
        v = laplacian_eigenmaps(line, 2, t=1.0, eps=1.5)
        deg = build_graph(line, eps=1.5, weight="gaussian", t=1.0).weights.sum(axis=1)
        le_res = float(np.abs(v.T @ (deg[:, None] * v) - np.eye(2)).max())
        le_res = max(le_res, float(np.abs(v.T @ deg).max()))
        diffs = np.diff(v[:, 0])
        elapsed = time.monotonic() - t0
        assert le_res <= 1e-8, le_res
        assert np.all(diffs > 0.0) or np.all(diffs < 0.0)
        assert elapsed <= 30.0
        info["detail"] = (
            f"geodesic rel {geo_rel:.1e} (tol 5e-2), lle res {lle_res:.1e}, "
            f"eigenmaps res {le_res:.1e} (tol 1e-8)"
        )


def test_criterion_08_pca_optimality_and_mds_roundtrip():
    """PCA beats random projections; MDS rebuilds Gram and distances."""
    data = Stream(14).normal(250).reshape(50, 5)
    data[:, 3] *= 2.0
    with criterion(8, "pca beats rivals and mds round-trips") as info:
        t0 = time.monotonic()
        model = pca_fit(data, 2)
        centered = data - model.mean
        pca_err = float(
            np.linalg.norm(centered - centered @ model.basis @ model.basis.T) ** 2
        )
        rival_best = np.inf
        for seed in range(100):
            q, _ = np.linalg.qr(Stream(100 + seed).normal(10).reshape(5, 2))
            err = float(np.linalg.norm(centered - centered @ q @ q.T) ** 2)
            rival_best = min(rival_best, err)
        assert pca_err <= rival_best, (pca_err, rival_best)

        dist = pairwise_distances(data)
        res = mds_embed(dist, 5)
        g = double_center(dist * dist)
        gram_gap = float(np.abs(res.embeddings @ res.embeddings.T - g).max())
        rebuilt = pairwise_distances(res.embeddings)
        off = ~np.eye(50, dtype=bool)
        dist_gap = float(np.abs(rebuilt - dist)[off].max())
        elapsed = time.monotonic() - t0
        assert gram_gap <= 1e-8, gram_gap
        assert dist_gap <= 1e-7, dist_gap
        assert elapsed <= 10.0
        info["detail"] = (
            f"pca err {pca_err:.3f} <= best rival {rival_best:.3f}, "
            f"gram gap {gram_gap:.1e} (tol 1e-8), dist gap {dist_gap:.1e} (tol 1e-7)"
        )


def _line_gram(n, seed=0):
    pts = np.sort(Stream(seed).uniform(n, 0.0, 4.0)).reshape(n, 1)
    return gram(gaussian_kernel(1.0), pts)


def test_criterion_09_eigenfunction_recovery_under_a_gap():
    """Stagewise training recovers separated eigenpairs, uniform and not.

    Both kernels have relative spectral gaps of at least 0.05 through the
    trained depth (asserted as a precondition); estimates must land
    within 1e-2 of the direct eigenvalues, functions must align at
    weighted cosine 0.99, and the estimate ordering must be preserved.
    """
    cases = [
        (_line_gram(8), np.full(8, 0.125), 3),
        (_line_gram(6, seed=4), np.array([0.3, 0.2, 0.15, 0.15, 0.1, 0.1]), 2),
    ]
    cfg = OptimizerConfig(tol=1e-12, max_iter=40000)
    with criterion(9, "eigenfunctions recovered under a gap") as info:
        t0 = time.monotonic()
        worst_dev, worst_cos = 0.0, 1.0
        for k, p, d in cases:
            lam, psi = mercer_decompose(k, p)
            rel_gaps = (lam[:d] - lam[1 : d + 1]) / lam[0]
            assert rel_gaps.min() >= 0.05, "precondition: separated spectrum"
            trained = train_eigenfunctions(k, p, d=d, config=cfg)
            dev = float(np.abs(trained.estimates - lam[:d]).max())
            worst_dev = max(worst_dev, dev)
            assert dev <= 1e-2, dev
            assert np.all(np.diff(trained.estimates) <= 1e-3)
            for j in range(d):
                cos = _weighted_cos(trained.values[:, j], psi[:, j], p)
                worst_cos = min(worst_cos, cos)
                assert cos >= 0.99, (j, cos)
        elapsed = time.monotonic() - t0
        assert elapsed <= 120.0
        info["detail"] = (
            f"max eigenvalue dev {worst_dev:.1e} (tol 1e-2), "
            f"min cosine {1.0 - worst_cos:.1e} below 1 (floor 0.99)"
        )


def test_criterion_10_gradient_hygiene():
    """Every analytic gradient passes central differences on three seeds.

    The eigenfunction check differentiates the stage objective that
    `train_eigenfunctions` minimizes, with two earlier functions held
    fixed, under non-uniform weights. Holding them fixed is what the
    stop-gradient means during training, so the gradient checked is the
    one that is trained.
    """
    stats = corpus_stats(CORPUS, window=1)
    n = stats.space.n
    proc = _process(3, np.array([1.0, 2.0, 3.0]) / 6.0, stay=0.7)
    w = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
    m = w[:, None] * _line_gram(5) * w[None, :]
    labels = np.array([1, 0, 1, 0, 0, 1])
    worst = 0.0
    with criterion(10, "analytic gradients match central differences") as info:
        variants = [("sigmoid", 1.0), ("k_sigmoid", 1.0), ("sigmoid", 0.75)]
        for seed, (act, exponent) in enumerate(variants):

            def sgns_fun(flat, act=act, exponent=exponent):
                phi = flat[: n * 2].reshape(n, 2)
                psi = flat[n * 2 :].reshape(n, 2)
                loss, dphi, dpsi = sgns_loss_grad(phi, psi, stats, 2.0, act, exponent)
                return loss, np.concatenate((dphi.reshape(-1), dpsi.reshape(-1)))

            worst = max(worst, grad_check(sgns_fun, Stream(seed).normal(n * 4) * 0.5))

        for seed in range(3):

            def simclr_fun(flat):
                loss, ds = simclr_loss_grad(flat.reshape(3, 3), proc, 2)
                return loss, ds.reshape(-1)

            def spectral_fun(flat):
                loss, dphi = spectral_loss_grad(flat.reshape(3, 2), proc)
                return loss, dphi.reshape(-1)

            def nce_fun(scores):
                return nce_loss_grad(scores, labels, 3.0)

            worst = max(worst, grad_check(simclr_fun, Stream(20 + seed).normal(9)))
            worst = max(worst, grad_check(spectral_fun, Stream(30 + seed).normal(6)))
            worst = max(worst, grad_check(nce_fun, Stream(40 + seed).normal(6)))

            stage_rng = Stream(50 + seed)
            prev = stage_rng.normal(10).reshape(2, 5)
            prev /= np.sqrt((prev * (w * prev)).sum(axis=1))[:, None]
            quad = np.einsum("ix,xz,iz->i", prev, m, prev)
            stage = eigenfunctions._make_stage(m, w, prev, quad)
            worst = max(worst, grad_check(stage, stage_rng.normal(5)))

        assert worst <= 1e-5, worst
        info["detail"] = f"worst relative error {worst:.1e} (tol 1e-5)"


def test_criterion_11_psd_battery():
    """Everything the theory says is PSD tests as PSD.

    Built-in kernel Grams, the pair and normalized-pair tables of fifty
    random processes, and the entrywise exponential of random PSD tables.
    """
    with criterion(11, "psd battery over kernels and processes") as info:
        t0 = time.monotonic()
        s = Stream(21)
        pts = [s.normal(3) for _ in range(10)]
        for kern in (linear_kernel(), polynomial_kernel(3), gaussian_kernel(0.8)):
            assert is_psd(gram(kern, pts), 1e-8), kern.kind
        checked = 3
        for seed in range(50):
            st = Stream(100 + seed)
            n = 3 + seed % 5
            p = st.uniform(n, 0.1, 1.0)
            p /= p.sum()
            a = st.uniform(n * n, 0.05, 1.0).reshape(n, n)
            a /= a.sum(axis=1, keepdims=True)
            proc = pair_process(FiniteSpace([f"i{j}" for j in range(n)], p), a)
            assert is_psd(proc.k_plus, 1e-8), seed
            assert is_psd(proc.abar, 1e-8), seed
            checked += 2
        for seed in range(10):
            r = Stream(200 + seed).normal(16).reshape(4, 4) * 0.6
            b = r @ r.T
            b = (b + b.T) / 2.0
            assert is_psd(np.exp(b), 1e-8), seed
            checked += 1
        elapsed = time.monotonic() - t0
        assert elapsed <= 10.0
        info["detail"] = f"{checked} matrices all PSD at 1e-8"


def test_criterion_12_verify_reports_are_byte_identical(tmp_path):
    """Re-running every named suite with the same seed reproduces the
    report files byte for byte."""
    with criterion(12, "verify reports byte-identical on rerun") as info:
        for suite in SUITE_NAMES:
            first = tmp_path / f"{suite}-a.json"
            second = tmp_path / f"{suite}-b.json"
            assert cli_main(["verify", suite, "--output", str(first)]) == 0
            assert cli_main(["verify", suite, "--output", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), suite
        info["detail"] = f"{len(SUITE_NAMES)} suites, 2 runs apiece"


def test_verify_trainers_stop_converged(monkeypatch):
    """Every optimizer run in the training suites stops because it converged
    (gradient or stall), never at its iteration budget."""
    fits = []

    def recording(*args, **kwargs):
        fit = encoders.minimize(*args, **kwargs)
        fits.append(fit)
        return fit

    monkeypatch.setattr(contrastive, "minimize", recording)
    monkeypatch.setattr(eigenfunctions, "minimize", recording)
    for suite in ("sgns-pmi", "infonce-kplus", "spectral-ey", "eigenfun"):
        report = run_suite(suite, 0)
        assert report["passed"], suite
        assert report["checks"][-1]["name"] == "runs that hit max_iter"
    assert len(fits) == 3 + 1 + 2 + 3
    assert {fit.stop_reason for fit in fits} <= {"gradient", "stalled"}
