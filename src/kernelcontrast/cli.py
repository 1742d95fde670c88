"""`kc`: data generation, reduction, approximation, training, verification.

Conventions shared by every subcommand: flags beat the config file; the
KC_SEED environment variable beats the config's seed but not an explicit
--seed flag; every run that writes an output file writes a RunManifest
JSON next to it. Exit codes: 0 success, 1 failure (including a failed
verify suite), 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .contrastive import (
    EnumerationBudgetError,
    bilinear_scores,
    corpus_stats,
    cosine_scores,
    dirichlet_conductance,
    expected_simclr_loss,
    infonce_tv_gap,
    shifted_pmi_matrix,
    sparsest_partition,
    spectral_loss,
    sgns_expected_loss,
    train_infonce,
    train_sgns,
    train_spectral,
)
from .eigenfunctions import train_eigenfunctions
from .encoders import OptimizerConfig, sigmoid
from .fileio import (
    ParseError,
    ensure_parent,
    load_corpus,
    load_matrix_csv,
    load_process,
    load_sym_csv,
    save_matrix_csv,
)
from .kernel_approx import (
    nystrom_features,
    nystrom_fit,
    rff_features,
    rff_sample,
    sample_landmarks,
)
from .kernels import gaussian_kernel, gram, linear_kernel, mercer_decompose, polynomial_kernel
from .linear_dr import low_rank_factor, mds_embed, pca_fit, pca_transform
from .manifold import (
    isomap,
    laplacian_eigenmaps,
    lle_embed,
    lle_weights,
    swiss_roll,
)
from .manifest import load_manifest, make_manifest, write_manifest
from .svgplot import line_chart, scatter_panels
from .verify import UnknownSuiteError, run_suite, report_json


class UsageError(ValueError):
    """Flag combination or value the parser alone cannot reject."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kc",
        description="finite-space kernel, manifold, and contrastive toolkit",
    )
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--version", action="version", version=f"kc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset")
    gen.add_argument("shape", choices=["swiss-roll"])
    gen.add_argument("--n", type=int)
    gen.add_argument("--noise", type=float)
    gen.add_argument("--seed", type=int)
    gen.add_argument("--output", required=True)

    red = sub.add_parser("reduce", help="dimensionality reduction")
    red.add_argument("--method", required=True, choices=["pca", "mds", "isomap", "lle", "le"])
    red.add_argument("--dim", type=int)
    red.add_argument("--input")
    red.add_argument(
        "--columns",
        help="comma-separated input column indices (default: all), e.g. 0,1,2 "
        "to drop the latent columns of a generated dataset",
    )
    red.add_argument("--distances", help="symmetric distance CSV (mds)")
    red.add_argument("--eps", type=float)
    red.add_argument("--knn", type=int)
    red.add_argument("--t", type=float, help="gaussian edge-weight bandwidth (le)")
    red.add_argument("--seed", type=int)
    red.add_argument("--output", required=True)

    ka = sub.add_parser("kernel-approx", help="low-rank / random kernel features")
    ka.add_argument("--method", required=True, choices=["nystrom", "rff"])
    ka.add_argument("--input", required=True)
    ka.add_argument("--columns", help="comma-separated input column indices (default: all)")
    ka.add_argument("--kernel", choices=["gaussian", "linear", "polynomial"])
    ka.add_argument("--sigma2", type=float)
    ka.add_argument("--degree", type=int)
    ka.add_argument("--landmarks", type=int)
    ka.add_argument("--rank", type=int)
    ka.add_argument("--features", type=int)
    ka.add_argument("--seed", type=int)
    ka.add_argument("--output", required=True)
    ka.add_argument("--report", help="JSON kernel-error report path")

    con = sub.add_parser("contrast", help="contrastive training")
    con.add_argument("algo", choices=["sgns", "infonce", "spectral"])
    con.add_argument("--corpus")
    con.add_argument("--window", type=int)
    con.add_argument("--k", type=float)
    con.add_argument("--neg-exponent", type=float, dest="neg_exponent")
    con.add_argument("--activation", choices=["sigmoid", "k_sigmoid"])
    con.add_argument("--process")
    con.add_argument("--dim", type=int)
    con.add_argument("--tau", type=float)
    con.add_argument("--batch", type=int)
    con.add_argument("--mode", choices=["untied", "tied"])
    con.add_argument("--seed", type=int)
    con.add_argument("--output", required=True)
    con.add_argument("--context-output", dest="context_output")

    eig = sub.add_parser("eigenfun", help="kernel eigenfunction recovery")
    eig.add_argument("--kernel", required=True, help="symmetric kernel table CSV")
    eig.add_argument("--p", required=True, help="distribution CSV (one row or column)")
    eig.add_argument("--dim", type=int)
    eig.add_argument("--seed", type=int)
    eig.add_argument("--output", required=True)
    eig.add_argument("--report", help="JSON oracle-comparison path")

    ana = sub.add_parser("analyze", help="process graph quantities")
    ana.add_argument("quantity", choices=["conductance"])
    ana.add_argument("--process", required=True)
    ana.add_argument("--subset", help="comma-separated item indices")
    ana.add_argument("--parts", type=int, help="partition count for the sparsest cut")
    ana.add_argument("--output")

    ver = sub.add_parser("verify", help="run a named oracle suite")
    ver.add_argument("suite")
    ver.add_argument("--seed", type=int)
    ver.add_argument("--output", help="write the JSON report here")

    rep = sub.add_parser("report", help="summarize manifests, emit plots")
    rep.add_argument("--manifests", nargs="+", required=True)
    rep.add_argument("--outdir", required=True)
    rep.add_argument("--seed", type=int)

    return parser


# ---------------------------------------------------------------------------
# config resolution


def _load_config(path: str | None) -> configparser.ConfigParser | None:
    if path is None:
        return None
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    cfg = configparser.ConfigParser()
    cfg.read(path)
    return cfg


def _resolve(args, config, section: str, name: str, cast, default):
    """Flag if given, else config [section]/[kc], else the default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if config is not None:
        for sec in (section, "kc"):
            if config.has_option(sec, name):
                return _cast(sec, name, config.get(sec, name), cast)
    return default


def _cast(section: str, name: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(
            f"config [{section}] {name} = {raw!r} is not a valid {cast.__name__}"
        ) from None


def _resolve_seed(args, config, section: str) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    env = os.environ.get("KC_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise UsageError(f"KC_SEED={env!r} is not an integer") from None
    return _resolve(args, config, section, "seed", int, 0)


def _optimizer_config(config, seed: int) -> OptimizerConfig:
    """Optimizer settings come from the [optimizer] config section."""
    kwargs = {"seed": seed}
    if config is not None and config.has_section("optimizer"):
        sec = config["optimizer"]
        for key, cast in (
            ("step_size", float),
            ("max_iter", int),
            ("tol", float),
            ("armijo_c", float),
            ("min_step", float),
        ):
            if key in sec:
                kwargs[key] = _cast("optimizer", key, sec[key], cast)
    return OptimizerConfig(**kwargs)


def _optimizer_block(fits) -> list:
    """The manifest's record of each optimizer run: why and after how much
    work it stopped. Deterministic, so it sits outside the timestamps."""
    return [
        {
            "stop_reason": fit.stop_reason,
            "iterations": fit.iterations,
            "evaluations": fit.evaluations,
            "grad_norm": fit.grad_norm,
        }
        for fit in fits
    ]


def _warn_max_iter(fits) -> None:
    """One stderr line when a run used its whole budget; the exit stays 0."""
    hits = sum(fit.stop_reason == "max_iter" for fit in fits)
    if hits:
        print(
            f"kc: warning: {hits} of {len(fits)} optimizer runs stopped at max_iter",
            file=sys.stderr,
        )


def _emit(path: str, manifest) -> None:
    write_manifest(path + ".manifest.json", manifest)


def _select_columns(data: np.ndarray, spec: str | None) -> np.ndarray:
    if spec is None:
        return data
    try:
        cols = [int(c) for c in spec.split(",") if c.strip() != ""]
    except ValueError:
        raise UsageError(f"--columns {spec!r} is not a comma-separated index list") from None
    if not cols or max(cols) >= data.shape[1] or min(cols) < 0:
        raise UsageError(f"--columns indices must lie in [0, {data.shape[1] - 1}]")
    return data[:, cols]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "gen")
    n = _resolve(args, config, "gen", "n", int, 400)
    noise = _resolve(args, config, "gen", "noise", float, 0.0)
    data, latent = swiss_roll(n, noise=noise, seed=seed)
    ensure_parent(args.output)
    save_matrix_csv(
        args.output,
        np.column_stack((data, latent)),
        comments=["columns: x,y,z,latent_t,latent_h"],
    )
    flags = {"shape": args.shape, "n": n, "noise": noise, "output": args.output}
    manifest = make_manifest(
        "gen", flags, [], seed, {"rows": n}, started, __version__
    )
    _emit(args.output, manifest)
    print(f"wrote {args.output} ({n} rows)")
    return 0


def _cmd_reduce(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "reduce")
    dim = _resolve(args, config, "reduce", "dim", int, 2)
    method = args.method
    inputs = []
    metrics: dict = {}

    if method == "mds" and args.distances is not None:
        dist = load_sym_csv(args.distances)
        inputs.append(args.distances)
        result = mds_embed(dist, dim)
        emb = result.embeddings
        metrics["reconstruction_error"] = result.reconstruction_error
        metrics["clamped_count"] = result.clamped_count
    else:
        if args.input is None:
            raise UsageError(f"reduce --method {method} needs --input")
        data = _select_columns(load_matrix_csv(args.input), args.columns)
        inputs.append(args.input)
        if method == "pca":
            model = pca_fit(data, dim)
            emb = pca_transform(model, data)
            total = model.eigenvalues.sum()
            kept = model.eigenvalues[:dim].sum()
            metrics["variance_kept"] = float(kept / total) if total > 0 else 1.0
        elif method == "mds":
            from .manifold import pairwise_distances

            result = mds_embed(pairwise_distances(data), dim)
            emb = result.embeddings
            metrics["reconstruction_error"] = result.reconstruction_error
            metrics["clamped_count"] = result.clamped_count
        elif method == "isomap":
            emb = isomap(data, dim, eps=args.eps, knn=args.knn)
        elif method == "lle":
            knn = _resolve(args, config, "reduce", "knn", int, None)
            if knn is None:
                raise UsageError("reduce --method lle needs --knn")
            emb = lle_embed(lle_weights(data, knn), dim)
        else:
            t = _resolve(args, config, "reduce", "t", float, 1.0)
            emb = laplacian_eigenmaps(data, dim, t, eps=args.eps, knn=args.knn)

    ensure_parent(args.output)
    save_matrix_csv(args.output, emb, comments=[f"{method} embedding, d={dim}"])
    flags = {
        "method": method,
        "dim": dim,
        "input": args.input,
        "columns": args.columns,
        "distances": args.distances,
        "eps": args.eps,
        "knn": args.knn,
        "t": args.t,
        "output": args.output,
    }
    manifest = make_manifest("reduce", flags, inputs, seed, metrics, started, __version__)
    _emit(args.output, manifest)
    print(f"wrote {args.output} ({emb.shape[0]} x {emb.shape[1]})")
    return 0


def _build_kernel(args, config):
    kind = _resolve(args, config, "kernel-approx", "kernel", str, "gaussian")
    if kind == "gaussian":
        sigma2 = _resolve(args, config, "kernel-approx", "sigma2", float, 1.0)
        return gaussian_kernel(sigma2)
    if kind == "polynomial":
        degree = _resolve(args, config, "kernel-approx", "degree", int, 2)
        return polynomial_kernel(degree)
    return linear_kernel()


def _cmd_kernel_approx(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "kernel-approx")
    data = _select_columns(load_matrix_csv(args.input), args.columns)
    n = data.shape[0]
    kernel = _build_kernel(args, config)
    metrics: dict = {}

    if args.method == "nystrom":
        m = _resolve(args, config, "kernel-approx", "landmarks", int, None)
        rank = _resolve(args, config, "kernel-approx", "rank", int, None)
        if m is None or rank is None:
            raise UsageError("kernel-approx --method nystrom needs --landmarks and --rank")
        if m > n:
            raise UsageError(f"--landmarks {m} exceeds the {n} input points")
        idx = sample_landmarks(n, m, seed)
        model = nystrom_fit(kernel, [data[i] for i in idx], rank)
        feats = nystrom_features(model, data)
        metrics["usable_rank"] = model.usable_rank
        flags = {"method": "nystrom", "landmarks": m, "rank": rank}
    else:
        d = _resolve(args, config, "kernel-approx", "features", int, None)
        if d is None:
            raise UsageError("kernel-approx --method rff needs --features")
        if kernel.kind != "gaussian":
            raise UsageError("random Fourier features require the gaussian kernel")
        model = rff_sample(kernel.sigma2, d, data.shape[1], seed)
        feats = rff_features(model, data)
        flags = {"method": "rff", "features": d}

    approx = feats @ feats.T
    exact = gram(kernel, data).values
    err = np.abs(approx - exact)
    metrics["max_abs_error"] = float(err.max())
    metrics["mean_abs_error"] = float(err.mean())

    ensure_parent(args.output)
    save_matrix_csv(args.output, feats, comments=[f"{args.method} features"])
    if args.report:
        ensure_parent(args.report)
        with open(args.report, "w") as fh:
            json.dump(
                {
                    "method": args.method,
                    "max_abs_error": metrics["max_abs_error"],
                    "mean_abs_error": metrics["mean_abs_error"],
                    "points": n,
                },
                fh,
                sort_keys=True,
                indent=2,
            )
            fh.write("\n")
    flags.update({"kernel": kernel.kind, "input": args.input, "output": args.output})
    manifest = make_manifest(
        "kernel-approx", flags, [args.input], seed, metrics, started, __version__
    )
    _emit(args.output, manifest)
    print(
        f"wrote {args.output}; max |K_hat - K| = {metrics['max_abs_error']:.3e}"
    )
    return 0


def _context_path(output: str) -> str:
    stem, ext = os.path.splitext(output)
    return f"{stem}.context{ext or '.csv'}"


def _cmd_contrast(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "contrast")
    dim = _resolve(args, config, "contrast", "dim", int, 2)
    opt = _optimizer_config(config, seed)
    metrics: dict = {}
    inputs = []
    algo = args.algo

    if algo == "sgns":
        if args.corpus is None:
            raise UsageError("contrast sgns needs --corpus")
        window = _resolve(args, config, "contrast", "window", int, 1)
        k = _resolve(args, config, "contrast", "k", float, 1.0)
        activation = _resolve(args, config, "contrast", "activation", str, "sigmoid")
        neg_exponent = _resolve(args, config, "contrast", "neg-exponent", float, 1.0)
        tokens = load_corpus(args.corpus)
        inputs.append(args.corpus)
        stats = corpus_stats(tokens, window)
        phi, psi = train_sgns(
            stats, dim, k, config=opt, activation=activation, neg_exponent=neg_exponent
        )
        fits = phi.fits
        metrics["loss"] = sgns_expected_loss(
            phi, psi, stats, k, activation=activation, neg_exponent=neg_exponent
        )
        if np.all(stats.counts > 0) and dim >= stats.space.n and neg_exponent == 1.0:
            shift = k if activation == "sigmoid" else 1.0
            target = shifted_pmi_matrix(stats, shift)
            metrics["pmi_gap"] = float(
                np.abs(phi.rows @ psi.rows.T - target).max()
            )
        ensure_parent(args.output)
        items = " ".join(str(i) for i in stats.space.items)
        save_matrix_csv(args.output, phi.rows, comments=[f"items: {items}"])
        ctx = args.context_output or _context_path(args.output)
        save_matrix_csv(ctx, psi.rows, comments=[f"items: {items}"])
        flags = {
            "algo": algo,
            "corpus": args.corpus,
            "window": window,
            "k": k,
            "activation": activation,
            "neg_exponent": neg_exponent,
            "dim": dim,
            "output": args.output,
            "context_output": ctx,
        }
    else:
        if args.process is None:
            raise UsageError(f"contrast {algo} needs --process")
        process = load_process(args.process)
        inputs.append(args.process)
        items = " ".join(str(i) for i in process.space.items)
        if algo == "infonce":
            tau = _resolve(args, config, "contrast", "tau", float, 1.0)
            batch = _resolve(args, config, "contrast", "batch", int, 2)
            mode = _resolve(args, config, "contrast", "mode", str, "untied")
            result = train_infonce(
                process, dim, tau=tau, b=batch, config=opt, mode=mode
            )
            if mode == "untied":
                f, g = result
                scores = bilinear_scores(f, g, tau)
                rows = f.rows
                ctx_rows = g.rows
                fits = f.fits
            else:
                scores = cosine_scores(result, tau)
                rows = result.rows
                ctx_rows = None
                fits = result.fits
            metrics["loss"] = expected_simclr_loss(scores, process, batch)
            try:
                metrics["tv_gap"] = infonce_tv_gap(scores, process, batch)
            except EnumerationBudgetError:
                pass
            flags = {
                "algo": algo,
                "process": args.process,
                "dim": dim,
                "tau": tau,
                "batch": batch,
                "mode": mode,
                "output": args.output,
            }
        else:
            phi = train_spectral(process, dim, config=opt)
            rows = phi.rows
            ctx_rows = None
            fits = phi.fits
            metrics["loss"] = spectral_loss(phi, process)
            root = np.sqrt(process.marginal)
            f = root[:, None] * rows
            target = low_rank_factor(process.abar, dim)
            metrics["factor_gap"] = float(
                np.linalg.norm(target @ target.T - f @ f.T)
            )
            flags = {
                "algo": algo,
                "process": args.process,
                "dim": dim,
                "output": args.output,
            }
        ensure_parent(args.output)
        save_matrix_csv(args.output, rows, comments=[f"items: {items}"])
        if ctx_rows is not None:
            ctx = args.context_output or _context_path(args.output)
            save_matrix_csv(ctx, ctx_rows, comments=[f"items: {items}"])
            flags["context_output"] = ctx

    manifest = make_manifest(
        "contrast", flags, inputs, seed, metrics, started, __version__,
        optimizer=_optimizer_block(fits),
    )
    _emit(args.output, manifest)
    _warn_max_iter(fits)
    loss = metrics["loss"]
    print(f"wrote {args.output}; final loss {loss:.6g}")
    return 0


def _cmd_eigenfun(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "eigenfun")
    dim = _resolve(args, config, "eigenfun", "dim", int, 2)
    table = load_sym_csv(args.kernel)
    weights = load_matrix_csv(args.p).ravel()
    opt = _optimizer_config(config, seed)
    result = train_eigenfunctions(table, weights, dim, config=opt)

    eigenvalues, functions = mercer_decompose(table, weights)
    cosines = []
    for j in range(dim):
        cosines.append(
            abs(float((result.values[:, j] * weights) @ functions[:, j]))
        )
    comparison = {
        "estimates": [float(v) for v in result.estimates],
        "oracle_eigenvalues": [float(v) for v in eigenvalues[:dim]],
        "max_estimate_deviation": float(
            np.abs(result.estimates - eigenvalues[:dim]).max()
        ),
        "weighted_cosines": cosines,
        "relative_gaps": [float(v) for v in result.gaps],
    }
    ensure_parent(args.output)
    save_matrix_csv(
        args.output, result.values, comments=[f"eigenfunctions, one column each, d={dim}"]
    )
    if args.report:
        ensure_parent(args.report)
        with open(args.report, "w") as fh:
            json.dump(comparison, fh, sort_keys=True, indent=2)
            fh.write("\n")
    metrics = {
        "max_estimate_deviation": comparison["max_estimate_deviation"],
        "min_weighted_cosine": min(cosines),
    }
    flags = {
        "kernel": args.kernel,
        "p": args.p,
        "dim": dim,
        "output": args.output,
        "report": args.report,
    }
    manifest = make_manifest(
        "eigenfun", flags, [args.kernel, args.p], seed, metrics, started, __version__,
        optimizer=_optimizer_block(result.fits),
    )
    _emit(args.output, manifest)
    _warn_max_iter(result.fits)
    print(
        f"wrote {args.output}; max eigenvalue deviation "
        f"{comparison['max_estimate_deviation']:.3e}"
    )
    return 0


def _cmd_analyze(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "analyze")
    process = load_process(args.process)
    if (args.subset is None) == (args.parts is None):
        raise UsageError("analyze conductance needs exactly one of --subset or --parts")
    if args.subset is not None:
        try:
            subset = [int(s) for s in args.subset.split(",") if s.strip() != ""]
        except ValueError:
            raise UsageError(f"--subset {args.subset!r} is not a comma-separated index list") from None
        value = dirichlet_conductance(process, subset)
        payload = {"quantity": "conductance", "subset": subset, "value": value}
    else:
        value = sparsest_partition(process, args.parts)
        payload = {"quantity": "sparsest_partition", "parts": args.parts, "value": value}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.output:
        ensure_parent(args.output)
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        flags = {
            "quantity": args.quantity,
            "process": args.process,
            "subset": args.subset,
            "parts": args.parts,
            "output": args.output,
        }
        manifest = make_manifest(
            "analyze", flags, [args.process], seed, {"value": value}, started, __version__
        )
        _emit(args.output, manifest)
    print(text)
    return 0


def _cmd_verify(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "verify")
    report = run_suite(args.suite, seed)
    for check in report["checks"]:
        status = "ok " if check["passed"] else "FAIL"
        print(
            f"[{status}] {check['name']}: observed {check['observed']:.3e}"
            f" <= {check['tolerance']:.3e}"
        )
    overall = "passed" if report["passed"] else "FAILED"
    print(f"suite {report['suite']} {overall} (seed {seed})")
    if args.output:
        ensure_parent(args.output)
        with open(args.output, "w") as fh:
            fh.write(report_json(report))
        manifest = make_manifest(
            "verify",
            {"suite": args.suite, "output": args.output},
            [],
            seed,
            {c["name"]: c["observed"] for c in report["checks"]},
            started,
            __version__,
        )
        _emit(args.output, manifest)
    return 0 if report["passed"] else 1


def _cmd_report(args, config) -> int:
    started = time.time()
    seed = _resolve_seed(args, config, "report")
    os.makedirs(args.outdir, exist_ok=True)
    rows = []
    for path in args.manifests:
        data = load_manifest(path)
        for name in sorted(data.get("metrics", {})):
            rows.append(
                (path, data.get("subcommand", "?"), data.get("seed", 0), name,
                 data["metrics"][name])
            )
    summary = os.path.join(args.outdir, "summary.csv")
    with open(summary, "w") as fh:
        fh.write("# manifest,subcommand,seed,metric,value\n")
        for path, cmd, mseed, name, value in sorted(rows):
            fh.write(f"{path},{cmd},{mseed},{name},{value!r}\n")

    z = np.linspace(-6.0, 6.0, 121)
    series = []
    for k in (0.5, 1.0, 2.0, 4.0):
        series.append((f"k={k:g}", z, sigmoid(z - np.log(k))))
    line_chart(
        os.path.join(args.outdir, "sigmoid_family.svg"),
        series,
        "shifted sigmoids over scores",
    )

    data, latent = swiss_roll(200, noise=0.0, seed=seed)
    emb = isomap(data, 2, knn=8)
    scatter_panels(
        os.path.join(args.outdir, "swissroll_isomap.svg"),
        [
            ("swiss roll, face-on", data[:, [0, 2]], latent[:, 0]),
            ("isomap embedding", emb, latent[:, 0]),
        ],
    )
    manifest = make_manifest(
        "report",
        {"manifests": list(args.manifests), "outdir": args.outdir},
        list(args.manifests),
        seed,
        {"rows": len(rows)},
        started,
        __version__,
    )
    write_manifest(os.path.join(args.outdir, "report.manifest.json"), manifest)
    print(f"wrote {summary} and 2 plots to {args.outdir}")
    return 0


_DISPATCH = {
    "gen": _cmd_gen,
    "reduce": _cmd_reduce,
    "kernel-approx": _cmd_kernel_approx,
    "contrast": _cmd_contrast,
    "eigenfun": _cmd_eigenfun,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return _DISPATCH[args.command](args, config)
    except (UsageError, UnknownSuiteError) as exc:
        print(f"kc: usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"kc: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
