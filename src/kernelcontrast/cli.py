"""`kc`: data generation, reduction, approximation, training, verification.

Every subcommand is one table of option declarations plus one body. A
declaration gives an option's flag, type, default, the methods that read
it and whether it is required or one of an exactly-one-of group; the
argparse parser, the resolver and the manifest are all built from it.

Each settable option resolves in one order: the flag, then the KC_SEED
environment variable (seed only), then the config file's section named
after the subcommand, then its [kc] section, then the default. A config
key is an option's flag name without the dashes; a key in the running
subcommand's own section (or, for `contrast` and `eigenfun`, in
[optimizer]) that names none of its settable options is a usage error.

Every run that writes an output file writes a RunManifest JSON next to
it, whose flags are the resolved values of the options the run read
(null for the others) plus, for training commands, the resolved
[optimizer] settings. Exit codes: 0 success, 1 failure (including a
failed verify suite), 2 usage error.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import functools
import json
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import __version__
from .contrastive import (
    EnumerationBudgetError,
    bilinear_scores,
    corpus_stats,
    cosine_scores,
    dirichlet_conductance,
    infonce_tv_gap,
    sgns_loss_grad,
    simclr_loss_grad,
    sparsest_partition,
    spectral_loss_grad,
    train_infonce,
    train_sgns,
    train_spectral,
)
from .eigenfunctions import train_eigenfunctions
from .encoders import OptimizerConfig
from .fileio import (
    ParseError,
    ensure_parent,
    load_corpus,
    load_matrix_csv,
    load_process,
    load_sym_csv,
    save_matrix_csv,
)
from .kernel_approx import nystrom_features, nystrom_fit, rff_features, rff_sample
from .kernels import gaussian_kernel, gram, linear_kernel, mercer_decompose, polynomial_kernel
from .linear_dr import mds_embed, pca_fit, pca_transform
from .manifold import (
    isomap,
    laplacian_eigenmaps,
    lle_embed,
    lle_weights,
    pairwise_distances,
    swiss_roll,
)
from .manifest import load_manifest, make_manifest, write_manifest
from .rng import Stream
from .svgplot import line_chart
from .verify import UnknownSuiteError, eigenfunction_gaps, factor_gap, pmi_gap, run_suite


class UsageError(ValueError):
    """Flag combination or value the parser alone cannot reject."""


# ---------------------------------------------------------------------------
# declarations


class _Opt:
    """One option of one subcommand.

    ``flag`` is the argparse spelling; without its dashes it is also the
    config key, and with dashes turned to underscores the manifest key.
    A positional argument, or an option declared ``fixed``, is read from
    the command line only. ``reads`` is the tuple of methods (the value of
    the command's first fixed argument) that read the option, or a
    predicate on the values resolved before it; None means every method.
    Among the read options that share a ``group``, exactly one must have a
    value; ``required`` makes an option a group of its own. ``default`` may
    be a function of the other resolved values. ``hashed`` options name
    input files whose digests the manifest records.
    """

    def __init__(self, flag, cast=str, default=None, *, reads=None, required=False,
                 group=None, hashed=False, choices=None, fixed=False, nargs=None, help=None):
        self.flag = flag
        self.name = flag.lstrip("-")
        self.dest = self.name.replace("-", "_")
        self.positional = not flag.startswith("-")
        self.fixed = fixed or self.positional
        self.cast, self.default, self.reads = cast, default, reads
        self.group = self.name if required else group
        self.hashed, self.choices, self.nargs, self.help = hashed, choices, nargs, help

    def add_to(self, parser) -> None:
        kwargs = {"type": self.cast, "choices": self.choices, "help": self.help}
        if self.nargs:
            kwargs["nargs"] = self.nargs
        if self.fixed and not self.positional:
            kwargs["required"] = True
        parser.add_argument(self.flag, **kwargs)


@dataclasses.dataclass(frozen=True)
class _Command:
    help: str
    body: object  # SimpleNamespace of resolved values -> _Outcome
    options: tuple
    trains: bool = False  # reads [optimizer] and records its settings
    sidecar: object = lambda v: v["output"] and v["output"] + ".manifest.json"


@dataclasses.dataclass
class _Outcome:
    """What a command body hands back to the run wrapper."""

    message: str
    metrics: dict
    fits: tuple = ()
    tables: dict = dataclasses.field(default_factory=dict)  # path -> (rows, comment)
    json: dict = dataclasses.field(default_factory=dict)  # path or None -> payload
    code: int = 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `kc` parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="kc",
        description="finite-space kernel, manifold, and contrastive toolkit",
    )
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--version", action="version", version=f"kc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        subparser = sub.add_parser(name, help=command.help)
        for opt in command.options:
            opt.add_to(subparser)
    return parser


# ---------------------------------------------------------------------------
# resolution


def _load_config(path: str | None) -> configparser.ConfigParser | None:
    if path is None:
        return None
    if not os.path.exists(path):
        raise UsageError(f"config file not found: {path}")
    # Values are literal: a '%' in a path is a character, not interpolation.
    cfg = configparser.ConfigParser(interpolation=None)
    try:
        cfg.read(path)
    except configparser.Error as exc:
        raise UsageError(f"config file {path} is malformed: {exc}") from None
    return cfg


def _cast(section: str, name: str, raw: str, cast):
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(
            f"config [{section}] {name} = {raw!r} is not a valid {cast.__name__}"
        ) from None


def _check_keys(config, section: str, names) -> None:
    if config is None or not config.has_section(section):
        return
    for key in config[section]:
        if key not in names:
            raise UsageError(
                f"config [{section}] has unknown key {key!r}; it takes {', '.join(names)}"
            )


def _lookup(opt: _Opt, args, config, section: str):
    """Flag, then KC_SEED for the seed, then [section], then [kc], else None."""
    value = getattr(args, opt.dest)
    if value is None and opt.name == "seed" and "KC_SEED" in os.environ:
        env = os.environ["KC_SEED"]
        try:
            value = int(env)
        except ValueError:
            raise UsageError(f"KC_SEED={env!r} is not an integer") from None
    for sec in (section, "kc"):
        if value is None and config is not None and config.has_option(sec, opt.name):
            value = _cast(sec, opt.name, config.get(sec, opt.name), opt.cast)
            if opt.choices is not None and value not in opt.choices:
                raise UsageError(
                    f"config [{sec}] {opt.name} = {value!r} is not one of {opt.choices}"
                )
    return value


def _resolve(name: str, command: _Command, args, config) -> dict:
    """Every option's value for this run; None for those it does not read."""
    _check_keys(config, name, [o.name for o in command.options if not o.fixed])
    fixed = [o for o in command.options if o.fixed]
    selector = fixed[0].dest if fixed else None
    values: dict = {}
    read = set()
    for opt in command.options:
        values[opt.dest] = None
        if opt.fixed:
            values[opt.dest] = getattr(args, opt.dest)
            read.add(opt.dest)
        elif (opt.reads is None
              or (opt.reads(values) if callable(opt.reads) else values[selector] in opt.reads)):
            value = _lookup(opt, args, config, name)
            if value is None and not callable(opt.default):
                value = opt.default
            values[opt.dest] = value
            read.add(opt.dest)

    groups: dict = {}
    for opt in command.options:
        if opt.group is not None and opt.dest in read:
            groups.setdefault(opt.group, []).append(opt)
    for members in groups.values():
        if sum(values[o.dest] is not None for o in members) != 1:
            run = " ".join(
                [name] + [str(values[o.dest]) if o.positional else f"{o.flag} {values[o.dest]}"
                          for o in fixed if not o.nargs]
            )
            flags = " or ".join(o.flag for o in members)
            raise UsageError(f"{run} needs {'exactly one of ' if len(members) > 1 else ''}{flags}")

    for opt in command.options:
        if callable(opt.default) and opt.dest in read and values[opt.dest] is None:
            values[opt.dest] = opt.default(values)
    return values


def _optimizer_settings(config) -> dict:
    """The [optimizer] section over OptimizerConfig's defaults (bar the seed)."""
    settings = {
        f.name: f.default for f in dataclasses.fields(OptimizerConfig) if f.name != "seed"
    }
    _check_keys(config, "optimizer", list(settings))
    if config is not None and config.has_section("optimizer"):
        for key, raw in config["optimizer"].items():
            settings[key] = _cast("optimizer", key, raw, type(settings[key]))
    return settings


# ---------------------------------------------------------------------------
# the run wrapper


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


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _run(name: str, args) -> int:
    """Resolve, run the body, write its outputs and manifest, map errors
    to exit codes."""
    command = _COMMANDS[name]
    try:
        started = time.time()
        config = _load_config(args.config)
        values = _resolve(name, command, args, config)
        seed = values.get("seed", 0)
        flags = {dest: value for dest, value in values.items() if dest != "seed"}
        run = SimpleNamespace(**values)
        if command.trains:
            flags["optimizer"] = _optimizer_settings(config)
            run.optimizer = OptimizerConfig(seed=seed, **flags["optimizer"])
        outcome = command.body(run)

        for path, (rows, comment) in outcome.tables.items():
            ensure_parent(path)
            save_matrix_csv(path, rows, comments=[comment])
        for path, payload in outcome.json.items():
            if path is not None:
                ensure_parent(path)
                with open(path, "w") as fh:
                    fh.write(_json(payload) + "\n")
        sidecar = command.sidecar(values)
        if sidecar:
            inputs = []
            for opt in command.options:
                if opt.hashed and values[opt.dest] is not None:
                    inputs += values[opt.dest] if opt.nargs else [values[opt.dest]]
            manifest = make_manifest(
                name, flags, inputs, seed, outcome.metrics, started, __version__,
                optimizer=_optimizer_block(outcome.fits),
            )
            write_manifest(sidecar, manifest)
        _warn_max_iter(outcome.fits)
        print(outcome.message)
        return outcome.code
    except (UsageError, UnknownSuiteError) as exc:
        print(f"kc: usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ValueError, OSError, RuntimeError) as exc:
        print(f"kc: error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# subcommand bodies: resolved values in, outputs, metrics, fits, message out


def _index_list(flag: str, spec: str) -> list:
    try:
        return [int(c) for c in spec.split(",") if c.strip() != ""]
    except ValueError:
        raise UsageError(f"{flag} {spec!r} is not a comma-separated index list") from None


def _select_columns(data: np.ndarray, spec: str | None) -> np.ndarray:
    if spec is None:
        return data
    cols = _index_list("--columns", spec)
    if not cols or max(cols) >= data.shape[1] or min(cols) < 0:
        raise UsageError(f"--columns indices must lie in [0, {data.shape[1] - 1}]")
    return data[:, cols]


def _gen(v) -> _Outcome:
    data, latent = swiss_roll(v.n, noise=v.noise, seed=v.seed)
    return _Outcome(
        f"wrote {v.output} ({v.n} rows)",
        {"rows": v.n},
        tables={v.output: (np.column_stack((data, latent)), "columns: x,y,z,latent_t,latent_h")},
    )


def _reduce(v) -> _Outcome:
    metrics: dict = {}
    if v.distances is not None:
        result = mds_embed(load_sym_csv(v.distances), v.dim)
    else:
        data = _select_columns(load_matrix_csv(v.input), v.columns)
        if v.method == "pca":
            model = pca_fit(data, v.dim)
            emb = pca_transform(model, data)
            total = model.eigenvalues.sum()
            kept = model.eigenvalues[:v.dim].sum()
            metrics["variance_kept"] = float(kept / total) if total > 0 else 1.0
        elif v.method == "mds":
            result = mds_embed(pairwise_distances(data), v.dim)
        elif v.method == "isomap":
            emb = isomap(data, v.dim, eps=v.eps, knn=v.knn)
        elif v.method == "lle":
            emb = lle_embed(lle_weights(data, v.knn), v.dim)
        else:
            emb = laplacian_eigenmaps(data, v.dim, v.t, eps=v.eps, knn=v.knn)
    if v.method == "mds":
        emb = result.embeddings
        metrics["reconstruction_error"] = result.reconstruction_error
        metrics["clamped_count"] = result.clamped_count
    return _Outcome(
        f"wrote {v.output} ({emb.shape[0]} x {emb.shape[1]})",
        metrics,
        tables={v.output: (emb, f"{v.method} embedding, d={v.dim}")},
    )


def _kernel_approx(v) -> _Outcome:
    data = _select_columns(load_matrix_csv(v.input), v.columns)
    n = data.shape[0]
    if v.kernel == "gaussian":
        kernel = gaussian_kernel(v.sigma2)
    elif v.kernel == "polynomial":
        kernel = polynomial_kernel(v.degree)
    else:
        kernel = linear_kernel()
    metrics: dict = {}

    if v.method == "nystrom":
        if v.landmarks > n:
            raise UsageError(f"--landmarks {v.landmarks} exceeds the {n} input points")
        idx = Stream(v.seed).choice_without_replacement(n, v.landmarks)
        model = nystrom_fit(kernel, [data[i] for i in idx], v.rank)
        feats = nystrom_features(model, data)
        metrics["usable_rank"] = feats.shape[1]  # min(--rank, usable eigenvalues)
    else:
        if v.kernel != "gaussian":
            raise UsageError("random Fourier features require the gaussian kernel")
        feats = rff_features(rff_sample(v.sigma2, v.features, data.shape[1], v.seed), data)

    err = np.abs(feats @ feats.T - gram(kernel, data))
    metrics["max_abs_error"] = float(err.max())
    metrics["mean_abs_error"] = float(err.mean())
    report = {
        "method": v.method,
        "max_abs_error": metrics["max_abs_error"],
        "mean_abs_error": metrics["mean_abs_error"],
        "points": n,
    }
    return _Outcome(
        f"wrote {v.output}; max |K_hat - K| = {metrics['max_abs_error']:.3e}",
        metrics,
        tables={v.output: (feats, f"{v.method} features")},
        json={v.report: report},
    )


def _context_path(output: str) -> str:
    stem, ext = os.path.splitext(output)
    return f"{stem}.context{ext or '.csv'}"


def _contrast(v) -> _Outcome:
    metrics: dict = {}
    ctx_rows = None
    if v.algo == "sgns":
        stats = corpus_stats(load_corpus(v.corpus), v.window)
        phi, psi = train_sgns(
            stats, v.dim, v.k, config=v.optimizer, activation=v.activation,
            neg_exponent=v.neg_exponent,
        )
        rows, ctx_rows, fits, items = phi.rows, psi.rows, phi.fits, stats.space.items
        metrics["loss"] = sgns_loss_grad(
            phi.rows, psi.rows, stats, v.k, activation=v.activation, neg_exponent=v.neg_exponent
        )[0]
        if np.all(stats.counts > 0) and v.dim >= stats.space.n and v.neg_exponent == 1.0:
            metrics["pmi_gap"] = pmi_gap(phi, psi, stats, v.k, v.activation)
    else:
        process = load_process(v.process)
        items = process.space.items
        if v.algo == "infonce":
            result = train_infonce(
                process, v.dim, tau=v.tau, b=v.batch, config=v.optimizer, mode=v.mode
            )
            if v.mode == "untied":
                f, g = result
                scores = bilinear_scores(f, g, v.tau)
                rows, ctx_rows, fits = f.rows, g.rows, f.fits
            else:
                scores = cosine_scores(result, v.tau)
                rows, fits = result.rows, result.fits
            metrics["loss"] = simclr_loss_grad(scores, process, v.batch)[0]
            try:
                metrics["tv_gap"] = infonce_tv_gap(scores, process, v.batch)
            except EnumerationBudgetError:
                pass
        else:
            phi = train_spectral(process, v.dim, config=v.optimizer)
            rows, fits = phi.rows, phi.fits
            metrics["loss"] = spectral_loss_grad(phi.rows, process)[0]
            metrics["factor_gap"] = factor_gap(phi, process, v.dim)

    comment = "items: " + " ".join(str(i) for i in items)
    tables = {v.output: (rows, comment)}
    if ctx_rows is not None:
        tables[v.context_output] = (ctx_rows, comment)
    return _Outcome(f"wrote {v.output}; final loss {metrics['loss']:.6g}", metrics, fits, tables)


def _eigenfun(v) -> _Outcome:
    table = load_sym_csv(v.kernel)
    weights = load_matrix_csv(v.p).ravel()
    result = train_eigenfunctions(table, weights, v.dim, config=v.optimizer)
    eigenvalues, functions = mercer_decompose(table, weights)
    deviation, cosines = eigenfunction_gaps(result, eigenvalues, functions, weights)
    comparison = {
        "estimates": [float(x) for x in result.estimates],
        "oracle_eigenvalues": [float(x) for x in eigenvalues[:v.dim]],
        "max_estimate_deviation": deviation,
        "weighted_cosines": cosines,
        "relative_gaps": [float(x) for x in result.gaps],
    }
    return _Outcome(
        f"wrote {v.output}; max eigenvalue deviation {deviation:.3e}",
        {"max_estimate_deviation": deviation, "min_weighted_cosine": min(cosines)},
        result.fits,
        tables={v.output: (result.values, f"eigenfunctions, one column each, d={v.dim}")},
        json={v.report: comparison},
    )


def _analyze(v) -> _Outcome:
    process = load_process(v.process)
    if v.subset is not None:
        subset = _index_list("--subset", v.subset)
        value = dirichlet_conductance(process, subset)
        payload = {"quantity": "conductance", "subset": subset, "value": value}
    else:
        value = sparsest_partition(process, v.parts)
        payload = {"quantity": "sparsest_partition", "parts": v.parts, "value": value}
    return _Outcome(_json(payload), {"value": value}, json={v.output: payload})


def _verify(v) -> _Outcome:
    report = run_suite(v.suite, v.seed)
    lines = [
        f"[{'ok ' if c['passed'] else 'FAIL'}] {c['name']}: observed {c['observed']:.3e}"
        f" <= {c['tolerance']:.3e}"
        for c in report["checks"]
    ]
    overall = "passed" if report["passed"] else "FAILED"
    lines.append(f"suite {report['suite']} {overall} (seed {v.seed})")
    return _Outcome(
        "\n".join(lines),
        {c["name"]: c["observed"] for c in report["checks"]},
        json={v.output: report},
        code=0 if report["passed"] else 1,
    )


def _report(v) -> _Outcome:
    os.makedirs(v.outdir, exist_ok=True)
    rows, series = [], {}  # series: metric -> [(manifest position, log10 |value|)]
    for position, path in enumerate(sorted(v.manifests)):
        data = load_manifest(path)
        for name in sorted(data.get("metrics", {})):
            value = data["metrics"][name]
            rows.append((path, data.get("subcommand", "?"), data.get("seed", 0), name, value))
            # 0, non-finite and non-numeric values have no place on a log axis
            if type(value) in (int, float) and value != 0:
                magnitude = math.log10(abs(value))
                if math.isfinite(magnitude):
                    series.setdefault(name, []).append((position, magnitude))
    summary = os.path.join(v.outdir, "summary.csv")
    with open(summary, "w") as fh:
        fh.write("# manifest,subcommand,seed,metric,value\n")
        for path, cmd, mseed, name, value in sorted(rows):
            fh.write(f"{path},{cmd},{mseed},{name},{value!r}\n")
    chart = os.path.join(v.outdir, "metrics.svg")
    message = f"wrote {summary} to {v.outdir}; no finite nonzero metric to plot"
    if series:
        line_chart(
            chart,
            [(name, *zip(*points)) for name, points in sorted(series.items())],
            "log10 |metric| by manifest",
        )
        message = f"wrote {summary} and 1 plot to {v.outdir}"
    elif os.path.lexists(chart):  # an earlier run's chart does not describe this summary
        os.remove(chart)
    return _Outcome(message, {"rows": len(rows)})


# ---------------------------------------------------------------------------
# the option tables

_SEED = _Opt("--seed", int, 0)
_COLUMNS_HELP = "comma-separated input column indices (default: all)"

_COMMANDS = {
    "gen": _Command("generate a dataset", _gen, (
        _Opt("shape", choices=["swiss-roll"]),
        _Opt("--n", int, 400),
        _Opt("--noise", float, 0.0),
        _SEED,
        _Opt("--output", required=True),
    )),
    "reduce": _Command("dimensionality reduction", _reduce, (
        _Opt("--method", fixed=True, choices=["pca", "mds", "isomap", "lle", "le"]),
        _Opt("--dim", int, 2),
        _Opt("--input", group="source", hashed=True),
        _Opt("--columns", reads=lambda v: v["input"] is not None,
             help=_COLUMNS_HELP + ", e.g. 0,1,2 to drop the latent columns of a "
             "generated dataset"),
        _Opt("--distances", reads=("mds",), group="source", hashed=True,
             help="symmetric distance CSV (mds)"),
        _Opt("--eps", float, reads=("isomap", "le"), group="graph"),
        _Opt("--knn", int, reads=("isomap", "lle", "le"), group="graph"),
        _Opt("--t", float, 1.0, reads=("le",), help="gaussian edge-weight bandwidth (le)"),
        _Opt("--output", required=True),
    )),
    "kernel-approx": _Command("low-rank / random kernel features", _kernel_approx, (
        _Opt("--method", fixed=True, choices=["nystrom", "rff"]),
        _Opt("--input", required=True, hashed=True),
        _Opt("--columns", help=_COLUMNS_HELP),
        _Opt("--kernel", default="gaussian", choices=["gaussian", "linear", "polynomial"]),
        _Opt("--sigma2", float, 1.0, reads=lambda v: v["kernel"] == "gaussian"),
        _Opt("--degree", int, 2, reads=lambda v: v["kernel"] == "polynomial"),
        _Opt("--landmarks", int, reads=("nystrom",), required=True),
        _Opt("--rank", int, reads=("nystrom",), required=True),
        _Opt("--features", int, reads=("rff",), required=True),
        _SEED,
        _Opt("--output", required=True),
        _Opt("--report", help="JSON kernel-error report path"),
    )),
    "contrast": _Command("contrastive training", _contrast, (
        _Opt("algo", choices=["sgns", "infonce", "spectral"]),
        _Opt("--corpus", reads=("sgns",), required=True, hashed=True),
        _Opt("--window", int, 1, reads=("sgns",)),
        _Opt("--k", float, 1.0, reads=("sgns",)),
        _Opt("--neg-exponent", float, 1.0, reads=("sgns",)),
        _Opt("--activation", default="sigmoid", choices=["sigmoid", "k_sigmoid"],
             reads=("sgns",)),
        _Opt("--process", reads=("infonce", "spectral"), required=True, hashed=True),
        _Opt("--dim", int, 2),
        _Opt("--tau", float, 1.0, reads=("infonce",)),
        _Opt("--batch", int, 2, reads=("infonce",)),
        _Opt("--mode", default="untied", choices=["untied", "tied"], reads=("infonce",)),
        _SEED,
        _Opt("--output", required=True),
        _Opt("--context-output", default=lambda v: _context_path(v["output"]),
             reads=lambda v: v["algo"] == "sgns" or v["mode"] == "untied"),
    ), trains=True),
    "eigenfun": _Command("kernel eigenfunction recovery", _eigenfun, (
        _Opt("--kernel", required=True, hashed=True, help="symmetric kernel table CSV"),
        _Opt("--p", required=True, hashed=True, help="distribution CSV (one row or column)"),
        _Opt("--dim", int, 2),
        _SEED,
        _Opt("--output", required=True),
        _Opt("--report", help="JSON oracle-comparison path"),
    ), trains=True),
    "analyze": _Command("process graph quantities", _analyze, (
        _Opt("quantity", choices=["conductance"]),
        _Opt("--process", required=True, hashed=True),
        _Opt("--subset", group="selector", help="comma-separated item indices"),
        _Opt("--parts", int, group="selector", help="partition count for the sparsest cut"),
        _Opt("--output"),
    )),
    "verify": _Command("run a named oracle suite", _verify, (
        _Opt("suite"),
        _SEED,
        _Opt("--output", help="write the JSON report here"),
    )),
    "report": _Command("summarize manifests, chart their metrics", _report, (
        _Opt("--manifests", fixed=True, nargs="+", hashed=True),
        _Opt("--outdir", required=True),
        _SEED,
    ), sidecar=lambda v: os.path.join(v["outdir"], "report.manifest.json")),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _run(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
