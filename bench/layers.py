"""The per-layer metric catalogue and its computation from a traced pass.

Names ending in `.s` are a function's self time in the traced pass: its
span durations minus the parts covered by child spans. Names ending in
`_s` after a size tag (`n200_s`, `r20000_s`, ...) are probes.
"""

from __future__ import annotations

from probes import SIMCLR_GRID, lookup
from workloads import SUITES

SELF_TIMED = (
    "contrastive.simclr_loss_grad",
    "contrastive.infonce_tv_gap",
    "contrastive.corpus_stats",
    "contrastive.train_sgns",
    "contrastive.train_infonce",
    "contrastive.train_spectral",
    "contrastive.train_nce",
    "eigenfunctions.train_eigenfunctions",
    "kernels.jacobi_eigh",
    "kernels.mercer_decompose",
    "kernels.is_psd",
    "kernels.gram",
    "kernels.kernel_eval",
    "linear_dr.mds_embed",
    "linear_dr.pca_fit",
    "linear_dr.low_rank_factor",
    "manifold.build_graph",
    "manifold.shortest_paths",
    "manifold.lle_weights",
    "manifold.lle_embed",
    "manifold.laplacian_eigenmaps",
    "manifold.isomap",
    "kernel_approx.nystrom_fit",
    "kernel_approx.nystrom_gram_approx",
    "kernel_approx.rff_features",
    "fileio.load_matrix_csv",
    "fileio.save_matrix_csv",
    "fileio.load_corpus",
    "fileio.load_process",
    "manifest.make_manifest",
)

CALL_COUNTED = (
    "contrastive.simclr_loss_grad",
    "kernels.jacobi_eigh",
    "kernels.kernel_eval",
    "kernel_approx.nystrom_eigenfunction",
    "kernel_approx.rff_features",
)

MINIMIZE = ("calls", "iterations", "evaluations", "evals_per_iter", "max_iter_hits",
            "self_s", "objective_s")

PROBES = (
    ("kernels.jacobi_eigh.n50_s", "kernels.jacobi_eigh.n100_s", "kernels.jacobi_eigh.n200_s")
    + tuple(f"contrastive.simclr_loss_grad.n{n}_b{b}_s" for n, b in SIMCLR_GRID)
    + (
        "contrastive.sgns_loss_grad.v30_s",
        "contrastive.spectral_loss_grad.n8_s",
        "contrastive.corpus_stats.tok1e5_s",
        "manifold.shortest_paths.n200_s",
        "fileio.save_matrix_csv.r20000_s",
        "fileio.load_matrix_csv.r20000_s",
    )
)

# Every operation name of every workload, for the cli.<op>.s metrics.
CLI_OPS = (
    tuple(f"verify-{suite}" for suite in SUITES)
    + ("gen", "reduce-isomap", "reduce-lle", "reduce-le", "reduce-mds", "reduce-pca",
       "kernel-approx-nystrom", "kernel-approx-rff", "report")
    + ("contrast-sgns", "contrast-infonce", "contrast-spectral", "eigenfun")
)


def catalogue() -> list:
    """(name, unit) of every per-layer metric, in reporting order."""
    out = [(f"encoders.minimize.{m}", _unit(m)) for m in MINIMIZE]
    out += [(f"{name}.calls", "count") for name in CALL_COUNTED]
    out += [(f"{name}.s", "s") for name in SELF_TIMED]
    out += [
        ("kernels.jacobi_eigh.max_n", "count"),
        ("fileio.load_matrix_csv.bytes", "B"),
        ("fileio.save_matrix_csv.bytes", "B"),
        ("svgplot.s", "s"),
    ]
    out += [(f"verify.{suite}.s", "s") for suite in SUITES]
    out += [(f"cli.{op}.s", "s") for op in CLI_OPS]
    out += [(name, "s") for name in PROBES]
    out.append(("trace.overhead_ratio", "ratio"))
    return out


def _unit(field: str) -> str:
    if field.endswith("_s"):
        return "s"
    return "ratio" if field == "evals_per_iter" else "count"


def compute(summary: dict, counts: dict, maxima: dict) -> tuple[dict, list]:
    """Per-layer values from a tracer's summary; also the names found absent."""
    values: dict = {}
    absent: list = []

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    for name in SELF_TIMED:
        values[f"{name}.s"] = self_s(name)
    for name in CALL_COUNTED:
        values[f"{name}.calls"] = summary.get(name, {}).get("calls", 0)
    for name in set(SELF_TIMED) | set(CALL_COUNTED) | {"encoders.minimize"}:
        if lookup(name) is None:
            absent.append(name)

    iterations = counts.get("encoders.minimize.iterations", 0)
    evaluations = counts.get("encoders.minimize.evaluations", 0)
    values.update(
        {
            "encoders.minimize.calls": counts.get("encoders.minimize.calls", 0),
            "encoders.minimize.iterations": iterations,
            "encoders.minimize.evaluations": evaluations,
            "encoders.minimize.evals_per_iter": evaluations / iterations if iterations else 0.0,
            "encoders.minimize.max_iter_hits": counts.get("encoders.minimize.max_iter_hits", 0),
            "encoders.minimize.self_s": self_s("encoders.minimize"),
            "encoders.minimize.objective_s": summary.get(
                "encoders.minimize.objective", {}).get("total_s", 0.0),
            "kernels.jacobi_eigh.max_n": maxima.get("kernels.jacobi_eigh.max_n", 0),
            "fileio.load_matrix_csv.bytes": counts.get("fileio.load_matrix_csv.bytes", 0),
            "fileio.save_matrix_csv.bytes": counts.get("fileio.save_matrix_csv.bytes", 0),
            "svgplot.s": sum(v["self_s"] for k, v in summary.items() if k.startswith("svgplot.")),
        }
    )
    for suite in SUITES:
        values[f"verify.{suite}.s"] = self_s(f"verify.{suite}")
    for op in CLI_OPS:
        values[f"cli.{op}.s"] = self_s(f"cli.{op}")
    return values, sorted(absent)
