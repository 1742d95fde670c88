"""The benchmark's three workloads: their inputs, operations and output checks.

A workload is a fixed list of `kc` operations. Each operation is one call
of `kernelcontrast.cli.main` with an argument list, followed (outside the
timed region) by a check of what it wrote. The checks read the files back
with NumPy alone, so they share no code with the library under test.

Margins turn each oracle comparison into decades of headroom,
min(CAP, log10(tolerance / observed)); a claim's margin is the minimum
over the workload's comparisons for that claim, and a claim the workload
has no comparison for reads CAP (the minimum over no comparisons).
"""

from __future__ import annotations

import json
import math
import os
import random

import numpy as np

CAP = 6.0

CLAIMS = ("pmi", "kplus", "eckart_young", "mercer", "nce", "toolbox")

SUITE_CLAIM = {
    "sgns-pmi": "pmi",
    "infonce-kplus": "kplus",
    "spectral-ey": "eckart_young",
    "nystrom": "toolbox",
    "rff": "toolbox",
    "manifold": "toolbox",
    "eigenfun": "mercer",
    "classification": "nce",
}

# Fixed sizes of the generated inputs.
ROLL_POINTS = 200
CORPUS_WORDS = 30
CORPUS_TOKENS = 100_000
TABLE_POINTS = 48
RFF_FEATURES = 2000  # frequencies; the feature map has a cosine and a sine per frequency

# Tolerances the non-verify comparisons are measured against.
PMI_TOL = 1.0  # see NOTES.md: 1e-3 would give the unconverged run a negative margin
TV_TOL = 1e-2
FACTOR_TOL = 1e-3
MERCER_TOL = 1e-2
MDS_TOL = 1e-8
RFF_TOL = 0.15


class CheckFailed(Exception):
    """An operation's output is missing, malformed or reports a failure."""


def margin(observed: float, tolerance: float) -> float:
    """Decades between an observed value and its tolerance, capped at CAP."""
    if not math.isfinite(observed):
        raise CheckFailed(f"observed value {observed!r} is not finite")
    if observed == 0.0:
        return CAP
    return min(CAP, math.log10(tolerance / observed))


# ---------------------------------------------------------------------------
# reading outputs back


def read_matrix(path: str, rows: int, cols=None) -> np.ndarray:
    """Load a CSV output and require it to be finite and of the given shape.

    ``cols`` is an int, a (low, high) range, or None for any width.
    """
    if not os.path.isfile(path):
        raise CheckFailed(f"missing output {os.path.basename(path)}")
    data = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{os.path.basename(path)} holds non-finite values")
    width_ok = (
        cols is None
        or (isinstance(cols, int) and data.shape[1] == cols)
        or (isinstance(cols, tuple) and cols[0] <= data.shape[1] <= cols[1])
    )
    if data.shape[0] != rows or not width_ok:
        raise CheckFailed(f"{os.path.basename(path)} has shape {data.shape}")
    return data


def read_json(path: str) -> dict:
    if not os.path.isfile(path):
        raise CheckFailed(f"missing {os.path.basename(path)}")
    with open(path) as fh:
        return json.load(fh)


def read_manifest(output: str) -> dict:
    manifest = read_json(output + ".manifest.json")
    if "subcommand" not in manifest or "metrics" not in manifest:
        raise CheckFailed(f"manifest of {os.path.basename(output)} lacks its fields")
    return manifest


# ---------------------------------------------------------------------------
# operations


class Op:
    """One `kc` call: its name, argument list and output check.

    ``check()`` raises CheckFailed or returns a list of
    (claim, observed, tolerance) comparisons.
    """

    def __init__(self, name: str, argv: list, check, fixed: str = ""):
        self.name = name
        self.argv = argv
        self.check = check
        self.fixed = fixed  # "first" / "last" pin the op in a shuffled pass


def _verify_op(workdir: str, suite: str, suite_seed: int) -> Op:
    out = os.path.join(workdir, f"verify-{suite}.json")

    def check():
        report = read_json(out)
        read_manifest(out)
        if report.get("suite") != suite or not report.get("checks"):
            raise CheckFailed(f"report of {suite} is malformed")
        if report.get("passed") is not True:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            raise CheckFailed(f"suite {suite} failed: {failed}")
        claim = SUITE_CLAIM[suite]
        return [
            (claim, c["observed"], c["tolerance"])
            for c in report["checks"]
            if c["tolerance"] > 0.0
        ]

    argv = ["verify", suite, "--seed", str(suite_seed), "--output", out]
    return Op(f"verify-{suite}", argv, check)


SUITES = tuple(SUITE_CLAIM)


def verify_ops(workdir: str, inputs: str, input_seed: int) -> list:
    return [_verify_op(workdir, suite, input_seed) for suite in SUITES]


def toolbox_ops(workdir: str, inputs: str, input_seed: int) -> list:
    roll = os.path.join(workdir, "roll.csv")

    def gen_check():
        read_matrix(roll, ROLL_POINTS, 5)
        read_manifest(roll)
        return []

    gen = ["gen", "swiss-roll", "--n", str(ROLL_POINTS), "--seed", str(input_seed),
           "--output", roll]
    ops = [Op("gen", gen, gen_check, fixed="first")]

    def reduce_op(method: str, dim: int, extra: list) -> Op:
        out = os.path.join(workdir, f"reduce-{method}.csv")

        def check():
            read_matrix(out, ROLL_POINTS, dim)
            manifest = read_manifest(out)
            if method != "mds":
                return []
            return [("toolbox", manifest["metrics"]["reconstruction_error"], MDS_TOL)]

        argv = ["reduce", "--method", method, "--dim", str(dim), "--input", roll,
                "--columns", "0,1,2", "--output", out] + extra
        return Op(f"reduce-{method}", argv, check)

    ops += [
        reduce_op("isomap", 2, ["--knn", "8"]),
        reduce_op("lle", 2, ["--knn", "8"]),
        reduce_op("le", 2, ["--knn", "8"]),
        reduce_op("mds", 3, []),
        reduce_op("pca", 2, []),
    ]

    def approx_op(method: str, extra: list, cols) -> Op:
        out = os.path.join(workdir, f"kernel-approx-{method}.csv")
        rep = os.path.join(workdir, f"kernel-approx-{method}.json")

        def check():
            read_matrix(out, ROLL_POINTS, cols)
            read_manifest(out)
            report = read_json(rep)
            error = report.get("max_abs_error")
            if not isinstance(error, float) or not math.isfinite(error):
                raise CheckFailed(f"{method} report has no finite max_abs_error")
            return [("toolbox", error, RFF_TOL)] if method == "rff" else []

        argv = ["kernel-approx", "--method", method, "--input", roll, "--columns",
                "0,1,2", "--seed", str(input_seed), "--output", out, "--report", rep]
        return Op(f"kernel-approx-{method}", argv + extra, check)

    ops += [
        approx_op("nystrom", ["--landmarks", "40", "--rank", "20"], (1, 20)),
        approx_op("rff", ["--features", str(RFF_FEATURES)], 2 * RFF_FEATURES),
    ]

    outdir = os.path.join(workdir, "report")
    manifests = [
        os.path.join(workdir, name + ".manifest.json")
        for name in ("roll.csv",)
        + tuple(f"reduce-{m}.csv" for m in ("isomap", "lle", "le", "mds", "pca"))
        + ("kernel-approx-nystrom.csv", "kernel-approx-rff.csv")
    ]

    def report_check():
        with open(os.path.join(outdir, "summary.csv")) as fh:
            rows = [line for line in fh if line.strip() and not line.startswith("#")]
        if not rows:
            raise CheckFailed("report summary is empty")
        svgs = [f for f in os.listdir(outdir) if f.endswith(".svg")]
        if not svgs:
            raise CheckFailed("report wrote no plots")
        read_json(os.path.join(outdir, "report.manifest.json"))
        return []

    ops.append(
        Op("report", ["report", "--manifests", *manifests, "--outdir", outdir,
                      "--seed", str(input_seed)], report_check, fixed="last")
    )
    return ops


def contrast_ops(workdir: str, inputs: str, input_seed: int) -> list:
    corpus = os.path.join(inputs, "corpus.txt")
    process = os.path.join(inputs, "process.json")
    table = os.path.join(inputs, "table.csv")
    weights = os.path.join(inputs, "weights.csv")
    seed = ["--seed", str(input_seed)]

    def contrast_op(algo: str, extra: list, cols: int, ctx: bool, metric, claim, tol):
        out = os.path.join(workdir, f"contrast-{algo}.csv")
        rows = CORPUS_WORDS if algo == "sgns" else 6

        def check():
            read_matrix(out, rows, cols)
            if ctx:
                read_matrix(os.path.join(workdir, f"contrast-{algo}.context.csv"), rows, cols)
            manifest = read_manifest(out)
            if metric not in manifest["metrics"]:
                raise CheckFailed(f"contrast {algo} manifest has no {metric}")
            return [(claim, manifest["metrics"][metric], tol)]

        argv = ["contrast", algo, *extra, *seed, "--output", out]
        return Op(f"contrast-{algo}", argv, check)

    out = os.path.join(workdir, "eigenfun.csv")
    rep = os.path.join(workdir, "eigenfun.json")

    def eigenfun_check():
        read_matrix(out, TABLE_POINTS, 3)
        read_manifest(out)
        report = read_json(rep)
        cosine_deficit = 1.0 - min(report["weighted_cosines"])
        return [
            ("mercer", report["max_estimate_deviation"], MERCER_TOL),
            ("mercer", max(cosine_deficit, 0.0), MERCER_TOL),
        ]

    return [
        contrast_op("sgns", ["--corpus", corpus, "--window", "2", "--k", "4", "--dim",
                             str(CORPUS_WORDS)], CORPUS_WORDS, True, "pmi_gap", "pmi",
                    PMI_TOL),
        contrast_op("infonce", ["--process", process, "--batch", "3", "--dim", "6"], 6,
                    True, "tv_gap", "kplus", TV_TOL),
        contrast_op("spectral", ["--process", process, "--dim", "2"], 2, False,
                    "factor_gap", "eckart_young", FACTOR_TOL),
        Op("eigenfun", ["eigenfun", "--kernel", table, "--p", weights, "--dim", "3",
                        *seed, "--output", out, "--report", rep], eigenfun_check),
    ]


OPS = {"verify": verify_ops, "toolbox": toolbox_ops, "contrast": contrast_ops}


def ordered(ops: list, order_seed: int) -> list:
    """The pass order: pinned ops stay put, the rest are shuffled by the seed."""
    first = [op for op in ops if op.fixed == "first"]
    last = [op for op in ops if op.fixed == "last"]
    middle = [op for op in ops if not op.fixed]
    random.Random(order_seed).shuffle(middle)
    return first + middle + last


# ---------------------------------------------------------------------------
# generated inputs


def write_inputs(workload: str, workdir: str, input_seed: int) -> None:
    """Write the files a workload's operations read; verify and toolbox need none
    (toolbox generates its swiss roll with `kc gen`, as its first operation)."""
    if workload != "contrast":
        return
    rng = np.random.default_rng(input_seed)
    zipf = 1.0 / np.arange(1, CORPUS_WORDS + 1)
    tokens = rng.choice(CORPUS_WORDS, size=CORPUS_TOKENS, p=zipf / zipf.sum())
    with open(os.path.join(workdir, "corpus.txt"), "w") as fh:
        fh.write(" ".join(f"w{t:02d}" for t in tokens) + "\n")

    # Two clusters of three items. Under a uniform p the normalized pair
    # matrix would be A^2 with spectrum 1, 0.81, 0.27 (four-fold); the uneven
    # p below gives 1, 0.811, 0.284, 0.284, ..., so the rank-2 factor is still
    # unique, and InfoNCE runs to its iteration budget instead of converging
    # within a few hundred steps as it does under the uniform p.
    alpha = math.sqrt(0.27)
    beta = 0.9 - alpha
    block = np.kron(np.eye(2), np.ones((3, 3))) / 3.0
    augment = alpha * np.eye(6) + beta * block + 0.1 * np.ones((6, 6)) / 6.0
    p = [0.25, 0.15, 0.1, 0.25, 0.15, 0.1]
    with open(os.path.join(workdir, "process.json"), "w") as fh:
        json.dump({"items": list("abcdef"), "p": p, "augment": augment.tolist()}, fh)

    # Gaussian kernel table on sorted uniform points; relative eigenvalue gaps
    # at input seed 0 are 0.36, 0.24 and 0.20.
    pts = np.sort(rng.uniform(0.0, 6.0, TABLE_POINTS))
    k = np.exp(-np.square(pts[:, None] - pts[None, :]) / 2.0)
    rows = [f"# symmetric n={TABLE_POINTS}"]
    rows += [",".join(repr(float(v)) for v in row) for row in k]
    with open(os.path.join(workdir, "table.csv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(workdir, "weights.csv"), "w") as fh:
        fh.write(",".join([repr(1.0 / TABLE_POINTS)] * TABLE_POINTS) + "\n")


def warmup_ops(workdir: str) -> list:
    """A tiny generate-and-reduce round trip that loads the CLI's lazy paths."""
    roll = os.path.join(workdir, "warm-roll.csv")
    return [
        ["gen", "swiss-roll", "--n", "30", "--seed", "0", "--output", roll],
        ["reduce", "--method", "pca", "--input", roll, "--columns", "0,1,2",
         "--output", os.path.join(workdir, "warm-pca.csv")],
    ]
