"""Fixed-size timings of single layers, taken by the traced run.

Probes keep a layer visible where no workload makes it dominant. Each
calls one public function on inputs of a fixed size and reports the
median of a few calls in seconds. A probe whose function no longer exists
is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import math
import os
import statistics
import time

import numpy as np

# (n, B) points of the InfoNCE grid that fit the n^(2B) <= 2e6 enumeration budget.
SIMCLR_GRID = [(n, b) for n in (4, 6, 8) for b in (2, 3, 4) if n ** (2 * b) <= 2_000_000]


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _symmetric(n: int, rng) -> np.ndarray:
    a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


def lookup(qualified: str):
    """`layer.function` from the kernelcontrast package, or None if it is gone."""
    layer, name = qualified.split(".")
    try:
        module = importlib.import_module(f"kernelcontrast.{layer}")
    except ImportError:
        return None
    return getattr(module, name, None)


def _process(n: int):
    from kernelcontrast import FiniteSpace, pair_process

    p = np.linspace(1.0, 2.0, n)
    augment = 0.6 * np.eye(n) + 0.4 / n
    return pair_process(FiniteSpace(items=[f"i{i}" for i in range(n)], p=p / p.sum()), augment)


def run(workdir: str) -> tuple[dict, list]:
    """Return ({metric: seconds}, [absent metric names])."""
    rng = np.random.default_rng(0)
    metrics: dict = {}
    absent: list = []

    def probe(metric: str, make_call, reps: int):
        fn = lookup(metric.rsplit(".", 1)[0])
        if fn is None:
            absent.append(metric)
            return
        metrics[metric] = _median_time(make_call(fn), reps)

    for n, reps in ((50, 3), (100, 1), (200, 1)):
        matrix = _symmetric(n, rng)
        probe(f"kernels.jacobi_eigh.n{n}_s", lambda f, m=matrix: lambda: f(m), reps)

    for n, b in SIMCLR_GRID:
        process = _process(n)
        scores = rng.standard_normal((n, n))
        reps = 3 if n ** (2 * b) > 100_000 else 9
        probe(f"contrastive.simclr_loss_grad.n{n}_b{b}_s", lambda f, s=scores, p=process, bb=b: lambda: f(s, p, bb), reps)

    tokens = [f"w{t:02d}" for t in rng.zipf(1.5, 100_000) % 30]
    probe("contrastive.corpus_stats.tok1e5_s", lambda f: lambda: f(tokens, 2), 3)
    corpus_stats = lookup("contrastive.corpus_stats")
    if corpus_stats is not None:
        stats = corpus_stats(tokens[:20_000], 2)
        vocab = stats.space.n
        phi, psi = rng.standard_normal((2, vocab, vocab)) * 0.1
        probe("contrastive.sgns_loss_grad.v30_s",
              lambda f: lambda: f(phi, psi, stats, 4.0), 51)
    else:
        absent.append("contrastive.sgns_loss_grad.v30_s")

    process8 = _process(8)
    rows8 = rng.standard_normal((8, 8))
    probe("contrastive.spectral_loss_grad.n8_s", lambda f: lambda: f(rows8, process8), 201)

    theta = np.sort(rng.uniform(1.5 * math.pi, 4.5 * math.pi, 200))
    roll = np.column_stack((theta * np.cos(theta), rng.uniform(0, 20, 200), theta * np.sin(theta)))
    build_graph = lookup("manifold.build_graph")
    if build_graph is not None:
        graph = build_graph(roll, knn=8)
        probe("manifold.shortest_paths.n200_s", lambda f: lambda: f(graph), 3)
    else:
        absent.append("manifold.shortest_paths.n200_s")

    table = rng.standard_normal((20_000, 5))
    path = os.path.join(workdir, "probe-20000x5.csv")
    probe("fileio.save_matrix_csv.r20000_s", lambda f: lambda: f(path, table), 3)
    probe("fileio.load_matrix_csv.r20000_s", lambda f: lambda: f(path), 3)
    if os.path.exists(path):
        os.remove(path)
    return metrics, absent
