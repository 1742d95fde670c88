"""One positive-pair process, three lenses.

A four-item process with two sticky blocks {0,1} and {2,3}. The tour:

  1. InfoNCE training recovers the process's pair-odds conditionals,
     checked by exact enumeration of candidate tuples.
  2. The spectral loss factorizes the normalized pair matrix; its rank-2
     Gram matches the direct eigendecomposition truncation.
  3. Graph quantities on the same process: the block cut has far lower
     conductance than any other subset, and a linear probe on the rank-2
     spectral embedding separates the blocks exactly.
"""

import itertools

import numpy as np

from kernelcontrast.contrastive import (
    ProbeTask,
    bilinear_scores,
    dirichlet_conductance,
    infonce_tv_gap,
    linear_probe_error,
    pair_process,
    row_normalized,
    sparsest_partition,
    train_infonce,
    train_spectral,
)
from kernelcontrast.encoders import OptimizerConfig
from kernelcontrast.kernels import FiniteSpace
from kernelcontrast.verify import factor_gap

blocks = np.array([
    [0.55, 0.35, 0.05, 0.05],
    [0.35, 0.55, 0.05, 0.05],
    [0.05, 0.05, 0.55, 0.35],
    [0.05, 0.05, 0.35, 0.55],
])
proc = pair_process(FiniteSpace(list("abcd"), np.full(4, 0.25)), blocks)

print("-- infonce --")
f, g = train_infonce(
    proc, 4, tau=1.0, b=2, config=OptimizerConfig(tol=1e-8, max_iter=30000)
)
scores = bilinear_scores(f, g, 1.0)
tv = infonce_tv_gap(scores, proc, 2)
gap = np.abs(row_normalized(np.exp(scores)) - row_normalized(proc.k_plus)).max()
print(f"worst conditional TV after training: {tv:.2e}")
print(f"normalized exp-scores vs pair odds:  {gap:.2e}")

print()
print("-- spectral factorization --")
phi = train_spectral(proc, 2, config=OptimizerConfig(tol=1e-10, max_iter=40000))
print(f"trained Gram vs rank-2 truncation:   {factor_gap(phi, proc, 2):.2e}")

print()
print("-- cuts and probes --")
for subset in itertools.combinations(range(4), 2):
    phi_s = dirichlet_conductance(proc, list(subset))
    marker = "  <- the planted cut" if subset == (0, 1) else ""
    print(f"conductance of {subset}: {phi_s:.4f}{marker}")
print(f"sparsest 2-way partition value: {sparsest_partition(proc, 2):.4f}")
task = ProbeTask(labels=np.array([0, 0, 1, 1]), n_classes=2)
err = linear_probe_error(phi, task, proc.marginal)
print(f"linear probe error on the spectral embedding: {err:.3f}")
