"""Two ways to shrink a Gram matrix: landmarks and random features.

Nystrom reconstructs the full kernel table from a subset of rows, so its
error collapses once the landmarks span the table's effective rank.
Random Fourier features never collapse; they buy accuracy at the
Monte Carlo rate, a factor ~2 per 4x features. Both effects show up
plainly on a 60-point Gaussian Gram.
"""

import numpy as np

from kernelcontrast.kernel_approx import (
    nystrom_fit,
    nystrom_gram_approx,
    rff_features,
    rff_sample,
    sample_landmarks,
)
from kernelcontrast.kernels import gaussian_kernel, gram
from kernelcontrast.rng import Stream

N = 60
SIGMA2 = 4.0

points = Stream(7).normal(2 * N).reshape(N, 2)
kern = gaussian_kernel(SIGMA2)
exact = gram(kern, list(points))

print("landmark sweep (median worst-entry error over 10 draws)")
print(f"{'M':>4} {'max error':>12}")
for m in (4, 8, 16, 32, 60):
    errs = []
    for seed in range(10):
        idx = sample_landmarks(N, m, seed)
        model = nystrom_fit(kern, [points[i] for i in idx], m)
        approx = nystrom_gram_approx(model, list(points))
        errs.append(np.abs(approx - exact).max())
    print(f"{m:>4} {np.median(errs):12.2e}")

print()
print("random fourier features (same Gram, one map per dimension count)")
print(f"{'d':>6} {'max error':>12}")
for d in (50, 200, 800, 3200):
    model = rff_sample(SIGMA2, d, 2, seed=100 + d)
    feats = rff_features(model, points)
    approx = feats @ feats.T
    print(f"{d:>6} {np.abs(approx - exact).max():12.2e}")

print()
print("note the contrast: each landmark doubling buys about an order of")
print("magnitude here, while quadrupling the features only halves the error.")
