"""Train skip-gram embeddings on a toy corpus and factor the PMI table.

With embedding dimension equal to the vocabulary and every pair
co-occurring, the trained tables' product converges to PMI - log k
entrywise. That is checkable here because the corpus is small enough to
count by hand.
"""

from kernelcontrast.contrastive import corpus_stats, shifted_pmi_matrix, train_sgns
from kernelcontrast.encoders import OptimizerConfig
from kernelcontrast.verify import pmi_gap

corpus = "a a b a c a b b c b c c a c b".split()
stats = corpus_stats(corpus, window=1)
vocab = stats.space.items
n = stats.space.n

print("corpus:", " ".join(corpus))
print("pair counts (window 1):")
for i, row in enumerate(stats.counts):
    cells = "  ".join(f"{vocab[j]}:{int(row[j]):2d}" for j in range(n))
    print(f"  {vocab[i]}  {cells}")
print()

k = 2.0
cfg = OptimizerConfig(tol=1e-10, max_iter=40000)
phi, psi = train_sgns(stats, n, k, config=cfg, activation="sigmoid")
product = phi.rows @ psi.rows.T
target = shifted_pmi_matrix(stats, k)

print(f"k = {k}, plain sigmoid: product should equal PMI - log k")
print(f"{'pair':>6} {'product':>10} {'target':>10}")
for i in range(n):
    for j in range(n):
        print(f"  {vocab[i]},{vocab[j]} {product[i, j]:10.4f} {target[i, j]:10.4f}")
print(f"worst entry gap: {pmi_gap(phi, psi, stats, k, 'sigmoid'):.2e}")
print()

phi2, psi2 = train_sgns(stats, n, k, config=cfg, activation="k_sigmoid")
gap = pmi_gap(phi2, psi2, stats, k, "k_sigmoid")
print(f"k-scaled sigmoid removes the shift; gap to plain PMI: {gap:.2e}")
