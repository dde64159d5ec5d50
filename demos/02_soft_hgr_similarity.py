"""The Soft-HGR similarity and its batch/per-pair decomposition.

The batch similarity is the mean paired inner product minus half the
trace of the product of the sample-by-sample covariances. `sim_matrix`
scores every sample against every label row; its entries at the
samples' own labels sum back to the batch value exactly. That identity
is what lets the contrastive losses score every (sample, label)
combination against consistent batch statistics.
"""

import numpy as np

from sslcl import Tensor, build_context, sim_matrix

rng = np.random.default_rng(0)
n, k, d = 5, 3, 4
feats = rng.standard_normal((n, d))
table = rng.standard_normal((k, d))
labels = rng.integers(0, k, size=n)
print(f"batch: {n} samples, {k} labels, {d} dims; assignment z = {labels.tolist()}")

# The batch value straight from its definition, in plain numpy.
f_c = feats - feats.mean(axis=0)
a_c = (table - table.mean(axis=0))[labels]
batch_value = (np.sum(f_c * a_c) - 0.5 * np.sum((f_c @ f_c.T) * (a_c @ a_c.T)) / (n - 1)) / (n - 1)
mat = sim_matrix(build_context(Tensor(feats), Tensor(table), labels)).values
pair_sum = mat[np.arange(n), labels].sum()
print(f"\nbatch Soft-HGR similarity:     {batch_value:+.12f}")
print(f"sum of own-label similarities: {pair_sum:+.12f}")
print(f"decomposition gap:             {abs(batch_value - pair_sum):.2e}")

offset = rng.standard_normal(d) * 50.0
shifted = sim_matrix(build_context(Tensor(feats + offset), Tensor(table), labels)).values
print(f"\nafter adding a constant +-50-ish offset to every sample feature:")
print(f"the own-label sum moves by {abs(shifted[np.arange(n), labels].sum() - pair_sum):.2e} "
      "(centering absorbs translations)")

print("\nall sample-against-label similarities, one row per sample:")
for i in range(n):
    marks = " ".join(f"{v:+.3f}{'*' if j == labels[i] else ' '}" for j, v in enumerate(mat[i]))
    print(f"  sample {i}: {marks}")
print("(* marks the sample's own label)")

for measure in ("dot", "cosine"):
    alt = build_context(Tensor(feats), Tensor(table), labels, measure=measure)
    print(f"{measure:>8}: sample 0 vs label 0 = {sim_matrix(alt).values[0, 0]:+.4f}")
