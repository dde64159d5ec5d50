"""One training step's objective, term by term.

Builds a small trimodal batch, encodes the full view plus the three
masked views, and walks through the loss breakdown: focal positive and
negative sample-label terms, the label-label discrimination term, the
imbalance weights, cross entropy, and the combined objective.
"""

import numpy as np

from sslcl import HyperParams, augmentation_views, build_context, classify, cross_entropy, \
    embed_labels, encode, generate_synthetic, preset_spec, sslcl_loss
from sslcl.data import batch_iter
from sslcl.encoder import FULL_MASK
from sslcl.trainer import RunConfig, init_params

dataset = generate_synthetic(preset_spec("meld-like", 400, seed=1))
batch = next(batch_iter(dataset, 8, seed=0))
config = RunConfig()
store = init_params(dataset.header, config, np.random.default_rng(0))
leaves = store.constants()

feats = encode(batch, FULL_MASK, leaves)
views = [encode(batch, mask, leaves) for mask in augmentation_views("trimodal")]
table = embed_labels(leaves, config.le_depth)
ctx = build_context(feats, table, batch.labels, "soft-hgr")

hp = HyperParams()
node, breakdown = sslcl_loss(ctx, views, hp)
probs = classify(feats, leaves)
ce = cross_entropy(probs, batch.labels)
breakdown.ce_loss = ce.item()

print(f"batch labels:       {batch.labels.tolist()}")
print(f"within-batch counts:{np.bincount(batch.labels)[batch.labels].tolist()}")
print(f"imbalance weights (N/n)^gamma, gamma={hp.gamma}:")
print("  " + " ".join(f"{w:5.2f}" for w in breakdown.sample_weights))
print(f"\nper-sample focal positive terms (1 full view + {len(views)} augmented views each):")
print("  " + " ".join(f"{v:5.2f}" for v in breakdown.positive_terms))
print("per-sample focal negative terms:")
print("  " + " ".join(f"{v:5.2f}" for v in breakdown.negative_terms))
print(f"\nlabel-label discrimination: {breakdown.label_loss:.4f}")
print(f"weighted sample-label total + label term = L_SSLCL = {breakdown.sslcl_loss:.4f}")
print(f"cross entropy: {breakdown.ce_loss:.4f}")
print(f"combined objective (eta={hp.ce_weight}): "
      f"{breakdown.sslcl_loss + hp.ce_weight * breakdown.ce_loss:.4f}")

print("\nfocusing exponents reshape the same similarities:")
for alpha in (0.5, 2.0, 4.0):
    alt, _ = sslcl_loss(ctx, views, HyperParams(alpha=alpha))
    print(f"  alpha={alpha}: L_SSLCL = {alt.item():9.4f}")
for gamma in (0.5, 1.0, 1.5):
    alt, _ = sslcl_loss(ctx, views, HyperParams(gamma=gamma))
    print(f"  gamma={gamma}: L_SSLCL = {alt.item():9.4f}")
