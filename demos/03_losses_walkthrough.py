"""One training step's objective, term by term.

Builds a small trimodal batch, encodes the full view plus the three
masked views, and walks through the objective: the per-sample focal
positive and negative sample-label terms and imbalance weights, then the
step terms the metrics log records (label-label discrimination, L_SSLCL,
cross entropy) and the combined objective.
"""

import numpy as np

from sslcl import HyperParams, augmentation_views, build_context, classify, cross_entropy, \
    embed_labels, encode, generate_synthetic, preset_spec, sslcl_loss
from sslcl.data import batch_iter
from sslcl.encoder import FULL_MASK
from sslcl.losses import batched_sample_losses, sample_weights
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
node, terms = sslcl_loss(ctx, views, hp)
pos, neg = batched_sample_losses(ctx, views, hp)
probs = classify(feats, leaves)
ce = cross_entropy(probs, batch.labels)

print(f"batch labels:       {batch.labels.tolist()}")
print(f"within-batch counts:{np.bincount(batch.labels)[batch.labels].tolist()}")
print(f"imbalance weights (N/n)^gamma, gamma={hp.gamma}:")
print("  " + " ".join(f"{w:5.2f}" for w in sample_weights(batch.labels, hp.gamma)))
print(f"\nper-sample focal positive terms (1 full view + {len(views)} augmented views each):")
print("  " + " ".join(f"{v:5.2f}" for v in pos.values))
print("per-sample focal negative terms:")
print("  " + " ".join(f"{v:5.2f}" for v in neg.values))
print(f"\nlabel-label discrimination: {terms['L_Label']:.4f}")
print(f"weighted sample-label total + label term = L_SSLCL = {terms['L_SSLCL']:.4f}")
print(f"cross entropy: {ce.item():.4f}")
print(f"combined objective (eta={hp.ce_weight}): "
      f"{terms['L_SSLCL'] + hp.ce_weight * ce.item():.4f}")

print("\nfocusing exponents reshape the same similarities:")
for alpha in (0.5, 2.0, 4.0):
    alt, _ = sslcl_loss(ctx, views, HyperParams(alpha=alpha))
    print(f"  alpha={alpha}: L_SSLCL = {alt.item():9.4f}")
for gamma in (0.5, 1.0, 1.5):
    alt, _ = sslcl_loss(ctx, views, HyperParams(gamma=gamma))
    print(f"  gamma={gamma}: L_SSLCL = {alt.item():9.4f}")
