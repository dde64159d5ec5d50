"""Similarity-measure, component-removal and embedding-depth ablations.

Every arm is a config tweak of the same base run: swap the similarity
measure, drop the augmented views, drop the negative sample-label term,
zero the label-label weight, or change the label-network depth. Arms that
canonicalize to the same config share a single training run.

Reduced scale (n=600, 2 seeds) so it finishes in about 15 seconds; the
acceptance suite runs the full five-seed version.
"""

from sslcl import ablation_suite, generate_synthetic, preset_spec
from sslcl.evaluation import ablation_summary
from sslcl.losses import HyperParams
from sslcl.trainer import RunConfig

dataset = generate_synthetic(preset_spec("meld-like", 600, seed=0))
config = RunConfig(batch_size=8, epochs=9, encoder_lr=3e-3, hidden_dim=16,
                   feature_dim=8, seeds=(0, 1), hp=HyperParams(gamma=0.5))
report = ablation_suite(config, dataset)
print(ablation_summary(report))

full = report.arms["full"].per_class_mean
noaug = report.arms["-augmentation"].per_class_mean
print("per-class F1, full vs -augmentation (classes ordered majority -> minority):")
for k, (a, b) in enumerate(zip(full, noaug)):
    print(f"  class{k}: {a:.3f} vs {b:.3f} ({a - b:+.3f})")
