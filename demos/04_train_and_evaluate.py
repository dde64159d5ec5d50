"""Train the full objective on a synthetic preset and inspect what moved.

Shows per-epoch weighted F1, the label-embedding geometry before and
after training (pairwise cosines shrink as the discrimination term pushes
the rows apart), and the head-vs-similarity prediction modes.
"""

import json
from dataclasses import replace

import numpy as np

from sslcl import embed_labels, generate_synthetic, preset_spec, score, train
from sslcl.data import split_dataset
from sslcl.trainer import RunConfig, init_params

dataset = generate_synthetic(preset_spec("iemocap-like", 800, seed=2))
splits = split_dataset(dataset, seed=20240)
config = RunConfig(batch_size=8, epochs=8, encoder_lr=3e-3, hidden_dim=16,
                   feature_dim=8, seeds=(0,))


def pairwise_cosines(table):
    normed = table / np.linalg.norm(table, axis=1, keepdims=True)
    gram = normed @ normed.T
    return gram[~np.eye(len(table), dtype=bool)]


before = init_params(dataset.header, config, np.random.default_rng(0))
cos_before = pairwise_cosines(embed_labels(before.constants(), config.le_depth).values)

result = train(config, splits.train, seed=0, eval_dataset=splits.val)
# The metrics log holds one record per step, then one per epoch.
for record in map(json.loads, result.metrics_lines):
    if "train_wf1" not in record:
        continue
    print(f"epoch {record['epoch']}: train w-F1 {record['train_wf1']:.4f}  "
          f"val w-F1 {record['eval_wf1']:.4f}")

cos_after = pairwise_cosines(embed_labels(result.store.constants(), config.le_depth).values)
print(f"\nlabel-embedding pairwise cosines: "
      f"max {cos_before.max():+.3f} -> {cos_after.max():+.3f}, "
      f"mean {cos_before.mean():+.3f} -> {cos_after.mean():+.3f}")

for predictor in ("head", "similarity"):
    [(wf1, per_class)] = score(result.store, splits.test, replace(config, predictor=predictor))
    print(f"\n{predictor} predictor: test w-F1 {wf1:.4f}")
    print("  per-class F1: " + " ".join(f"{v:.3f}" for v in per_class))
