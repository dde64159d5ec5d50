"""Desk-scale batch-size stability sweep.

Trains the full objective, the SupCon baseline and plain cross entropy at
several batch sizes under an equal optimizer-step budget, then prints the
sweep table and the stability statistic. At batch size 2 the SupCon term
is identically zero (an anchor either has no same-class partner or the
denominator collapses to its own positive), so that arm falls back to
whatever cross entropy alone can do; the sample-label objective keeps its
label-anchored positives at every size.

Reduced scale so it finishes in about two minutes; the acceptance suite
runs the full protocol. The line plot is written to the working directory.
"""

from sslcl import batch_size_sweep, generate_synthetic, preset_spec
from sslcl.evaluation import sweep_summary, sweep_svg
from sslcl.losses import HyperParams
from sslcl.trainer import RunConfig

dataset = generate_synthetic(preset_spec("meld-like", 800, seed=0))
config = RunConfig(batch_size=32, epochs=60, encoder_lr=3e-3, hidden_dim=16,
                   feature_dim=8, seeds=(0, 1), hp=HyperParams(gamma=0.1))
sweep = batch_size_sweep(config, dataset, sizes=(2, 8, 32),
                         modes=("sslcl", "supcon", "ce-only"), equalize_steps=True)
print(sweep_summary(sweep))

with open("sslcl_demo_sweep.svg", "w", encoding="utf-8") as fh:
    fh.write(sweep_svg(sweep))
print("line plot written to sslcl_demo_sweep.svg in the working directory")
