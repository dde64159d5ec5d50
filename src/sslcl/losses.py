"""Training-objective terms: focal positive/negative sample-label losses,
label-label discrimination, cross entropy and a vanilla SupCon baseline.
The trainer adds the weighted cross entropy to form the combined objective.

Every term is assembled from tape primitives so the trainer gets exact
gradients. Probabilities that can saturate pass through a 1e-300 log
floor; each floored evaluation is counted for the metrics log's
`floored_logs`. Every term also takes stacked inputs with a leading seed
axis and then returns one value per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import normalize_rows
from . import similarity as sim
from .similarity import SimilarityContext

LOG_FLOOR = 1e-300


class ConfigError(ValueError):
    """A config key or value failed validation."""


@dataclass(frozen=True)
class HyperParams:
    """Loss hyperparameters. alpha/beta are the positive/negative focusing
    exponents, gamma the sample-weight exponent, label_loss_weight the
    label-label trade-off, ce_weight the cross-entropy trade-off. Checked
    on construction."""

    alpha: float = 2.0
    beta: float = 0.5
    gamma: float = 1.0
    label_loss_weight: float = 1.0
    ce_weight: float = 1.0
    supcon_temperature: float = 0.07

    def __post_init__(self) -> None:
        # Every comparison with NaN is false, so NaN fails these range tests.
        for name in ("alpha", "beta", "gamma", "ce_weight", "supcon_temperature"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"hp.{name} must be finite and strictly positive, got {value!r}")
        # label_loss_weight may be zero: that is the label-label ablation arm.
        value = self.label_loss_weight
        if not 0 <= value < math.inf:
            raise ConfigError(f"hp.label_loss_weight must be finite and non-negative, got {value!r}")


# The metrics log's per-step terms, in record order after "step" and "epoch".
STEP_TERMS = ("l_pos_mean", "l_neg_mean", "L_Label", "L_SSLCL", "L_CE", "L_SupCon", "L_Train",
              "floored_logs")


@dataclass
class FloorCount:
    """Counts log evaluations that hit the 1e-300 floor: one count, or one
    per seed when it starts as an integer array over the stacked seeds."""

    count: int | np.ndarray = 0

    def add(self, hit: np.ndarray) -> None:
        self.count = self.count + hit.reshape(np.shape(self.count) + (-1,)).sum(axis=-1)


def safe_log(node: Tensor, counter: FloorCount | None = None,
             relevant: np.ndarray | None = None) -> Tensor:
    """log with the argument floored at 1e-300; floored entries are counted.

    `relevant` optionally restricts the count to entries that actually
    enter the loss (e.g. the off-diagonal of a masked matrix).
    """
    if counter is not None:
        hit = node.values < LOG_FLOOR
        if relevant is not None:
            hit = hit & (relevant > 0)
        counter.add(hit)
    return ad.log(ad.clamp_min(node, LOG_FLOOR))


def _safe_pow(node: Tensor, exponent: float) -> Tensor:
    # Clamp keeps the derivative finite when a probability underflows to 0.
    return ad.pow_const(ad.clamp_min(node, LOG_FLOOR), exponent)


def _focal_positive(prob: Tensor, alpha: float, counter: FloorCount | None) -> Tensor:
    """-log(p) (1-p)^alpha, elementwise."""
    comp = ad.add_const(ad.scale(prob, -1.0), 1.0)
    return ad.scale(ad.mul(safe_log(prob, counter), _safe_pow(comp, alpha)), -1.0)


def _onehot(labels: np.ndarray, num_labels: int) -> np.ndarray:
    return (labels[..., None] == np.arange(num_labels)).astype(np.float64)


def label_label_loss(label_embeddings: Tensor, *, counter: FloorCount | None = None) -> Tensor:
    """Discrimination loss over raw (uncentered) label-embedding dot products.

    The self-similarity is pinned to exp(0) = 1 in each denominator so a
    large own-norm cannot crush the off-diagonal softmax terms.
    """
    num_labels = label_embeddings.shape[-2]
    if num_labels < 2:
        raise ValueError("label-label loss needs at least two labels")
    gram = ad.matmul(label_embeddings, ad.transpose(label_embeddings))
    offdiag = 1.0 - np.eye(num_labels)
    gram_off = ad.mul(Tensor(offdiag), gram)
    shift = np.max(gram.values, axis=-1, where=offdiag > 0, initial=0.0)
    shifted = ad.add_const(gram_off, -shift[..., None])
    exps = ad.mul(Tensor(offdiag), ad.exp(shifted))
    denom = ad.add_const(ad.rowsum(exps), np.exp(-shift))
    # 1 - p(i,j) assembled as (sum over other pairs + pinned self term) / denom
    # rather than by subtraction, keeping it exact when one pair dominates.
    comp_num = ad.add_const(ad.matmul(exps, Tensor(offdiag)), np.exp(-shift)[..., None])
    comp = ad.mul_colvec(comp_num, ad.pow_const(denom, -1.0))
    logs = ad.mul(Tensor(offdiag), safe_log(comp, counter, relevant=offdiag))
    return ad.scale(ad.sum_all(logs, stacked=gram.values.ndim == 3), -1.0)


def batched_sample_losses(ctx: SimilarityContext, view_mats: Sequence[Tensor],
                          hp: HyperParams, *, use_negative: bool = True,
                          counter: FloorCount | None = None) -> tuple[Tensor, Tensor]:
    """Focal positive and negative sample-label losses of every sample, as (N,) nodes.

    With s_ij the similarity of sample i to label j, v_ir that of view r's
    row i to the sample's own label y_i, and D_i = sum_j e^{s_ij} +
    sum_r e^{v_ir} one denominator shared by all of the sample's terms:
    positive_i = f(e^{s_iy_i} / D_i) + sum_r f(e^{v_ir} / D_i) with the
    focal f(p) = -log(p) (1-p)^alpha, and negative_i =
    -sum_{k != y_i} log(1 - p_ik) p_ik^beta with p_i the softmax of s_i over
    the labels alone.
    """
    num_labels = ctx.num_labels
    sims = sim.sim_matrix(ctx)
    view_vecs = [sim.view_sim_vector(ctx, vm) for vm in view_mats]

    shift = sims.values.max(axis=-1)
    for vv in view_vecs:
        shift = np.maximum(shift, vv.values)
    shifted = ad.add_const(sims, -shift[..., None])
    exp_sims = ad.exp(shifted)
    base_denom = ad.rowsum(exp_sims)
    denom = base_denom
    exp_views = [ad.exp(ad.add(vv, Tensor(-shift))) for vv in view_vecs]
    for ev in exp_views:
        denom = ad.add(denom, ev)

    onehot = _onehot(ctx.labels, num_labels)
    own = ad.rowsum(ad.mul(shifted, Tensor(onehot)))
    pos = _focal_positive(ad.div(ad.exp(own), denom), hp.alpha, counter)
    for ev in exp_views:
        pos = ad.add(pos, _focal_positive(ad.div(ev, denom), hp.alpha, counter))

    if use_negative:
        # Negative-pair softmax over labels only (no view terms); complements
        # come from the over-other-labels exp sum, never from subtraction.
        inv_base = ad.pow_const(base_denom, -1.0)
        probs = ad.mul_colvec(exp_sims, inv_base)
        off_labels = 1.0 - np.eye(num_labels)
        comps = ad.mul_colvec(ad.matmul(exp_sims, Tensor(off_labels)), inv_base)
        terms = ad.mul(Tensor(1.0 - onehot),
                       ad.mul(safe_log(comps, counter, relevant=1.0 - onehot),
                              _safe_pow(probs, hp.beta)))
        neg = ad.scale(ad.rowsum(terms), -1.0)
    else:
        neg = Tensor(np.zeros(ctx.labels.shape))
    return pos, neg


def sample_weights(labels, gamma: float) -> np.ndarray:
    """(N / n_{y_i})^gamma, n the within-batch count of the sample's label;
    (S, N) labels are S batches, each weighted on its own."""
    labels = np.asarray(labels, dtype=np.intp)
    rows = labels.reshape(-1, labels.shape[-1])
    # Offset each batch's labels so that one bincount counts every batch.
    keyed = rows + (rows.max() + 1) * np.arange(len(rows))[:, None]
    counts = np.bincount(keyed.ravel())[keyed].reshape(labels.shape)
    return (labels.shape[-1] / counts) ** gamma


def sslcl_loss(ctx: SimilarityContext, view_mats: Sequence[Tensor], hp: HyperParams, *,
               use_negative: bool = True, counter: FloorCount | None = None
               ) -> tuple[Tensor, dict[str, np.ndarray]]:
    """Full weighted sample-label objective plus the label-label term.

    Returns the objective node and its STEP_TERMS entries (one value, or one
    per seed). The label-label value is always computed for the logs; its
    gradient contribution is scaled by the configured weight (zero weight =
    the ablation arm).
    """
    pos, neg = batched_sample_losses(
        ctx, view_mats, hp, use_negative=use_negative, counter=counter)
    weighted = ad.dot(Tensor(sample_weights(ctx.labels, hp.gamma)), ad.add(pos, neg))
    label_term = label_label_loss(ctx.label_embeddings, counter=counter)
    node = ad.add(weighted, ad.scale(label_term, hp.label_loss_weight))
    return node, {"l_pos_mean": pos.values.sum(axis=-1) / ctx.size,
                  "l_neg_mean": neg.values.sum(axis=-1) / ctx.size,
                  "L_Label": label_term.values, "L_SSLCL": node.values}


def cross_entropy(probs: Tensor, labels, *, counter: FloorCount | None = None) -> Tensor:
    """-sum_i log p_i[y_i] over predicted class distributions."""
    labels = np.asarray(labels, dtype=np.intp)
    if probs.values.ndim not in (2, 3) or labels.shape != probs.shape[:-1]:
        raise ValueError("cross_entropy expects (N, K) probabilities and N labels")
    own = ad.rowsum(ad.mul(probs, Tensor(_onehot(labels, probs.shape[-1]))))
    return ad.scale(ad.sum_all(safe_log(own, counter), stacked=labels.ndim == 2), -1.0)


def supcon_loss(features: Tensor, labels, temperature: float) -> Tensor:
    """Vanilla supervised contrastive loss on L2-normalized features.

    Anchors without an in-batch positive contribute zero but stay in the
    mean, so starving minority classes of positives visibly dilutes the
    signal instead of crashing.
    """
    labels = np.asarray(labels, dtype=np.intp)
    n = features.shape[-2]
    if labels.shape != features.shape[:-1]:
        raise ValueError("labels must match the batch size")
    if n < 2:
        return Tensor(np.zeros(labels.shape[:-1]))
    normed = normalize_rows(features)
    sims = ad.scale(ad.matmul(normed, ad.transpose(normed)), 1.0 / temperature)

    offdiag = 1.0 - np.eye(n)
    positives = offdiag * (labels[..., :, None] == labels[..., None, :])
    pos_counts = positives.sum(axis=-1)
    sims_off = ad.mul(Tensor(offdiag), sims)
    shift = np.max(sims_off.values, axis=-1, where=offdiag > 0, initial=-np.inf)
    shifted = ad.add_const(sims_off, -shift[..., None])
    exps = ad.mul(Tensor(offdiag), ad.exp(shifted))
    log_denom = ad.log(ad.rowsum(exps))

    anchor_weight = np.divide(1.0, pos_counts, out=np.zeros(labels.shape), where=pos_counts > 0)
    has_pos = (pos_counts > 0).astype(np.float64)
    pos_logit_sums = ad.rowsum(ad.mul(Tensor(positives), shifted))
    per_anchor = ad.sub(ad.mul(Tensor(anchor_weight), pos_logit_sums),
                        ad.mul(Tensor(has_pos), log_denom))
    return ad.scale(ad.sum_all(per_anchor, stacked=labels.ndim == 2), -1.0 / n)
