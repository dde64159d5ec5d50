"""Similarity measures between sample features and label embeddings.

The Soft-HGR similarity of a batch is the mean inner product of paired
feature mappings minus half the trace of the product of their sample
covariances, both sides centered beforehand. Entry (i, j) of
`sim_matrix` is the per-pair similarity of sample i and label j under
the bilinear covariance c(x, y) = (1/(N-1)) x.y on centered rows, the
unique choice under which the entries at the batch's own labels,
sum_i sim_matrix[i, z_i], add back to the batch similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import DegenerateBatchError, Tensor

MEASURES = ("soft-hgr", "dot", "cosine")
COSINE_EPS = 1e-12
_NORM_FLOOR = 1e-24


@dataclass
class SimilarityContext:
    """Batch-level state shared by every similarity of one step.

    Holds both raw and centered views of the sample features (N x d) and
    the label embedding table (K x d), the batch label assignment, and a
    cache for the derived matrices so repeated loss terms reuse them.
    """

    features: Tensor
    label_embeddings: Tensor
    labels: np.ndarray
    measure: str
    centered_features: Tensor = field(init=False)
    centered_labels: Tensor = field(init=False)
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown similarity measure: {self.measure!r}")
        self.labels = np.asarray(self.labels, dtype=np.intp)
        n, k = self.size, self.num_labels
        if self.labels.shape != (n,):
            raise ValueError("labels must have one entry per sample")
        if np.any((self.labels < 0) | (self.labels >= k)):
            raise ValueError("labels out of range")
        self.centered_features = ad.center_rows(self.features)
        self.centered_labels = ad.center_rows(self.label_embeddings)

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def num_labels(self) -> int:
        return self.label_embeddings.shape[0]

    def assigned_centered(self) -> Tensor:
        """Centered embedding rows selected by the batch labels (N x d)."""
        if "assigned_centered" not in self._cache:
            self._cache["assigned_centered"] = ad.gather_rows(self.centered_labels, self.labels)
        return self._cache["assigned_centered"]

    def assigned_raw(self) -> Tensor:
        if "assigned_raw" not in self._cache:
            self._cache["assigned_raw"] = ad.gather_rows(self.label_embeddings, self.labels)
        return self._cache["assigned_raw"]


def build_context(features: Tensor, label_embeddings: Tensor, labels, measure: str = "soft-hgr") -> SimilarityContext:
    return SimilarityContext(features, label_embeddings, np.asarray(labels), measure)


def soft_hgr_batch(ctx: SimilarityContext) -> Tensor:
    """Batch Soft-HGR similarity between centered features and their labels.

    The trace term contracts the sample-by-sample (N x N) covariance
    matrices, tr = (1/(N-1))^2 sum_{i,l} (f_i.f_l)(g_{z_i}.g_{z_l}); this
    is the convention under which the own-label entries of sim_matrix sum
    back to exactly this value.
    """
    n = ctx.size
    if n < 2:
        raise DegenerateBatchError("batch Soft-HGR needs at least two samples")
    inv = 1.0 / (n - 1)
    feats_c = ctx.centered_features
    assigned_c = ctx.assigned_centered()
    paired = ad.scale(ad.sum_all(ad.mul(feats_c, assigned_c)), inv)
    feat_gram = ad.matmul(feats_c, ad.transpose(feats_c))
    label_gram = ad.matmul(assigned_c, ad.transpose(assigned_c))
    trace_term = ad.scale(ad.sum_all(ad.mul(feat_gram, label_gram)), inv * inv)
    return ad.sub(paired, ad.scale(trace_term, 0.5))


def sim_matrix(ctx: SimilarityContext) -> Tensor:
    """All sample-against-label similarities as one (N x K) node, cached.

    The Soft-HGR entry (i, j) is c(f_i, g_j) - (1/2) sum_l c(f_i, f_l)
    c(g_j, g_{z_l}) on centered rows, so every label is scored against the
    same batch statistics. Dot and cosine use the raw, uncentered rows. A
    single-sample batch falls back to the raw dot product (the covariance
    estimator is undefined there).
    """
    if "sim_matrix" in ctx._cache:
        return ctx._cache["sim_matrix"]
    n = ctx.size
    if ctx.measure == "soft-hgr":
        if n == 1:
            out = ad.matmul(ctx.features, ad.transpose(ctx.label_embeddings))
        else:
            inv = 1.0 / (n - 1)
            feats_c = ctx.centered_features
            labels_c = ctx.centered_labels
            paired = ad.scale(ad.matmul(feats_c, ad.transpose(labels_c)), inv)
            feat_gram = ad.matmul(feats_c, ad.transpose(feats_c))
            cand_gram = ad.matmul(labels_c, ad.transpose(ctx.assigned_centered()))
            cov = ad.matmul(feat_gram, ad.transpose(cand_gram))
            out = ad.sub(paired, ad.scale(cov, 0.5 * inv * inv))
    elif ctx.measure == "dot":
        out = ad.matmul(ctx.features, ad.transpose(ctx.label_embeddings))
    else:
        inner = ad.matmul(ctx.features, ad.transpose(ctx.label_embeddings))
        feat_norm = ad.pow_const(ad.clamp_min(ad.rowsum(ad.mul(ctx.features, ctx.features)), _NORM_FLOOR), 0.5)
        cand_norm = ad.pow_const(ad.clamp_min(ad.rowsum(ad.mul(ctx.label_embeddings, ctx.label_embeddings)), _NORM_FLOOR), 0.5)
        out = ad.div(inner, ad.add_const(ad.outer(feat_norm, cand_norm), COSINE_EPS))
    ctx._cache["sim_matrix"] = out
    return out


def view_sim_vector(ctx: SimilarityContext, view_features: Tensor) -> Tensor:
    """Per-sample similarity of augmented view rows to their own label (N,).

    Soft-HGR centers the view rows with the full-view batch mean and keeps
    the full-view rows inside the covariance sum, so the augmented rows
    are scored against unchanged batch statistics.
    """
    n = ctx.size
    if ctx.measure == "soft-hgr":
        if n == 1:
            return ad.rowsum(ad.mul(view_features, ctx.assigned_raw()))
        inv = 1.0 / (n - 1)
        mean = ad.colmean(ctx.features)
        view_c = ad.add_rowvec(view_features, ad.scale(mean, -1.0))
        assigned_c = ctx.assigned_centered()
        paired = ad.scale(ad.rowsum(ad.mul(view_c, assigned_c)), inv)
        view_gram = ad.matmul(view_c, ad.transpose(ctx.centered_features))
        label_gram = ad.matmul(assigned_c, ad.transpose(assigned_c))
        cov = ad.rowsum(ad.mul(view_gram, label_gram))
        return ad.sub(paired, ad.scale(cov, 0.5 * inv * inv))
    if ctx.measure == "dot":
        return ad.rowsum(ad.mul(view_features, ctx.assigned_raw()))
    inner = ad.rowsum(ad.mul(view_features, ctx.assigned_raw()))
    view_norm = ad.pow_const(ad.clamp_min(ad.rowsum(ad.mul(view_features, view_features)), _NORM_FLOOR), 0.5)
    assigned = ctx.assigned_raw()
    assigned_norm = ad.pow_const(ad.clamp_min(ad.rowsum(ad.mul(assigned, assigned)), _NORM_FLOOR), 0.5)
    return ad.div(inner, ad.add_const(ad.mul(view_norm, assigned_norm), COSINE_EPS))
