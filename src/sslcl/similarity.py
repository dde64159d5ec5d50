"""Similarity measures between sample features and label embeddings.

The Soft-HGR similarity of a batch is the mean inner product of paired
feature mappings minus half the trace of the product of their sample
covariances, both sides centered beforehand. Entry (i, j) of
`sim_matrix` is the per-pair similarity of sample i and label j under
the bilinear covariance c(x, y) = (1/(N-1)) x.y on centered rows, the
unique choice under which the entries at the batch's own labels,
sum_i sim_matrix[i, z_i], add back to the batch similarity.

Every function also takes stacked inputs, one slice per training seed:
(S, N, d) features, an (S, K, d) table and (S, N) labels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import row_norm_power

MEASURES = ("soft-hgr", "dot", "cosine")
COSINE_EPS = 1e-12


@dataclass
class SimilarityContext:
    """One step's sample features (N x d), label embedding table (K x d),
    batch label assignment (N,) and measure, each with an optional leading
    stack axis. The centered and label-selected views are built on first
    use, so a step records only what it reads."""

    features: Tensor
    label_embeddings: Tensor
    labels: np.ndarray
    measure: str

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ValueError(f"unknown similarity measure: {self.measure!r}")
        self.labels = np.asarray(self.labels, dtype=np.intp)
        k = self.num_labels
        if self.labels.shape != self.features.shape[:-1]:
            raise ValueError("labels must have one entry per sample")
        if np.any((self.labels < 0) | (self.labels >= k)):
            raise ValueError("labels out of range")

    @property
    def size(self) -> int:
        return self.features.shape[-2]

    @property
    def num_labels(self) -> int:
        return self.label_embeddings.shape[-2]

    @cached_property
    def centered_features(self) -> Tensor:
        return ad.center_rows(self.features)

    @cached_property
    def centered_labels(self) -> Tensor:
        return ad.center_rows(self.label_embeddings)

    @cached_property
    def assigned_centered(self) -> Tensor:
        """Centered embedding rows selected by the batch labels (..., N, d)."""
        return ad.gather_rows(self.centered_labels, self.labels)

    @cached_property
    def assigned_raw(self) -> Tensor:
        return ad.gather_rows(self.label_embeddings, self.labels)


def build_context(features: Tensor, label_embeddings: Tensor, labels, measure: str = "soft-hgr") -> SimilarityContext:
    return SimilarityContext(features, label_embeddings, np.asarray(labels), measure)


def sim_matrix(ctx: SimilarityContext) -> Tensor:
    """All sample-against-label similarities as one (..., N, K) node.

    The Soft-HGR entry (i, j) is c(f_i, g_j) - (1/2) sum_l c(f_i, f_l)
    c(g_j, g_{z_l}) on centered rows, so every label is scored against the
    same batch statistics. Dot and cosine use the raw, uncentered rows. A
    single-sample batch falls back to the raw dot product (the covariance
    estimator is undefined there).
    """
    n = ctx.size
    if ctx.measure == "soft-hgr" and n > 1:
        inv = 1.0 / (n - 1)
        feats_c = ctx.centered_features
        labels_c = ctx.centered_labels
        paired = ad.scale(ad.matmul(feats_c, ad.transpose(labels_c)), inv)
        feat_gram = ad.matmul(feats_c, ad.transpose(feats_c))
        cand_gram = ad.matmul(labels_c, ad.transpose(ctx.assigned_centered))
        cov = ad.matmul(feat_gram, ad.transpose(cand_gram))
        return ad.sub(paired, ad.scale(cov, 0.5 * inv * inv))
    inner = ad.matmul(ctx.features, ad.transpose(ctx.label_embeddings))
    if ctx.measure != "cosine":
        return inner
    norms = ad.outer(row_norm_power(ctx.features, 1.0), row_norm_power(ctx.label_embeddings, 1.0))
    return ad.div(inner, ad.add_const(norms, COSINE_EPS))


def view_sim_vector(ctx: SimilarityContext, view_features: Tensor) -> Tensor:
    """Per-sample similarity of augmented view rows to their own label (..., N).

    Soft-HGR centers the view rows with the full-view batch mean and keeps
    the full-view rows inside the covariance sum, so the augmented rows
    are scored against unchanged batch statistics.
    """
    n = ctx.size
    if ctx.measure == "soft-hgr" and n > 1:
        inv = 1.0 / (n - 1)
        mean = ad.colmean(ctx.features)
        view_c = ad.add_rowvec(view_features, ad.scale(mean, -1.0))
        assigned_c = ctx.assigned_centered
        paired = ad.scale(ad.rowsum(ad.mul(view_c, assigned_c)), inv)
        view_gram = ad.matmul(view_c, ad.transpose(ctx.centered_features))
        label_gram = ad.matmul(assigned_c, ad.transpose(assigned_c))
        cov = ad.rowsum(ad.mul(view_gram, label_gram))
        return ad.sub(paired, ad.scale(cov, 0.5 * inv * inv))
    inner = ad.rowsum(ad.mul(view_features, ctx.assigned_raw))
    if ctx.measure != "cosine":
        return inner
    norms = ad.mul(row_norm_power(view_features, 1.0), row_norm_power(ctx.assigned_raw, 1.0))
    return ad.div(inner, ad.add_const(norms, COSINE_EPS))
