"""Reference multimodal encoder with a penultimate-feature hook.

One bias-free linear projection per modality, a concatenate-then-linear
fusion layer producing L2-normalized penultimate features, and a softmax
classifier head on top. The projections carry no bias so that masking a
modality and feeding it all-zero vectors produce the same fused input;
masking simply zeroes the raw modality, leaving the fusion mechanism
untouched. The feature normalization keeps the similarity scale bounded
the way real scale-controlled backbones do; without it the sample-level
covariance estimator saturates in tiny batches as raw norms drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import DatasetHeader, FeatureBatch

MODALITY_SETTINGS = ("trimodal", "bimodal", "text-only")


@dataclass(frozen=True)
class ModalityMask:
    """Which of the non-text modalities a view keeps; text is always kept."""

    use_audio: bool = True
    use_visual: bool = True


FULL_MASK = ModalityMask(True, True)
TEXT_ONLY = ModalityMask(False, False)
TEXT_AUDIO = ModalityMask(True, False)
TEXT_VISUAL = ModalityMask(False, True)


def augmentation_views(modality_setting: str) -> list[ModalityMask]:
    """Masks for the augmented positive views of each sample.

    Trimodal models get text-only, text+audio and text+visual views;
    bimodal models only the text-only view; text-only models none.
    Text is never dropped.
    """
    if modality_setting == "trimodal":
        return [TEXT_ONLY, TEXT_AUDIO, TEXT_VISUAL]
    if modality_setting == "bimodal":
        return [TEXT_ONLY]
    if modality_setting == "text-only":
        return []
    raise ValueError(f"unknown modality setting {modality_setting!r}")


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights; the label network uses it too."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def init_encoder_params(header: DatasetHeader, hidden_dim: int, feature_dim: int,
                        rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Seed-deterministic encoder and classifier-head parameters.

    The fusion bias starts slightly positive: with a zero bias, fast
    small-batch updates can kill feature dimensions at the ReLU early and
    they never recover (their gradient is exactly zero)."""
    fused = 3 * hidden_dim
    return {
        "enc.text_proj": _uniform_init(rng, (hidden_dim, header.text_dim), header.text_dim),
        "enc.audio_proj": _uniform_init(rng, (hidden_dim, header.audio_dim), header.audio_dim),
        "enc.visual_proj": _uniform_init(rng, (hidden_dim, header.visual_dim), header.visual_dim),
        "enc.fusion_w": _uniform_init(rng, (feature_dim, fused), fused),
        "enc.fusion_b": np.full(feature_dim, 0.1),
        "head.weight": _uniform_init(rng, (header.num_labels, feature_dim), feature_dim),
        "head.bias": np.zeros(header.num_labels),
    }


def encode(batch: FeatureBatch, mask: ModalityMask, params: dict[str, Tensor]) -> Tensor:
    """L2-normalized penultimate sample features (N x d) under the mask."""
    audio = batch.audio if mask.use_audio else np.zeros_like(batch.audio)
    visual = batch.visual if mask.use_visual else np.zeros_like(batch.visual)
    hid_t = ad.relu(ad.matmul(Tensor(batch.text), ad.transpose(params["enc.text_proj"])))
    hid_a = ad.relu(ad.matmul(Tensor(audio), ad.transpose(params["enc.audio_proj"])))
    hid_v = ad.relu(ad.matmul(Tensor(visual), ad.transpose(params["enc.visual_proj"])))
    fused = ad.concat_cols([hid_t, hid_a, hid_v])
    pre = ad.add_rowvec(ad.matmul(fused, ad.transpose(params["enc.fusion_w"])), params["enc.fusion_b"])
    return normalize_rows(ad.relu(pre))


def normalize_rows(x: Tensor) -> Tensor:
    """Every row scaled to unit L2 norm; the squared norm is floored at
    1e-24, so an all-zero row stays zero."""
    inv_norm = ad.pow_const(ad.clamp_min(ad.rowsum(ad.mul(x, x)), 1e-24), -0.5)
    return ad.mul_colvec(x, inv_norm)


def classify(features: Tensor, params: dict[str, Tensor]) -> Tensor:
    """Class probabilities (N x K); each row is a stable softmax."""
    logits = ad.add_rowvec(ad.matmul(features, ad.transpose(params["head.weight"])),
                           params["head.bias"])
    return ad.softmax_rows(logits)
