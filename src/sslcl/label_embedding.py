"""Label embedding network: discrete class ids to dense rows.

Default is the two-layer form: an embedding table through a ReLU, then a
single linear projection. The embedding-only and three-layer variants
exist for the depth ablation. Nothing projects the embedding-only table,
so the run config gives it the feature dimension as its width
(`RunConfig.label_embed_dim`).
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .encoder import _uniform_init

DEPTHS = ("embedding-only", "two-layer", "three-layer")


def init_label_params(num_labels: int, feature_dim: int, embed_dim: int, depth: str,
                      rng: np.random.Generator) -> dict[str, np.ndarray]:
    if depth not in DEPTHS:
        raise ValueError(f"unknown label-embedding depth {depth!r}")
    params = {"label.embed": _uniform_init(rng, (num_labels, embed_dim), embed_dim)}
    if depth == "two-layer":
        params["label.project_w"] = _uniform_init(rng, (feature_dim, embed_dim), embed_dim)
        params["label.project_b"] = np.zeros(feature_dim)
    elif depth == "three-layer":
        params["label.hidden_w"] = _uniform_init(rng, (embed_dim, embed_dim), embed_dim)
        params["label.hidden_b"] = np.zeros(embed_dim)
        params["label.project_w"] = _uniform_init(rng, (feature_dim, embed_dim), embed_dim)
        params["label.project_b"] = np.zeros(feature_dim)
    return params


def embed_labels(params: dict[str, Tensor], depth: str) -> Tensor:
    """Embedding rows for all classes as one (K x d) matrix."""
    if depth not in DEPTHS:
        raise ValueError(f"unknown label-embedding depth {depth!r}")
    hidden = ad.relu(params["label.embed"])
    if depth == "embedding-only":
        return hidden
    if depth == "three-layer":
        hidden = ad.relu(ad.add_rowvec(
            ad.matmul(hidden, ad.transpose(params["label.hidden_w"])),
            params["label.hidden_b"]))
    return ad.add_rowvec(ad.matmul(hidden, ad.transpose(params["label.project_w"])),
                         params["label.project_b"])
