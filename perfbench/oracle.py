"""Extended-precision evaluator of the training objective, written from the
formulas alone.

Nothing here imports sslcl. Inputs are plain float arrays (parameters by
their checkpoint names, batch features, labels); every quantity is
computed in np.longdouble without max-shifts, log floors or tape ops, so
an agreement with the program's float64 value is evidence that both
compute the same function.
"""

from __future__ import annotations

import numpy as np

LD = np.longdouble

# Augmented views per modality setting, as (use_audio, use_visual); text is
# always kept.
VIEWS = {
    "trimodal": [(False, False), (True, False), (False, True)],
    "bimodal": [(False, False)],
    "text-only": [],
}


def _ld(x) -> np.ndarray:
    return np.asarray(x, dtype=LD)


def relu(x):
    return np.maximum(x, LD(0))


def encode(params: dict, text, audio, visual, use_audio=True, use_visual=True):
    """L2-normalized fused features (N x d); a masked modality is zeroed."""
    text, audio, visual = _ld(text), _ld(audio), _ld(visual)
    if not use_audio:
        audio = np.zeros_like(audio)
    if not use_visual:
        visual = np.zeros_like(visual)
    hidden = np.concatenate([
        relu(text @ _ld(params["enc.text_proj"]).T),
        relu(audio @ _ld(params["enc.audio_proj"]).T),
        relu(visual @ _ld(params["enc.visual_proj"]).T)], axis=1)
    raw = relu(hidden @ _ld(params["enc.fusion_w"]).T + _ld(params["enc.fusion_b"]))
    sq = np.maximum((raw * raw).sum(axis=1), LD(1e-24))
    return raw / np.sqrt(sq)[:, None]


def softmax(logits):
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def classify(params: dict, feats):
    return softmax(feats @ _ld(params["head.weight"]).T + _ld(params["head.bias"]))


def label_table(params: dict, depth: str):
    """Label embedding rows (K x d) for the three label-network depths."""
    hidden = relu(_ld(params["label.embed"]))
    if depth == "embedding-only":
        return hidden
    if depth == "three-layer":
        hidden = relu(hidden @ _ld(params["label.hidden_w"]).T + _ld(params["label.hidden_b"]))
    elif depth != "two-layer":
        raise ValueError(f"unknown label-network depth {depth!r}")
    return hidden @ _ld(params["label.project_w"]).T + _ld(params["label.project_b"])


def center(mat):
    return mat - mat.mean(axis=0, keepdims=True)


def _cross_covariance(feats, table, assigned):
    """Centered features F, centered label table G, and C = F^T G_z, the
    d x d sum over the batch of f_l g_{z_l}^T."""
    f, g = center(feats), center(table)
    return f, g, f.T @ g[np.asarray(assigned)]


def soft_hgr_matrix(feats, table, assigned):
    """S[i, k] = c(f_i, g_k) - 1/2 sum_l c(f_i, f_l) c(g_k, g_{z_l}), with
    c(x, y) = x.y / (N - 1) on rows centered by their own batch (features)
    or table (labels) mean. The sum over l is f_i^T C g_k, so no N x N
    matrix is formed."""
    inv = LD(1) / LD(feats.shape[0] - 1)
    f, g, cross = _cross_covariance(feats, table, assigned)
    return inv * (f @ g.T) - LD(0.5) * inv * inv * (f @ cross @ g.T)


def soft_hgr_views(feats, view, table, labels):
    """Own-label similarity of each augmented row, centered with the
    full-view batch mean and scored against the full-view batch."""
    inv = LD(1) / LD(feats.shape[0] - 1)
    f, g, cross = _cross_covariance(feats, table, labels)
    vc = view - feats.mean(axis=0, keepdims=True)
    own = g[np.asarray(labels)]
    return inv * (vc * own).sum(axis=1) - LD(0.5) * inv * inv * ((vc @ cross) * own).sum(axis=1)


def soft_hgr_covariance_form(feats, table, assigned):
    """Batch Soft-HGR in O(N d^2): inv tr(C) - 1/2 inv^2 ||C||_F^2.

    Returns (value, scale). scale bounds the magnitude of the summands
    before they cancel: with a = inv sum_l |f_l| |g_{z_l}|, the paired term
    is at most a and the trace term at most a^2 / 2. The value itself can
    be 0 (every z_l the same label makes C and the paired term vanish),
    so round-off has to be judged against scale, not against the value."""
    feats, table = _ld(feats), _ld(table)
    inv = LD(1) / LD(feats.shape[0] - 1)
    f, g, cross = _cross_covariance(feats, table, assigned)
    paired = inv * np.trace(cross)
    trace = inv * inv * (cross * cross).sum()
    a = inv * (np.sqrt((f * f).sum(axis=1)) * np.sqrt((g * g).sum(axis=1))[np.asarray(assigned)]).sum()
    return paired - LD(0.5) * trace, a + LD(0.5) * a * a


def focal_terms(sims, view_sims, labels, alpha, beta, use_negative):
    """Per-sample focal positive and negative losses.

    Positive: -log(p)(1-p)^alpha for the own label and for each view, all
    sharing one denominator over labels and views. Negative: -log(1-p_k)
    p_k^beta over the other labels, p the softmax over labels only, with
    1-p_k taken as the exp-sum over the remaining labels."""
    n, k = sims.shape
    rows = np.arange(n)
    exps = np.exp(sims)
    view_exps = [np.exp(v) for v in view_sims]
    denom = exps.sum(axis=1) + sum(view_exps, LD(0))
    a = LD(alpha)
    p_own = exps[rows, labels] / denom
    pos = -np.log(p_own) * (LD(1) - p_own) ** a
    for ve in view_exps:
        p = ve / denom
        pos = pos - np.log(p) * (LD(1) - p) ** a
    neg = np.zeros(n, dtype=LD)
    if use_negative:
        label_sum = exps.sum(axis=1, keepdims=True)
        probs = exps / label_sum
        comps = (exps @ (LD(1) - np.eye(k, dtype=LD))) / label_sum
        others = np.ones((n, k), dtype=bool)
        others[rows, labels] = False
        neg = -np.where(others, np.log(comps) * probs ** LD(beta), LD(0)).sum(axis=1)
    return pos, neg


def label_label(table):
    """-sum_{i != j} log(1 - p(i, j)), p(i, j) a softmax over the raw dot
    products of row i with the other rows plus a pinned self term e^0."""
    k = table.shape[0]
    off = ~np.eye(k, dtype=bool)
    exps = np.where(off, np.exp(table @ table.T), LD(0))
    denom = exps.sum(axis=1, keepdims=True) + LD(1)
    comp = (exps @ off.astype(LD) + LD(1)) / denom
    return -np.where(off, np.log(comp), LD(0)).sum()


def train_loss(params: dict, text, audio, visual, labels, *, alpha=2.0, beta=0.5,
               gamma=1.0, label_loss_weight=1.0, ce_weight=1.0, le_depth="two-layer",
               modality_setting="trimodal", augmentation=True, use_negative=True):
    """Step loss of the Soft-HGR sample-label objective: weighted focal
    positive and negative terms, label-label loss and cross entropy."""
    labels = np.asarray(labels, dtype=np.intp)
    n = len(labels)
    if n < 2:
        raise ValueError("the evaluator covers batches of at least two rows")
    feats = encode(params, text, audio, visual)
    table = label_table(params, le_depth)
    views = VIEWS[modality_setting] if augmentation else []
    view_sims = [soft_hgr_views(feats, encode(params, text, audio, visual, ua, uv), table, labels)
                 for ua, uv in views]
    pos, neg = focal_terms(soft_hgr_matrix(feats, table, labels), view_sims, labels,
                           alpha, beta, use_negative)
    counts = np.bincount(labels)[labels]
    weights = (LD(n) / _ld(counts)) ** LD(gamma)
    probs = classify(params, feats)
    ce = -np.log(probs[np.arange(n), labels]).sum()
    return ((weights * (pos + neg)).sum() + LD(label_loss_weight) * label_label(table)
            + LD(ce_weight) * ce)


def weighted_f1(preds, golds, num_labels: int) -> float:
    """Support-weighted F1 from a confusion matrix, 2PR/(P+R) per class."""
    conf = np.zeros((num_labels, num_labels), dtype=np.int64)
    np.add.at(conf, (np.asarray(golds), np.asarray(preds)), 1)
    total = int(conf.sum())
    score = 0.0
    for k in range(num_labels):
        tp = int(conf[k, k])
        pred_k = int(conf[:, k].sum())
        gold_k = int(conf[k, :].sum())
        f1 = 0.0
        if tp:
            precision, recall = tp / pred_k, tp / gold_k
            f1 = 2 * precision * recall / (precision + recall)
        score += (gold_k / total) * f1
    return score
