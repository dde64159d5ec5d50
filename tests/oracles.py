"""Independent extended-precision evaluators for the loss formulas.

Everything here is written directly from the defining formulas with
np.longdouble scalars and explicit loops: no tape ops, no max-shift
tricks, no code shared with the package. These are the reference the
implementation is checked against.
"""

import numpy as np

LD = np.longdouble


def center_rows_ld(mat):
    mat = np.asarray(mat, dtype=LD)
    if mat.shape[0] == 1:
        return mat.copy()
    return mat - mat.mean(axis=0, keepdims=True)


def soft_hgr_pair_ld(feats, table, assignment, i, candidate):
    """Per-pair Soft-HGR: inv * f_i.g - 0.5 * sum_l c(f_i,f_l) c(g, g_{z_l}),
    all rows centered, c(x, y) = inv * x.y, inv = 1/(N-1)."""
    feats_c = center_rows_ld(feats)
    table_c = center_rows_ld(table)
    assigned_c = table_c[np.asarray(assignment)]
    g = np.asarray(candidate, dtype=LD).ravel()
    n = feats_c.shape[0]
    inv = LD(1) / LD(n - 1)
    paired = inv * np.dot(feats_c[i], g)
    acc = LD(0)
    for l in range(n):
        acc += (inv * np.dot(feats_c[i], feats_c[l])) * (inv * np.dot(g, assigned_c[l]))
    return paired - LD(0.5) * acc


def soft_hgr_batch_ld(feats, table, assignment):
    """Paired inner products minus half the trace of the product of the
    sample-by-sample covariances, via explicit double loops."""
    feats_c = center_rows_ld(feats)
    assigned_c = center_rows_ld(table)[np.asarray(assignment)]
    n = feats_c.shape[0]
    inv = LD(1) / LD(n - 1)
    paired = inv * sum(np.dot(feats_c[i], assigned_c[i]) for i in range(n))
    trace = LD(0)
    for i in range(n):
        for l in range(n):
            trace += np.dot(feats_c[i], feats_c[l]) * np.dot(assigned_c[i], assigned_c[l])
    return paired - LD(0.5) * inv * inv * trace


def pair_sim_ld(feats, table, assignment, i, j, measure):
    feats = np.asarray(feats, dtype=LD)
    table = np.asarray(table, dtype=LD)
    if measure == "soft-hgr":
        if feats.shape[0] == 1:
            return np.dot(feats[i], table[j])
        table_c = center_rows_ld(table)
        return soft_hgr_pair_ld(feats, table, assignment, i, table_c[j])
    if measure == "dot":
        return np.dot(feats[i], table[j])
    nf = np.sqrt(max(np.dot(feats[i], feats[i]), LD(1e-24)))
    ng = np.sqrt(max(np.dot(table[j], table[j]), LD(1e-24)))
    return np.dot(feats[i], table[j]) / (nf * ng + LD(1e-12))


def view_sim_ld(feats, table, assignment, view_row, j, measure):
    """Similarity of one raw augmented row to label j."""
    feats = np.asarray(feats, dtype=LD)
    table = np.asarray(table, dtype=LD)
    row = np.asarray(view_row, dtype=LD).ravel()
    if measure == "soft-hgr":
        n = feats.shape[0]
        if n == 1:
            return np.dot(row, table[j])
        row_c = row - feats.mean(axis=0)
        feats_c = center_rows_ld(feats)
        table_c = center_rows_ld(table)
        assigned_c = table_c[np.asarray(assignment)]
        inv = LD(1) / LD(n - 1)
        paired = inv * np.dot(row_c, table_c[j])
        acc = LD(0)
        for l in range(n):
            acc += (inv * np.dot(row_c, feats_c[l])) * (inv * np.dot(table_c[j], assigned_c[l]))
        return paired - LD(0.5) * acc
    if measure == "dot":
        return np.dot(row, table[j])
    nf = np.sqrt(max(np.dot(row, row), LD(1e-24)))
    ng = np.sqrt(max(np.dot(table[j], table[j]), LD(1e-24)))
    return np.dot(row, table[j]) / (nf * ng + LD(1e-12))


def positive_loss_ld(feats, table, assignment, views, i, alpha, measure):
    """Direct focal positive loss: views is the list of raw augmented rows
    for sample i (possibly empty)."""
    k = np.asarray(table).shape[0]
    y = int(assignment[i])
    aug = LD(0)
    view_sims = []
    for row in views:
        s = view_sim_ld(feats, table, assignment, row, y, measure)
        view_sims.append(s)
        aug += np.exp(s)
    denom = sum(np.exp(pair_sim_ld(feats, table, assignment, i, j, measure))
                for j in range(k)) + aug
    p_own = np.exp(pair_sim_ld(feats, table, assignment, i, y, measure)) / denom
    total = -np.log(p_own) * (LD(1) - p_own) ** LD(alpha)
    for s in view_sims:
        p = np.exp(s) / denom
        total += -np.log(p) * (LD(1) - p) ** LD(alpha)
    return total


def negative_loss_ld(feats, table, assignment, i, beta, measure):
    k = np.asarray(table).shape[0]
    y = int(assignment[i])
    exps = [np.exp(pair_sim_ld(feats, table, assignment, i, j, measure)) for j in range(k)]
    denom = sum(exps)
    total = LD(0)
    for j in range(k):
        if j == y:
            continue
        p = exps[j] / denom
        # 1 - p written as the direct exp-sum ratio (identical algebraically,
        # no cancellation when exps[j] dominates)
        complement = sum(exps[l] for l in range(k) if l != j) / denom
        total += -np.log(complement) * p ** LD(beta)
    return total


def label_label_ld(table):
    table = np.asarray(table, dtype=LD)
    k = table.shape[0]
    total = LD(0)
    for i in range(k):
        exps = {j: np.exp(np.dot(table[i], table[j])) for j in range(k) if j != i}
        denom = sum(exps.values()) + LD(1)
        for j in range(k):
            if j == i:
                continue
            complement = (sum(exps[l] for l in exps if l != j) + LD(1)) / denom
            total += -np.log(complement)
    return total


def cross_entropy_ld(probs, labels):
    probs = np.asarray(probs, dtype=LD)
    total = LD(0)
    for i, y in enumerate(labels):
        total += -np.log(probs[i, int(y)])
    return total


def supcon_ld(feats, labels, temperature):
    feats = np.asarray(feats, dtype=LD)
    labels = np.asarray(labels)
    n = feats.shape[0]
    if n < 2:
        return LD(0)
    normed = np.array([row / np.sqrt(max(np.dot(row, row), LD(1e-24))) for row in feats])
    total = LD(0)
    for i in range(n):
        positives = [p for p in range(n) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(np.exp(np.dot(normed[i], normed[a]) / LD(temperature))
                    for a in range(n) if a != i)
        inner = LD(0)
        for p in positives:
            inner += np.log(np.exp(np.dot(normed[i], normed[p]) / LD(temperature)) / denom)
        total += -inner / LD(len(positives))
    return total / LD(n)


def weighted_f1_bruteforce(preds, golds, num_labels):
    """Confusion-matrix oracle using the same 2PR/(P+R) formula."""
    preds = list(preds)
    golds = list(golds)
    total = len(golds)
    per_class = []
    weighted = 0.0
    for k in range(num_labels):
        tp = fp = fn = 0
        for p, g in zip(preds, golds):
            if p == k and g == k:
                tp += 1
            elif p == k:
                fp += 1
            elif g == k:
                fn += 1
        pred_k = tp + fp
        gold_k = tp + fn
        if pred_k == 0 or gold_k == 0 or tp == 0:
            f1 = 0.0
        else:
            precision = tp / pred_k
            recall = tp / gold_k
            f1 = 2 * precision * recall / (precision + recall)
        per_class.append(f1)
        weighted += (gold_k / total) * f1
    return weighted, per_class
