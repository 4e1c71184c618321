"""CTR metrics (AUC, F1) and top-K recommendation metrics (Recall@K).

AUC is the Mann-Whitney statistic computed through rank sums with midranks
for ties, which equals brute-force counting of concordant (positive,
negative) pairs with half credit for ties. Top-K recall ranks every item the
user has not interacted with in training (validation positives stay in as
distractors) and breaks score ties by ascending item index so results are
reproducible.
"""

import numpy as np

from .errors import DataError


def auc(labels, scores):
    """Area under the ROC curve via rank sums with midranks.

    Equals (#concordant pairs + 0.5 * #tied pairs) / (P * N). Raises on
    single-class input.
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    if labels.shape != scores.shape:
        raise ValueError(f"shape mismatch: {labels.shape} vs {scores.shape}")
    n = labels.size
    p = int(np.sum(labels == 1))
    q = n - p
    if p == 0 or q == 0:
        raise ValueError("AUC needs at least one positive and one negative record")
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    new_group = np.r_[True, s[1:] != s[:-1]]
    group = np.cumsum(new_group) - 1
    counts = np.bincount(group)
    ends = np.cumsum(counts)
    midranks = (ends - counts + 1 + ends) / 2.0
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = midranks[group]
    rank_sum_pos = float(np.sum(ranks[labels == 1]))
    return (rank_sum_pos - p * (p + 1) / 2.0) / (p * q)


def f1(labels, scores, threshold=0.5):
    """F1 of the thresholded classifier (predict 1 iff score >= threshold).

    Defined as 0 when precision + recall is 0 (e.g. no predicted positives).
    """
    labels = np.asarray(labels)
    pred = np.asarray(scores, dtype=np.float64) >= threshold
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ranked_candidates(scorer, user, train_positives, num_items):
    """All items minus the user's train positives, sorted by descending score
    with ties broken by ascending item index."""
    exclude = np.fromiter(train_positives, dtype=np.int64) if train_positives else np.empty(0, np.int64)
    candidates = np.setdiff1d(np.arange(num_items, dtype=np.int64), exclude, assume_unique=False)
    if candidates.size == 0:
        return candidates
    scores = scorer.score(np.full(candidates.shape, user, dtype=np.int64), candidates)
    return candidates[np.lexsort((candidates, -scores))]


# ctr_eval scores this many records per scorer call
CTR_BATCH = 1024


def ctr_eval(scorer, dataset):
    """Score every record and report AUC and F1 over the whole set."""
    n = len(dataset)
    positives = int(np.sum(dataset.labels == 1))
    if positives in (0, n):
        raise DataError(f"AUC needs positive and negative records; the evaluation set has "
                        f"{positives} positive and {n - positives} negative")
    scores = np.empty(n, dtype=np.float64)
    for start in range(0, n, CTR_BATCH):
        sl = slice(start, min(start + CTR_BATCH, n))
        scores[sl] = scorer.score(dataset.users[sl], dataset.items[sl])
    return {
        "auc": auc(dataset.labels, scores),
        "f1": f1(dataset.labels, scores),
    }


DEFAULT_K_LIST = (1, 2, 5, 10, 20, 50, 100)


def topk_eval(scorer, split, k_list=DEFAULT_K_LIST, num_items=None):
    """Mean Recall@k over users having at least one test positive.

    A user's Recall@k is the fraction of their test positives ranked in the
    top k candidates. Each user's candidates are ranked once and the recalls
    for every k are read off that one ranking.
    """
    if num_items is None:
        num_items = split.test.num_items
    train_pos = {}
    tr = split.train
    for u, v in zip(tr.users[tr.labels == 1], tr.items[tr.labels == 1]):
        train_pos.setdefault(int(u), set()).add(int(v))
    test_pos = {}
    te = split.test
    for u, v in zip(te.users[te.labels == 1], te.items[te.labels == 1]):
        test_pos.setdefault(int(u), set()).add(int(v))
    if not test_pos:
        raise DataError("no users with test positives")
    k_list = sorted(k_list)
    sums = {k: 0.0 for k in k_list}
    for user in sorted(test_pos):
        ranked = _ranked_candidates(scorer, user, train_pos.get(user, set()), num_items)
        positives = test_pos[user]
        denom = len(positives)
        hit_mask = np.isin(ranked, np.fromiter(positives, dtype=np.int64, count=denom))
        cum_hits = np.cumsum(hit_mask, dtype=np.float64)
        for k in k_list:
            hits = cum_hits[min(k, len(ranked)) - 1] if k > 0 and len(ranked) else 0.0
            sums[k] += hits / denom
    return {k: sums[k] / len(test_pos) for k in k_list}
