"""CTR metrics (AUC, F1) and top-K recommendation metrics (Recall@K).

AUC is the Mann-Whitney statistic computed through rank sums, which equals
brute-force counting of concordant (positive, negative) pairs with half
credit for ties. Tied scores share their midrank: np.unique groups them, and
a group of c scores whose last rank is e has midrank e - (c - 1) / 2.

rank is the one ranking rule, for top-K recall and the CLI's predict:
descending score, ties broken by ascending item. Top-K recall ranks every
item the user has not interacted with in training (validation positives
stay in as distractors).
"""

import numpy as np

from .errors import DataError


def auc(labels, scores):
    """Area under the ROC curve via rank sums with midranks.

    Equals (#concordant pairs + 0.5 * #tied pairs) / (P * N). labels and
    scores are one set's, which must hold both classes (check_labels).
    """
    labels = np.asarray(labels)
    scores = np.asarray(scores, dtype=np.float64)
    p = int(np.sum(labels == 1))
    q = labels.size - p
    _, group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    midranks = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum_pos = float(np.sum(midranks[group][labels == 1]))
    return (rank_sum_pos - p * (p + 1) / 2.0) / (p * q)


def f1(labels, scores):
    """F1 of the thresholded classifier (predict 1 iff score >= 0.5).

    Defined as 0 when precision + recall is 0 (e.g. no predicted positives).
    """
    labels = np.asarray(labels)
    pred = np.asarray(scores, dtype=np.float64) >= 0.5
    tp = int(np.sum(pred & (labels == 1)))
    fp = int(np.sum(pred & (labels == 0)))
    fn = int(np.sum(~pred & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rank(scorer, user, items):
    """(items, scores) of one user's items as int64, ordered by descending
    score with ties broken by ascending item."""
    items = np.asarray(items, dtype=np.int64)
    scores = scorer.score(np.full(items.shape, user, dtype=np.int64), items)
    order = np.lexsort((items, -scores))
    return items[order], scores[order]


# ctr_eval scores this many records per scorer call
CTR_BATCH = 1024


def check_labels(dataset):
    """Refuse, as a DataError, a set that AUC cannot score: one without both classes."""
    n = len(dataset)
    positives = int(np.sum(dataset.labels == 1))
    if positives in (0, n):
        raise DataError(f"AUC needs positive and negative records; the evaluation set has "
                        f"{positives} positive and {n - positives} negative")


def ctr_eval(scorer, dataset):
    """Score every record and report AUC and F1 over the whole set."""
    check_labels(dataset)
    n = len(dataset)
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
    top k candidates, the items in [0, num_items) that are not their train
    positives, passed to the scorer in ascending order. Each user's
    candidates are ranked once and the recalls for every k are read off that
    one ranking. Returns {k: recall}.
    """
    if num_items is None:
        num_items = split.test.num_items
    # each user's positives as one run of sorted distinct keys user * num_items + item
    test, train = (np.unique(part.users[part.labels == 1] * num_items
                             + part.items[part.labels == 1]) for part in (split.test, split.train))
    if not test.size:
        raise DataError("no users with test positives")
    users = np.unique(test // num_items)
    runs = users * num_items, (users + 1) * num_items   # each user's key range
    bounds = zip(*np.searchsorted(test, runs), *np.searchsorted(train, runs))
    k_list = sorted(k_list)
    ks = np.array([min(max(k, 0), num_items) for k in k_list], dtype=np.int64)
    sums = np.zeros(len(k_list))
    for user, (a, b, c, d) in zip(users, bounds):
        candidates = np.ones(num_items, dtype=bool)
        candidates[train[c:d] % num_items] = False
        ranked, _ = rank(scorer, user, np.flatnonzero(candidates))
        hits = np.r_[0.0, np.cumsum(np.isin(ranked, test[a:b] % num_items), dtype=np.float64)]
        sums += hits[np.minimum(ks, ranked.size)] / (b - a)
    return dict(zip(k_list, sums / users.size))
