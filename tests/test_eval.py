import numpy as np
import pytest

from kgcn.data import InteractionDataset, SplitDataset
from kgcn.errors import DataError
from kgcn.evaluate import auc, ctr_eval, f1, rank, topk_eval

from oracle import recall_at_k


def brute_force_auc(labels, scores):
    """O(P*N) concordant-pair count with half credit for ties."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_separation(self):
        assert auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0

    def test_all_ties_give_half(self):
        assert auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5]) == 0.5

    def test_one_concordant_one_discordant(self):
        # pos scores 0.9 and 0.4, neg score 0.6 -> 1 of 2 pairs concordant
        assert auc([1, 1, 0], [0.9, 0.4, 0.6]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            auc([1, 1], [0.5, 0.6])
        with pytest.raises(ValueError):
            auc([0, 0], [0.5, 0.6])

    def test_equals_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(2, 51))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            # quantized scores to force plenty of ties
            scores = np.round(rng.random(n), 1)
            assert auc(labels, scores) == brute_force_auc(labels.tolist(), scores.tolist())

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 2, size=60)
        labels[0], labels[1] = 0, 1
        scores = rng.random(60)
        base = auc(labels, scores)
        for transform in (lambda s: 3.0 * s + 1.0,
                          lambda s: s ** 3,
                          lambda s: 1.0 / (1.0 + np.exp(-5.0 * s))):
            assert abs(auc(labels, transform(scores)) - base) <= 1e-12


class TestF1:
    def test_all_correct(self):
        assert f1([1, 0, 1], [0.9, 0.1, 0.8]) == 1.0

    def test_no_predicted_positives(self):
        assert f1([1, 1, 0], [0.1, 0.2, 0.3]) == 0.0

    def test_confusion_matrix_half(self):
        # TP=1, FP=1, FN=1 -> precision = recall = 0.5 -> F1 = 0.5
        assert f1([1, 0, 1], [0.9, 0.9, 0.1]) == 0.5

    def test_harmonic_mean_property(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            labels = rng.integers(0, 2, size=30)
            scores = rng.random(30)
            got = f1(labels, scores)
            assert 0.0 <= got <= 1.0
            pred = scores >= 0.5
            tp = np.sum(pred & (labels == 1))
            fp = np.sum(pred & (labels == 0))
            fn = np.sum(~pred & (labels == 1))
            if tp + fp > 0 and tp + fn > 0:
                p_, r_ = tp / (tp + fp), tp / (tp + fn)
                if p_ > 0 and r_ > 0:
                    assert abs(got - 2 * p_ * r_ / (p_ + r_)) <= 1e-12

    def test_custom_threshold(self):
        assert f1([1, 0], [0.4, 0.1], threshold=0.3) == 1.0


class FixedScorer:
    """Scores looked up from a {(user, item): score} table."""

    def __init__(self, table, default=0.0):
        self.table = table
        self.default = default

    def score(self, users, items):
        return np.array([self.table.get((int(u), int(v)), self.default)
                         for u, v in zip(users, items)])


def _dataset(users, items, labels, num_users=None, num_items=None):
    users = np.asarray(users, dtype=np.int64)
    items = np.asarray(items, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    return InteractionDataset(
        users=users, items=items, labels=labels,
        num_users=num_users or int(users.max()) + 1,
        num_items=num_items or int(items.max()) + 1,
    )


def _recall(scorer, k_list, train_positives, test_positives, num_items):
    """topk_eval's Recall@k, for every k in k_list, of user 0 alone."""
    def positives(items):
        items = sorted(items)
        return _dataset([0] * len(items), items, [1] * len(items),
                        num_users=1, num_items=num_items)

    sp = SplitDataset(train=positives(train_positives), validation=positives(()),
                      test=positives(test_positives), seed=0)
    return topk_eval(scorer, sp, k_list=k_list, num_items=num_items)


class TestRecallAtK:
    def test_all_positives_in_topk(self):
        scorer = FixedScorer({(0, 3): 0.9, (0, 4): 0.8}, default=0.1)
        got = _recall(scorer, [2], set(), {3, 4}, num_items=5)[2]
        assert got == 1.0

    def test_k_zero(self):
        scorer = FixedScorer({}, default=0.5)
        assert _recall(scorer, [0], set(), {1}, num_items=3)[0] == 0.0

    def test_half_recall_on_toy_model(self):
        # 5 items, 2 test positives, exactly one ranked in the top 2
        table = {(0, 0): 0.95, (0, 1): 0.90, (0, 2): 0.50, (0, 3): 0.40, (0, 4): 0.30}
        scorer = FixedScorer(table)
        got = _recall(scorer, [2], set(), {1, 3}, num_items=5)[2]
        assert got == 0.5

    def test_train_positives_excluded(self):
        table = {(0, 0): 0.99, (0, 1): 0.9, (0, 2): 0.8}
        scorer = FixedScorer(table)
        # item 0 would win but is a train positive; top-1 becomes item 1
        assert _recall(scorer, [1], {0}, {1}, num_items=3)[1] == 1.0

    def test_ties_broken_by_item_index(self):
        scorer = FixedScorer({}, default=0.7)   # every item ties
        assert _recall(scorer, [2], set(), {0, 1}, num_items=10)[2] == 1.0
        assert _recall(scorer, [2], set(), {8, 9}, num_items=10)[2] == 0.0

    def test_monotone_in_k(self):
        for seed in range(100):
            r = np.random.default_rng(seed)
            scores = {(0, v): r.random() for v in range(20)}
            scorer = FixedScorer(scores)
            test_pos = set(r.choice(20, size=4, replace=False).tolist())
            recalls = _recall(scorer, range(0, 21), set(), test_pos, num_items=20)
            prev = 0.0
            for k in range(0, 21):
                cur = recalls[k]
                assert cur >= prev - 1e-15
                prev = cur

    def test_requires_test_positive(self):
        with pytest.raises(DataError):
            _recall(FixedScorer({}), [3], set(), set(), num_items=5)


class LabelLeakScorer:
    """Scores equal to the true label (oracle-perfect CTR model)."""

    def __init__(self, dataset):
        self.table = {(int(u), int(v)): float(y) for u, v, y in
                      zip(dataset.users, dataset.items, dataset.labels)}

    def score(self, users, items):
        return np.array([self.table.get((int(u), int(v)), 0.5)
                         for u, v in zip(users, items)])


class RandomScorer:
    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def score(self, users, items):
        return self.rng.random(len(users))


class TestCtrEval:
    def test_label_scorer_is_perfect(self):
        ds = _dataset([0, 0, 1, 1], [0, 1, 0, 1], [1, 0, 0, 1])
        metrics = ctr_eval(LabelLeakScorer(ds), ds)
        assert metrics["auc"] == 1.0 and metrics["f1"] == 1.0

    def test_random_scorer_near_half(self):
        rng = np.random.default_rng(4)
        ds = _dataset(rng.integers(0, 10, 200), rng.integers(0, 50, 200),
                      np.array([0, 1] * 100))
        aucs = [ctr_eval(RandomScorer(seed), ds)["auc"] for seed in range(100)]
        assert abs(np.mean(aucs) - 0.5) <= 0.02

    def test_empty_set_rejected(self):
        ds = _dataset([0], [0], [1]).subset(np.array([], dtype=np.int64))
        with pytest.raises(DataError):
            ctr_eval(FixedScorer({}), ds)

    def test_single_class_set_rejected(self):
        ds = _dataset([0, 1], [0, 1], [1, 1])
        with pytest.raises(DataError, match="2 positive and 0 negative"):
            ctr_eval(FixedScorer({}), ds)


class TestTopkEval:
    def _split(self):
        train = _dataset([0, 0, 1], [0, 1, 2], [1, 1, 1], num_users=2, num_items=6)
        val = _dataset([0], [2], [0], num_users=2, num_items=6)
        test = _dataset([0, 0, 1, 1], [3, 4, 0, 5], [1, 0, 1, 1],
                        num_users=2, num_items=6)
        return SplitDataset(train=train, validation=val, test=test, seed=0)

    def test_matches_recall_at_k_per_user(self):
        sp = self._split()
        rng = np.random.default_rng(5)
        table = {(u, v): rng.random() for u in range(2) for v in range(6)}
        scorer = FixedScorer(table)
        got = topk_eval(scorer, sp, k_list=(1, 2, 3), num_items=6)
        for k in (1, 2, 3):
            expected = np.mean([
                recall_at_k(scorer, 0, k, {0, 1}, {3}, num_items=6),
                recall_at_k(scorer, 1, k, {2}, {0, 5}, num_items=6),
            ])
            assert abs(got[k] - expected) <= 1e-12

    def test_default_k_list(self):
        sp = self._split()
        got = topk_eval(FixedScorer({}, default=0.3), sp, num_items=6)
        assert sorted(got) == [1, 2, 5, 10, 20, 50, 100]

    def test_monotone_in_k(self):
        sp = self._split()
        got = topk_eval(FixedScorer({}, default=0.3), sp, k_list=(1, 2, 3, 4, 5), num_items=6)
        values = [got[k] for k in sorted(got)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_repeated_k_counted_once(self):
        sp = self._split()
        scorer = FixedScorer({(0, 3): 0.9, (1, 5): 0.9}, default=0.3)
        assert topk_eval(scorer, sp, k_list=(2, 2, 1), num_items=6) == \
            topk_eval(scorer, sp, k_list=(1, 2), num_items=6)

    def test_k_past_int64_reads_the_whole_ranking(self):
        sp = self._split()
        scorer = FixedScorer({}, default=0.3)
        got = topk_eval(scorer, sp, k_list=(6, 2 ** 64), num_items=6)
        assert got[2 ** 64] == got[6] == 1.0


class TestRank:
    def test_descending_score_then_ascending_item(self):
        scorer = FixedScorer({(4, 7): 0.2, (4, 1): 0.9, (4, 3): 0.2, (4, 0): -0.0}, default=0.0)
        items, scores = rank(scorer, 4, [7, 0, 3, 1, 5])
        assert items.dtype == np.int64
        assert items.tolist() == [1, 3, 7, 0, 5]
        assert scores.tolist() == [0.9, 0.2, 0.2, 0.0, 0.0]
