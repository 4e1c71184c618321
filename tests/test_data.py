import logging

import numpy as np
import pytest

from kgcn.data import (
    InteractionDataset,
    RawRating,
    implicitize,
    load_item2entity,
    load_ratings,
    map_items,
    preprocess,
    read_final_ratings,
    remap_and_join,
    sample_unwatched_negatives,
    split,
    write_final_ratings,
)
from kgcn.errors import ConfigError, DataError, ParseError


def _write(path, text):
    path.write_text(text)
    return str(path)


class TestLoadRatings:
    def test_basic_line(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "196\t242\t3.0\n")
        assert load_ratings(p) == [RawRating("196", "242", 3.0)]

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "")
        assert load_ratings(p) == []

    def test_two_fields_is_parse_error(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "1\t2\t3\na\tb\n")
        with pytest.raises(ParseError) as exc:
            load_ratings(p)
        assert exc.value.line_no == 2

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_ratings(str(tmp_path / "missing.tsv"))

    def test_order_preserved_and_extra_fields_ignored(self, tmp_path):
        p = _write(tmp_path / "r.csv", "1,10,4.5,123456\n2,20,3.0,777\n")
        got = load_ratings(p, delimiter=",")
        assert [r.user_id for r in got] == ["1", "2"]
        assert got[0].rating == 4.5

    def test_double_colon_delimiter(self, tmp_path):
        p = _write(tmp_path / "r.dat", "1::20::5.0\n")
        assert load_ratings(p, delimiter="::") == [RawRating("1", "20", 5.0)]

    def test_quoted_semicolon_fields(self, tmp_path):
        p = _write(tmp_path / "r.csv", '"u1";"034545104X";"8"\n')
        assert load_ratings(p, delimiter=";") == [RawRating("u1", "034545104X", 8.0)]

    def test_skip_header(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "userID\tartistID\tweight\n3\t7\t1.0\n")
        assert load_ratings(p, skip_header=True) == [RawRating("3", "7", 1.0)]

    def test_bad_rating_value(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "1\t2\tnope\n")
        with pytest.raises(ParseError):
            load_ratings(p)


class TestImplicitize:
    def test_threshold_boundary_kept(self):
        assert implicitize([RawRating("u", "v", 4.0)], threshold=4) == [("u", "v")]

    def test_below_threshold_dropped(self):
        assert implicitize([RawRating("u", "v", 3.0)], threshold=4) == []

    def test_no_threshold_keeps_all(self):
        assert implicitize([RawRating("u", "v", 1.0)], threshold=None) == [("u", "v")]

    def test_duplicates_collapse_keeping_max(self):
        ratings = [RawRating("u", "v", 2.0), RawRating("u", "v", 5.0)]
        assert implicitize(ratings, threshold=4) == [("u", "v")]
        assert implicitize(ratings, threshold=None) == [("u", "v")]


class TestNegativeSampling:
    def test_single_positive_draws_one_unwatched(self):
        negs = sample_unwatched_negatives({"u": {0}}, 3, seed=0)
        assert len(negs) == 1
        assert negs[0][0] == "u" and negs[0][1] in {1, 2} and negs[0][2] == 0

    def test_user_watched_everything(self):
        assert sample_unwatched_negatives({"u": {0, 1, 2}}, 3, seed=0) == []

    def test_deterministic(self):
        by_user = {f"u{i}": {i, (i + 1) % 20} for i in range(10)}
        a = sample_unwatched_negatives(by_user, 20, seed=42)
        b = sample_unwatched_negatives(by_user, 20, seed=42)
        assert a == b

    def test_negative_balance_min_p_u(self):
        # for every user: emitted negatives == min(p, unwatched)
        rng = np.random.default_rng(1)
        n_items = 12
        by_user = {}
        for u in range(30):
            p = int(rng.integers(1, n_items + 1))
            by_user[u] = set(rng.choice(n_items, size=p, replace=False).tolist())
        negs = sample_unwatched_negatives(by_user, n_items, seed=7)
        per_user = {}
        for u, v, y in negs:
            assert y == 0
            assert v not in by_user[u]
            per_user.setdefault(u, set()).add(v)
        for u, watched in by_user.items():
            expected = min(len(watched), n_items - len(watched))
            assert len(per_user.get(u, set())) == expected

    def test_restricted_universe(self):
        negs = sample_unwatched_negatives({"u": {0, 1}}, 10, seed=0, item_universe={0, 1, 5, 6})
        assert {v for _, v, _ in negs} <= {5, 6}


class TestRemapAndJoin:
    def test_dense_user_indices(self):
        item2entity = {"a": 0, "b": 1, "c": 2}
        positives = [("uB", 0), ("uA", 1), ("uA", 2)]
        negatives = [("uB", 2, 0)]
        ds, user_index = remap_and_join(positives, negatives, item2entity)
        assert ds.num_users == 2
        assert set(user_index.values()) == {0, 1}
        assert set(ds.items.tolist()) <= {0, 1, 2}
        assert len(ds) == 4

    def test_unmapped_items_dropped(self):
        positives = [("u", 0), ("u", 99)]
        ds, _ = remap_and_join(positives, [], {"a": 0})
        assert len(ds) == 1

    def test_duplicate_mapping_is_error(self, tmp_path):
        p = _write(tmp_path / "m.tsv", "a\t0\na\t1\n")
        with pytest.raises(DataError):
            load_item2entity(p)

    def test_no_duplicate_records(self):
        item2entity = {"a": 0, "b": 1}
        ds, _ = remap_and_join([("u", 0), ("u", 0)], [("u", 1, 0)], item2entity)
        pairs = list(zip(ds.users.tolist(), ds.items.tolist()))
        assert len(pairs) == len(set(pairs))


def _toy_dataset(n, num_users=10, num_items=50, seed=0):
    rng = np.random.default_rng(seed)
    users = rng.integers(0, num_users, size=n)
    items = rng.integers(0, num_items, size=n)
    labels = rng.integers(0, 2, size=n)
    return InteractionDataset(users=users, items=items, labels=labels,
                              num_users=num_users, num_items=num_items)


class TestSplit:
    def test_exact_622_sizes(self):
        ds = _toy_dataset(10)
        sp = split(ds, (6, 2, 2), seed=0)
        assert (len(sp.train), len(sp.validation), len(sp.test)) == (6, 2, 2)

    def test_all_in_train(self):
        ds = _toy_dataset(7)
        sp = split(ds, (1, 0, 0), seed=0)
        assert len(sp.train) == 7 and len(sp.validation) == 0 and len(sp.test) == 0

    def test_partition_property_over_seeds(self):
        ds = _toy_dataset(1000)
        whole = sorted(zip(ds.users.tolist(), ds.items.tolist(), ds.labels.tolist()))
        for seed in range(100):
            sp = split(ds, (6, 2, 2), seed=seed)
            parts = [sp.train, sp.validation, sp.test]
            assert sum(len(p) for p in parts) == 1000
            merged = []
            for p in parts:
                merged.extend(zip(p.users.tolist(), p.items.tolist(), p.labels.tolist()))
            assert sorted(merged) == whole

    def test_deterministic(self):
        ds = _toy_dataset(100)
        a = split(ds, (6, 2, 2), seed=3)
        b = split(ds, (6, 2, 2), seed=3)
        assert np.array_equal(a.train.users, b.train.users)
        assert np.array_equal(a.test.items, b.test.items)

    def test_zero_part_warns(self, caplog):
        ds = _toy_dataset(3)
        with caplog.at_level(logging.WARNING):
            split(ds, (1000, 1, 1000), seed=0)
        assert any("zero records" in r.message for r in caplog.records)

    def test_bad_ratios(self):
        ds = _toy_dataset(10)
        with pytest.raises(ConfigError):
            split(ds, (1, -1, 0), seed=0)


class TestPipeline:
    def test_idempotent_outputs(self, tmp_path, synthetic_raw_dir):
        outs = []
        for run in range(2):
            ds, *_ = preprocess(
                synthetic_raw_dir / "ratings.tsv", synthetic_raw_dir / "item2entity.tsv",
                seed=5,
            )
            out = tmp_path / f"final_{run}.txt"
            write_final_ratings(out, ds)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_per_user_label_balance(self, synthetic_raw_dir):
        ds, *_ = preprocess(
            synthetic_raw_dir / "ratings.tsv", synthetic_raw_dir / "item2entity.tsv",
            seed=5,
        )
        for u in np.unique(ds.users):
            mask = ds.users == u
            pos = int(np.sum(ds.labels[mask] == 1))
            neg = int(np.sum(ds.labels[mask] == 0))
            assert neg == min(pos, ds.num_items - pos)

    def test_empty_ratings_rejected(self, tmp_path):
        r = _write(tmp_path / "r.tsv", "")
        m = _write(tmp_path / "m.tsv", "a\t0\n")
        with pytest.raises(DataError, match="no interactions"):
            preprocess(r, m, seed=0)

    def test_unmapped_items_counted(self, tmp_path):
        r = _write(tmp_path / "r.tsv", "u\ta\t5\nu\tzzz\t5\n")
        m = _write(tmp_path / "m.tsv", "a\t0\n")
        mapped, dropped = map_items(implicitize(load_ratings(r)), load_item2entity(m))
        assert dropped == 1 and mapped == [("u", 0)]


class TestReadFinalRatings:
    @pytest.mark.parametrize("row", ["0\t-5\t1", "-1\t2\t0", "3\t2\t1", "0\t4\t1"],
                             ids=["negative_item", "negative_user",
                                  "user_past_num_users", "item_past_num_items"])
    def test_bad_index_is_parse_error(self, tmp_path, row):
        p = _write(tmp_path / "final_ratings.txt", f"0\t1\t1\n{row}\n")
        with pytest.raises(ParseError) as exc:
            read_final_ratings(p, num_users=3, num_items=4)
        assert exc.value.line_no == 2

    def test_counts_default_to_one_past_max(self, tmp_path):
        p = _write(tmp_path / "final_ratings.txt", "0\t1\t1\n2\t7\t0\n")
        ds = read_final_ratings(p)
        assert (ds.num_users, ds.num_items) == (3, 8)
        assert ds.items.tolist() == [1, 7]
