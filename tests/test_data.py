import logging

import numpy as np
import pytest

from kgcn.data import (
    InteractionDataset,
    load_item2entity,
    load_ratings,
    preprocess,
    read_final_ratings,
    split,
    write_final_ratings,
)
from kgcn.errors import ConfigError, DataError, ParseError

from oracle import labelled_records


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _rows(columns):
    """load_ratings' three columns as (user, item, rating) rows."""
    users, items, ratings = columns
    assert ratings.dtype == np.float64 and len(users) == len(items) == len(ratings)
    return list(zip(users, items, ratings.tolist()))


class TestLoadRatings:
    def test_basic_line(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "196\t242\t3.0\n")
        assert _rows(load_ratings(p, delimiter="\t", skip_header=False)) == [("196", "242", 3.0)]

    def test_empty_file(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "")
        assert _rows(load_ratings(p, delimiter="\t", skip_header=False)) == []

    def test_two_fields_is_parse_error(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "1\t2\t3\na\tb\n")
        with pytest.raises(ParseError) as exc:
            load_ratings(p, delimiter="\t", skip_header=False)
        assert exc.value.line_no == 2

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(OSError):
            load_ratings(str(tmp_path / "missing.tsv"), delimiter="\t", skip_header=False)

    def test_order_preserved_and_extra_fields_ignored(self, tmp_path):
        p = _write(tmp_path / "r.csv", "2,10,4.5,123456\n1,20,3.0,777,x\n")
        assert _rows(load_ratings(p, delimiter=",", skip_header=False)) == [
            ("2", "10", 4.5), ("1", "20", 3.0)]

    def test_double_colon_delimiter(self, tmp_path):
        p = _write(tmp_path / "r.dat", "1::20::5.0\n")
        assert _rows(load_ratings(p, delimiter="::", skip_header=False)) == [("1", "20", 5.0)]

    def test_quoted_semicolon_fields(self, tmp_path):
        p = _write(tmp_path / "r.csv", '"u1";"034545104X";"8"\n')
        assert _rows(load_ratings(p, delimiter=";", skip_header=False)) == [
            ("u1", "034545104X", 8.0)]

    def test_skip_header(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "userID\tartistID\tweight\n3\t7\t1.0\n")
        assert _rows(load_ratings(p, delimiter="\t", skip_header=True)) == [("3", "7", 1.0)]

    def test_bad_rating_value(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "1\t2\tnope\n")
        with pytest.raises(ParseError):
            load_ratings(p, delimiter="\t", skip_header=False)

    @pytest.mark.parametrize("field, rating", [
        ("1", 1.0), ("1.", 1.0), ("4.5", 4.5), ("1e0", 1.0), ('"3"', 3.0), ("-2.5E-1", -0.25)])
    def test_rating_field_accepted(self, tmp_path, field, rating):
        p = _write(tmp_path / "r.tsv", f"u\ti\t{field}\n")
        assert _rows(load_ratings(p, delimiter="\t", skip_header=False)) == [("u", "i", rating)]

    # float() alone reads each of these: 10.0, 1.0, 4.5, 1.0, 1000.5
    @pytest.mark.parametrize("field", ["1_0", "\u0661", "4.\u0665", "\uff11", "1_000.5"])
    def test_rating_field_refused(self, tmp_path, field):
        p = _write(tmp_path / "r.tsv", f"u\ti\t1\nu\tj\t{field}\n")
        with pytest.raises(ParseError, match="bad rating value") as exc:
            load_ratings(p, delimiter="\t", skip_header=False)
        assert exc.value.line_no == 2

    def test_not_utf8_is_parse_error(self, tmp_path):
        # keys that differ only in undecodable bytes must not merge into one
        p = tmp_path / "r.tsv"
        p.write_bytes(b"v\t2\t1.0\nu\xff\t2\t1.0\nu\xfe\t2\t1.0\n")
        with pytest.raises(ParseError) as exc:
            load_ratings(str(p), delimiter="\t", skip_header=False)
        assert exc.value.line_no == 2

    def test_leading_tab_keeps_empty_user(self, tmp_path):
        p = _write(tmp_path / "r.tsv", "\tu\ti\t5\n")
        with pytest.raises(ParseError, match="empty user"):
            load_ratings(p, delimiter="\t", skip_header=False)

    def test_byte_order_mark_is_parse_error(self, tmp_path):
        # with the mark kept, "\ufeffu1" would be a user of its own
        p = _write(tmp_path / "r.tsv", "\ufeffu1\ti1\t1\nu1\ti2\t1\n")
        with pytest.raises(ParseError, match="byte-order mark") as exc:
            load_ratings(p, delimiter="\t", skip_header=False)
        assert exc.value.line_no == 1


def _preprocess(tmp_path, ratings, mapping, **kwargs):
    """preprocess() on ratings and item2entity files holding the given text."""
    r = _write(tmp_path / "ratings.tsv", ratings)
    m = _write(tmp_path / "item2entity.tsv", mapping)
    return preprocess(r, m, **{"seed": 0, **kwargs})


def _mapping(entities):
    return "".join(f"i{e}\t{e}\n" for e in entities)


def _ratings(watched_by_user):
    return "".join(f"{u}\ti{v}\t1\n" for u, items in watched_by_user.items() for v in items)


def _negatives(ds):
    """user index -> set of the items labelled 0 for that user."""
    out = {}
    for u, v in zip(ds.users[ds.labels == 0].tolist(), ds.items[ds.labels == 0].tolist()):
        out.setdefault(u, set()).add(v)
    return out


class TestNegativeSampling:
    def test_single_positive_draws_one_unwatched(self, tmp_path):
        ds, *_ = _preprocess(tmp_path, "u\ti0\t1\n", _mapping([0, 1, 2]))
        assert ds.labels.tolist() == [1, 0]
        assert _negatives(ds)[0] <= {1, 2} and len(_negatives(ds)[0]) == 1

    def test_user_watched_everything(self, tmp_path):
        ds, *_ = _preprocess(tmp_path, _ratings({"u": [0, 1, 2]}), _mapping([0, 1, 2]))
        assert ds.labels.tolist() == [1, 1, 1]

    def test_deterministic(self, tmp_path):
        by_user = {f"u{i}": [i, (i + 1) % 20] for i in range(10)}
        a, *_ = _preprocess(tmp_path, _ratings(by_user), _mapping(range(20)), seed=42)
        b, *_ = _preprocess(tmp_path, _ratings(by_user), _mapping(range(20)), seed=42)
        for name in ("users", "items", "labels"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_negative_balance_min_p_u(self, tmp_path):
        # for every user: emitted negatives == min(p, unwatched), over a universe with gaps
        rng = np.random.default_rng(1)
        universe = [2 * i for i in range(12)]
        by_user = {}
        for u in range(30):
            p = int(rng.integers(1, len(universe) + 1))
            by_user[f"u{u:02d}"] = rng.choice(universe, size=p, replace=False).tolist()
        ds, user_index, *_ = _preprocess(tmp_path, _ratings(by_user), _mapping(universe), seed=7)
        negatives = _negatives(ds)
        for user, watched in by_user.items():
            drawn = negatives.get(user_index[user], set())
            assert not drawn & set(watched)
            assert drawn <= set(universe)
            assert len(drawn) == min(len(watched), len(universe) - len(watched))
        assert len(ds) == len(set(zip(ds.users.tolist(), ds.items.tolist())))

    def test_restricted_universe(self, tmp_path):
        # num_items is 7, but only the mapped entities 0, 1, 5, 6 can be drawn
        ds, *_ = _preprocess(tmp_path, _ratings({"u": [0, 1]}), _mapping([0, 1, 5, 6]))
        assert ds.num_items == 7
        assert _negatives(ds)[0] == {5, 6}


class TestRemapAndJoin:
    """The join step of preprocess: dense users, mapped items, one record per pair."""

    def test_dense_user_indices(self, tmp_path):
        ds, user_index, *_ = _preprocess(tmp_path, _ratings({"uB": [0], "uA": [1, 2]}),
                                         _mapping([0, 1, 2]))
        assert ds.num_users == 2
        assert user_index == {"uA": 0, "uB": 1}
        assert set(ds.items.tolist()) <= {0, 1, 2}
        assert len(ds) == 5

    def test_unmapped_items_dropped(self, tmp_path):
        ds, *_ = _preprocess(tmp_path, "u\ti0\t1\nu\ti99\t1\n", _mapping([0, 1]))
        assert ds.items[ds.labels == 1].tolist() == [0]
        assert len(ds) == 2

    def test_duplicate_mapping_is_error(self, tmp_path):
        p = _write(tmp_path / "m.tsv", "a\t0\na\t1\n")
        with pytest.raises(DataError):
            load_item2entity(p)

    @pytest.mark.parametrize("entity", ["1_0", "\u0661", "1.0"],
                             ids=["underscore", "arabic_indic_digit", "decimal_point"])
    def test_entity_not_ascii_decimal_is_parse_error(self, tmp_path, entity):
        # int() would read "1_0" as 10 and the Arabic-Indic digit one as 1
        p = _write(tmp_path / "m.tsv", f"a\t0\nb\t{entity}\n")
        with pytest.raises(ParseError, match="bad entity index") as exc:
            load_item2entity(p)
        assert exc.value.line_no == 2

    def test_keys_differing_in_a_nul_stay_apart(self, tmp_path):
        # a numpy str_ array would hold "u\x00" as "u" and merge the two users
        ds, user_index, *_ = _preprocess(tmp_path, "u\x00\ta\t1\nu\tb\t1\n", "a\t0\nb\t1\n")
        assert user_index == {"u": 0, "u\x00": 1}
        assert ds.num_users == 2
        assert ds.items[ds.labels == 1].tolist() == [1, 0]

    def test_no_duplicate_records(self, tmp_path):
        # a and b are one entity: the user's two positives become one record
        ds, _, _, stats = _preprocess(tmp_path, "u\ta\t1\nu\tb\t1\n", "a\t0\nb\t0\nc\t1\n")
        pairs = list(zip(ds.users.tolist(), ds.items.tolist()))
        assert len(pairs) == len(set(pairs))
        assert pairs == [(0, 0), (0, 1)] and ds.labels.tolist() == [1, 0]
        assert stats["interactions"] == 2


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
        ds, _, _, stats = _preprocess(tmp_path, "u\ta\t5\nu\tzzz\t5\n", "a\t0\n")
        assert stats["dropped_unmapped"] == 1 and stats["interactions"] == 1
        assert list(zip(ds.users.tolist(), ds.items.tolist(), ds.labels.tolist())) == [(0, 0, 1)]

    def test_matches_record_by_record_reference(self, tmp_path):
        # entities with gaps, 40 raw items on 30 entities, 5 unmapped items, users who
        # rate from 1 item to every item, and a third of the pairs rated again with
        # another rating, so the max rule and the numpy stream decide the output
        rng = np.random.default_rng(3)
        entities = rng.choice(60, size=30, replace=False)
        item2entity = {f"i{j}": int(entities[j % 30]) for j in range(40)}
        mapping = "".join(f"{item}\t{entity}\n" for item, entity in item2entity.items())
        rows = [(f"u{u}", f"i{j}", float(rng.integers(1, 6))) for u in rng.permutation(25)
                for j in rng.choice(45, size=rng.integers(1, 46), replace=False)]
        rows += [(user, item, float(rng.integers(1, 6))) for user, item, _ in rows[::3]]
        ratings = "".join(f"{user}\t{item}\t{rating}\n" for user, item, rating in rows)
        for threshold in (None, 3, 4.5):
            ds, user_index, mapped, _ = _preprocess(tmp_path, ratings, mapping, seed=9,
                                                    threshold=threshold)
            records, reference_index = labelled_records(rows, threshold, item2entity,
                                                        np.random.default_rng(9))
            assert list(zip(ds.users.tolist(), ds.items.tolist(), ds.labels.tolist())) == records
            assert user_index == reference_index and mapped == item2entity

    @pytest.mark.parametrize("threshold, u0_row5, interactions", [(None, 1, 10), (3, 0, 9)],
                             ids=["no_threshold", "threshold_3"])
    def test_exact_output(self, tmp_path, threshold, u0_row5, interactions):
        # b and c share entity 2, zzz is unmapped, entities 1 and 3 do not exist, u0's
        # duplicate a keeps its maximum 4, and threshold 3 drops u0's e. Every user
        # watches at least half of the universe {0, 2, 4, 5}, so every unwatched item
        # is drawn and the output does not depend on numpy's random stream.
        ratings = ("u1\ta\t5\nu1\tb\t5\nu1\tc\t5\nu1\tzzz\t5\n"
                   "u0\td\t5\nu0\te\t1\nu0\ta\t2\nu0\ta\t4\n"
                   "w\ta\t5\nw\tb\t5\nw\td\t5\nw\te\t5\n")
        mapping = "a\t0\nb\t2\nc\t2\nd\t4\ne\t5\n"
        ds, user_index, item2entity, stats = _preprocess(tmp_path, ratings, mapping,
                                                         threshold=threshold)
        assert ds.users.tolist() == [0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2]
        assert ds.items.tolist() == [0, 2, 4, 5] * 3
        assert ds.labels.tolist() == [1, 0, 1, u0_row5, 1, 1, 0, 0, 1, 1, 1, 1]
        assert ds.users.dtype == ds.items.dtype == ds.labels.dtype == np.int64
        assert (ds.num_users, ds.num_items) == (3, 6)
        assert user_index == {"u0": 0, "u1": 1, "w": 2}
        assert item2entity == {"a": 0, "b": 2, "c": 2, "d": 4, "e": 5}
        assert stats == {"users": 3, "items": 5, "interactions": interactions,
                         "dropped_unmapped": 1}


class TestThreshold:
    """A (user, item) pair is positive when one of its ratings reaches the threshold."""

    @staticmethod
    def _positives(tmp_path, ratings, threshold):
        # w's rating of 5 keeps a positive whatever the threshold
        ds, user_index, _, stats = _preprocess(tmp_path, ratings + "w\tv\t5\n",
                                               "v\t0\nx\t1\n", threshold=threshold)
        raw = {i: user for user, i in user_index.items()}
        positives = {(raw[u], v) for u, v, y in
                     zip(ds.users.tolist(), ds.items.tolist(), ds.labels.tolist()) if y}
        assert stats["interactions"] == len(positives)
        return positives

    def test_rating_equal_to_threshold_kept(self, tmp_path):
        assert self._positives(tmp_path, "u\tv\t4.0\n", 4) == {("u", 0), ("w", 0)}

    @pytest.mark.parametrize("ratings", ["u\tv\t2.0\nu\tv\t5.0\n", "u\tv\t5.0\nu\tv\t2.0\n"],
                             ids=["below_then_above", "above_then_below"])
    def test_maximum_rating_decides(self, tmp_path, ratings):
        assert self._positives(tmp_path, ratings, 4) == {("u", 0), ("w", 0)}

    def test_below_threshold_dropped(self, tmp_path):
        assert self._positives(tmp_path, "u\tv\t3.0\n", 4) == {("w", 0)}

    def test_no_threshold_keeps_all(self, tmp_path):
        assert self._positives(tmp_path, "u\tv\t1.0\nu\tv\t-2\n", None) == {("u", 0), ("w", 0)}


class TestReadFinalRatings:
    @pytest.mark.parametrize("row", ["0\t-5\t1", "-1\t2\t0", "3\t2\t1", "0\t4\t1"],
                             ids=["negative_item", "negative_user",
                                  "user_past_num_users", "item_past_num_items"])
    def test_bad_index_is_parse_error(self, tmp_path, row):
        p = _write(tmp_path / "final_ratings.txt", f"0\t1\t1\n{row}\n")
        with pytest.raises(ParseError) as exc:
            read_final_ratings(p, num_users=3, num_items=4)
        assert exc.value.line_no == 2

    def test_any_whitespace_separates_fields(self, tmp_path):
        p = _write(tmp_path / "final_ratings.txt", "0\t1\t1\n\n 2  3 0 \n")
        ds = read_final_ratings(p, num_users=3, num_items=4)
        assert [ds.users.tolist(), ds.items.tolist(), ds.labels.tolist()] == [[0, 2], [1, 3], [1, 0]]
        assert (ds.num_users, ds.num_items) == (3, 4)

    def test_first_bad_line_is_named(self, tmp_path):
        # line 2's item is out of range and line 3's label is not 0/1
        p = _write(tmp_path / "final_ratings.txt", "0\t1\t1\n0\t9\t1\n0\t1\t2\n")
        with pytest.raises(ParseError, match="item index") as exc:
            read_final_ratings(p, num_users=3, num_items=4)
        assert exc.value.line_no == 2

    def test_no_records_is_data_error(self, tmp_path):
        p = _write(tmp_path / "final_ratings.txt", "\n\n")
        with pytest.raises(DataError, match="no interactions"):
            read_final_ratings(p, num_users=3, num_items=4)
