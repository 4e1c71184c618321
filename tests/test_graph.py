import math

import numpy as np
import pytest

from kgcn.data import read_final_ratings
from kgcn.errors import ParseError
from kgcn.graph import (
    _distinct,
    batched_layers,
    build_adjacency,
    load_kg,
    read_int_table,
    read_lines,
    sample_neighborhood,
    write_int_table,
)

from conftest import random_graph
from oracle import receptive_tree


class TestLoadKg:
    def test_single_triple(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t5\t1\n")
        triples, E, R = load_kg(str(p))
        assert triples.tolist() == [[0, 5, 1]] and triples.dtype == np.int64
        assert (E, R) == (2, 6)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("")
        triples, E, R = load_kg(str(p))
        assert triples.shape == (0, 3) and E == 0 and R == 0

    def test_counts_are_one_plus_max(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t0\t1\n2\t1\t0\n")
        _, E, R = load_kg(str(p))
        assert (E, R) == (3, 2)

    def test_negative_index_rejected(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t0\t1\n1\t-2\t0\n")
        with pytest.raises(ParseError) as exc:
            load_kg(str(p))
        assert exc.value.line_no == 2

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "kg.txt"
        p.write_text("0\t0\n")
        with pytest.raises(ParseError):
            load_kg(str(p))


class TestIntTable:
    @pytest.mark.parametrize("table", [
        np.empty((0, 3), dtype=np.int64),
        np.array([[0, 5, 1]]),
        np.array([[-(2 ** 63), 0, 2 ** 63 - 1], [7, -1, 10]]),
        np.arange(20000).reshape(-1, 2),
    ], ids=["empty", "one_row", "int64_extremes", "several_chunks"])
    def test_write_read_round_trip(self, tmp_path, table):
        p = tmp_path / "table.txt"
        write_int_table(p, table.T)
        back = read_int_table(p, table.shape[1])
        assert back.dtype == np.int64 and back.shape == table.shape
        assert np.array_equal(back, table)

    def test_written_text(self, tmp_path):
        p = tmp_path / "table.txt"
        write_int_table(p, (np.array([3, 12]), np.array([-1, 4]), np.array([0, 1])))
        assert p.read_bytes() == b"3\t-1\t0\n12\t4\t1\n"

    def test_blank_lines_and_any_whitespace(self, tmp_path):
        p = tmp_path / "table.txt"
        p.write_text("\n  \n1 2\t3\n\t\n +4   5\t\t-6  \n\n")
        assert read_int_table(p, 3).tolist() == [[1, 2, 3], [4, 5, -6]]
        p.write_text(" \n\t\n")
        assert read_int_table(p, 2).shape == (0, 2)

    def test_wrong_width_everywhere(self, tmp_path):
        p = tmp_path / "table.txt"
        p.write_text("1 2\n3 4\n")
        with pytest.raises(ParseError) as exc:
            read_int_table(p, 3)
        assert exc.value.line_no == 1

    @pytest.mark.parametrize("rows_before", [1, 3000])
    def test_not_utf8_line_is_named(self, tmp_path, rows_before):
        # 3000 rows put the bad byte past the blank-table check's first decoded
        # chunk, so np.loadtxt meets it
        p = tmp_path / "table.txt"
        p.write_bytes(b"\n" + b"0 1 1\n" * rows_before + b"0 \xff 1\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            read_int_table(p, 3)
        assert exc.value.line_no == rows_before + 2

    @pytest.mark.parametrize("text", ["\ufeff0 1 1\n", "\ufeff\n0 1 1\n"],
                             ids=["before_a_row", "alone_on_line_1"])
    def test_byte_order_mark_is_named(self, tmp_path, text):
        p = tmp_path / "table.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError, match="byte-order mark") as exc:
            read_int_table(p, 3)
        assert exc.value.line_no == 1

    # each bad line sits on line 5 of a table whose lines 2-3 are blank
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad, read", [
        ("0 1", load_kg),
        ("0 1 1 1", load_kg),
        ("0 1.0 1", load_kg),
        ("0 1_0 1", load_kg),
        ("0 \u0663 1", load_kg),
        ("# 0 1", load_kg),
        (f"0 {2 ** 63} 1", load_kg),
        (f"0 1 {2 ** 31}", load_kg),
        ("0 1 2", lambda p: read_final_ratings(p, num_users=3, num_items=4)),
    ], ids=["too_few", "too_many", "decimal_point", "underscore", "non_ascii_digit",
            "comment", "past_int64", "index_past_limit", "bad_label"])
    def test_refused_line_is_named(self, tmp_path, newline, bad, read):
        p = tmp_path / "table.txt"
        p.write_bytes(newline.join(["0 1 1", "", " ", "1 2 0", bad, "2 3 1", ""]).encode())
        with pytest.raises(ParseError) as exc:
            read(p)
        assert exc.value.line_no == 5


class TestReadLines:
    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("bad_line", [1, 3000])
    def test_not_utf8_names_its_line(self, tmp_path, newline, bad_line):
        # the file is decoded in chunks; the error must still name the first
        # undecodable line (a truncated code point), also past the first chunk
        lines = [b"0\t0\t1"] * 4000
        lines[10] = b"0\t0\t\xe2\x82\xac"            # valid three-byte UTF-8
        lines[bad_line - 1] = b"0\t0\t\xe2\x82"        # truncated code point
        p = tmp_path / "lines.txt"
        p.write_bytes(newline.join(lines) + newline)
        with pytest.raises(ParseError) as exc:
            list(read_lines(str(p)))
        assert exc.value.line_no == bad_line
        p.write_bytes(newline.join(lines[:bad_line - 1]) + newline)
        assert [line for _, line in read_lines(str(p))] == [l.decode() for l in lines[:bad_line - 1]]


def _adjacency(triples, num_entities):
    return build_adjacency(np.array(triples, dtype=np.int64).reshape(-1, 3), num_entities)


def _pairs(adjacency, v):
    """Entity v's (neighbor, relation) pairs as a list of tuples."""
    return [tuple(pair) for pair in adjacency[v].tolist()]


def _list_adjacency(triples, num_entities):
    """Reference adjacency: per entity, a list of (neighbor, relation) pairs
    appended triple by triple, head first."""
    adj = [[] for _ in range(num_entities)]
    for h, r, t in triples.tolist():
        adj[h].append((t, r))
        adj[t].append((h, r))
    return adj


class TestAdjacency:
    def test_both_directions(self):
        adj = _adjacency([[0, 5, 1]], 2)
        assert _pairs(adj, 0) == [(1, 5)]
        assert _pairs(adj, 1) == [(0, 5)]
        assert adj.offsets.tolist() == [0, 1, 2] and adj.pairs.dtype == np.int64

    def test_empty(self):
        adj = build_adjacency(np.empty((0, 3), dtype=np.int64), 3)
        assert len(adj) == 3 and [_pairs(adj, v) for v in range(3)] == [[], [], []]
        assert adj.offsets.tolist() == [0, 0, 0, 0] and adj.pairs.shape == (0, 2)

    def test_self_loop_contributes_twice(self):
        adj = _adjacency([[0, 1, 0]], 1)
        assert _pairs(adj, 0) == [(0, 1), (0, 1)]

    def test_symmetry_on_random_graphs(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            _, adj = random_graph(rng, 12, 4, 30)
            for h in range(len(adj)):
                for (t, r) in _pairs(adj, h):
                    assert _pairs(adj, h).count((t, r)) == _pairs(adj, t).count((h, r))

    def test_duplicate_triples_preserved(self):
        adj = _adjacency([[0, 1, 1], [0, 1, 1]], 2)
        assert _pairs(adj, 0) == [(1, 1), (1, 1)]

    def test_equals_list_adjacency_in_file_order(self):
        rng = np.random.default_rng(1)
        for E in (1, 5, 12, 40):
            triples, adj = random_graph(rng, E, 3, 3 * E)
            assert [_pairs(adj, v) for v in range(E)] == _list_adjacency(triples, E)

    def test_length_and_degrees_by_iteration(self):
        # what a caller holding a list of pair lists did: len(adj) and len(adj[v])
        triples, adj = random_graph(np.random.default_rng(2), 9, 2, 12)
        assert len(adj) == 9
        assert [len(pairs) for pairs in adj] == adj.degree.tolist()
        assert adj.degree.tolist() == [len(p) for p in _list_adjacency(triples, 9)]
        with pytest.raises(IndexError):
            adj[9]


RUNS = 2000   # seeds per sampler property; each bound is five standard errors


def _rows(adjacency, v, K):
    """Entity v's sampled (neighbor, relation) pairs under seeds 0..RUNS-1."""
    for seed in range(RUNS):
        s = sample_neighborhood(adjacency, K, seed, num_relations=3)
        yield list(zip(s.neighbors[v].tolist(), s.relations[v].tolist()))


def _near(observed, expected, variance):
    """observed, a mean over RUNS independent seeds of a draw with the given
    variance, lies within five standard errors of expected."""
    return abs(observed - expected) <= 5 * math.sqrt(variance / RUNS)


class TestNeighborSample:
    def test_small_neighborhood_sampled_with_replacement(self):
        adj = _adjacency([[0, 0, 1], [0, 0, 2], [0, 0, 3]], 4)
        s = sample_neighborhood(adj, K=8, seed=0, num_relations=1)
        row = s.neighbors[0]
        assert len(row) == 8
        assert set(row.tolist()) <= {1, 2, 3}
        assert len(set(row.tolist())) < 8  # duplicates forced by pigeonhole

    def test_exact_size_neighborhood_is_permutation(self):
        adj = _adjacency([[0, 0, i] for i in range(1, 9)], 10)
        s = sample_neighborhood(adj, K=8, seed=3, num_relations=1)
        assert sorted(s.neighbors[0].tolist()) == list(range(1, 9))

    def test_isolated_entity_gets_self_relation(self):
        adj = _adjacency([[1, 0, 2]], 3)
        s = sample_neighborhood(adj, K=4, seed=0, num_relations=5)
        assert s.neighbors[0].tolist() == [0, 0, 0, 0]
        assert s.relations[0].tolist() == [5, 5, 5, 5]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        _, adj = random_graph(rng, 20, 3, 50)
        a = sample_neighborhood(adj, K=4, seed=9, num_relations=3)
        b = sample_neighborhood(adj, K=4, seed=9, num_relations=3)
        assert np.array_equal(a.neighbors, b.neighbors)
        assert np.array_equal(a.relations, b.relations)
        c = sample_neighborhood(adj, K=4, seed=10, num_relations=3)
        assert not (np.array_equal(a.neighbors, c.neighbors)
                    and np.array_equal(a.relations, c.relations))

    def test_sampled_pairs_come_from_adjacency(self):
        rng = np.random.default_rng(6)
        _, adj = random_graph(rng, 15, 3, 25)
        s = sample_neighborhood(adj, K=5, seed=1, num_relations=3)
        for v in range(15):
            allowed = set(_pairs(adj, v)) if len(adj[v]) else {(v, 3)}
            got = set(zip(s.neighbors[v].tolist(), s.relations[v].tolist()))
            assert got <= allowed


class TestSamplerProperties:
    """The sampling rule of the graph module docstring, checked over RUNS seeds."""

    def test_inclusion_rate_is_k_over_degree(self):
        # entity 0 has 10 distinct pairs; each of K = 4 draws without replacement
        adj = _adjacency([[0, i % 3, i] for i in range(1, 11)], 11)
        counts = dict.fromkeys(_pairs(adj, 0), 0)
        for row in _rows(adj, 0, K=4):
            assert len(set(row)) == 4
            for pair in row:
                counts[pair] += 1
        p = 4 / 10
        assert all(_near(c / RUNS, p, p * (1 - p)) for c in counts.values()), counts

    @pytest.mark.parametrize("K", [2, 8], ids=["without_replacement", "with_replacement"])
    def test_duplicate_triple_drawn_twice_as_often(self, K):
        # entity 0's pairs: (1, 0) twice, then (2, 0), (3, 1), (4, 2): degree 5
        adj = _adjacency([[0, 0, 1], [0, 0, 1], [0, 0, 2], [0, 1, 3], [0, 2, 4]], 5)
        twice = once = 0
        for row in _rows(adj, 0, K=K):
            twice += row.count((1, 0))
            once += row.count((2, 0))
        # copies of (1, 0) in a sample: hypergeometric (2 of 5, K drawn) for K <= 5,
        # binomial (K draws at 2/5) for K > 5; (2, 0) likewise with 1 of 5
        def variance(copies):
            p = copies / 5
            return K * p * (1 - p) * ((5 - K) / 4 if K <= 5 else 1)
        assert _near(twice / RUNS, 2 * K / 5, variance(2))
        assert _near(once / RUNS, K / 5, variance(1))

    def test_fewer_than_k_pairs_draw_with_replacement(self):
        # entity 0 has 3 pairs and K = 8: every draw is one of them, uniformly
        adj = _adjacency([[0, 0, 1], [2, 1, 0], [0, 2, 3]], 4)
        edges = set(_pairs(adj, 0))
        counts = dict.fromkeys(edges, 0)
        for row in _rows(adj, 0, K=8):
            assert set(row) <= edges
            for pair in row:
                counts[pair] += 1
        p = 1 / 3
        assert all(_near(c / (8 * RUNS), p, p * (1 - p) / 8) for c in counts.values()), counts

    def test_every_draw_is_an_edge_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for seed in range(200):
            E, K = int(rng.integers(1, 15)), int(rng.integers(1, 6))
            _, adj = random_graph(rng, E, 3, int(rng.integers(0, 2 * E)))
            s = sample_neighborhood(adj, K, seed, num_relations=3)
            assert s.neighbors.shape == s.relations.shape == (E, K)
            for v in range(E):
                row = list(zip(s.neighbors[v].tolist(), s.relations[v].tolist()))
                pairs = _pairs(adj, v)
                if not pairs:
                    assert row == [(v, 3)] * K
                elif len(pairs) >= K:   # a sub-multiset of v's pairs
                    assert all(row.count(x) <= pairs.count(x) for x in row)
                else:
                    assert set(row) <= set(pairs)

    def test_isolated_entities_get_k_self_loops(self):
        adj = _adjacency([[0, 1, 2]], 5)   # entities 1, 3 and 4 have no pair
        for seed in range(50):
            s = sample_neighborhood(adj, K=3, seed=seed, num_relations=2)
            for v in (1, 3, 4):
                assert s.neighbors[v].tolist() == [v] * 3 and s.relations[v].tolist() == [2] * 3

    @pytest.mark.parametrize("E", [0, 4])
    def test_empty_kg(self, E):
        adj = build_adjacency(np.empty((0, 3), dtype=np.int64), E)
        s = sample_neighborhood(adj, K=2, seed=1, num_relations=0)
        assert s.neighbors.shape == s.relations.shape == (E, 2)
        assert s.neighbors.tolist() == [[v, v] for v in range(E)]
        assert s.relations.tolist() == [[0, 0]] * E


def _child_entities(layers, h):
    """The (n_h, K) entities of hop h's sampled children: the deepest hop's
    children are entity ids, the others point at hop h + 1's nodes."""
    child = layers.children[h]
    return child if h == len(layers.children) - 1 else layers.ent_layers[h + 1][child]


def _record_tree(layers, b, H):
    """Record b's K-ary tree walked through the nodes' children: (entities,
    relations) per hop, in the order of receptive_tree."""
    nodes = np.array([layers.inverse[b]])
    ents, rels = [layers.ent_layers[0][nodes].tolist()], [[]]
    for h in range(H):
        rels.append(layers.rel_layers[h + 1][nodes].ravel().tolist())
        ents.append(_child_entities(layers, h)[nodes].ravel().tolist())
        nodes = layers.children[h][nodes].ravel()
    return ents, rels


class TestReceptiveField:
    """batched_layers: each hop's distinct (user, entity) nodes, down to hop
    H - 1, whose children are rows of the entity table."""

    def test_depth_zero(self):
        adj = _adjacency([[0, 0, 1]], 2)
        s = sample_neighborhood(adj, K=2, seed=0, num_relations=1)
        layers = batched_layers(s, [0], [0], H=0)
        assert [e.tolist() for e in layers.ent_layers] == [[0]]
        assert layers.children == [] and layers.inverse.tolist() == [0]

    def test_two_hop_layer_sizes(self):
        rng = np.random.default_rng(2)
        _, adj = random_graph(rng, 10, 2, 25)
        s = sample_neighborhood(adj, K=2, seed=0, num_relations=2)
        layers = batched_layers(s, [0], [4], H=2)
        tree, _ = receptive_tree(s, 4, H=2)
        sizes = [e.size for e in layers.ent_layers] + [np.unique(layers.children[1]).size]
        assert sizes == [len(set(t)) for t in tree]

    def test_single_neighbor_repeats(self):
        adj = _adjacency([[0, 0, 1]], 2)
        s = sample_neighborhood(adj, K=3, seed=0, num_relations=1)
        # forced by with-replacement sampling; the sampler's own output is the
        # reference for what layer 1 must contain
        assert s.neighbors.tolist() == [[1, 1, 1], [0, 0, 0]]
        layers = batched_layers(s, [0], [0], H=2)
        assert layers.ent_layers[1].tolist() == [1]
        assert layers.children[0].tolist() == [[0, 0, 0]]
        assert layers.children[1].tolist() == [[0, 0, 0]]

    def test_shape_law(self):
        rng = np.random.default_rng(3)
        for K in (1, 2, 4, 8):
            for H in (0, 1, 2, 3):
                _, adj = random_graph(rng, 12, 3, 30)
                s = sample_neighborhood(adj, K=K, seed=0, num_relations=3)
                users, items = rng.integers(3, size=5), rng.integers(12, size=5)
                layers = batched_layers(s, users, items, H)
                assert len(layers.ent_layers) == max(H, 1) and len(layers.children) == H
                for h, ents in enumerate(layers.ent_layers):
                    assert ents.shape == layers.node_users[h].shape == (ents.size,)
                for h, child in enumerate(layers.children):
                    n = layers.ent_layers[h].size
                    assert child.shape == layers.rel_layers[h + 1].shape == (n, K)
                    rows = layers.ent_layers[h + 1].size if h < H - 1 else 12
                    assert 0 <= child.min() and child.max() < rows

    @pytest.mark.parametrize("H", [0, 1, 2, 3])
    def test_deepest_children_are_entity_ids(self, H):
        rng = np.random.default_rng(5)
        _, adj = random_graph(rng, 12, 3, 30)
        s = sample_neighborhood(adj, K=3, seed=1, num_relations=3)
        layers = batched_layers(s, [0, 2, 0, 1], [5, 5, 2, 11], H)
        # hop 0 keeps its nodes at every depth, because inverse maps records onto them
        assert len(layers.ent_layers) == len(layers.node_users) == max(H, 1)
        if H:
            assert np.array_equal(layers.children[H - 1], s.neighbors[layers.ent_layers[H - 1]])

    def test_membership_in_sample(self):
        rng = np.random.default_rng(4)
        _, adj = random_graph(rng, 12, 3, 30)
        s = sample_neighborhood(adj, K=3, seed=2, num_relations=3)
        layers = batched_layers(s, [0, 1, 0], [5, 5, 2], H=3)
        for h, parents in enumerate(layers.ent_layers):
            assert np.array_equal(_child_entities(layers, h), s.neighbors[parents])
            assert np.array_equal(layers.rel_layers[h + 1], s.relations[parents])
        for h in range(2):   # the children that are nodes keep their parent's user
            assert np.array_equal(layers.node_users[h + 1][layers.children[h]],
                                  np.repeat(layers.node_users[h][:, None], 3, axis=1))

    def test_batched_layers_match_per_item_fields(self):
        rng = np.random.default_rng(8)
        _, adj = random_graph(rng, 10, 2, 25)
        s = sample_neighborhood(adj, K=2, seed=0, num_relations=2)
        users, items = np.array([2, 0, 2, 2]), np.array([0, 3, 7, 0])
        layers = batched_layers(s, users, items, H=2)
        for b, v in enumerate(items):
            assert _record_tree(layers, b, H=2) == receptive_tree(s, v, H=2)


class TestDistinctLayers:
    """Every node of batched_layers is a distinct (user, entity) pair of its hop."""

    def _sample(self):
        rng = np.random.default_rng(9)
        triples, _ = random_graph(rng, 12, 3, 20)
        # entity 12 has no triple: its sample is K self-loops
        s = sample_neighborhood(build_adjacency(triples, 13), K=3, seed=4, num_relations=3)
        items = np.array([5, 0, 5, 12, int(s.neighbors[5, 0]), 0, 5, 0])
        users = np.array([4, 4, 4, 4, 4, 4, 1, 1])
        return s, users, items

    def test_each_entity_once_per_hop(self):
        s, users, items = self._sample()
        layers = batched_layers(s, users, items, H=3)
        assert layers.user_idx.tolist() == [1, 4]
        for h, ents in enumerate(layers.ent_layers):
            pairs = list(zip(layers.user_idx[layers.node_users[h]].tolist(), ents.tolist()))
            reached = {(int(u), e) for u, v in zip(users, items)
                       for e in receptive_tree(s, v, H=3)[0][h]}
            assert pairs == sorted(reached)

    def test_children_map_back_to_sample(self):
        s, users, items = self._sample()
        layers = batched_layers(s, users, items, H=3)
        assert np.array_equal(layers.ent_layers[0][layers.inverse], items)
        assert np.array_equal(layers.user_idx[layers.node_users[0][layers.inverse]], users)
        for h, parents in enumerate(layers.ent_layers):
            assert np.array_equal(_child_entities(layers, h), s.neighbors[parents])
            assert np.array_equal(layers.rel_layers[h + 1], s.relations[parents])

    def test_users_never_share_a_node(self):
        s, users, items = self._sample()
        layers = batched_layers(s, users, items, H=3)
        # items 5 and 0 are scored for both users: each gets its own nodes
        for h in range(2):   # hops 1 and 2 are nodes; hop 3 is the shared entity table
            parent_users = np.repeat(layers.node_users[h][:, None], 3, axis=1)
            assert np.array_equal(layers.node_users[h + 1][layers.children[h]], parent_users)
        assert layers.inverse[0] != layers.inverse[6] and layers.inverse[1] != layers.inverse[7]
        assert layers.inverse[0] == layers.inverse[2] and layers.inverse[1] == layers.inverse[5]

    def test_isolated_entity_is_its_own_child(self):
        s, _, _ = self._sample()
        layers = batched_layers(s, np.array([4]), np.array([12]), H=2)
        assert [e.tolist() for e in layers.ent_layers] == [[12]] * 2
        assert [c.tolist() for c in layers.children] == [[[0, 0, 0]], [[12, 12, 12]]]
        assert layers.rel_layers[1].tolist() == [[3, 3, 3]]

    def test_dedupe_by_table_and_by_sort_agree(self):
        keys = np.random.default_rng(10).integers(50, size=(30, 4))
        by_table, by_sort = _distinct(keys, 50), _distinct(keys, 10 ** 6)
        assert by_table[0].tolist() == by_sort[0].tolist() == sorted(set(keys.ravel().tolist()))
        assert by_table[1].shape == by_sort[1].shape == keys.shape
        assert np.array_equal(by_table[1], by_sort[1])
        assert np.array_equal(by_table[0][by_table[1]], keys)
